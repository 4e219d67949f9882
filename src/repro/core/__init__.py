"""Core infrastructure shared by λB, λC, and λS.

Submodules:

* :mod:`repro.core.types` — type structure, ground types, compatibility.
* :mod:`repro.core.labels` — blame labels with involutive complement.
* :mod:`repro.core.ops` — primitive operators with total meaning functions.
* :mod:`repro.core.terms` — the shared term AST and substitution.
* :mod:`repro.core.subtyping` — the four subtyping relations, safe casts, meet.
* :mod:`repro.core.env` — type environments.
* :mod:`repro.core.fuel` — the single source of default fuel budgets.
* :mod:`repro.core.errors` — the exception hierarchy.
* :mod:`repro.core.pretty` — pretty printers.
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "env": ("EMPTY_ENV", "TypeEnv"),
    "fuel": ("DEFAULT_MACHINE_FUEL", "DEFAULT_REDUCTION_FUEL", "DEFAULT_SUBST_FUEL",
             "DEFAULT_VM_FUEL"),
    "errors": ("BlameError", "CoercionTypeError", "EvaluationError", "FuelExhausted",
               "ParseError", "ReproError", "StuckError", "TypeCheckError"),
    "labels": ("BULLET", "Label", "LabelSupply", "label"),
    "ops": ("OPS", "OpSpec", "constant_type", "op_spec"),
    "subtyping": ("BOT", "BottomType", "cast_safe_for", "gradual_meet", "join", "meet",
                  "subtype", "subtype_naive", "subtype_neg", "subtype_pos"),
    "terms": ("App", "Blame", "Cast", "Coerce", "Const", "Fix", "Fst", "If", "Lam",
              "Let", "Op", "Pair", "Snd", "Term", "Var", "alpha_equal", "const_bool",
              "const_int", "const_str", "const_unit", "erase", "free_vars", "is_closed",
              "subst", "term_size"),
    "types": ("BOOL", "DYN", "GROUND_FUN", "GROUND_PROD", "INT", "STR", "UNIT",
              "BaseType", "DynType", "FunType", "ProdType", "Type", "compatible",
              "ground_of", "is_ground", "type_height"),
})

__all__ = [
    "EMPTY_ENV",
    "TypeEnv",
    "DEFAULT_MACHINE_FUEL",
    "DEFAULT_REDUCTION_FUEL",
    "DEFAULT_SUBST_FUEL",
    "DEFAULT_VM_FUEL",
    "BlameError",
    "CoercionTypeError",
    "EvaluationError",
    "FuelExhausted",
    "ParseError",
    "ReproError",
    "StuckError",
    "TypeCheckError",
    "BULLET",
    "Label",
    "LabelSupply",
    "label",
    "OPS",
    "OpSpec",
    "constant_type",
    "op_spec",
    "BOT",
    "BottomType",
    "cast_safe_for",
    "gradual_meet",
    "join",
    "meet",
    "subtype",
    "subtype_naive",
    "subtype_neg",
    "subtype_pos",
    "App",
    "Blame",
    "Cast",
    "Coerce",
    "Const",
    "Fix",
    "Fst",
    "If",
    "Lam",
    "Let",
    "Op",
    "Pair",
    "Snd",
    "Term",
    "Var",
    "alpha_equal",
    "const_bool",
    "const_int",
    "const_str",
    "const_unit",
    "erase",
    "free_vars",
    "is_closed",
    "subst",
    "term_size",
    "BOOL",
    "DYN",
    "GROUND_FUN",
    "GROUND_PROD",
    "INT",
    "STR",
    "UNIT",
    "BaseType",
    "DynType",
    "FunType",
    "ProdType",
    "Type",
    "compatible",
    "ground_of",
    "is_ground",
    "type_height",
]
