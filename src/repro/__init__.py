"""repro — a reproduction of "Blame and Coercion: Together Again for the First Time".

The package provides three calculi for gradual typing and the translations
between them:

* :mod:`repro.lambda_b` — the blame calculus λB (casts with blame labels);
* :mod:`repro.lambda_c` — the coercion calculus λC (Henglein coercions);
* :mod:`repro.lambda_s` — the space-efficient coercion calculus λS
  (canonical coercions with the composition operator ``#``);
* :mod:`repro.translate` — the translations ``|·|BC``, ``|·|CB``, ``|·|CS``,
  ``|·|SC`` and ``|·|BS``;
* :mod:`repro.core` — types, blame labels, subtyping, the shared term AST;
* :mod:`repro.surface` — a gradually typed surface language with cast
  insertion into λB;
* :mod:`repro.machine` — CEK-style abstract machines with space profiling;
* :mod:`repro.properties` — executable checkers for the paper's metatheory;
* :mod:`repro.threesomes`, :mod:`repro.supercoercions` — the related-work
  baselines of Section 6;
* :mod:`repro.gen` — random generators for property tests and benchmarks.

Every subpackage and re-exported name loads on first use (PEP 562; see
:mod:`repro._lazy`), so ``import repro`` is cheap and a cached
``repro-gradual run`` imports neither the oracles nor the front end.

Quickstart::

    from repro import surface, lambda_b, translate, lambda_s

    program = surface.parse("((lambda ([x : int]) (* x x)) (: 7 ?))")
    cast_term = surface.insert_casts(program)
    print(lambda_b.run(cast_term))                     # runs in λB
    print(lambda_s.run(translate.b_to_s(cast_term)))   # runs space-efficiently in λS
"""

from ._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "api": ("RunConfig", "RunResult", "resolve_config", "run"),
    "core.labels": ("Label", "label"),
    "core.types": ("BOOL", "DYN", "INT", "STR", "UNIT", "BaseType", "FunType",
                   "ProdType", "Type"),
}, submodules=(
    "api",
    "core",
    "gen",
    "lambda_b",
    "lambda_c",
    "lambda_s",
    "machine",
    "properties",
    "supercoercions",
    "surface",
    "threesomes",
    "translate",
))

__version__ = "0.7.0"

__all__ = [
    "api",
    "core",
    "gen",
    "lambda_b",
    "lambda_c",
    "lambda_s",
    "machine",
    "properties",
    "supercoercions",
    "surface",
    "threesomes",
    "translate",
    "BOOL",
    "DYN",
    "INT",
    "STR",
    "UNIT",
    "BaseType",
    "FunType",
    "Label",
    "ProdType",
    "RunConfig",
    "RunResult",
    "Type",
    "label",
    "resolve_config",
    "run",
    "__version__",
]
