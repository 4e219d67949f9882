"""λC — the coercion calculus of Figure 3 (Henglein's coercions with blame)."""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "coercions": ("Coercion", "Fail", "FunCoercion", "Identity", "Inject",
                  "ProdCoercion", "Project", "Sequence", "check_coercion",
                  "coercion_safe_for", "coercion_source", "coercion_target", "height",
                  "identity", "labels_of", "sequence", "size"),
    "reduction": ("run", "step", "trace"),
    "safety": ("mentioned_labels", "term_safe_for"),
    "syntax": ("coercions_in", "is_lambda_c_term", "is_value"),
    "typecheck": ("check", "type_of", "well_typed"),
})

__all__ = [
    "Coercion",
    "Fail",
    "FunCoercion",
    "Identity",
    "Inject",
    "ProdCoercion",
    "Project",
    "Sequence",
    "check_coercion",
    "coercion_safe_for",
    "coercion_source",
    "coercion_target",
    "height",
    "identity",
    "labels_of",
    "sequence",
    "size",
    "run",
    "step",
    "trace",
    "mentioned_labels",
    "term_safe_for",
    "coercions_in",
    "is_lambda_c_term",
    "is_value",
    "check",
    "type_of",
    "well_typed",
]
