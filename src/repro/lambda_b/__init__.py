"""λB — the blame calculus of Figure 1 (Wadler & Findler 2009, as recast by the paper)."""

from .._lazy import attach

# ``embed`` shares its name with its submodule, so it is bound eagerly: a
# lazy binding would be replaced by the module once ``lambda_b.embed`` is
# imported.
from .embed import embed

__getattr__, __dir__ = attach(__name__, {
    "reduction": ("Outcome", "run", "step", "trace"),
    "safety": ("cast_is_safe", "term_safe_for", "unsafe_labels"),
    "syntax": ("blames_in", "casts_in", "is_lambda_b_term", "is_value"),
    "typecheck": ("check", "type_of", "well_typed"),
})

__all__ = [
    "embed",
    "Outcome",
    "run",
    "step",
    "trace",
    "cast_is_safe",
    "term_safe_for",
    "unsafe_labels",
    "blames_in",
    "casts_in",
    "is_lambda_b_term",
    "is_value",
    "check",
    "type_of",
    "well_typed",
]
