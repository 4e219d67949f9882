"""Threesomes (labeled types) of Siek & Wadler (2010).

Originally the §6.1 baseline (representation + composition, validated against
λS's ``#``); :mod:`repro.threesomes.runtime` additionally makes threesomes a
first-class *runtime* mediator backend for the CEK machine and the bytecode
VM (``mediator="threesome"``), interned and memoised exactly like canonical
coercions.
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "compose": ("compose_labeled",),
    "labeled_types": ("DYN_LABELED", "LArrow", "LBase", "LDyn", "LFail", "LProd",
                      "LabeledType", "ground_of_labeled", "top_label", "with_top_label"),
    "runtime": ("Threesome", "coercion_of_threesome", "compose_labeled_memo",
                "compose_labeled_memo_stats", "compose_threesome", "intern_labeled",
                "intern_threesome", "is_identity_threesome", "is_interned_labeled",
                "is_interned_threesome", "labeled_size", "source_type_of",
                "target_type_of", "threesome_of_coercion", "threesome_size"),
    "translate": ("coercion_of_labeled", "labeled_of_cast", "labeled_of_coercion"),
})

__all__ = [
    "compose_labeled",
    "DYN_LABELED",
    "LArrow",
    "LBase",
    "LDyn",
    "LFail",
    "LProd",
    "LabeledType",
    "ground_of_labeled",
    "top_label",
    "with_top_label",
    "coercion_of_labeled",
    "labeled_of_cast",
    "labeled_of_coercion",
    "Threesome",
    "coercion_of_threesome",
    "compose_labeled_memo",
    "compose_labeled_memo_stats",
    "compose_threesome",
    "intern_labeled",
    "intern_threesome",
    "is_identity_threesome",
    "is_interned_labeled",
    "is_interned_threesome",
    "labeled_size",
    "source_type_of",
    "target_type_of",
    "threesome_of_coercion",
    "threesome_size",
]
