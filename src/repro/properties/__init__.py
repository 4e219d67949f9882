"""Executable checkers for the paper's metatheory.

Each module turns one of the paper's propositions or lemmas into a runnable
check used by the test suite and the benchmarks:

* :mod:`repro.properties.type_safety` — Proposition 3 (progress + preservation);
* :mod:`repro.properties.blame_safety` — Proposition 5 ("well-typed programs can't be blamed");
* :mod:`repro.properties.bisimulation` — Propositions 11 and 16;
* :mod:`repro.properties.equivalence` — Kleene equivalence and contextual probing
  (the executable face of Definition 6 and Propositions 12/18);
* :mod:`repro.properties.casts` — the Fundamental Property of Casts (Lemmas 20/21).
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "bisimulation": ("BisimulationReport", "check_lockstep_b_c", "check_outcomes_b_c_s",
                     "check_outcomes_c_s"),
    "blame_safety": ("BlameSafetyReport", "check_blame_safety", "labels_in_term"),
    "calculi": ("CALCULI", "LAMBDA_B", "LAMBDA_C", "LAMBDA_S", "CalculusOps"),
    "casts": ("FundamentalPropertyReport", "applicable", "candidate_mediating_types",
              "check_lemma20", "check_lemma21"),
    "equivalence": ("Observation", "contextually_equivalent", "kleene_equivalent",
                    "observations_equal", "probe_contexts"),
    "type_safety": ("TypeSafetyReport", "check_type_safety", "check_unique_type"),
})

__all__ = [
    "BisimulationReport",
    "check_lockstep_b_c",
    "check_outcomes_b_c_s",
    "check_outcomes_c_s",
    "BlameSafetyReport",
    "check_blame_safety",
    "labels_in_term",
    "CALCULI",
    "LAMBDA_B",
    "LAMBDA_C",
    "LAMBDA_S",
    "CalculusOps",
    "FundamentalPropertyReport",
    "applicable",
    "candidate_mediating_types",
    "check_lemma20",
    "check_lemma21",
    "Observation",
    "contextually_equivalent",
    "kleene_equivalent",
    "observations_equal",
    "probe_contexts",
    "TypeSafetyReport",
    "check_type_safety",
    "check_unique_type",
]
