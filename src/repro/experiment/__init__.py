"""The rational-programmer blame evaluation subsystem.

Lazarek et al.'s *rational programmer* method (ICFP 2021), instantiated for
the paper's enforcement semantics: plant one type-level fault with a known
ground-truth culprit (:mod:`.inject`), enumerate or sample the migration
lattice of typed↔untyped splits of the program's bindings (:mod:`.lattice`),
and follow the blame label from configuration to configuration — typing the
blamed binding each step — until the fault is localized or the trail dies
(:mod:`.driver`).  Trail lengths and localization rates per semantics are
the experiment's measurements: they quantify whether λS blame is *useful*,
not merely sound.

Entry points: ``repro-gradual experiment`` (CLI),
:func:`~repro.experiment.driver.run_experiment` (library), and
``benchmarks/bench_blame.py`` (the ``BENCH_blame.json`` artifact).
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "driver": ("STRATEGY_BLAME", "STRATEGY_NULL", "ExperimentConfig", "Trail",
               "follow_trail", "run_experiment", "strategy_for"),
    "inject": ("Fault", "apply_fault", "enumerate_faults", "sample_faults"),
    "lattice": ("Binding", "ProgramLattice", "enumerate_configurations",
                "render_configuration"),
})

__all__ = [
    "Binding",
    "ExperimentConfig",
    "Fault",
    "ProgramLattice",
    "STRATEGY_BLAME",
    "STRATEGY_NULL",
    "Trail",
    "apply_fault",
    "enumerate_configurations",
    "enumerate_faults",
    "follow_trail",
    "render_configuration",
    "run_experiment",
    "sample_faults",
    "strategy_for",
]
