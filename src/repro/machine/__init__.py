"""CEK-style abstract machines with space profiling.

* :data:`MACHINE_B` — interprets λB terms (casts, no merging of pending casts);
* :data:`MACHINE_C` — interprets λC terms (coercions, no merging);
* :data:`MACHINE_S` — interprets λS terms (canonical coercions, pending
  coercions merged with ``#`` — the space-efficient implementation).

``run_on_machine(term, "S")`` translates a λB term as needed and runs it on
the requested machine, returning the outcome together with the space
statistics of the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._lazy import attach
from ..core.errors import UsageError
from ..core.fuel import DEFAULT_MACHINE_FUEL

if TYPE_CHECKING:
    from ..core.terms import Term
    from .values import MachineOutcome

_export, _listed = attach(__name__, {
    "cek": ("CEKMachine", "MACHINE_B", "MACHINE_C", "BLAME_POLICY", "COERCION_POLICY",
            "BlamePolicy", "CastMediator", "CoercionPolicy"),
    "policy": ("SPACE_POLICY", "MediationPolicy", "SpacePolicy"),
    ".threesomes.runtime": ("THREESOME_POLICY", "ThreesomePolicy"),
    "profiler": ("MachineStats",),
    "values": ("Environment", "MachineOutcome", "MachineValue", "MClosure", "MConst",
               "MFixWrap", "MPair", "MProxy", "machine_value_to_python"),
})

#: Names backed by the enforcement-semantics registry, resolved on use:
#: binding them at import time would build CEK machines on every import.
#: ``MACHINE_S_THREESOME`` and ``MEDIATORS`` remain importable for
#: compatibility, but the registry is the source of truth.
_FROM_REGISTRY = ("MACHINE_S", "MACHINES", "MACHINE_S_THREESOME", "MEDIATORS")


def __getattr__(name: str):
    if name not in _FROM_REGISTRY:
        return _export(name)
    from ..semantics import NATURAL_SEMANTICS_NAMES, SEMANTICS
    from .cek import MACHINE_B, MACHINE_C

    machine_s = SEMANTICS["coercion"].machine
    globals().update(
        MACHINE_S=machine_s,
        MACHINES={"B": MACHINE_B, "C": MACHINE_C, "S": machine_s},
        MACHINE_S_THREESOME=SEMANTICS["threesome"].machine,
        MEDIATORS=NATURAL_SEMANTICS_NAMES,
    )
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(_listed()) | set(_FROM_REGISTRY))


def run_on_machine(
    term_b: Term,
    calculus: str = "S",
    fuel: int = DEFAULT_MACHINE_FUEL,
    mediator: str = "coercion",
) -> MachineOutcome:
    """Run a λB term on the machine of the chosen calculus.

    The term is translated with ``|·|BC`` (and ``|·|CS``) as required; pass
    ``"B"`` to run the casts directly.  ``mediator`` names the enforcement
    semantics of the λS machine — any entry of the
    :data:`~repro.semantics.SEMANTICS` registry (``"coercion"`` the Natural
    default, ``"threesome"``, ``"transient"``, ``"erasure"``); λB and λC
    only have their native cast/coercion form.
    """
    from ..semantics import resolve
    from ..translate import b_to_c, c_to_s
    from .cek import MACHINE_B, MACHINE_C

    calculus = calculus.upper()
    semantics = resolve(mediator)
    if mediator != "coercion" and calculus != "S":
        raise UsageError(
            f"the {mediator!r} enforcement semantics implements λS only "
            f"(requested calculus {calculus!r})"
        )
    if calculus == "B":
        return MACHINE_B.run(term_b, fuel)
    term_c = b_to_c(term_b)
    if calculus == "C":
        return MACHINE_C.run(term_c, fuel)
    if calculus == "S":
        return semantics.machine.run(c_to_s(term_c), fuel)
    raise ValueError(f"unknown calculus {calculus!r}; expected 'B', 'C', or 'S'")


__all__ = [
    "DEFAULT_MACHINE_FUEL",
    "CEKMachine",
    "MachineOutcome",
    "MachineStats",
    "BlamePolicy",
    "CoercionPolicy",
    "SpacePolicy",
    "ThreesomePolicy",
    "MediationPolicy",
    "CastMediator",
    "BLAME_POLICY",
    "COERCION_POLICY",
    "SPACE_POLICY",
    "THREESOME_POLICY",
    "MACHINE_B",
    "MACHINE_C",
    "MACHINE_S",
    "MACHINE_S_THREESOME",
    "MACHINES",
    "MEDIATORS",
    "run_on_machine",
    "Environment",
    "MachineValue",
    "MClosure",
    "MConst",
    "MFixWrap",
    "MPair",
    "MProxy",
    "machine_value_to_python",
]
