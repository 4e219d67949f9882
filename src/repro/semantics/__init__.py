"""The enforcement-semantics registry: one source of truth for the backend axis.

The λS pipeline is parametric in *how* run-time enforcement happens — which
:class:`~repro.machine.policy.MediationPolicy` the machines execute, how a
canonical coercion is pre-interned into a constant pool, what id a ``.gradb``
image carries, and which string salts the compile-cache key.  Historically
that choice was a two-value string (``"coercion"``/``"threesome"``)
duplicated across per-module dispatch dicts; this package replaces all of
them with one registry keyed by semantics name:

``coercion``
    Natural enforcement via canonical space-efficient coercions merged with
    ``#`` — the paper's λS, and the certified default.
``threesome``
    Natural enforcement via threesomes ``⟨T ⇐P= S⟩`` merged with ``∘``
    (§6.1): observationally equal to ``coercion``, different representation.
``transient``
    Shallow ground-tag checks at use sites (:mod:`.transient`): space bound
    trivially preserved, blame may diverge from Natural by design.
``erasure``
    No enforcement at all (:mod:`.erasure`): never blames, all mediation
    elided at ``-O1``+ — the speed ceiling.

Consumers resolve through :func:`resolve` (or :func:`policy_for`); the
capability flags (``blames``, ``space_bounded``, ``natural``) drive the
oracle's expectations and the benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable

from .._lazy import attach
from ..core.errors import UsageError

if TYPE_CHECKING:
    from ..machine.cek import CEKMachine
    from ..machine.policy import MediationPolicy

__getattr__, __dir__ = attach(__name__, {
    "erasure": ("ERASED", "ERASURE_POLICY", "ErasedMediator", "ErasurePolicy"),
    "transient": ("TRANSIENT_POLICY", "TransientCheck", "TransientPolicy",
                  "compose_transient", "transient_of_coercion"),
}, submodules=("erasure", "transient"))


@dataclass(frozen=True)
class EnforcementSemantics:
    """One entry of the registry: everything the pipeline needs per backend.

    ``load`` returns the backend's runtime: the shared
    :class:`~repro.machine.policy.MediationPolicy` instance the machines,
    VMs, and optimizer all execute with (so ``is_identity``/``compose``
    agree by construction), and the function pooling a coercion.  It imports
    the backend's module, so it runs on first use of :attr:`policy` or
    :attr:`pre_intern`: a run imports the runtime of its own semantics only.
    :attr:`machine` is the CEK machine running the policy.  ``pre_intern``
    maps an *interned* canonical λS coercion to the node this backend pools
    (:meth:`ConstantPool.add_coercion` calls it once per distinct coercion).
    ``serialize_id`` is the provenance string written into ``.gradb``
    headers and ``cache_key`` the compile-cache axis — kept as separate
    fields so a representation change can version one without the other.

    Capability flags: ``blames`` — can a run ever end in blame;
    ``space_bounded`` — does the backend preserve the constant
    pending-mediator footprint (``max_pending_mediators ≤ 1`` on boundary
    tail loops); ``natural`` — full Natural (λS) enforcement, observationally
    interchangeable with the paper's semantics.
    """

    name: str
    load: Callable[[], tuple[MediationPolicy, Callable[[object], object]]]
    serialize_id: str
    cache_key: str
    blames: bool
    space_bounded: bool
    natural: bool

    @cached_property
    def policy(self) -> MediationPolicy:
        """The mediation policy executing this semantics (one shared instance)."""
        return self.load()[0]

    @cached_property
    def pre_intern(self) -> Callable[[object], object]:
        """The pooled node of an interned canonical coercion."""
        return self.load()[1]

    @cached_property
    def machine(self) -> CEKMachine:
        """The CEK machine running :attr:`policy` — the oracle of both VMs,
        built on first use so that a VM run never imports it."""
        from ..machine.cek import CEKMachine

        return CEKMachine(self.policy)


def _pool_coercion(s: object) -> object:
    return s  # already interned by add_coercion


def _coercion_runtime():
    from ..machine.policy import SPACE_POLICY

    return SPACE_POLICY, _pool_coercion


def _threesome_runtime():
    from ..threesomes.runtime import THREESOME_POLICY, threesome_of_coercion

    return THREESOME_POLICY, threesome_of_coercion


def _transient_runtime():
    from .transient import TRANSIENT_POLICY, transient_of_coercion

    return TRANSIENT_POLICY, transient_of_coercion


def _erasure_runtime():
    from .erasure import ERASURE_POLICY, erased_of_coercion

    return ERASURE_POLICY, erased_of_coercion


#: The registry, in presentation order (CLI choices, benchmark sweeps, and
#: the README matrix all follow it).
SEMANTICS: dict[str, EnforcementSemantics] = {
    sem.name: sem
    for sem in (
        EnforcementSemantics(
            name="coercion",
            load=_coercion_runtime,
            serialize_id="coercion",
            cache_key="coercion",
            blames=True,
            space_bounded=True,
            natural=True,
        ),
        EnforcementSemantics(
            name="threesome",
            load=_threesome_runtime,
            serialize_id="threesome",
            cache_key="threesome",
            blames=True,
            space_bounded=True,
            natural=True,
        ),
        EnforcementSemantics(
            name="transient",
            load=_transient_runtime,
            serialize_id="transient",
            cache_key="transient",
            blames=True,
            space_bounded=True,
            natural=False,
        ),
        EnforcementSemantics(
            name="erasure",
            load=_erasure_runtime,
            serialize_id="erasure",
            cache_key="erasure",
            blames=False,
            space_bounded=True,
            natural=False,
        ),
    )
}

#: All semantics names, in registry order.
SEMANTICS_NAMES: tuple[str, ...] = tuple(SEMANTICS)

#: The Natural (λS-observable) subset — the historical ``MEDIATORS`` pair.
NATURAL_SEMANTICS_NAMES: tuple[str, ...] = tuple(
    name for name, sem in SEMANTICS.items() if sem.natural
)


def resolve(name: str) -> EnforcementSemantics:
    """The registry entry for ``name``, or a :class:`UsageError` listing them."""
    sem = SEMANTICS.get(name)
    if sem is None:
        raise UsageError(
            f"unknown mediator/semantics {name!r}; expected one of {SEMANTICS_NAMES}"
        )
    return sem


def policy_for(name: str) -> MediationPolicy:
    """The mediation policy executing semantics ``name`` (via :func:`resolve`)."""
    return resolve(name).policy


__all__ = [
    "ERASED",
    "ERASURE_POLICY",
    "EnforcementSemantics",
    "ErasedMediator",
    "ErasurePolicy",
    "NATURAL_SEMANTICS_NAMES",
    "SEMANTICS",
    "SEMANTICS_NAMES",
    "TRANSIENT_POLICY",
    "TransientCheck",
    "TransientPolicy",
    "compose_transient",
    "policy_for",
    "resolve",
    "transient_of_coercion",
]
