"""Mediation policies: how each calculus's machine applies casts/coercions to values.

The three CEK machines share one driver (:mod:`repro.machine.cek`); the only
difference between them is how the mediators written in the program (casts in
λB, coercions in λC, canonical coercions in λS) act on run-time values, and —
crucially for space — whether two pending mediators on the continuation may
be merged into one.  Only the λS policy merges, using the composition
operator ``#``; that single difference is what turns the linear space growth
of the λB/λC machines into the constant pending-mediator footprint of the λS
machine (the benchmark ``benchmarks/bench_space.py`` measures exactly this).

This module holds the :class:`MediationPolicy` interface, the pieces both VMs
share with the machine, and the λS policy the VMs execute by default.  Every
other policy lives next to its only user or its runtime: the λB and λC
policies in :mod:`repro.machine.cek` (they drive ``MACHINE_B``/``MACHINE_C``
only), the threesome policy in :mod:`repro.threesomes.runtime`, and the
transient and erasure policies in :mod:`repro.semantics`.  A cached run
therefore imports the runtime of its own semantics and nothing else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.errors import EvaluationError
from ..core.labels import Label
from ..lambda_s import coercions as co_s
from .values import MachineValue, MPair, MProxy

if TYPE_CHECKING:
    from ..core.terms import Term


def project_pair(value: MachineValue, first: bool, policy: "MediationPolicy") -> MachineValue:
    """Project a pair, or a pair proxy through ``policy`` — shared by the CEK
    machine and both VMs."""
    if isinstance(value, MPair):
        return value.left if first else value.right
    if isinstance(value, MProxy) and policy.is_prod_proxy(value.mediator):
        left, right = policy.prod_parts(value.mediator)
        part = left if first else right
        return policy.apply(project_pair(value.under, first, policy), part)
    raise EvaluationError(f"projection of a non-pair value: {value!r}")


class MachineBlame(Exception):
    """Internal signal: applying a mediator allocated blame."""

    def __init__(self, label: Label):
        super().__init__(str(label))
        self.label = label


#: Action codes returned by :meth:`MediationPolicy.classify`: what applying a
#: mediator to a **non-proxy** value does.  ``ACT_IDENTITY`` — the value is
#: returned unchanged; ``ACT_WRAP`` — the value is wrapped in an
#: :class:`~repro.machine.values.MProxy` carrying the mediator;
#: ``ACT_GENERAL`` — anything else (blame, projection errors): callers must
#: fall back to :meth:`MediationPolicy.apply`.  The VM's inline mediator
#: caches (:mod:`repro.compiler.vm`) key these actions on interned mediator
#: identity so the steady-state hot loop replaces the policy's isinstance
#: ladder with one pointer compare.
ACT_IDENTITY, ACT_WRAP, ACT_GENERAL = 0, 1, 2


class MediationPolicy:
    """Interface implemented by the per-calculus policies."""

    name: str = "?"
    #: Which representation pending mediators use ("coercion" for the
    #: calculus-native one; "threesome" for labeled types, λS only).
    mediator: str = "coercion"
    merges_pending_mediators: bool = False

    def term_mediator(self, term: Term) -> object:
        raise NotImplementedError

    def is_mediation_node(self, term: Term) -> bool:
        raise NotImplementedError

    def apply(self, value: MachineValue, mediator: object) -> MachineValue:
        raise NotImplementedError

    def is_fun_proxy(self, mediator: object) -> bool:
        raise NotImplementedError

    def is_prod_proxy(self, mediator: object) -> bool:
        raise NotImplementedError

    def fun_parts(self, mediator: object) -> tuple[object, object]:
        raise NotImplementedError

    def prod_parts(self, mediator: object) -> tuple[object, object]:
        raise NotImplementedError

    def compose(self, first: object, second: object) -> object:
        raise NotImplementedError("this machine does not merge pending mediators")

    def size(self, mediator: object) -> int:
        raise NotImplementedError

    def is_identity(self, mediator: object) -> bool:
        """Is applying this mediator a no-op on *every* machine value?"""
        raise NotImplementedError

    def classify(self, mediator: object) -> int:
        """The ``ACT_*`` action of applying this mediator to a non-proxy value.

        Only merging policies (the VM backends) need this; conservative
        policies may answer :data:`ACT_GENERAL` for everything.
        """
        return ACT_GENERAL


# ---------------------------------------------------------------------------
# λS: canonical coercions as mediators, with merging
# ---------------------------------------------------------------------------


class SpacePolicy(MediationPolicy):
    """The λS machine's mediation policy: canonical coercions merged with ``#``."""

    name = "S"
    merges_pending_mediators = True

    def __init__(self) -> None:
        # Sizes of interned mediators, keyed by identity: interned nodes are
        # immortal, so the ids are stable.  The machine recomputes the size of
        # the same pending coercion on every push/merge; this makes it O(1).
        self._size_cache: dict[int, int] = {}

    def is_mediation_node(self, term: Term) -> bool:
        # Of all terms only ``Coerce`` has a ``coercion`` field; testing the
        # field rather than the class keeps :mod:`repro.core.terms` off the
        # import path of the VMs, which share this policy.
        return isinstance(getattr(term, "coercion", None), co_s.SpaceCoercion)

    def term_mediator(self, term: Term) -> co_s.SpaceCoercion:
        # Interning here keeps every mediator the machine ever holds canonical,
        # so the compose_memo cache below is hit on the node's identity.
        return co_s.intern_space(term.coercion)

    def is_fun_proxy(self, mediator: co_s.SpaceCoercion) -> bool:
        return isinstance(mediator, co_s.FunCo)

    def is_prod_proxy(self, mediator: co_s.SpaceCoercion) -> bool:
        return isinstance(mediator, co_s.ProdCo)

    def apply(self, value: MachineValue, s: co_s.SpaceCoercion) -> MachineValue:
        # A proxied value absorbs the new coercion by composition, so a value
        # never carries more than one mediator — the value-level counterpart
        # of merging pending continuation frames.
        if isinstance(value, MProxy) and isinstance(value.mediator, co_s.SpaceCoercion):
            return self.apply(value.under, co_s.compose_memo(value.mediator, s))
        if isinstance(s, (co_s.IdBase, co_s.IdDyn)):
            return value
        if isinstance(s, co_s.FailS):
            raise MachineBlame(s.label)
        if isinstance(s, co_s.Projection):
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        if isinstance(s, (co_s.FunCo, co_s.ProdCo, co_s.Injection)):
            return MProxy(value, s)
        raise EvaluationError(f"unknown canonical coercion: {s!r}")

    def fun_parts(self, s: co_s.FunCo) -> tuple[co_s.SpaceCoercion, co_s.SpaceCoercion]:
        return s.dom, s.cod

    def prod_parts(self, s: co_s.ProdCo) -> tuple[co_s.SpaceCoercion, co_s.SpaceCoercion]:
        return s.left, s.right

    def compose(self, first: co_s.SpaceCoercion, second: co_s.SpaceCoercion) -> co_s.SpaceCoercion:
        return co_s.compose_memo(first, second)

    def size(self, s: co_s.SpaceCoercion) -> int:
        if not co_s.is_interned_space(s):
            return co_s.size(s)
        cached = self._size_cache.get(id(s))
        if cached is None:
            cached = co_s.size(s)
            self._size_cache[id(s)] = cached
        return cached

    def is_identity(self, s: co_s.SpaceCoercion) -> bool:
        # The *canonical* identities (id? → id?, idι × idι, …) also act as
        # no-ops: their applications only wrap values in proxies whose parts
        # are identities again.  Used by the optimizer's static elision.
        return co_s.is_canonical_identity(s)

    def classify(self, s: co_s.SpaceCoercion) -> int:
        if isinstance(s, (co_s.IdBase, co_s.IdDyn)):
            return ACT_IDENTITY
        if isinstance(s, (co_s.FunCo, co_s.ProdCo, co_s.Injection)):
            return ACT_WRAP
        return ACT_GENERAL  # FailS blames, Projection errors — via apply()


SPACE_POLICY = SpacePolicy()
