"""A CEK-style abstract machine shared by the three calculi.

The machine is the implementation-level counterpart of the small-step
semantics (cf. Siek & Garcia 2012): environments and closures instead of
substitution, and an explicit continuation whose pending cast/coercion frames
make the space behaviour of gradually typed programs directly measurable.

The machine is generic over a :class:`repro.machine.policy.MediationPolicy`;
instantiating it with the λB, λC, or λS policy yields the three machines.
The λB and λC policies live here, next to their only machines; the λS
policies belong to the enforcement semantics the VMs run too.
The single policy-controlled difference that matters for space is whether a
newly pushed pending mediator is merged (``#``) into one already at the top
of the continuation — only the λS machine does this.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import EvaluationError
from ..core.intern import intern_type
from ..core.labels import Label
from ..core.ops import op_spec
from ..core.terms import (
    App,
    Blame,
    Cast,
    Coerce,
    Const,
    Fix,
    Fst,
    If,
    Lam,
    Let,
    Op,
    Pair,
    Snd,
    Term,
    Var,
)
from ..core.types import DynType, FunType, ProdType, Type, ground_of, is_ground, type_size
from ..lambda_c import coercions as co_c
from ..obs.trace import current_tracer
from .frames import (
    Frame,
    KAppArg,
    KAppFun,
    KCallWith,
    KFix,
    KFst,
    KIf,
    KLet,
    KMediate,
    KOp,
    KPairLeft,
    KPairRight,
    KSnd,
)
from .policy import MachineBlame, MediationPolicy, project_pair
from .profiler import MachineStats
from .values import (
    Environment,
    MachineOutcome,
    MachineValue,
    MClosure,
    MConst,
    MFixWrap,
    MPair,
    MProxy,
)

from ..core.fuel import DEFAULT_MACHINE_FUEL


class CEKMachine:
    """The shared machine driver.

    Use :data:`repro.machine.MACHINE_B`, :data:`MACHINE_C`, or
    :data:`MACHINE_S`, or build one from a custom policy.
    """

    def __init__(self, policy: MediationPolicy):
        self.policy = policy

    # -- public API ---------------------------------------------------------

    def run(self, term: Term, fuel: int = DEFAULT_MACHINE_FUEL) -> MachineOutcome:
        """Run a closed term to an outcome, collecting space statistics."""
        stats = MachineStats()
        policy = self.policy
        # The observability hook: fetched once per run; every hook below is
        # behind one `is not None` test, so untraced runs pay ~nothing.  The
        # tracer never mutates `stats`, so traced outcomes are bit-identical.
        tracer = current_tracer()
        if tracer is not None:
            tracer.run_start("machine", policy)
        env = Environment.empty()
        kont: list[Frame] = []

        control: Term | None = term
        value: MachineValue | None = None
        mode_eval = True

        try:
            for _ in range(fuel):
                stats.steps += 1
                stats.note_depth(len(kont))

                if mode_eval:
                    term_now = control
                    if isinstance(term_now, Const):
                        value, mode_eval = MConst(term_now.value, term_now.type), False
                    elif isinstance(term_now, Var):
                        value, mode_eval = env.lookup(term_now.name), False
                    elif isinstance(term_now, Lam):
                        value, mode_eval = (
                            MClosure(term_now.param, term_now.param_type, term_now.body, env),
                            False,
                        )
                    elif isinstance(term_now, Blame):
                        snapshot = stats.snapshot()
                        if tracer is not None:
                            tracer.blame(stats.steps, term_now.label)
                            tracer.run_end("blame", snapshot)
                        return MachineOutcome("blame", label=term_now.label, stats=snapshot)
                    elif isinstance(term_now, Op):
                        if not term_now.args:
                            spec = op_spec(term_now.op)
                            value, mode_eval = MConst(spec.apply(()), spec.result_type), False
                        else:
                            kont.append(
                                KOp(term_now.op, (), tuple(term_now.args[1:]), env)
                            )
                            control = term_now.args[0]
                    elif isinstance(term_now, App):
                        kont.append(KAppFun(term_now.arg, env))
                        control = term_now.fun
                    elif isinstance(term_now, If):
                        kont.append(KIf(term_now.then_branch, term_now.else_branch, env))
                        control = term_now.cond
                    elif isinstance(term_now, Let):
                        kont.append(KLet(term_now.name, term_now.body, env))
                        control = term_now.bound
                    elif isinstance(term_now, Fix):
                        kont.append(KFix(term_now.fun_type))
                        control = term_now.fun
                    elif isinstance(term_now, Pair):
                        kont.append(KPairLeft(term_now.right, env))
                        control = term_now.left
                    elif isinstance(term_now, Fst):
                        kont.append(KFst())
                        control = term_now.arg
                    elif isinstance(term_now, Snd):
                        kont.append(KSnd())
                        control = term_now.arg
                    elif isinstance(term_now, (Cast, Coerce)):
                        if not policy.is_mediation_node(term_now):
                            raise EvaluationError(
                                f"the λ{policy.name} machine cannot interpret {term_now!r}"
                            )
                        self._push_mediator(kont, policy.term_mediator(term_now), stats, tracer)
                        control = term_now.subject
                    else:
                        raise EvaluationError(f"unknown term node: {term_now!r}")
                    continue

                # Apply mode: feed `value` to the top continuation frame.
                if not kont:
                    snapshot = stats.snapshot()
                    if tracer is not None:
                        tracer.run_end("value", snapshot)
                    return MachineOutcome("value", value=value, stats=snapshot)
                frame = kont.pop()

                if isinstance(frame, KMediate):
                    stats.pop_mediator(policy.size(frame.mediator))
                    stats.mediator_applications += 1
                    if tracer is not None:
                        tracer.collapse(stats.steps, frame.mediator,
                                        stats.pending_mediators, stats.pending_size)
                    value = policy.apply(value, frame.mediator)
                elif isinstance(frame, KAppFun):
                    kont.append(KAppArg(value))
                    control, env, mode_eval = frame.arg, frame.env, True
                elif isinstance(frame, KAppArg):
                    result = self._apply_function(frame.fun, value, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KCallWith):
                    result = self._apply_function(value, frame.arg, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KOp):
                    done = frame.done + (value,)
                    if frame.remaining:
                        kont.append(KOp(frame.op, done, frame.remaining[1:], frame.env))
                        control, env, mode_eval = frame.remaining[0], frame.env, True
                    else:
                        value = self._apply_op(frame.op, done)
                elif isinstance(frame, KIf):
                    if not isinstance(value, MConst) or not isinstance(value.value, bool):
                        raise EvaluationError(f"if-condition is not a boolean: {value!r}")
                    control = frame.then_branch if value.value else frame.else_branch
                    env, mode_eval = frame.env, True
                elif isinstance(frame, KLet):
                    control = frame.body
                    env, mode_eval = frame.env.extend(frame.name, value), True
                elif isinstance(frame, KFix):
                    wrapper = MFixWrap(value, frame.fun_type)
                    result = self._apply_function(value, wrapper, kont, stats, tracer)
                    if result is not None:
                        control, env, mode_eval = result
                elif isinstance(frame, KPairLeft):
                    kont.append(KPairRight(value))
                    control, env, mode_eval = frame.right, frame.env, True
                elif isinstance(frame, KPairRight):
                    value = MPair(frame.left, value)
                elif isinstance(frame, KFst):
                    value = project_pair(value, True, self.policy)
                elif isinstance(frame, KSnd):
                    value = project_pair(value, False, self.policy)
                else:  # pragma: no cover - defensive
                    raise EvaluationError(f"unknown continuation frame: {frame!r}")
        except MachineBlame as blame:
            snapshot = stats.snapshot()
            if tracer is not None:
                tracer.blame(stats.steps, blame.label)
                tracer.run_end("blame", snapshot)
            return MachineOutcome("blame", label=blame.label, stats=snapshot)

        snapshot = stats.snapshot()
        if tracer is not None:
            tracer.run_end("timeout", snapshot)
        return MachineOutcome("timeout", stats=snapshot)

    # -- helpers --------------------------------------------------------------

    def _push_mediator(self, kont: list[Frame], mediator: object,
                       stats: MachineStats, tracer=None) -> None:
        policy = self.policy
        if (
            policy.merges_pending_mediators
            and kont
            and isinstance(kont[-1], KMediate)
        ):
            existing = kont[-1].mediator
            merged = policy.compose(mediator, existing)
            stats.replace_mediator(policy.size(existing), policy.size(merged))
            kont[-1] = KMediate(merged)
            if tracer is not None:
                tracer.merge(stats.steps, mediator, existing, merged,
                             stats.pending_mediators, stats.pending_size)
            return
        kont.append(KMediate(mediator))
        stats.push_mediator(policy.size(mediator))
        if tracer is not None:
            tracer.install(stats.steps, mediator,
                           stats.pending_mediators, stats.pending_size)

    def _apply_function(
        self,
        fun: MachineValue,
        arg: MachineValue,
        kont: list[Frame],
        stats: MachineStats,
        tracer=None,
    ) -> tuple[Term, Environment, bool] | None:
        """Apply ``fun`` to ``arg``; returns a new (control, env, eval-mode) triple
        when evaluation should continue with a term, or ``None`` when the caller
        should stay in apply mode (never happens currently — kept for clarity)."""
        policy = self.policy
        # Unwrap proxy layers: coerce the argument, defer the result coercion.
        while isinstance(fun, MProxy) and policy.is_fun_proxy(fun.mediator):
            dom, cod = policy.fun_parts(fun.mediator)
            stats.mediator_applications += 1
            if tracer is not None:
                tracer.apply(stats.steps, dom)
            arg = policy.apply(arg, dom)
            self._push_mediator(kont, cod, stats, tracer)
            fun = fun.under
        if isinstance(fun, MClosure):
            return fun.body, fun.env.extend(fun.param, arg), True
        if isinstance(fun, MFixWrap):
            # (fix V) W  →  (V (fix-wrapper)) W
            kont.append(KCallWith(arg))
            return self._apply_function(fun.functional, MFixWrap(fun.functional, fun.fun_type), kont, stats, tracer)
        raise EvaluationError(f"application of a non-function value: {fun!r}")

    def _apply_op(self, op: str, operands: tuple[MachineValue, ...]) -> MachineValue:
        spec = op_spec(op)
        raw = []
        for operand in operands:
            if not isinstance(operand, MConst):
                raise EvaluationError(f"operator {op!r} applied to a non-constant: {operand!r}")
            raw.append(operand.value)
        return MConst(spec.apply(raw), spec.result_type)


# ---------------------------------------------------------------------------
# λB: casts as mediators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CastMediator:
    """A λB cast ``A ⇒p B`` detached from its subject."""

    source: Type
    target: Type
    label: Label


class BlamePolicy(MediationPolicy):
    """The λB machine's mediation policy (casts, no merging)."""

    name = "B"
    merges_pending_mediators = False

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Cast)

    def term_mediator(self, term: Term) -> CastMediator:
        assert isinstance(term, Cast)
        # Interned types make the structural comparisons in `apply` cheap:
        # equal interned types are the same object, so `==` exits on identity.
        return CastMediator(intern_type(term.source), intern_type(term.target), term.label)

    def is_fun_proxy(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.source, FunType) and isinstance(mediator.target, FunType)

    def is_prod_proxy(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.source, ProdType) and isinstance(mediator.target, ProdType)

    def _is_injection(self, mediator: CastMediator) -> bool:
        return isinstance(mediator.target, DynType) and is_ground(mediator.source)

    def apply(self, value: MachineValue, m: CastMediator) -> MachineValue:
        source, target, label = m.source, m.target, m.label

        if source == target and not isinstance(source, (FunType, ProdType)):
            return value  # ι ⇒ ι and ? ⇒ ?
        if self.is_fun_proxy(m) or self.is_prod_proxy(m):
            return MProxy(value, m)
        if isinstance(target, DynType):
            if is_ground(source):
                return MProxy(value, m)
            ground = ground_of(source)
            staged = self.apply(value, CastMediator(source, ground, label))
            return self.apply(staged, CastMediator(ground, target, label))
        if isinstance(source, DynType):
            if not is_ground(target):
                ground = ground_of(target)
                staged = self.apply(value, CastMediator(source, ground, label))
                return self.apply(staged, CastMediator(ground, target, label))
            # Projection out of ?: the value must be an injected proxy.
            if isinstance(value, MProxy) and isinstance(value.mediator, CastMediator):
                inner = value.mediator
                if self._is_injection(inner):
                    if inner.source == target:
                        return value.under
                    raise MachineBlame(label)
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        raise EvaluationError(f"no cast rule applies to {m!r}")

    def fun_parts(self, m: CastMediator) -> tuple[CastMediator, CastMediator]:
        source, target = m.source, m.target
        assert isinstance(source, FunType) and isinstance(target, FunType)
        dom = CastMediator(target.dom, source.dom, m.label.complement())
        cod = CastMediator(source.cod, target.cod, m.label)
        return dom, cod

    def prod_parts(self, m: CastMediator) -> tuple[CastMediator, CastMediator]:
        source, target = m.source, m.target
        assert isinstance(source, ProdType) and isinstance(target, ProdType)
        left = CastMediator(source.left, target.left, m.label)
        right = CastMediator(source.right, target.right, m.label)
        return left, right

    def size(self, m: CastMediator) -> int:
        return 1 + type_size(m.source) + type_size(m.target)


# ---------------------------------------------------------------------------
# λC: coercions as mediators (no merging)
# ---------------------------------------------------------------------------


class CoercionPolicy(MediationPolicy):
    """The λC machine's mediation policy (Henglein coercions, no merging)."""

    name = "C"
    merges_pending_mediators = False

    def is_mediation_node(self, term: Term) -> bool:
        return isinstance(term, Coerce) and isinstance(term.coercion, co_c.Coercion)

    def term_mediator(self, term: Term) -> co_c.Coercion:
        assert isinstance(term, Coerce)
        return co_c.intern_coercion(term.coercion)

    def is_fun_proxy(self, mediator: co_c.Coercion) -> bool:
        return isinstance(mediator, co_c.FunCoercion)

    def is_prod_proxy(self, mediator: co_c.Coercion) -> bool:
        return isinstance(mediator, co_c.ProdCoercion)

    def apply(self, value: MachineValue, c: co_c.Coercion) -> MachineValue:
        if isinstance(c, co_c.Identity):
            return value
        if isinstance(c, co_c.Sequence):
            return self.apply(self.apply(value, c.first), c.second)
        if isinstance(c, co_c.Fail):
            raise MachineBlame(c.label)
        if isinstance(c, co_c.Project):
            if isinstance(value, MProxy) and isinstance(value.mediator, co_c.Inject):
                if value.mediator.ground == c.ground:
                    return value.under
                raise MachineBlame(c.label)
            raise EvaluationError(f"projection applied to a non-injected value: {value!r}")
        if isinstance(c, (co_c.FunCoercion, co_c.ProdCoercion, co_c.Inject)):
            return MProxy(value, c)
        raise EvaluationError(f"unknown coercion: {c!r}")

    def fun_parts(self, c: co_c.FunCoercion) -> tuple[co_c.Coercion, co_c.Coercion]:
        return c.dom, c.cod

    def prod_parts(self, c: co_c.ProdCoercion) -> tuple[co_c.Coercion, co_c.Coercion]:
        return c.left, c.right

    def size(self, c: co_c.Coercion) -> int:
        return co_c.size(c)


BLAME_POLICY = BlamePolicy()
COERCION_POLICY = CoercionPolicy()


#: The machines of the three calculi: casts (λB), coercions (λC), and
#: canonical coercions merged with ``#`` (λS).  ``MACHINE_S`` is the
#: registry's ``coercion`` machine (:mod:`repro.semantics`).
MACHINE_B = CEKMachine(BLAME_POLICY)
MACHINE_C = CEKMachine(COERCION_POLICY)
