"""The one front door for running gradual programs: ``RunConfig`` in, ``RunResult`` out.

Every execution entrypoint in the repo — ``repro-gradual run``, the batch
runner, the serve protocol, the experiment driver, and the legacy
``run_source``/``run_term`` kwarg shims in :mod:`repro.surface.interp` —
builds on the same two functions here:

* :func:`resolve_config` — the single validation path for the run knobs
  (engine, enforcement semantics, calculus, optimizer level, fuel, cache).
  It returns a *fully resolved* :class:`RunConfig`: the engine actually
  selected, the effective fuel, the IR the compiled engines will execute,
  and ``cache`` normalized to whether the run can actually cache.  Invalid
  combinations fail here, identically, no matter which entrypoint was used.
* :func:`run` — the façade: ``run(source_or_term, config)`` executes a
  surface program (a ``str``) or an elaborated λB term on the resolved
  configuration and returns a :class:`RunResult` that *carries* that
  configuration (plus the compile-cache status), so every record downstream
  is self-describing.

The legacy ``mediator=`` spelling of the semantics axis funnels through
exactly one deprecation site, :func:`reconcile_semantics`; nothing else in
the codebase interprets ``mediator`` anymore.

Example::

    from repro.api import RunConfig, run

    cfg = RunConfig(engine="vm", semantics="threesome", opt_level=2)
    result = run("((lambda ([x : int]) (* x x)) 6)", cfg)
    assert result.value == 36 and result.config.engine == "vm"
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .compiler.bytecode import DEFAULT_OPT_LEVEL, OPT_LEVELS
from .core.errors import UsageError
from .core.fuel import (
    DEFAULT_MACHINE_FUEL,
    DEFAULT_RVM_FUEL,
    DEFAULT_SUBST_FUEL,
    DEFAULT_VM_FUEL,
)
from .core.labels import Label
from .core.types import Type
from .obs.metrics import phase, record_run
from .semantics import SEMANTICS_NAMES

if TYPE_CHECKING:
    from .core.terms import Term

#: The four execution engines: the stack bytecode VM, the register VM
#: (packed-stream dispatch over the register IR — the fastest engine), the
#: CEK machine, and the substitution-based reference oracle.
#: :data:`~repro.semantics.SEMANTICS_NAMES` is the second axis: the
#: enforcement semantics of the λS machine and both VMs.
ENGINES = ("vm", "rvm", "machine", "subst")

#: The two compiled engines: λS only, ``opt_level`` applies, cacheable.
VM_ENGINES = ("vm", "rvm")

#: Default fuel per engine, in that engine's own step unit.  All four come
#: from :mod:`repro.core.fuel`, the single source of fuel defaults.
DEFAULT_FUEL = {
    "vm": DEFAULT_VM_FUEL,
    "rvm": DEFAULT_RVM_FUEL,
    "machine": DEFAULT_MACHINE_FUEL,
    "subst": DEFAULT_SUBST_FUEL,
}

#: The instruction representation each compiled engine executes; the tree
#: interpreters have none.
IR_FOR_ENGINE = {"vm": "stack", "rvm": "register"}


@dataclass(frozen=True)
class RunConfig:
    """Every knob of one program run, as a frozen value.

    ``engine`` × ``semantics`` × ``calculus`` select the backend (see the
    :mod:`repro.surface.interp` module docstring for the matrix);
    ``opt_level`` is the bytecode optimizer's ``-O`` level; ``fuel`` is the
    step budget (``None`` = the engine's default, filled in by
    :func:`resolve_config`); ``cache``/``cache_dir`` route compiled engines
    through the on-disk compile cache; ``ir`` names the compiled
    instruction representation (derived from the engine when ``None``);
    ``trace`` is a mediator-event sink — or a path to write JSON lines to —
    active for the duration of the run; ``metrics`` is a
    :class:`~repro.obs.metrics.MetricsRegistry` collecting phase timings
    and outcome counters.

    Instances are immutable; derive variants with ``dataclasses.replace``.
    """

    engine: str = "machine"
    semantics: str = "coercion"
    calculus: str = "S"
    opt_level: int = DEFAULT_OPT_LEVEL
    fuel: int | None = None
    cache: bool = False
    cache_dir: str | None = None
    ir: str | None = None
    trace: object = None
    metrics: object = None

    def describe(self) -> dict:
        """The JSON-ready projection of the configuration (the experiment
        records embed it); the unserializable sinks become booleans."""
        return {
            "engine": self.engine,
            "semantics": self.semantics,
            "calculus": self.calculus,
            "opt_level": self.opt_level,
            "fuel": self.fuel,
            "cache": self.cache,
            "ir": self.ir,
            "traced": self.trace is not None,
        }


_MEDIATOR_KWARG_NOTE = (
    "mediator= is deprecated; spell the enforcement semantics with "
    "semantics= (or RunConfig.semantics)"
)


def reconcile_semantics(semantics: str | None, mediator: str | None, *,
                        emit=None, conflict: str = "prefer-semantics") -> str | None:
    """Collapse the legacy ``mediator`` spelling into ``semantics``.

    This is the **only** place in the codebase that interprets the
    deprecated spelling: the ``mediator=`` kwargs of ``run_source`` /
    ``run_term`` / ``run_batch`` and the CLI ``--mediator`` flag all funnel
    here.  Returns the semantics name, or ``None`` when neither was given
    (callers apply their own default).

    ``emit`` overrides how the deprecation is reported (the CLI prints to
    stderr; the default is a :class:`DeprecationWarning`).  ``conflict``
    selects what happens when both spellings are given and disagree:
    ``"prefer-semantics"`` (the historical kwarg behavior — the new
    spelling wins) or ``"error"`` (the CLI behavior — a
    :class:`UsageError`).
    """
    if mediator is None:
        return semantics
    if emit is None:
        warnings.warn(_MEDIATOR_KWARG_NOTE, DeprecationWarning, stacklevel=3)
    else:
        emit(mediator)
    if semantics is not None and semantics != mediator:
        if conflict == "error":
            raise UsageError(
                f"--mediator {mediator} contradicts --semantics {semantics}; "
                "drop the deprecated --mediator flag"
            )
        return semantics
    return mediator


def resolve_config(config: RunConfig | None = None, **overrides) -> RunConfig:
    """Validate and complete a run configuration — the single validation path.

    Starts from ``config`` (or the default :class:`RunConfig`), applies any
    keyword ``overrides`` (field name → value; ``None`` overrides are
    ignored for the knobs whose ``None`` means "default"), and returns the
    fully-resolved configuration: calculus uppercased, fuel filled from the
    engine default, ``ir`` derived from the engine, and ``cache`` narrowed
    to the engines that can actually cache.  Raises exactly the errors the
    historical per-entrypoint validation raised: ``ValueError`` for an
    unknown engine, :class:`UsageError` for everything else.
    """
    base = config if config is not None else RunConfig()
    if overrides:
        base = replace(base, **overrides)

    engine = base.engine or "machine"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    calculus = (base.calculus or "S").upper()
    if base.semantics not in SEMANTICS_NAMES:
        raise UsageError(
            f"unknown semantics {base.semantics!r}; expected one of {SEMANTICS_NAMES}"
        )
    if base.opt_level not in OPT_LEVELS:
        raise UsageError(
            f"unknown optimization level {base.opt_level!r}; "
            f"expected one of {OPT_LEVELS}"
        )
    if engine in VM_ENGINES and calculus != "S":
        raise UsageError(
            f"engine {engine!r} implements λS only (requested calculus {calculus!r}); "
            "use engine='machine' for λB or λC"
        )
    if engine == "subst" and base.semantics != "coercion":
        raise UsageError(
            "engine 'subst' reduces coercion terms literally and supports "
            f"only the 'coercion' semantics (requested {base.semantics!r}); "
            "use engine='machine' or engine='vm'"
        )
    ir = IR_FOR_ENGINE.get(engine)
    if base.ir is not None and base.ir != ir:
        raise UsageError(
            f"ir {base.ir!r} does not apply to engine {engine!r}"
            + (f" (its IR is {ir!r})" if ir else " (tree interpreters have no IR)")
        )
    fuel = base.fuel if base.fuel is not None else DEFAULT_FUEL[engine]
    return replace(base, engine=engine, calculus=calculus, ir=ir, fuel=fuel,
                   cache=base.cache and engine in VM_ENGINES)


@dataclass(frozen=True)
class RunResult:
    """The outcome of running a surface program.

    ``kind`` is ``"value"``, ``"blame"``, or ``"timeout"``; the timeout shape
    is identical for every engine (``steps`` holds the fuel spent).
    ``config`` is the fully-resolved :class:`RunConfig` the run executed
    under (the engine actually used, the effective fuel and opt level) and
    ``cache_status`` the compile-cache disposition (``"hit"``, ``"miss"``,
    ``"recovered"``, or ``None`` when the run never touched the cache) — so
    a result is self-describing without re-deriving what ran.
    """

    kind: str  # 'value' | 'blame' | 'timeout'
    value: object = None
    blame_label: Label | None = None
    type: Type | None = None
    calculus: str = "S"
    engine: str = "machine"
    mediator: str = "coercion"
    space_stats: dict | None = None
    steps: int = 0
    cache_status: str | None = None
    config: RunConfig | None = None

    @property
    def semantics(self) -> str:
        """The enforcement semantics this run executed under (see
        :data:`repro.semantics.SEMANTICS`); an alias of ``mediator``."""
        return self.mediator

    @property
    def is_value(self) -> bool:
        return self.kind == "value"

    @property
    def is_blame(self) -> bool:
        return self.kind == "blame"

    @property
    def is_timeout(self) -> bool:
        return self.kind == "timeout"

    def __str__(self) -> str:  # pragma: no cover - presentation
        if self.kind == "value":
            return f"{self.value!r} : {self.type}"
        if self.kind == "blame":
            return f"blame {self.blame_label}"
        return f"timeout after {self.steps} {self.engine} steps"


def _from_machine_outcome(outcome, ty, calculus: str, engine: str,
                          mediator: str = "coercion",
                          config: RunConfig | None = None,
                          cache_status: str | None = None) -> RunResult:
    """Map a :class:`~repro.machine.MachineOutcome` (machine or VM) to a
    :class:`RunResult` — one code path so the outcome shapes stay uniform."""
    steps = (outcome.stats or {}).get("steps", 0)
    if outcome.is_value:
        return RunResult("value", outcome.python_value(), type=ty, calculus=calculus,
                         engine=engine, mediator=mediator, space_stats=outcome.stats,
                         steps=steps, cache_status=cache_status, config=config)
    if outcome.is_blame:
        return RunResult("blame", blame_label=outcome.label, type=ty, calculus=calculus,
                         engine=engine, mediator=mediator, space_stats=outcome.stats,
                         steps=steps, cache_status=cache_status, config=config)
    return RunResult("timeout", type=ty, calculus=calculus, engine=engine,
                     mediator=mediator, space_stats=outcome.stats, steps=steps,
                     cache_status=cache_status, config=config)


def _maybe_tracing(trace: object, program: str | None):
    """A ``tracing`` context for ``RunConfig.trace`` (sink or path), or a no-op."""
    from contextlib import nullcontext

    if trace is None:
        return nullcontext()
    from .obs import JsonLinesSink, tracing

    sink = JsonLinesSink(trace) if isinstance(trace, str) else trace
    return tracing(sink, program=program or "<api.run>")


def run(source_or_term, config: RunConfig | None = None, *,
        type: Type | None = None, source_hash: str | None = None,
        opcode_counts: dict | None = None, program_name: str | None = None,
        **overrides) -> RunResult:
    """Run a surface program (``str``) or an elaborated λB term.

    The single execution façade: resolves ``config`` (plus field
    ``overrides``) through :func:`resolve_config`, dispatches on the input
    kind, and returns a :class:`RunResult` carrying the resolved
    configuration.  For sources on a caching engine the compiled image is
    looked up in — and stored to — the on-disk compile cache, keyed on the
    source text; a warm run skips the whole front end.

    ``type`` (term inputs) is the term's static type, if known;
    ``source_hash`` (term inputs) addresses the compile cache when the term
    was compiled from known source; ``opcode_counts`` (compiled engines) is
    an optional dict filled with per-opcode dispatch counts;
    ``program_name`` labels the trace stream when ``config.trace`` is set.
    """
    cfg = resolve_config(config, **overrides)
    with _maybe_tracing(cfg.trace, program_name):
        if isinstance(source_or_term, str):
            return _run_source(source_or_term, cfg, opcode_counts)
        from .core.terms import Term

        if not isinstance(source_or_term, Term):
            raise TypeError(
                "run() takes surface source (str) or an elaborated λB Term, "
                f"got {source_or_term.__class__.__name__}"
            )
        return _run_term(source_or_term, type, cfg, source_hash, opcode_counts)


def _run_source(source: str, cfg: RunConfig, opcode_counts: dict | None) -> RunResult:
    """The source path: warm-cache fast path, else front end + term path."""
    metrics = cfg.metrics
    if cfg.cache:
        from .compiler.cache import cache_lookup
        from .compiler.serialize import source_fingerprint

        source_hash = source_fingerprint(source)
        image = cache_lookup(source_hash, cfg.opt_level, cfg.semantics,
                             cfg.cache_dir, cfg.ir, metrics=metrics)
        if image is not None:
            if cfg.engine == "rvm":
                from .compiler.rvm import run_rcode

                with phase(metrics, "run"):
                    outcome = run_rcode(image.rcode, cfg.fuel,
                                        opcode_counts=opcode_counts)
            else:
                from .compiler.vm import run_code

                with phase(metrics, "run"):
                    outcome = run_code(image.code, cfg.fuel,
                                       opcode_counts=opcode_counts)
            record_run(metrics, outcome.kind, outcome.stats, cfg.engine)
            return _from_machine_outcome(outcome, image.info.static_type, "S",
                                         cfg.engine, cfg.semantics, config=cfg,
                                         cache_status="hit")
    else:
        source_hash = None
    # Imported on a miss only: a cache hit never runs the front end.  The
    # late import also breaks the cycle (interp imports this module for its
    # shims) and keeps the front end monkeypatchable at
    # ``interp.compile_source``.
    from .surface import interp

    term, ty = interp.compile_source(source, metrics)
    return _run_term(term, ty, cfg, source_hash, opcode_counts)


def _run_term(term: Term, ty: Type | None, cfg: RunConfig,
              source_hash: str | None, opcode_counts: dict | None) -> RunResult:
    """The term path: compiled engines (optionally through the cache), the
    CEK machine, or the substitution oracle — all validated already."""
    metrics = cfg.metrics
    engine, semantics, calculus, fuel = cfg.engine, cfg.semantics, cfg.calculus, cfg.fuel

    if engine in VM_ENGINES:
        cache_status = None
        if cfg.cache:
            from .compiler.cache import cached_compile

            found = cached_compile(term, source_hash=source_hash, static_type=ty,
                                   mediator=semantics, opt_level=cfg.opt_level,
                                   cache_dir=cfg.cache_dir, ir=cfg.ir,
                                   metrics=metrics)
            if ty is None:
                ty = found.image.info.static_type
            cache_status = found.status
            if engine == "rvm":
                from .compiler.rvm import run_rcode

                with phase(metrics, "run"):
                    outcome = run_rcode(found.image.rcode, fuel,
                                        opcode_counts=opcode_counts)
            else:
                from .compiler.vm import run_code

                with phase(metrics, "run"):
                    outcome = run_code(found.image.code, fuel,
                                       opcode_counts=opcode_counts)
        elif engine == "rvm":
            from .compiler.rvm import compile_term_registers, run_rcode

            rcode = compile_term_registers(term, mediator=semantics,
                                           opt_level=cfg.opt_level, metrics=metrics)
            with phase(metrics, "run"):
                outcome = run_rcode(rcode, fuel, opcode_counts=opcode_counts)
        else:
            from .compiler.vm import compile_term, run_code

            code = compile_term(term, mediator=semantics, opt_level=cfg.opt_level,
                                metrics=metrics)
            with phase(metrics, "run"):
                outcome = run_code(code, fuel, opcode_counts=opcode_counts)
        record_run(metrics, outcome.kind, outcome.stats, engine)
        return _from_machine_outcome(outcome, ty, calculus, engine, semantics,
                                     config=cfg, cache_status=cache_status)

    if engine == "machine":
        from .machine import run_on_machine

        # run_on_machine validates the calculus × semantics combination.
        with phase(metrics, "run"):
            outcome = run_on_machine(term, calculus, fuel, mediator=semantics)
        record_run(metrics, outcome.kind, outcome.stats, engine)
        return _from_machine_outcome(outcome, ty, calculus, engine, semantics,
                                     config=cfg)

    from .lambda_b import reduction as reduction_b
    from .lambda_c import reduction as reduction_c
    from .lambda_s import reduction as reduction_s
    from .translate import b_to_c, c_to_s

    with phase(metrics, "run"):
        if calculus == "B":
            outcome = reduction_b.run(term, fuel)
        elif calculus == "C":
            outcome = reduction_c.run(b_to_c(term), fuel)
        elif calculus == "S":
            outcome = reduction_s.run(c_to_s(b_to_c(term)), fuel)
        else:
            raise ValueError(f"unknown calculus {calculus!r}")
    record_run(metrics, outcome.kind, {"steps": outcome.steps}, engine)
    if outcome.is_value:
        # Same projection as the machine/VM engines' python_value(), so every
        # engine's RunResult.value is directly comparable.
        from .properties.bisimulation import reducer_value_to_python

        value = reducer_value_to_python(outcome.term)
        return RunResult("value", value, type=ty, calculus=calculus, engine=engine,
                         steps=outcome.steps, config=cfg)
    if outcome.is_blame:
        return RunResult("blame", blame_label=outcome.label, type=ty,
                         calculus=calculus, engine=engine, steps=outcome.steps,
                         config=cfg)
    return RunResult("timeout", type=ty, calculus=calculus, engine=engine,
                     steps=outcome.steps, config=cfg)


__all__ = [
    "DEFAULT_FUEL",
    "ENGINES",
    "IR_FOR_ENGINE",
    "RunConfig",
    "RunResult",
    "VM_ENGINES",
    "reconcile_semantics",
    "resolve_config",
    "run",
]
