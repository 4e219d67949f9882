"""The tracer: the single hook point every engine consults.

Zero-cost-when-off is the contract.  The module holds one global,
``_ACTIVE`` (``None`` almost always); each engine's ``run()`` reads it
*once* into a local via :func:`current_tracer`, and every hook in the
dispatch loops is guarded by a single ``if tracer is not None`` attribute
test on that local.  Hooks live only at mediator lifecycle sites — install,
merge, collapse, apply, blame — never on the per-instruction path, so the
pending-mediator timeline is *exact* (pending counts change only at those
sites) at no per-dispatch cost.

The tracer never mutates :class:`~repro.machine.profiler.MachineStats` or
any engine state, so a traced run's outcome — value/blame/steps/space
profile — is bit-identical to the untraced run by construction (asserted by
the hypothesis property in ``tests/test_obs.py``).

Mediator identity: definitions are interned per tracer — hashable mediators
(all four families) dedupe structurally, so the canonical interned
mediators a λS loop re-merges every iteration define once and every later
event carries a small integer reference.

Usage::

    from repro.obs import ListSink, tracing

    sink = ListSink()
    with tracing(sink):
        result = run_source(source, engine="rvm")
    events = sink.events

This module must stay importable by the engines without a cycle: nothing
here (or in :mod:`repro.obs.events`) imports an engine module at top level.
The :class:`~repro.obs.tracer.Tracer` itself and the event schema load
only when tracing starts, so an untraced run never imports them.
"""

from __future__ import annotations

from contextlib import contextmanager

_ACTIVE = None


def current_tracer():
    """The active tracer, or ``None`` — the engines' single hook test."""
    return _ACTIVE


def activate(tracer) -> None:
    """Install ``tracer`` as the process-wide active tracer."""
    global _ACTIVE
    _ACTIVE = tracer


def deactivate() -> None:
    """Clear the active tracer."""
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def tracing(sink, program: str | None = None):
    """Trace every engine run in the ``with`` body into ``sink``.

    Restores the previously active tracer (if any) on exit and closes the
    sink.  Yields the :class:`Tracer` for inspection.
    """
    from .tracer import Tracer

    tracer = Tracer(sink, program=program)
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    try:
        yield tracer
    finally:
        _ACTIVE = previous
        sink.close()
