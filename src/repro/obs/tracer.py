"""The :class:`Tracer`: translates engine hook calls into schema events.

Kept apart from the hook in :mod:`repro.obs.trace` so that the engines,
which import the hook, do not load the event schema until a run is traced.
"""

from __future__ import annotations

from .events import (
    Apply,
    BlameEvent,
    Collapse,
    Install,
    MediatorDef,
    Merge,
    RunEnd,
    RunStart,
    describe_mediator,
)


class Tracer:
    """Translates engine hook calls into schema events on a sink."""

    __slots__ = ("sink", "program", "_ids", "_next", "_size",
                 "_last_apply_step", "_last_apply_m")

    def __init__(self, sink, program: str | None = None):
        self.sink = sink
        self.program = program
        self._ids: dict = {}
        self._next = 0
        self._size = None  # the running policy's size(), set by run_start
        self._last_apply_step = -1
        self._last_apply_m: int | None = None

    # -- mediator identity --------------------------------------------------

    def mediator_id(self, m: object) -> int:
        """The small-int id of ``m``, emitting its definition on first sight."""
        try:
            ident = self._ids.get(m)
            key = m
        except TypeError:  # unhashable mediator: fall back to object identity
            key = id(m)
            ident = self._ids.get(key)
        if ident is None:
            ident = self._next
            self._next += 1
            self._ids[key] = ident
            size = None
            if self._size is not None:
                try:
                    size = self._size(m)
                except Exception:
                    size = None
            text, size, labels = describe_mediator(m, size)
            self.sink.emit(MediatorDef(ident, text, size, labels).to_dict())
        return ident

    # -- engine hooks --------------------------------------------------------

    def run_start(self, engine: str, policy) -> None:
        """A run began; ``policy`` supplies calculus, backend, and sizes."""
        self._size = policy.size
        self._last_apply_step = -1
        self._last_apply_m = None
        self.sink.emit(
            RunStart(engine, policy.name, policy.mediator, self.program).to_dict()
        )

    def install(self, step: int, m: object, pending: int, pending_size: int) -> None:
        self.sink.emit(
            Install(step, self.mediator_id(m), pending, pending_size).to_dict()
        )

    def merge(self, step: int, new: object, prev: object, merged: object,
              pending: int, pending_size: int) -> None:
        self.sink.emit(
            Merge(step, self.mediator_id(new), self.mediator_id(prev),
                  self.mediator_id(merged), pending, pending_size).to_dict()
        )

    def absorb(self, step: int, new: object, prev: object, merged: object,
               pending: int, pending_size: int) -> None:
        """A proxy mediator composed into a coercion at an apply site.

        Emits the same ``merge`` event (the composition *is* provenance) and
        marks ``merged`` as the mediator about to be applied, so blame raised
        by the application lands on the composed mediator.
        """
        mid = self.mediator_id(merged)
        self.sink.emit(
            Merge(step, self.mediator_id(new), self.mediator_id(prev), mid,
                  pending, pending_size).to_dict()
        )
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def collapse(self, step: int, m: object, pending: int, pending_size: int) -> None:
        """A pending mediator left the continuation and is about to apply."""
        mid = self.mediator_id(m)
        self.sink.emit(Collapse(step, mid, pending, pending_size).to_dict())
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def apply(self, step: int, m: object) -> None:
        mid = self.mediator_id(m)
        self._last_apply_step = step
        self._last_apply_m = mid
        self.sink.emit(Apply(step, mid).to_dict())

    def blame(self, step: int, label) -> None:
        m = self._last_apply_m if self._last_apply_step == step else None
        self.sink.emit(BlameEvent(step, str(label), m).to_dict())

    def run_end(self, outcome: str, stats: dict) -> None:
        self.sink.emit(RunEnd(outcome, stats.get("steps", 0), stats).to_dict())
