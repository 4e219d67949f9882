"""In-memory spans around calls into the program's public functions.

The traced run wraps module attributes of the program from here, the
benchmark's own files; the program itself is not changed.  Every span
records its name, start, end, parent span and the operation it belongs to.
A layer's self time is its span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


#: Public functions of each layer, as ``(module, attribute, span name)``.
#: Callers import most of these inside the calling function, so replacing
#: the module attribute reaches them; ``vm.optimize``, ``cache.save_image``,
#: ``cache.load_image`` and ``serialize.compile_registers`` are the names the
#: callers bound at import time.  The last is the register allocation
#: ``serialize_image`` runs on a cache miss (``cached_compile`` then runs a
#: second one); without it that allocation would count as cache write.
LAYER_FUNCTIONS = (
    ("repro.surface.parser", "parse_program", "surface.parse"),
    ("repro.surface.cast_insertion", "elaborate_program", "surface.elaborate"),
    ("repro.translate", "b_to_c", "translate"),
    ("repro.translate", "c_to_s", "translate"),
    ("repro.compiler.lower", "lower_program", "compiler.lower"),
    ("repro.compiler.vm", "optimize", "compiler.optimize"),
    ("repro.compiler.regalloc", "compile_registers", "compiler.regalloc"),
    ("repro.compiler.serialize", "compile_registers", "compiler.regalloc"),
    ("repro.compiler.cache", "save_image", "cache.write"),
    ("repro.compiler.serialize", "serialize_image", "cache.write"),
    ("repro.compiler.cache", "load_image", "cache.read"),
    ("repro.compiler.serialize", "deserialize_image", "cache.decode"),
    ("repro.compiler.rvm", "run_rcode", "rvm.run"),
)


class Tracer:
    """Collects spans from any thread; each thread keeps its own stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        #: Per-call observers: span name -> callable(args, result), run after
        #: the span closes.
        self.observers: dict[str, object] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: int | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = parent.op
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, time.perf_counter(), 0.0,
                    parent.id if parent else None, op)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        # Restore what the owner itself held (a class keeps the descriptor,
        # say a classmethod, not the bound method getattr returns).
        held = vars(owner).get(attr, original)
        tracer = self

        @functools.wraps(original)
        def spanning(*args, **kwargs):
            with tracer.span(name):
                result = original(*args, **kwargs)
            observer = tracer.observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        self._patched.append((owner, attr, held))
        setattr(owner, attr, spanning)

    def wrap_layers(self) -> None:
        for module, attr, name in LAYER_FUNCTIONS:
            self.wrap(importlib.import_module(module), attr, name)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run on its thread, one after another, so their
    durations do not overlap and subtracting their sum is exact.
    """
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    """Total self time per span name, over all spans given."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)
