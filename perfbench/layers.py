"""Per-layer metrics of the traced run, and how they are derived.

Every workload's traced run reports every name in :data:`PER_LAYER`.  Layer
times are self times per operation of that workload, averaged over its
operations, so a layer the workload bypasses reads 0: that is the
prediction for the workload a change to that layer should not move.
``share.*`` divide a layer's self time by the operations' total time; the
``share.unattributed`` row is the time no span covers.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager

from common import SEMANTICS

_RVM_METRICS = (
    ("run_ms", "ms", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("mediator_applications", "count", "lower"),
    ("merges", "count", "lower"),
    ("inline_cache_hit_ratio", "ratio", "higher"),
    ("max_pending_mediators", "count", "lower"),
)

#: Share rows: name -> the span names (layer keys) it adds up.
SHARES = {
    "share.process": ("process.start",),
    "share.import": ("import",),
    "share.surface": ("surface.parse", "surface.elaborate"),
    "share.translate": ("translate",),
    "share.compiler": ("compiler.lower", "compiler.optimize", "compiler.regalloc"),
    "share.cache": ("cache.read", "cache.decode", "cache.write"),
    "share.rvm": ("rvm.run",),
    "share.experiment": ("experiment.plan", "experiment.dispatch"),
    "share.unattributed": ("op",),
}

#: Every per-layer metric: ``(name, unit, better)``.
PER_LAYER = (
    ("import.cli_ms", "ms", "lower"),
    ("import.repro_modules", "count", "lower"),
    ("process.bare_start_ms", "ms", "lower"),
    ("surface.parse_ms", "ms", "lower"),
    ("surface.tokens_per_s", "1/s", "higher"),
    ("surface.elaborate_ms", "ms", "lower"),
    ("translate.ms", "ms", "lower"),
    ("compiler.lower_ms", "ms", "lower"),
    ("compiler.optimize_ms", "ms", "lower"),
    ("compiler.regalloc_ms", "ms", "lower"),
    ("compiler.stack_insns", "count", "lower"),
    ("compiler.register_words", "count", "lower"),
    ("cache.read_ms", "ms", "lower"),
    ("cache.decode_ms", "ms", "lower"),
    ("cache.write_ms", "ms", "lower"),
    ("cache.image_bytes", "bytes", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    *(
        (f"rvm.{semantics}.{metric}", unit, better)
        for semantics in SEMANTICS
        for metric, unit, better in _RVM_METRICS
    ),
    ("experiment.plan_ms", "ms", "lower"),
    ("experiment.dispatch_ms", "ms", "lower"),
    ("experiment.configs_per_trail", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_ms", "ms", "lower"),
    ("host.calibration_ms", "ms", "lower"),
    *((name, "ratio", "lower") for name in SHARES),
)

#: Layer key -> the ``*_ms`` metric reporting its self time per operation.
_LAYER_MS = {
    "surface.parse": "surface.parse_ms",
    "surface.elaborate": "surface.elaborate_ms",
    "translate": "translate.ms",
    "compiler.lower": "compiler.lower_ms",
    "compiler.optimize": "compiler.optimize_ms",
    "compiler.regalloc": "compiler.regalloc_ms",
    "cache.read": "cache.read_ms",
    "cache.decode": "cache.decode_ms",
    "cache.write": "cache.write_ms",
    "op": "trace.unattributed_ms",
}


class LayerBook:
    """Accumulates what one traced run observed, then derives the metrics.

    ``seconds`` holds total self time per layer key over all traced
    operations (span names, plus keys a workload fills from child-process
    reports); ``op_seconds`` the operations' total time.
    """

    def __init__(self):
        self.ops = 0
        self.op_seconds = 0.0
        self.seconds: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self.parsed: list[str] = []
        self.ir = {"stack": [], "register": []}
        self.image_bytes: list[int] = []
        self.cache_lookups = 0
        self.cache_hits = 0
        self.rvm: dict[str, dict] = {}

    def add_seconds(self, key: str, seconds: float) -> None:
        self.seconds[key] = self.seconds.get(key, 0.0) + seconds

    def add_rvm(self, semantics: str, run_s: float, stats: dict) -> None:
        book = self.rvm.setdefault(semantics, {
            "runs": 0, "run_s": 0.0, "steps": 0, "applications": 0, "merges": 0,
            "hits": 0, "misses": 0, "pending": 0,
        })
        book["runs"] += 1
        book["run_s"] += run_s
        book["steps"] += stats.get("steps", 0)
        book["applications"] += stats.get("mediator_applications", 0)
        book["merges"] += stats.get("merges", 0)
        book["hits"] += stats.get("cache_hits", 0)
        book["misses"] += stats.get("cache_misses", 0)
        book["pending"] = max(book["pending"], stats.get("max_pending_mediators", 0))

    def metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name, _, _ in PER_LAYER}
        ops = max(self.ops, 1)
        for key, name in _LAYER_MS.items():
            out[name] = 1000.0 * self.seconds.get(key, 0.0) / ops
        parse_seconds = self.seconds.get("surface.parse", 0.0)
        if self.parsed and parse_seconds > 0:
            from repro.surface.lexer import tokenize

            tokens = sum(len(tokenize(source)) for source in self.parsed)
            out["surface.tokens_per_s"] = tokens / parse_seconds
        if self.ir["stack"]:
            out["compiler.stack_insns"] = sum(self.ir["stack"]) / len(self.ir["stack"])
        if self.ir["register"]:
            out["compiler.register_words"] = sum(self.ir["register"]) / len(self.ir["register"])
        if self.image_bytes:
            out["cache.image_bytes"] = sum(self.image_bytes) / len(self.image_bytes)
        if self.cache_lookups:
            out["cache.hit_ratio"] = self.cache_hits / self.cache_lookups
        for semantics, book in self.rvm.items():
            runs = max(book["runs"], 1)
            prefix = f"rvm.{semantics}."
            out[prefix + "run_ms"] = 1000.0 * book["run_s"] / runs
            if book["run_s"] > 0:
                out[prefix + "steps_per_s"] = book["steps"] / book["run_s"]
            out[prefix + "mediator_applications"] = book["applications"] / runs
            out[prefix + "merges"] = book["merges"] / runs
            lookups = book["hits"] + book["misses"]
            out[prefix + "inline_cache_hit_ratio"] = book["hits"] / lookups if lookups else 0.0
            out[prefix + "max_pending_mediators"] = float(book["pending"])
        if self.op_seconds > 0:
            for name, keys in SHARES.items():
                out[name] = sum(self.seconds.get(k, 0.0) for k in keys) / self.op_seconds
        out.update(self.values)
        return out


def observe_calls(tracer, book: LayerBook) -> None:
    """Record parsed sources, IR sizes and image sizes as the traced calls
    return them (tokens are counted after the run, outside every span)."""
    from repro.compiler import all_code_objects, all_rcodes

    def on_optimize(_args, code):
        book.ir["stack"].append(sum(len(c.instructions) for c in all_code_objects(code)))

    last_allocated = [None]

    def on_regalloc(args, rcode):
        # A cache miss allocates the same code twice (in ``serialize_image``
        # and again in ``cached_compile``); its size counts once.
        code = args[0] if args else None
        if code is not None and code is last_allocated[0]:
            return
        last_allocated[0] = code
        book.ir["register"].append(sum(len(r.words) for r in all_rcodes(rcode)))

    def on_decode(args, image):
        book.image_bytes.append(len(args[0]))
        on_optimize(None, image.code)
        if image.rcode is not None:
            on_regalloc(None, image.rcode)

    tracer.observers["surface.parse"] = lambda args, _program: book.parsed.append(args[0])
    tracer.observers["compiler.optimize"] = on_optimize
    tracer.observers["compiler.regalloc"] = on_regalloc
    tracer.observers["cache.decode"] = on_decode


def book_spans(book: LayerBook, spans) -> None:
    """Add the self time of every span to the book, by span name."""
    from spans import layer_self_seconds

    for key, seconds in layer_self_seconds(spans).items():
        book.add_seconds(key, seconds)


@contextmanager
def tracing_layers(book: LayerBook, replay: bool = False):
    """A :class:`~spans.Tracer` with every layer function wrapped and the
    book observing its calls, for the duration of the block.

    A ``replay`` re-runs in this process work that a child process did; the
    objects this process already holds are frozen out of the garbage
    collector meanwhile, so collections scan no more than a worker's would.
    """
    from spans import Tracer

    if replay:
        gc.freeze()
    try:
        with Tracer() as tracer:
            tracer.wrap_layers()
            observe_calls(tracer, book)
            yield tracer
    finally:
        if replay:
            gc.unfreeze()


def replay(book: LayerBook, runs, skip=(), compile_s: float | None = None) -> tuple[dict, list]:
    """Re-run in this process, under spans, work a child process did.

    ``runs`` are ``(op, source, RunConfig)``; each goes through
    ``repro.api.run`` inside a ``replay`` span of that operation.  The self
    time of every span but ``replay`` and the names in ``skip`` goes into
    the book.  Given ``compile_s``, the compile time the child processes
    themselves reported for the same work, the replay only splits it: the
    compile-side layers (all but ``rvm.run``) are scaled to add up to it,
    since this process runs at its own speed, not the workers'.  Returns
    ``{op: RunResult or None}`` and the spans.
    """
    from repro.api import run as api_run
    from spans import layer_self_seconds

    results: dict = {}
    with tracing_layers(book, replay=True) as tracer:
        for op, source, config in runs:
            with tracer.span("replay", op=op):
                try:
                    results[op] = api_run(source, config)
                except Exception:  # a planted fault, as the experiment's InlineRunner sees it
                    results[op] = None
    seconds = layer_self_seconds(
        [s for s in tracer.spans if s.name != "replay" and s.name not in skip])
    compile_side = sum(v for k, v in seconds.items() if k != "rvm.run")
    scale = compile_s / compile_side if compile_s is not None and compile_side > 0 else 1.0
    for key, value in seconds.items():
        book.add_seconds(key, value if key == "rvm.run" else value * scale)
    return results, tracer.spans
