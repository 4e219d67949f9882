"""Batch execution: compile a corpus of gradual programs once, run them in
parallel.

The runner (:mod:`repro.batch.runner`) is the fleet-scale counterpart of
``repro-gradual run``: it discovers a corpus (directories, manifest files,
or individual programs), compiles each program to a ``.gradb`` bytecode
image exactly once — through the content-addressed compile cache, so a warm
corpus costs no front-end work at all — and then *ships the serialized
images* to a ``multiprocessing`` worker pool for execution.  Workers never
see source text: an image deserializes into re-interned canonical pool
entries in each worker process, which is precisely the property the image
format guarantees (:mod:`repro.compiler.serialize`).

Results stream back as they complete, one JSON-compatible dict per program
(outcome kind, value or blame label, steps, ``max_pending_mediators``,
compile/load/run timings, cache status), followed by aggregated shard
statistics.  ``repro-gradual batch`` renders them as JSON-lines.
"""

from .._lazy import attach

__getattr__, __dir__ = attach(__name__, {
    "runner": ("aggregate_results", "discover_programs", "run_batch"),
})

__all__ = [
    "aggregate_results",
    "discover_programs",
    "run_batch",
]
