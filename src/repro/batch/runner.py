"""The batch runner: corpus discovery, compile-once, parallel execution.

The pipeline has two phases with different parallelism profiles:

1. **Compile** (in the coordinating process, through the compile cache):
   every program is parsed, elaborated, lowered, and optimized at most once
   — and not at all when the cache is warm — yielding one serialized
   ``.gradb`` image per program.  Front-end errors (unreadable or non-UTF-8
   files, parse errors, type errors) are captured as per-program
   ``"error"`` results here; they never reach a worker.

2. **Execute** (across the fault-tolerant :class:`~repro.serve.pool.WorkerPool`):
   each worker receives the program name, the image bytes, and the fuel,
   deserializes the image — re-interning its pool into the worker's own
   canonical nodes — and runs it on the VM.  A worker that dies mid-job
   (SIGKILL, OOM) is detected and replaced: the job is retried on a fresh
   worker, and past the retry budget it is reported as an ``"error"``
   result with ``"reason": "worker-lost"`` — the record is never silently
   dropped and the run never hangs (both of which a bare
   ``multiprocessing.Pool`` does).  With ``workers=1`` everything runs
   inline in the coordinating process (no pool, no pickling), which is
   also the deterministic-ordering mode the tests use.

Results are JSON-ready dicts, streamed through an ``on_result`` callback as
they complete and aggregated by :func:`aggregate_results`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

from ..core.errors import ReproError, read_source

#: Manifest suffixes: a text file listing one program path per line
#: (relative paths resolve against the manifest's directory; blank lines and
#: ``#`` comments are skipped).
MANIFEST_SUFFIXES = (".txt", ".list", ".manifest")

#: Surface-program suffix discovered when a directory is given.
PROGRAM_SUFFIX = ".grad"


def discover_programs(paths: Sequence[str | Path]) -> list[Path]:
    """Expand directories, manifests, and files into the corpus to run.

    Directories contribute their ``*.grad`` files (sorted, recursively);
    manifests contribute the paths they list; anything else is taken as a
    program file itself.  Order is deterministic: inputs in argument order,
    directory contents sorted.  Duplicates (same resolved path) are kept
    once, first occurrence wins.
    """
    corpus: list[Path] = []
    seen: set[Path] = set()

    def add(path: Path) -> None:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            corpus.append(path)

    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for program in sorted(path.rglob(f"*{PROGRAM_SUFFIX}")):
                add(program)
        elif path.suffix in MANIFEST_SUFFIXES:
            try:
                lines = path.read_text().splitlines()
            except OSError as exc:
                raise FileNotFoundError(str(path)) from exc
            for line in lines:
                entry = line.strip()
                if entry and not entry.startswith("#"):
                    add(path.parent / entry)
        else:
            add(path)
    return corpus


def _compile_one(path: Path, config) -> tuple[bytes | None, dict]:
    """Phase 1 for one program: image bytes to ship, plus partial result.

    ``config`` is the resolved :class:`~repro.api.RunConfig` of the batch —
    its ``semantics``, ``opt_level``, ``cache``, and ``cache_dir`` drive the
    compile exactly as they would a single :func:`repro.api.run`.
    """
    from ..compiler.serialize import serialize_image, source_fingerprint
    from ..compiler.vm import compile_term
    from ..surface.interp import compile_source

    mediator = config.semantics
    opt_level = config.opt_level
    cache_dir = config.cache_dir
    name = str(path)
    started = time.perf_counter()
    try:
        source = read_source(path)
    except OSError as exc:
        return None, {"program": name, "kind": "error", "error": f"unreadable: {exc}"}
    except ReproError as exc:  # not UTF-8
        return None, {"program": name, "kind": "error", "error": str(exc)}
    try:
        if config.cache:
            from ..compiler.cache import cache_lookup, cache_path, cached_compile

            source_hash = source_fingerprint(source)
            entry = cache_path(source_hash, opt_level, mediator, cache_dir)
            image = cache_lookup(source_hash, opt_level, mediator, cache_dir)
            if image is not None:
                # The exact bytes to ship are already on disk — no need to
                # re-encode the image the lookup just validated.  (The
                # re-serialize fallback covers a concurrent eviction.)
                try:
                    data = entry.read_bytes()
                except OSError:
                    data = serialize_image(
                        image.code,
                        source_hash=image.info.source_hash,
                        static_type=image.info.static_type,
                    )
                return data, {
                    "program": name,
                    "cache": "hit",
                    "compile_s": time.perf_counter() - started,
                }
            term, ty = compile_source(source)
            found = cached_compile(term, source_hash=source_hash, static_type=ty,
                                   mediator=mediator, opt_level=opt_level,
                                   cache_dir=cache_dir)
            try:
                data = found.path.read_bytes()
            except OSError:  # the cache write failed (read-only/full disk)
                data = serialize_image(found.image.code, source_hash=source_hash,
                                       static_type=ty)
            return data, {
                "program": name,
                "cache": found.status,
                "compile_s": time.perf_counter() - started,
            }
        term, ty = compile_source(source)
        code = compile_term(term, mediator=mediator, opt_level=opt_level)
        data = serialize_image(code, source_hash=source_fingerprint(source),
                               static_type=ty)
        return data, {
            "program": name,
            "cache": "off",
            "compile_s": time.perf_counter() - started,
        }
    except ReproError as exc:
        return None, {"program": name, "kind": "error", "error": str(exc)}


def _execute_job(job: tuple[str, bytes, int]) -> dict:
    """Phase 2, in a worker: deserialize the image and run it on the VM."""
    from ..compiler.serialize import deserialize_image
    from ..compiler.vm import run_code

    name, data, fuel = job
    started = time.perf_counter()
    try:
        # Built by phase 1 in the coordinating process — same trust domain,
        # so the crafted-image bounds validation is skipped.
        image = deserialize_image(data, validate=False)
    except ReproError as exc:  # pragma: no cover - ships what phase 1 built
        return {"program": name, "kind": "error", "error": str(exc)}
    loaded = time.perf_counter()
    outcome = run_code(image.code, fuel)
    finished = time.perf_counter()
    stats = outcome.stats or {}
    result = {
        "program": name,
        "kind": outcome.kind,
        "steps": stats.get("steps", 0),
        "max_pending_mediators": stats.get("max_pending_mediators", 0),
        "load_s": loaded - started,
        "run_s": finished - loaded,
    }
    if outcome.is_value:
        result["value"] = outcome.python_value()
        if image.info.static_type is not None:
            result["type"] = str(image.info.static_type)
    elif outcome.is_blame:
        result["blame"] = str(outcome.label)
    return result


def run_batch(
    paths: Sequence[str | Path],
    workers: int = 1,
    fuel: int | None = None,
    mediator: str | None = None,
    opt_level: int = 2,
    use_cache: bool = True,
    cache_dir: str | None = None,
    on_result: Callable[[dict], None] | None = None,
    metrics=None,
    trace_sink=None,
    semantics: str | None = None,
    faults: str | None = None,
    config=None,
) -> tuple[list[dict], dict]:
    """Compile a corpus once and execute it across a worker pool.

    ``config`` (a :class:`~repro.api.RunConfig`) is the preferred way to
    select the run knobs; it is resolved through
    :func:`repro.api.resolve_config` — the same validation path as every
    other entrypoint.  The individual kwargs survive as a shim: ``semantics``
    names the enforcement semantics (any entry of the
    :data:`~repro.semantics.SEMANTICS` registry), overriding the deprecated
    ``mediator`` spelling, which warns via
    :func:`repro.api.reconcile_semantics`.

    Returns ``(results, aggregate)``: one dict per program (see
    :func:`_execute_job` for the execution fields; front-end failures carry
    ``kind="error"``) and the aggregated shard statistics.  ``on_result``
    is invoked with each result as it completes — with ``workers > 1``
    completion order is nondeterministic, so every result repeats its
    program name.

    ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`) aggregates
    the shard results in the coordinating process — outcome and cache
    counters plus ``batch.{compile_s,load_s,run_s}`` histograms (fixed
    buckets, so shard timings fold in by plain addition regardless of which
    worker produced them) — and its snapshot is embedded in the aggregate
    (``aggregate["metrics"]``), never as an extra stream line.
    ``trace_sink`` traces every program's run into one sink; tracing forces
    inline execution (the tracer is process-global state a pool cannot
    share), with each run's ``run_start`` carrying the program name.

    ``faults`` is a fault-injection spec for the worker pool (see
    :mod:`repro.core.faults`; default: the ``REPRO_GRADUAL_FAULTS``
    environment variable) — the chaos tests use it to SIGKILL workers
    mid-corpus and assert every program still gets a terminal record.
    """
    from ..api import RunConfig, reconcile_semantics, resolve_config

    if config is None:
        config = RunConfig(
            engine="vm",
            semantics=reconcile_semantics(semantics, mediator) or "coercion",
            opt_level=opt_level,
            fuel=fuel,
            cache=use_cache,
            cache_dir=cache_dir,
        )
    config = resolve_config(config)  # fail fast on any invalid knob
    wall_start = time.perf_counter()
    corpus = discover_programs(paths)
    fuel = config.fuel  # resolve_config filled the engine default

    results: list[dict] = []
    jobs: list[tuple[str, bytes, int]] = []
    compile_meta: dict[str, dict] = {}

    def note(result: dict) -> None:
        if metrics is None:
            return
        metrics.counter(f"batch.outcome.{result.get('kind', 'error')}").inc()
        status = result.get("cache")
        if status is not None:
            metrics.counter(f"batch.cache.{status}").inc()
        for key in ("compile_s", "load_s", "run_s"):
            if key in result:
                metrics.histogram(f"batch.{key}").observe(result[key])

    for path in corpus:
        data, meta = _compile_one(path, config)
        if data is None:
            note(meta)
            results.append(meta)
            if on_result is not None:
                on_result(meta)
        else:
            compile_meta[meta["program"]] = meta
            jobs.append((meta["program"], data, fuel))

    def finish(result: dict) -> None:
        result = {**compile_meta[result["program"]], **result}
        note(result)
        results.append(result)
        if on_result is not None:
            on_result(result)

    if trace_sink is not None:
        from ..obs.trace import activate, deactivate
        from ..obs.tracer import Tracer

        tracer = Tracer(trace_sink)
        activate(tracer)
        try:
            for job in jobs:
                tracer.program = job[0]
                finish(_execute_job(job))
        finally:
            deactivate()
            trace_sink.close()
    elif workers <= 1 or len(jobs) <= 1:
        for job in jobs:
            finish(_execute_job(job))
    else:
        from concurrent.futures import ThreadPoolExecutor, as_completed

        from ..serve.pool import WorkerPool

        size = min(workers, len(jobs))
        with WorkerPool(size, faults=faults) as pool, ThreadPoolExecutor(size) as dispatch:
            futures = [
                dispatch.submit(
                    pool.execute,
                    {"op": "run_image", "program": name, "image": data, "fuel": fuel},
                )
                for name, data, fuel in jobs
            ]
            for future in as_completed(futures):
                finish(future.result())

    aggregate = aggregate_results(results)
    aggregate["workers"] = 1 if trace_sink is not None else workers
    aggregate["wall_s"] = time.perf_counter() - wall_start
    if metrics is not None:
        aggregate["metrics"] = metrics.snapshot()
    return results, aggregate


def aggregate_results(results: Iterable[dict]) -> dict:
    """Shard statistics over per-program results (JSON-ready)."""
    results = list(results)
    kinds = {"value": 0, "blame": 0, "timeout": 0, "error": 0}
    cache = {"hit": 0, "miss": 0, "recovered": 0, "off": 0}
    aggregate = {
        "programs": len(results),
        "steps_total": 0,
        "max_pending_mediators": 0,
        "compile_s_total": 0.0,
        "run_s_total": 0.0,
    }
    for result in results:
        kind = result.get("kind", "error")
        kinds[kind] = kinds.get(kind, 0) + 1
        status = result.get("cache")
        if status in cache:
            cache[status] += 1
        aggregate["steps_total"] += result.get("steps", 0)
        aggregate["max_pending_mediators"] = max(
            aggregate["max_pending_mediators"], result.get("max_pending_mediators", 0)
        )
        aggregate["compile_s_total"] += result.get("compile_s", 0.0)
        aggregate["run_s_total"] += result.get("run_s", 0.0)
    aggregate["outcomes"] = kinds
    aggregate["cache"] = cache
    return aggregate
