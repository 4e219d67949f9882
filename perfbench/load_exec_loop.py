"""``exec-loop``: in-process ``repro.api.run`` of boundary loops on a warm cache.

One operation is one ``run(source, RunConfig(engine="rvm", cache=True))``
call on a seeded boundary-crossing loop under one of the four semantics.
The compile cache is warm, so the front end, the compiler, import and serve
do no work; nearly all the time is register-VM dispatch and mediator
composition.  A tail loop whose pending mediators exceed one fails the
operation: that is the space bound the paper claims for λS.
"""

from __future__ import annotations

import random
import time

import reference
from common import (
    SEMANTICS, HostSpeed, block_tail, is_failure, median, outcome, self_peak_rss_mb,
    shuffled_passes,
)
from inputs import TAIL_LOOPS, boundary_loops
from layers import LayerBook, book_spans, tracing_layers
from spans import Tracer


def _inputs(seed: int):
    return [(name, semantics, source)
            for name, source in boundary_loops(seed)
            for semantics in SEMANTICS]


#: Times the cache is primed from empty for ``setup_s``.  Each round
#: creates 16 cache files, and on a 2-vCPU VM the system time of file
#: creation grew over back-to-back runs (a priming round took up to 2x the
#: CPU time after ten runs of 60 rounds), so the rounds are few.
SETUP_ROUNDS = 25


def prime(source: str, config) -> None:
    """Compile one source into the cache under the key a cached
    ``run(source, config)`` looks up; ``config`` is a resolved RunConfig."""
    from repro.compiler.cache import cached_compile
    from repro.compiler.serialize import source_fingerprint
    from repro.surface.interp import compile_source

    term, static_type = compile_source(source)
    cached_compile(term, source_hash=source_fingerprint(source), static_type=static_type,
                   mediator=config.semantics, opt_level=config.opt_level,
                   cache_dir=config.cache_dir, ir=config.ir)


def _failed(name: str, result, ref: dict) -> bool:
    got = outcome(result.kind, result.value, result.blame_label)
    if is_failure(got, ref):
        return True
    pending = (result.space_stats or {}).get("max_pending_mediators", 0)
    return name in TAIL_LOOPS and pending > 1


def run(seed: int, seconds: float, traced: bool, scratch, processes: int) -> dict:
    from repro.api import RunConfig, resolve_config
    from repro.api import run as api_run

    inputs = _inputs(seed)
    refs = reference.compute(
        [{"kind": "run", "source": source, "semantics": semantics}
         for _, semantics, source in inputs],
        processes,
    )
    # Set-up: compile every input into a fresh cache, SETUP_ROUNDS times;
    # the last cache is the warm one the loop runs on.
    setup = []
    setup_host = HostSpeed()
    for round_ in range(SETUP_ROUNDS):
        setup_host.sample(4)
        configs = {s: resolve_config(RunConfig(engine="rvm", semantics=s, cache=True,
                                               cache_dir=str(scratch / f"cache{round_}")))
                   for s in SEMANTICS}
        started = time.perf_counter()
        for _, semantics, source in inputs:
            prime(source, configs[semantics])
        setup.append((started, time.perf_counter() - started))

    rng = random.Random(f"exec-loop-order|{seed}")

    def loop(budget: float, host: HostSpeed, tracer: Tracer | None, book: LayerBook | None):
        """The closed loop, in shuffled passes for ``budget`` seconds, with
        the host's speed sampled before every operation; ``(start,
        seconds)`` of each operation."""
        timed: list[tuple[float, float]] = []
        attempted = failed = 0
        for index in shuffled_passes(len(inputs), rng, budget):
            name, semantics, source = inputs[index]
            host.sample()
            if tracer is None:
                started = time.perf_counter()
                result = api_run(source, configs[semantics])
                timed.append((started, time.perf_counter() - started))
            else:
                with tracer.span("op", op=attempted) as op_span:
                    result = api_run(source, configs[semantics])
                timed.append((op_span.start, op_span.duration))
                run_s = 0.0
                for span in reversed(tracer.spans):
                    if span.op != attempted:
                        break
                    if span.name == "rvm.run":
                        run_s += span.duration
                book.add_rvm(semantics, run_s, result.space_stats or {})
                book.cache_lookups += 1
                book.cache_hits += result.cache_status == "hit"
            attempted += 1
            failed += _failed(name, result, refs[index])
        return timed, attempted, failed

    # Warm-up pass, untimed: the process-wide intern tables fill here.  It
    # is the first run on the primed cache, so every lookup must hit; a miss
    # means set-up compiled under other keys than the loop reads.
    for name, semantics, source in inputs:
        status = api_run(source, configs[semantics]).cache_status
        if status != "hit":
            raise RuntimeError(f"{name} under {semantics}: cache {status} after set-up")
    if not traced:
        host = HostSpeed()
        timed, attempted, failed = loop(seconds, host, None, None)
        latencies = host.at_reference(timed)
        tail_row = block_tail(latencies)
        return {
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                "setup_s": median(setup_host.at_reference(setup)),
                "latency_p50_ms": 1000.0 * median(latencies),
                "latency_tail_ms": 1000.0 * tail_row["value"],
                # Operations per second of operation time: the calibration
                # between operations is not part of the closed loop.
                "ops_per_s": attempted / sum(latencies),
                "peak_rss_mb": self_peak_rss_mb(),
            },
            "tail": tail_row,
            "hosts": {"set-up": setup_host, "loop": host},
        }

    plain_host, traced_host = HostSpeed(), HostSpeed()
    plain, attempted, failed = loop(seconds / 2, plain_host, None, None)
    book = LayerBook()
    with tracing_layers(book) as tracer:
        spanned, more, more_failed = loop(seconds / 2, traced_host, tracer, book)
    book.ops = more
    book.op_seconds = sum(seconds for _, seconds in spanned)
    book_spans(book, tracer.spans)
    book.values["trace.overhead_ratio"] = (median(traced_host.at_reference(spanned))
                                           / median(plain_host.at_reference(plain)))
    book.values["host.calibration_ms"] = 1000.0 * plain_host.kernel_s()
    return {"attempted": attempted + more, "failed": failed + more_failed,
            "book": book}
