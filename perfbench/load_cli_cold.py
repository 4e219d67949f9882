"""``cli-cold``: fresh ``python -m repro.cli run --engine rvm FILE`` processes.

A closed loop, one process at a time, over the shipped corpus plus seeded
generated programs, every one already compiled into an isolated disk
cache.  This is what a user feels per command: interpreter start, importing
``repro.cli``, one cache read and a short run.  The front end does no work.
"""

from __future__ import annotations

import random

import reference
from common import (
    HostSpeed, bare_start_s, block_tail, child_env, median, python, run_child, shuffled_passes,
)
from inputs import generated_programs, shipped_corpus, write_sources
from layers import LayerBook, replay

#: Generated programs added to the shipped corpus.
GENERATED = 6


def importtime_rows(stderr: str):
    """``(name, cumulative µs, top-level?)`` for each ``-X importtime`` line."""
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        yield fields[2].strip(), int(fields[1]), not fields[2][1:].startswith(" ")


def parse_importtime(stderr: str, startup: frozenset) -> tuple[float, int]:
    """``(import ms, repro modules)`` of one ``python -m repro.cli`` process.

    ``-m`` runs ``repro.cli`` as ``__main__``, so there is no single
    ``repro.cli`` row: the import time is the cumulative time of every
    top-level import the bare interpreter (``startup``) does not make.
    """
    cumulative_us = 0
    modules = 0
    for name, cumulative, top in importtime_rows(stderr):
        if name == "repro" or name.startswith("repro."):
            modules += 1
        if top and name not in startup:
            cumulative_us += cumulative
    return cumulative_us / 1000.0, modules


def _expected(ref: dict) -> tuple[int, str]:
    return (0 if ref["kind"] == "value" else 1), ref.get("text", "")


def run(seed: int, seconds: float, traced: bool, scratch, processes: int) -> dict:
    named = shipped_corpus() + generated_programs(seed, GENERATED)
    paths = write_sources(scratch / "inputs", named)
    refs = reference.compute(
        [{"kind": "run", "source": text, "semantics": "coercion"} for _, text in named],
        processes,
    )
    cache_dir = scratch / "cache"
    env = child_env(cache_dir)

    def argv(path, importtime=False):
        flags = ["-X", "importtime"] if importtime else []
        return [python(), *flags, "-m", "repro.cli", "run", "--engine", "rvm", str(path)]

    # Set-up: the first run of each program compiles it into the cache.
    setup_host = HostSpeed()
    setup = []
    for path in paths:
        setup_host.sample(4)
        child = run_child(argv(path), env)
        setup.append((child["start"], child["wall_s"]))

    rng = random.Random(f"cli-cold-order|{seed}")

    def loop(budget: float, importtime: bool, host: HostSpeed):
        """The closed loop, with the host's speed sampled before every
        process."""
        records = []
        for index in shuffled_passes(len(paths), rng, budget):
            host.sample(4)
            child = run_child(argv(paths[index], importtime), env)
            code, text = _expected(refs[index])
            child["index"] = index
            child["failed"] = child["code"] != code or child["stdout"].strip() != text
            records.append(child)
        return records

    if not traced:
        host = HostSpeed()
        records = loop(seconds, False, host)
        latencies = host.at_reference((r["start"], r["wall_s"]) for r in records)
        tail_row = block_tail(latencies)
        return {
            "attempted": len(records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {
                "setup_s": median(setup_host.at_reference(setup)),
                "latency_p50_ms": 1000.0 * median(latencies),
                "latency_tail_ms": 1000.0 * tail_row["value"],
                # Processes per second of process time: the calibration
                # between processes is not part of the closed loop.
                "ops_per_s": len(records) / sum(latencies),
                "peak_rss_mb": max(r["rss_mb"] for r in records),
            },
            "tail": tail_row,
            "hosts": {"set-up": setup_host, "loop": host},
        }

    plain_host, traced_host = HostSpeed(), HostSpeed()
    plain = loop(seconds / 2, False, plain_host)
    spanned = loop(seconds / 2, True, traced_host)
    book = LayerBook()
    book.ops = len(spanned)
    book.op_seconds = sum(r["wall_s"] for r in spanned)
    bare = run_child([python(), "-X", "importtime", "-c", "pass"], env)["stderr"]
    startup = frozenset(name for name, _, top in importtime_rows(bare) if top)
    imports = [parse_importtime(r["stderr"], startup) for r in spanned]
    book.add_seconds("import", sum(ms for ms, _ in imports) / 1000.0)
    book.values["import.cli_ms"] = sum(ms for ms, _ in imports) / len(imports)
    book.values["import.repro_modules"] = median(n for _, n in imports)
    start = bare_start_s()
    book.add_seconds("process.start", start * len(spanned))
    book.values["process.bare_start_ms"] = 1000.0 * start

    # What the child does after import (cache read, decode, run) replayed
    # in-process on the same inputs, in the same order.
    from repro.api import RunConfig

    config = RunConfig(engine="rvm", cache=True, cache_dir=str(cache_dir))
    sources = [text for _, text in named]
    results, _ = replay(book, [(op, sources[r["index"]], config)
                               for op, r in enumerate(spanned)])
    for result in results.values():
        book.cache_lookups += 1
        book.cache_hits += result.cache_status == "hit"
        book.add_rvm("coercion", 0.0, result.space_stats or {})
    book.rvm["coercion"]["run_s"] = book.seconds.get("rvm.run", 0.0)
    covered = sum(book.seconds.values())
    book.seconds["op"] = book.op_seconds - covered
    book.values["trace.overhead_ratio"] = (
        median(traced_host.at_reference((r["start"], r["wall_s"]) for r in spanned))
        / median(plain_host.at_reference((r["start"], r["wall_s"]) for r in plain))
    )
    book.values["host.calibration_ms"] = 1000.0 * plain_host.kernel_s()
    failed = sum(r["failed"] for r in plain + spanned)
    return {"attempted": len(plain) + len(spanned), "failed": failed, "book": book}
