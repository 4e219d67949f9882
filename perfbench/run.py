"""The repository benchmark: one command, three seeded workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exec-loop --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Every operation's output is checked against the CEK machine
(see ``reference.py``).  A human-readable report goes to stdout first; the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  ``NOTES.md`` says what each
workload is for and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (  # noqa: E402
    CALIBRATION_REFERENCE_S, DEFAULT_SEED, ROOT, SRC, HostSpeed, bare_start_s, drop_scratch,
    error_rate, make_scratch,
)

#: Workload name -> module implementing ``run(seed, seconds, traced, scratch,
#: processes)``.
WORKLOADS = {
    "cli-cold": "load_cli_cold",
    "experiment": "load_experiment",
    "exec-loop": "load_exec_loop",
}

#: The end-to-end metrics every workload reports with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload; returns the result line as a dict plus the report."""
    import importlib

    from layers import PER_LAYER

    sys.path.insert(0, str(SRC))
    module = importlib.import_module(WORKLOADS[workload])
    scratch = make_scratch(workload)
    try:
        raw = module.run(seed, seconds, traced, scratch, max(1, min(2, os.cpu_count() or 1)))
    finally:
        drop_scratch(scratch)
    if traced:
        book = raw["book"]
        if "process.bare_start_ms" not in book.values:
            book.values["process.bare_start_ms"] = 1000.0 * bare_start_s()
        if "host.calibration_ms" not in book.values:
            host = HostSpeed()
            host.sample(50)
            book.values["host.calibration_ms"] = 1000.0 * host.kernel_s()
        values = book.metrics()
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values = raw["metrics"]
        units = dict(END_TO_END)
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "report": raw.get("report", []),
        "tail": raw.get("tail"),
        "hosts": raw.get("hosts", {}),
    }


def print_report(workload: str, seed: int, result: dict) -> None:
    print(f"workload {workload}  seed {seed}")
    rate = error_rate(result["failed"], result["attempted"])
    print(f"  {'error_rate':34s} {rate:14.6f} ratio"
          f"  ({result['failed']} failed of {result['attempted']} attempted)")
    tail_row = result.get("tail")
    if tail_row:
        blocks = tail_row.get("blocks", 1)
        where = (f"the median over {blocks} blocks of p{tail_row['percentile']:.2f}"
                 if blocks > 1 else f"p{tail_row['percentile']:.2f}")
        print(f"  latency_tail_ms is {where} of {tail_row['samples']} samples"
              f" ({tail_row['beyond']} beyond it)")
    for name, metric in result["metrics"].items():
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    for phase, host in result["hosts"].items():
        print(f"  {phase}: the calibration kernel took {1000 * host.kernel_s():.3f} ms"
              f" (median of {len(host.samples)}; {1000 * CALIBRATION_REFERENCE_S:.3f} ms"
              f" at the reference speed); times are scaled by the {host.nearest}"
              f" nearest calibrations")
    for line in result["report"]:
        print(f"  {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing "
              f"(run from a checkout of the repository, root {ROOT})", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, args.seed, result)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
