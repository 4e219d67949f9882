"""Reference outcomes from the CEK machine, computed before any timing.

The fast paths under test (register VM, compile cache, worker pool, serve)
are checked against the CEK machine under the same enforcement semantics,
never against the compiler under test and never against a program's
``;; Expected value:`` comment (``stats_pipeline.grad`` says 106, but
evaluating it by hand and every engine under every semantics give 116).

The work runs in child processes of this script, so the workload process
neither pays its memory nor inherits its warm tables.  As a script it reads
a JSON list of jobs on stdin and writes a JSON list of results on stdout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import ROOT, child_env, outcome, python  # noqa: E402


def _run_job(job: dict) -> dict:
    """A ``run`` job: one source under one semantics on the CEK machine."""
    from repro.api import RunConfig, run
    from repro.core.errors import ReproError

    try:
        result = run(job["source"], RunConfig(engine="machine", semantics=job["semantics"]))
    except ReproError as exc:
        return {"kind": "error", "text": str(exc)}
    got = outcome(result.kind, result.value, result.blame_label)
    got["text"] = str(result)
    return got


def _experiment_job(job: dict) -> list:
    """An ``experiment`` job: the experiment over one program, inline on the
    CEK machine, recording every configuration it runs."""
    from repro.experiment import ExperimentConfig, driver, run_experiment

    seen: list = []
    inline_call = driver.InlineRunner.__call__

    def recording(runner, source):
        result = inline_call(runner, source)
        seen.append([runner.config.semantics, source,
                     outcome(result["kind"], result.get("value"), result.get("blame"))])
        return result

    driver.InlineRunner.__call__ = recording
    try:
        config = ExperimentConfig(engine="machine", workers=0, **job["config"])
        run_experiment([(job["name"], job["source"])], config)
    finally:
        driver.InlineRunner.__call__ = inline_call
    return seen


def _compute_here(jobs: list[dict]) -> list:
    results = []
    for job in jobs:
        if job["kind"] == "experiment":
            results.append(_experiment_job(job))
        else:
            results.append(_run_job(job))
    return results


def compute(jobs: list[dict], processes: int) -> list:
    """Results of ``jobs`` in order, spread over ``processes`` children."""
    processes = max(1, min(processes, len(jobs)))
    shares = [jobs[i::processes] for i in range(processes)]

    def one(share):
        argv = [python(), os.path.join(HERE, "reference.py")]
        proc = subprocess.run(argv, input=json.dumps(share), text=True, cwd=ROOT,
                              env=child_env(), capture_output=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"reference child failed: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout)

    with ThreadPoolExecutor(max_workers=processes) as executor:
        parts = list(executor.map(one, shares))
    results: list = [None] * len(jobs)
    for offset, part in enumerate(parts):
        results[offset::processes] = part
    return results


if __name__ == "__main__":
    json.dump(_compute_here(json.load(sys.stdin)), sys.stdout)
