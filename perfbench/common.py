"""Shared arithmetic and process helpers of the repository benchmark.

Everything here is pure or touches only the benchmark's own scratch
directory, so the self-tests (``selftest.py``) can check it without running
a workload.
"""

from __future__ import annotations

import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: The repository root: the benchmark runs from a checkout of it.
ROOT = Path(__file__).resolve().parent.parent

#: The package source the benchmark drives (``PYTHONPATH=src``).
SRC = ROOT / "src"

#: Where a run keeps its inputs and compile caches (git-ignored).
SCRATCH = ROOT / ".perfbench_tmp"

#: The workload seed when none is given (``benchmarks/harness.DEFAULT_SEED``).
DEFAULT_SEED = 20150613

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: The four enforcement semantics every in-process workload sweeps.
SEMANTICS = ("coercion", "threesome", "transient", "erasure")


# ---------------------------------------------------------------------------
# Latency arithmetic
# ---------------------------------------------------------------------------


def tail(samples, beyond: int = TAIL_BEYOND) -> dict:
    """The highest percentile that still has ``beyond`` samples above it.

    With ``n`` samples sorted ascending, the value at index ``n - beyond - 1``
    has exactly ``beyond`` samples after it, which makes it the
    ``100 * (n - beyond) / n``-th percentile.  With ``beyond`` or fewer
    samples no percentile qualifies and the maximum is reported with
    ``beyond`` set to what is actually there.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0}
    return {
        "value": ordered[n - beyond - 1],
        "percentile": 100.0 * (n - beyond) / n,
        "samples": n,
        "beyond": beyond,
    }


#: Samples per block of :func:`block_tail`.
TAIL_BLOCK = 150


def block_tail(samples, block: int = TAIL_BLOCK, beyond: int = TAIL_BEYOND) -> dict:
    """:func:`tail` of blocks of about ``block`` samples, as the median over
    the blocks.

    On a shared machine a handful of outliers otherwise decide the tail, so
    the median over blocks is reported.  The blocks are interleaved (sample
    ``i`` in block ``i % k``), so each samples the whole run, for operations
    whose cost depends on where in the run they fall.  With fewer than two
    blocks' worth of samples this is :func:`tail` of all of them.
    """
    samples = list(samples)
    blocks = len(samples) // block
    if blocks < 2:
        row = tail(samples, beyond)
        row["blocks"] = 1
        return row
    rows = [tail(samples[i::blocks], beyond) for i in range(blocks)]
    row = dict(rows[0])
    row["value"] = statistics.median(r["value"] for r in rows)
    row["samples"] = len(samples)
    row["blocks"] = blocks
    return row


def median(samples) -> float:
    return statistics.median(samples)


def shuffled_passes(count: int, rng, budget: float):
    """Indices of ``count`` inputs in shuffled passes until ``budget``
    seconds are spent, and at least one full pass: a closed loop's order."""
    order = list(range(count))
    done = 0
    deadline = time.perf_counter() + budget
    while True:
        rng.shuffle(order)
        for index in order:
            if done >= count and time.perf_counter() >= deadline:
                return
            yield index
            done += 1


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: The calibration kernel's time at the reference host speed: about its
#: quiet-phase median on a 2-vCPU x86-64 VM under CPython 3.11.
CALIBRATION_REFERENCE_S = 0.002


class _Point:
    __slots__ = ("key", "weight")

    def __init__(self, key, weight):
        self.key = key
        self.weight = weight


def _fib(n: int) -> int:
    return n if n < 2 else _fib(n - 1) + _fib(n - 2)


def calibration_kernel() -> int:
    """A fixed piece of pure-Python work that calls nothing in the program:
    object allocation, attribute and dict access, a keyed sort and
    recursive calls, the interpreter paths the program's own loops use."""
    table: dict[int, _Point] = {}
    points = []
    total = 0
    for i in range(3000):
        point = _Point(i, i & 63)
        table[point.weight] = point
        points.append(point)
        total += table.get((i * 7) & 63, point).key
    points.sort(key=lambda p: p.weight)
    return total + _fib(15)


class HostSpeed:
    """How fast the shared host runs, from calibration samples over a run.

    The machine's speed drifts by up to 2x over seconds to minutes, with
    little steal time: the program and the calibration kernel slow down
    together, in CPU time as much as in wall time.  Each workload times the
    kernel between its operations throughout the run and reports each
    operation's time at the reference speed: measured x :meth:`scale_at`
    its start, from the ``nearest`` calibrations nearest in time.  The
    kernel runs no program code, so a change to the program moves the
    reported times exactly as it moves the measured ones.
    """

    def __init__(self):
        #: Calibrations a local speed is the median of.
        self.nearest = 16
        self.samples: list[float] = []
        self.times: list[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            calibration_kernel()
            self.times.append(started)
            self.samples.append(time.perf_counter() - started)

    def kernel_s(self) -> float:
        """Median time of the kernel over the whole run."""
        return median(self.samples)

    def scale_at(self, when: float) -> float:
        """Factor turning a time measured at ``when`` into one at the
        reference speed (below 1 when the host ran slow then)."""
        index = bisect.bisect(self.times, when)
        low = max(0, min(index - self.nearest // 2, len(self.samples) - self.nearest))
        return CALIBRATION_REFERENCE_S / median(self.samples[low:low + self.nearest])

    def at_reference(self, timed) -> list[float]:
        """``(start, seconds)`` pairs as seconds at the reference speed."""
        return [seconds * self.scale_at(start) for start, seconds in timed]


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations (0 when none attempted)."""
    if attempted < 0 or failed < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted if attempted else 0.0


# ---------------------------------------------------------------------------
# Outcomes and failure accounting
# ---------------------------------------------------------------------------

def outcome(kind: str, value=None, blame=None) -> dict:
    """The comparable projection of one result: kind, value and blame label.

    Values are passed through JSON so a tuple from an in-process run and a
    list from a JSON response compare equal.
    """
    out = {"kind": kind}
    if kind == "value":
        out["value"] = json.loads(json.dumps(value))
    elif kind == "blame":
        out["blame"] = str(blame)
    return out


def is_failure(got: dict, reference: dict | None) -> bool:
    """Whether one operation failed against its CEK reference.

    It fails when there is no reference for it, when its kind, value or
    blame label differs from the reference's, or when the system gave up
    (``error``/``worker-lost``, ``timeout``, ``overloaded``) where the
    reference has a value or blame.  When the reference itself ends in a
    runtime error (erasure runs unchecked code) the same kind of error is
    the outcome, not a failure.
    """
    if reference is None:
        return True
    if got["kind"] != reference["kind"]:
        return True
    if got["kind"] == "value":
        return got["value"] != reference["value"]
    if got["kind"] == "blame":
        return got["blame"] != reference["blame"]
    return False


# ---------------------------------------------------------------------------
# Processes and scratch space
# ---------------------------------------------------------------------------


def child_env(cache_dir: Path | None = None) -> dict:
    """The environment of a child ``python -m repro.cli`` process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_GRADUAL_FAULTS", None)
    if cache_dir is not None:
        env["REPRO_GRADUAL_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(argv: list[str], env: dict) -> dict:
    """Run a child to completion; its start and wall time, output, exit code and peak
    RSS in MiB.

    The child is reaped with ``os.wait4``, so the rusage is that one
    process's.  Both pipes are read to EOF one after the other, which is
    safe for the short outputs the benchmark's children write (far below a
    pipe buffer on stderr).
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, text=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    out = proc.stdout.read()
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {"start": started, "wall_s": wall, "stdout": out, "stderr": err,
            "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}


def peak_rss_mb_of(pids) -> float:
    """Summed peak resident set (``VmHWM``) of live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def children_of(pid: int) -> list[int]:
    """Direct children of a live process (Linux ``/proc``)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as handle:
                found.extend(int(c) for c in handle.read().split())
        except OSError:
            continue
    return found


def bare_start_s(repeats: int = 5) -> float:
    """Median wall time of ``python -c pass``: the interpreter's own start,
    the calibration row under ``import.cli_ms``."""
    return median(run_child([python(), "-c", "pass"], child_env())["wall_s"]
                  for _ in range(repeats))


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_scratch(workload: str) -> Path:
    """A fresh scratch directory for one run (removed by :func:`drop_scratch`)."""
    path = SCRATCH / f"{workload}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def drop_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def python() -> str:
    return sys.executable
