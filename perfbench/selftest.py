"""Self-tests of the benchmark's own arithmetic, plus a tiny smoke run.

Run from the repository root::

    python3 perfbench/selftest.py            # arithmetic, then the smoke run
    python3 perfbench/selftest.py --quick    # arithmetic only

(or ``python3 -m pytest perfbench/selftest.py``).  The smoke run drives all
four workloads for about a second each, traced and untraced, and checks that
the printed metric names are exactly those ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from common import (  # noqa: E402
    CALIBRATION_REFERENCE_S, ROOT, SCRATCH, SRC, HostSpeed, block_tail, drop_scratch, error_rate, is_failure, make_scratch,
    outcome, tail,
)
from spans import Span, Tracer, layer_self_seconds, self_times  # noqa: E402

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def test_tail_is_highest_percentile_with_ten_beyond():
    row = tail(list(range(1, 101)))
    assert row["value"] == 90
    assert row["percentile"] == 90.0 and row["samples"] == 100 and row["beyond"] == 10
    row = tail([5.0] * 30 + [9.0] * 10 + [1.0])
    assert row["value"] == 5.0 and row["samples"] == 41
    # Eleven samples: the lowest is the only one with ten beyond it.
    assert tail(list(range(11)))["value"] == 0


def test_tail_with_too_few_samples_reports_the_maximum():
    row = tail([3.0, 1.0, 2.0])
    assert row == {"value": 3.0, "percentile": 100.0, "samples": 3, "beyond": 0}


def test_block_tail_is_the_median_of_block_tails():
    # Fewer than two blocks' worth: the plain rule over everything.
    assert block_tail(list(range(100)), block=60)["value"] == tail(list(range(100)))["value"]
    # Interleaved blocks each see a third of a stall: 30 slow samples leave
    # every block's tail fast, 60 make every block's tail slow.
    samples = [1.0] * 300
    samples[100:130] = [50.0] * 30
    row = block_tail(samples, block=100)
    assert row["value"] == 1.0 and row["blocks"] == 3 and row["samples"] == 300
    samples[100:160] = [50.0] * 60
    assert block_tail(samples, block=100)["value"] == 50.0


def test_host_speed_scales_by_the_nearest_calibrations():
    host = HostSpeed()
    host.nearest = 3
    # A quiet stretch at the reference speed, then a stretch at half speed.
    host.times = [0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
    host.samples = [CALIBRATION_REFERENCE_S] * 4 + [2 * CALIBRATION_REFERENCE_S] * 4
    assert host.scale_at(1.5) == 1.0
    assert host.scale_at(11.5) == 0.5
    # At the ends the window is the first or last ``nearest`` calibrations.
    assert host.scale_at(-5.0) == 1.0 and host.scale_at(99.0) == 0.5
    # One stalled calibration does not move the median of its neighbours.
    host.samples[1] = 1.0
    assert host.at_reference([(1.5, 0.010), (12.5, 0.010)]) == [0.010, 0.005]
    assert host.kernel_s() == 2 * CALIBRATION_REFERENCE_S
    host.sample(2)
    assert len(host.samples) == len(host.times) == 10 and host.times[-1] > 13.0


def test_error_rate_counts_failed_over_attempted():
    assert error_rate(0, 40) == 0.0
    assert error_rate(1, 4) == 0.25
    for failed, attempted in ((5, 4), (-1, 3)):
        try:
            error_rate(failed, attempted)
        except ValueError:
            continue
        raise AssertionError("bad counts accepted")


def test_failure_accounting():
    value = outcome("value", (1, True))
    assert not is_failure(outcome("value", [1, True]), value)
    assert is_failure(outcome("value", 2), outcome("value", 1))
    blame = outcome("blame", blame="ascription@7:28")
    assert not is_failure(outcome("blame", blame="ascription@7:28"), blame)
    assert is_failure(outcome("blame", blame="~ascription@7:28"), blame)
    for gave_up in ("error", "timeout", "overloaded"):
        assert is_failure(outcome(gave_up), value)
        assert is_failure(outcome(gave_up), blame)
    # Erasure runs unchecked code: the reference's own runtime error is
    # the outcome, not a failure.
    assert not is_failure(outcome("error"), outcome("error"))
    assert is_failure(outcome("value", 1), None)


def test_self_time_subtracts_children():
    spans = [
        Span(0, "op", 0.0, 10.0, None, 0),
        Span(1, "surface.parse", 1.0, 3.0, 0, 0),
        Span(2, "compiler.lower", 4.0, 8.0, 0, 0),
        Span(3, "translate", 5.0, 6.0, 2, 0),
    ]
    own = self_times(spans)
    assert own == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
    totals = layer_self_seconds(spans)
    assert totals == {"op": 4.0, "surface.parse": 2.0, "compiler.lower": 3.0, "translate": 1.0}
    assert sum(totals.values()) == spans[0].duration


def test_tracer_nests_spans_and_inherits_the_operation():
    tracer = Tracer()
    with tracer.span("op", op=7):
        with tracer.span("inner"):
            pass
    inner, op = tracer.spans
    assert inner.parent == op.id and inner.op == 7 and op.parent is None


def test_tracer_restores_wrapped_functions():
    import types

    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    with Tracer() as tracer:
        tracer.wrap(module, "f", "layer")
        assert module.f(1) == 2
    assert module.f is original
    assert [s.name for s in tracer.spans] == ["layer"]


def test_every_register_allocation_is_booked_as_regalloc():
    # A cached compile into an empty cache allocates registers inside
    # ``serialize_image`` as well as in ``cached_compile``: every call of
    # the allocator must run inside a ``compiler.regalloc`` span, none
    # inside ``cache.write``.
    from inputs import shipped_corpus
    from repro.compiler.cache import cached_compile
    from repro.compiler.regalloc import compile_registers
    from repro.compiler.serialize import source_fingerprint
    from repro.surface.interp import compile_source

    _, source = shipped_corpus()[0]
    term, static_type = compile_source(source)
    allocator = compile_registers.__code__
    booked: list[str | None] = []
    scratch = make_scratch("selftest")
    try:
        with Tracer() as tracer:
            tracer.wrap_layers()

            def profile(frame, event, _arg):
                if event == "call" and frame.f_code is allocator:
                    stack = tracer._stack()
                    booked.append(stack[-1].name if stack else None)

            sys.setprofile(profile)
            try:
                found = cached_compile(term, source_hash=source_fingerprint(source),
                                       static_type=static_type, mediator="coercion",
                                       cache_dir=str(scratch / "cache"), ir="register")
            finally:
                sys.setprofile(None)
    finally:
        drop_scratch(scratch)
    assert found.status == "miss"
    assert booked and set(booked) == {"compiler.regalloc"}, booked


def test_seed_changes_inputs_but_not_their_shape():
    from inputs import boundary_loops, generated_programs

    first, second = boundary_loops(1), boundary_loops(2)
    assert [n for n, _ in first] == [n for n, _ in second]
    assert first != second
    assert generated_programs(1, 3) != generated_programs(2, 3)


# ---------------------------------------------------------------------------
# Smoke run
# ---------------------------------------------------------------------------


def _result(argv, cwd=ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def test_smoke_every_workload_prints_the_benchmark_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    runner = os.path.join(HERE, "run.py")
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, line = _result([runner, "--workload", workload, "--seed", "3",
                                  "--seconds", "1", "--trace", str(trace)])
            assert code == 0 and line is not None, (workload, trace, code)
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            assert got == wanted[trace], (workload, trace)
    # Another seed: different inputs, the same names.
    _, line = _result([runner, "--workload", "exec-loop", "--seed", "4", "--seconds", "1"])
    assert set(line["metrics"]) == set(wanted[0])


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exec-loop",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
        assert proc.returncode != 0 and proc.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass


SMOKE = ("test_smoke_every_workload_prints_the_benchmark_names",
         "test_refuses_to_run_without_the_program")


def main(argv) -> int:
    quick = "--quick" in argv
    failures = 0
    for name, test in sorted(globals().items()):
        if not name.startswith("test_") or (quick and name in SMOKE):
            continue
        try:
            test()
        except Exception as exc:  # report every failing test, then fail
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
