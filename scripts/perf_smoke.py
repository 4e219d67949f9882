"""Perf-regression smoke: the optimizer's and the register VM's wins must
not quietly erode.

Re-measures the **two fastest** ``bench_vm`` workloads (fastest by the
committed artifact's ``-O2`` times, so the smoke costs seconds) and
compares two speedup geomeans against the ones recorded in the committed
``BENCH_vm.json``: ``-O2`` over ``-O0`` (the optimizer's win) and the
register VM over the ``-O2`` stack VM (the register IR's win).  The
comparison is on *speedup ratios*, not wall-clock seconds: CI machines are
arbitrarily slower or faster than the machine that recorded the baseline,
but the ratio between two runs of the same VMs on the same box is stable.
If either current ratio slips more than ``SLIP_TOLERANCE`` (25%) below the
committed one — someone pessimised the optimizer, the VM's fast paths, or
the register dispatch core — exit non-zero and fail the build.  Further
gates check the trace hooks' cost, the erasure ceiling and the front end
(see each ``*_gate`` function).

Usage::

    python scripts/perf_smoke.py            # exit 0 ok, 1 regression
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

from bench_vm import VM_WORKLOADS, geomean  # noqa: E402

from repro.compiler import compile_registers, compile_term, run_code, run_rcode  # noqa: E402

SLIP_TOLERANCE = 0.25
REPEAT = 5

#: The one-pass ``|·|BS`` must beat the two-pass ``|·|CS ∘ |·|BC`` by this
#: much on the shipped corpus (same machine, same terms).
TRANSLATE_SPEEDUP_FLOOR = 1.5

#: Parse time per 1000 tokens divided by :func:`_calibration_loop`'s time,
#: as measured when the one-regex scanner landed (Python 3.11, 2 vCPU
#: x86-64), and the ceiling the gate allows: 1.25x that.
PARSE_PER_TOKEN_BASELINE = 1.02
PARSE_PER_TOKEN_CEILING = 1.25 * PARSE_PER_TOKEN_BASELINE

#: The observability hooks' budget: with no tracer active, the vm/rvm hot
#: loops may not be more than 2% slower than the committed baseline.
TRACE_OVERHEAD_TOLERANCE = 0.02


def _best_of(fn, repeat: int = REPEAT) -> float:
    fn()  # warmup
    timings = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        timings.append(time.perf_counter() - start)
    return min(timings)


def _best(code, runner=run_code, repeat: int = REPEAT) -> float:
    return _best_of(lambda: runner(code), repeat)


def main() -> int:
    baseline_path = REPO / "BENCH_vm.json"
    baseline = json.loads(baseline_path.read_text())
    by_name = {m["name"]: m for m in baseline["measurements"]}

    # The two fastest workloads by the committed -O2 run time.
    o2_times = {
        name: by_name[f"vm/S/O2/{name}"]["best_s"]
        for name in VM_WORKLOADS
        if f"vm/S/O2/{name}" in by_name
    }
    if len(o2_times) < 2:
        print(f"perf-smoke: {baseline_path.name} has no vm/S/O2 measurements; "
              "re-record with `python benchmarks/bench_vm.py --json`")
        return 1
    fastest = sorted(o2_times, key=o2_times.get)[:2]

    committed_opt = geomean(
        [by_name[f"speedup/{name}"]["o2_vs_o0"] for name in fastest]
    )
    committed_rvm = geomean(
        [by_name[f"speedup/{name}"]["rvm_vs_o2"] for name in fastest]
    )

    opt_ratios = []
    rvm_ratios = []
    for name in fastest:
        term_b, check, _ = VM_WORKLOADS[name]
        code_o0 = compile_term(term_b, opt_level=0)
        code_o2 = compile_term(term_b, opt_level=2)
        rcode_o2 = compile_registers(code_o2)
        outcome = run_code(code_o2)
        assert outcome.is_value and check(outcome.python_value()), name
        outcome = run_rcode(rcode_o2)
        assert outcome.is_value and check(outcome.python_value()), f"{name} (rvm)"
        best_o2 = _best(code_o2)
        opt_ratio = _best(code_o0) / best_o2
        rvm_ratio = best_o2 / _best(rcode_o2, runner=run_rcode)
        opt_ratios.append(opt_ratio)
        rvm_ratios.append(rvm_ratio)
        print(f"perf-smoke: {name}: -O2 over -O0 now {opt_ratio:.2f}x "
              f"(committed {by_name[f'speedup/{name}']['o2_vs_o0']:.2f}x), "
              f"rvm over -O2 now {rvm_ratio:.2f}x "
              f"(committed {by_name[f'speedup/{name}']['rvm_vs_o2']:.2f}x)")

    status = 0
    for label, current, committed in (
        ("-O2 over -O0", geomean(opt_ratios), committed_opt),
        ("rvm over -O2", geomean(rvm_ratios), committed_rvm),
    ):
        floor = committed * (1 - SLIP_TOLERANCE)
        verdict = "ok" if current >= floor else "REGRESSION"
        print(f"perf-smoke: {label} geomean {current:.2f}x vs committed "
              f"{committed:.2f}x (floor {floor:.2f}x): {verdict}")
        if current < floor:
            status = 1
    status |= trace_overhead_gate(by_name, fastest)
    status |= erasure_ceiling_gate()
    status |= front_end_gate()
    return status


def erasure_ceiling_gate() -> int:
    """Gate: Erasure is the speed ceiling — Natural must pay for enforcement.

    On the boundary-heavy workloads (where mediation actually runs), the
    erasure backend elides every mediator at ``-O1+``; if it is not at least
    as fast as the Natural (coercion) backend in geomean, either the elision
    broke or the Natural backend got a free lunch that should be
    investigated.  Measured live on this box across both engines — speedup
    ratios, like the gates above, are machine-stable.
    """
    from bench_mediators import ENGINE_WORKLOADS

    from repro.machine import run_on_machine

    ratios = []
    for name, term, boundary_heavy, _ in ENGINE_WORKLOADS:
        if not boundary_heavy:
            continue
        code_natural = compile_term(term, mediator="coercion")
        code_erased = compile_term(term, mediator="erasure")
        vm_ratio = _best(code_natural) / _best(code_erased)
        machine_ratio = _best(term, runner=lambda t: run_on_machine(t, "S")) / _best(
            term, runner=lambda t: run_on_machine(t, "S", mediator="erasure"))
        ratios.extend([vm_ratio, machine_ratio])
        print(f"perf-smoke: erasure ceiling on {name}: vm {vm_ratio:.2f}x, "
              f"machine {machine_ratio:.2f}x")

    ceiling = geomean(ratios)
    verdict = "ok" if ceiling >= 1.0 else "REGRESSION"
    print(f"perf-smoke: erasure over coercion geomean {ceiling:.2f}x "
          f"(floor 1.00x): {verdict}")
    return 0 if ceiling >= 1.0 else 1


def trace_overhead_gate(by_name: dict, fastest: list[str]) -> int:
    """Gate: untraced runs may not pay for the observability hooks.

    Every mediator lifecycle site in the vm/rvm dispatch loops now carries
    an ``if tracer is not None`` hook; with no tracer active that test must
    cost ~nothing.  Wall clock is not comparable across machines, so the
    current run times are normalized by a *register-allocation calibration
    ratio*: ``regalloc`` has no hooks at all, so ``regalloc_now /
    regalloc_committed`` (the committed ``compile/registers/*`` entries)
    measures only how this box compares to the one that recorded the
    baseline.  (Whole compilation is no such yardstick: a faster front end
    would read as a slower machine.)  The calibrated slowdown

        (run_now / run_committed) / (regalloc_now / regalloc_committed)

    is geomeaned over {vm -O2, rvm -O2} × the two fastest workloads and
    gated at ``TRACE_OVERHEAD_TOLERANCE``.  An enabled-tracing run (ring
    buffer sink) is also measured, informationally — it is allowed to cost.
    """
    from repro.obs import RingBufferSink, tracing

    calib_names = [n for n in VM_WORKLOADS if f"compile/registers/{n}" in by_name]
    if not calib_names:
        print("perf-smoke: no compile/registers/* baseline entries; skipping trace gate")
        return 0
    codes = [compile_term(VM_WORKLOADS[name][0], opt_level=2) for name in calib_names]

    def regalloc_all() -> None:
        for code in codes:
            compile_registers(code)

    regalloc_now = _best_of(regalloc_all)
    regalloc_committed = sum(by_name[f"compile/registers/{n}"]["best_s"] for n in calib_names)
    calibration = regalloc_now / regalloc_committed

    slowdowns = []
    for name in fastest:
        term_b = VM_WORKLOADS[name][0]
        code_o2 = compile_term(term_b, opt_level=2)
        rcode_o2 = compile_registers(code_o2)
        for label, code, runner in (
            (f"vm/S/O2/{name}", code_o2, run_code),
            (f"rvm/S/O2/{name}", rcode_o2, run_rcode),
        ):
            committed = by_name.get(label)
            if committed is None:
                continue
            now = _best(code, runner=runner)
            slowdowns.append((now / committed["best_s"]) / calibration)

    if not slowdowns:
        print("perf-smoke: no vm/rvm O2 baseline entries; skipping trace gate")
        return 0
    slowdown = geomean(slowdowns)
    ceiling = 1 + TRACE_OVERHEAD_TOLERANCE
    verdict = "ok" if slowdown <= ceiling else "REGRESSION"
    print(f"perf-smoke: disabled-tracing slowdown geomean {slowdown:.3f}x "
          f"(calibration {calibration:.2f}x, ceiling {ceiling:.2f}x): {verdict}")

    # Informational: what tracing costs when it is actually on.
    name = fastest[0]
    rcode = compile_registers(compile_term(VM_WORKLOADS[name][0], opt_level=2))
    untraced = _best(rcode, runner=run_rcode)
    with tracing(RingBufferSink()):
        traced = _best(rcode, runner=run_rcode)
    print(f"perf-smoke: enabled-tracing (ring buffer) overhead on {name}: "
          f"{traced / untraced:.2f}x (informational)")
    return 0 if slowdown <= ceiling else 1


def _calibration_loop() -> int:
    """Fixed pure-Python work that calls nothing in the program: string
    splitting and comparison, tuple and list building, dict lookups and a
    keyed sort, the interpreter paths the front end runs."""
    words = "(define (f [x : int]) : int (+ x 1)) ; a comment".split()
    table = {word: index for index, word in enumerate(words)}
    rows = []
    total = 0
    for i in range(4000):
        word = words[i % len(words)]
        total += table.get(word, 0) + len(word)
        rows.append((word, i, total & 255))
    rows.sort(key=lambda row: row[2])
    return total + len(rows)


def front_end_gate() -> int:
    """Gate: the compile front end keeps its one-pass and scanner wins.

    On the shipped corpus (``examples/programs``):

    * the one-pass ``|·|BS`` (:func:`repro.translate.b_to_s`, what the
      compiler runs) must be at least ``TRANSLATE_SPEEDUP_FLOOR`` times as
      fast as the two-pass ``c_to_s(b_to_c(M))`` it is tested against;
    * ``parse_program``'s time per 1000 tokens, divided by the time of the
      fixed :func:`_calibration_loop`, must stay under
      ``PARSE_PER_TOKEN_CEILING``.  Both are pure Python on one machine,
      so the ratio carries across machines much better than seconds do.
    """
    from repro.surface.interp import compile_source
    from repro.surface.lexer import scan
    from repro.surface.parser import parse_program
    from repro.translate import b_to_c, b_to_s, c_to_s

    corpus = sorted((REPO / "examples" / "programs").glob("*.grad"))
    sources = [path.read_text() for path in corpus]
    terms = [compile_source(source)[0] for source in sources]
    rounds = 20

    def one_pass() -> None:
        for _ in range(rounds):
            for term in terms:
                b_to_s(term)

    def two_pass() -> None:
        for _ in range(rounds):
            for term in terms:
                c_to_s(b_to_c(term))

    def parse_all() -> None:
        for _ in range(rounds):
            for source in sources:
                parse_program(source)

    speedup = _best_of(two_pass) / _best_of(one_pass)
    verdict = "ok" if speedup >= TRANSLATE_SPEEDUP_FLOOR else "REGRESSION"
    print(f"perf-smoke: one-pass |.|BS over c_to_s(b_to_c) {speedup:.2f}x "
          f"(floor {TRANSLATE_SPEEDUP_FLOOR:.2f}x): {verdict}")
    status = 0 if speedup >= TRANSLATE_SPEEDUP_FLOOR else 1

    # The host's speed drifts, so parse and calibration alternate and the
    # gate takes the median of the paired ratios.
    tokens = rounds * sum(len(scan(source)) for source in sources)
    ratios = []
    for _ in range(3 * REPEAT):
        per_token = _best_of(parse_all, repeat=1) / tokens
        ratios.append(1000 * per_token / _best_of(_calibration_loop, repeat=1))
    ratio = statistics.median(ratios)
    verdict = "ok" if ratio <= PARSE_PER_TOKEN_CEILING else "REGRESSION"
    print(f"perf-smoke: parse time per 1000 tokens {ratio:.3f} calibration loops "
          f"(baseline {PARSE_PER_TOKEN_BASELINE:.3f}, ceiling {PARSE_PER_TOKEN_CEILING:.3f}): "
          f"{verdict}")
    if ratio > PARSE_PER_TOKEN_CEILING:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
