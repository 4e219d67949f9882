"""Seeded inputs of the three workloads.

The program sees only the sources generated here.  A seed changes the
literals and the choice of generated programs, but not how much work an
input does, so two seeds give different inputs with the same cost profile
and the same metric names.
"""

from __future__ import annotations

import random
from pathlib import Path

from common import ROOT

#: The shipped surface corpus, used as-is by every workload that takes files.
CORPUS_DIR = ROOT / "examples" / "programs"


def shipped_corpus() -> list[tuple[str, str]]:
    return [(p.name, p.read_text()) for p in sorted(CORPUS_DIR.glob("*.grad"))]


def generated_programs(seed: int, count: int, bindings: int = 5) -> list[tuple[str, str]]:
    """``count`` multi-binding programs from :mod:`repro.gen` for this seed."""
    from repro.gen import generate_corpus

    return generate_corpus(count, seed=seed % 100_000, bindings=bindings)


# ---------------------------------------------------------------------------
# exec-loop: boundary-crossing loops
# ---------------------------------------------------------------------------

#: Iterations of the tail countdown; the other loops are scaled so that
#: every loop takes about as long (a median over a mix of very different
#: operation costs would jump between them from run to run).
LOOP_ITERATIONS = 10_000


def boundary_loops(seed: int, iterations: int = LOOP_ITERATIONS) -> list[tuple[str, str]]:
    """Four loops whose values cross the dynamic boundary every iteration.

    * ``tail``: a typed tail countdown returning through ``?`` (the shape of
      ``examples/programs/tail_loop.grad``);
    * ``evenodd``: typed ``ev`` and an untyped local ``od`` calling each
      other in tail position, so pending result casts must merge;
    * ``hof``: a typed loop applying an untyped step function through a
      ``(-> int int)`` wrapper on every iteration;
    * ``nontail``: a non-tail recursion whose result is cast through ``?``.

    The seed picks literals that do not change the amount of work: the
    values carried along, added constants and a jitter of under 1% on the
    iteration count.
    """
    rng = random.Random(f"exec-loop|{seed}")
    n = iterations + rng.randrange(0, iterations // 100 + 1)
    base = rng.randrange(1, 100)
    flag = rng.choice(["#t", "#f"])
    inverse = "#f" if flag == "#t" else "#t"
    return [
        ("tail", (
            "(define (countdown [n : int]) : bool\n"
            f"  (if (zero? n) {flag} (: (: (countdown (- n 1)) ?) bool)))\n"
            f"(countdown {n})\n"
        )),
        ("evenodd", (
            "(define (ev [n : int]) : bool\n"
            f"  (let ([od (lambda (m) (if (zero? m) (: {inverse} ?) (: (ev (- m 1)) ?)))])\n"
            f"    (if (zero? n) {flag} (: (od (- n 1)) bool))))\n"
            f"(ev {n // 2})\n"
        )),
        ("hof", (
            f"(define step : ? (lambda (x) (- x 1)))\n"
            "(define (loop [f : (-> int int)] [n : int] [acc : int]) : int\n"
            "  (if (zero? n) acc (loop f (f n) (+ acc 1))))\n"
            f"(loop step {n // 5} {base})\n"
        )),
        ("nontail", (
            "(define (sum [n : int]) : int\n"
            f"  (if (zero? n) {base} (+ n (: (: (sum (- n 1)) ?) int))))\n"
            f"(sum {n // 3})\n"
        )),
    ]


#: The loops whose pending mediators must stay bounded (the space claim).
TAIL_LOOPS = ("tail", "evenodd", "hof")


def write_sources(directory: Path, named: list[tuple[str, str]]) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in named:
        path = directory / (name if name.endswith(".grad") else name + ".grad")
        path.write_text(text)
        paths.append(path)
    return paths
