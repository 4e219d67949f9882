"""``experiment``: the rational-programmer experiment through the worker pool.

``repro.experiment.run_experiment`` with ``workers = min(2, nproc)``,
``engine="rvm"`` and all four semantics, over the shipped corpus plus
seeded generated programs, one program per call, in whole passes over the
corpus until the time is spent.  One operation is one lattice configuration, and nearly all of its
time is the front end and the IR pipeline in a worker; import and the
compile cache do no work (the experiment runs uncached).
"""

from __future__ import annotations

import os
import time

import reference
from common import (
    DEFAULT_SEED, SEMANTICS, HostSpeed, block_tail, children_of, is_failure, median, outcome,
    peak_rss_mb_of, self_peak_rss_mb,
)
from inputs import generated_programs, shipped_corpus
from layers import LayerBook, replay
from spans import Tracer, layer_self_seconds

#: Generated programs added to the shipped corpus.
GENERATED = 12

#: The experiment's shape, shared by the reference run and the measured run.
SHAPE = {"max_configs": 32, "starts_per_fault": 2, "faults_per_program": 2}


def _programs(seed: int) -> list[tuple[str, str, int]]:
    """``(name, source, experiment seed)`` per program.

    The programs are the same in every run: the shipped corpus and the
    generated programs of the default seed.  Which programs a seed
    generated moved the median operation time by 10-15% between seeds,
    since their sizes differ.  The seed picks the faults and trail starts
    of the generated programs (the shipped ones keep the default
    experiment seed), so it changes the configurations the program runs
    but not the programs' share of the work.
    """
    return ([(name, source, DEFAULT_SEED) for name, source in shipped_corpus()]
            + [(name, source, seed)
               for name, source in generated_programs(DEFAULT_SEED, GENERATED)])


def run(seed: int, seconds: float, traced: bool, scratch, processes: int) -> dict:
    from repro.experiment import ExperimentConfig, driver, run_experiment
    from repro.serve.pool import WorkerPool

    programs = _programs(seed)
    refs: dict[tuple[str, str], dict] = {}
    jobs = [{"kind": "experiment", "name": name, "source": source,
             "config": dict(SHAPE, seed=program_seed, semantics=list(SEMANTICS))}
            for name, source, program_seed in programs]
    for seen in reference.compute(jobs, processes):
        for semantics, source, expected in seen:
            refs[(semantics, source)] = expected
    configs = {program_seed: ExperimentConfig(semantics=SEMANTICS, engine="rvm",
                                              workers=processes, seed=program_seed, **SHAPE)
               for _, _, program_seed in programs}

    records: list[dict] = []
    state = {"tracer": None}
    worker_peaks: list[float] = []

    class TimedRunner(driver.PoolRunner):
        """The driver's pool runner, timed and checked per configuration.

        Only the traced half keeps each configuration's source and result
        (its replay needs them); otherwise a record is a few numbers, so
        this process's memory, part of ``peak_rss_mb``, does not grow with
        the number of operations.
        """

        def __call__(self, source: str) -> dict:
            tracer = state["tracer"]
            if tracer is None:
                started = time.perf_counter()
                result = super().__call__(source)
                finished = time.perf_counter()
            else:
                with tracer.span("op", op=len(records)) as span:
                    result = super().__call__(source)
                started, finished = span.start, span.end
            semantics = self.config.semantics
            got = outcome(result.get("kind"), result.get("value"), result.get("blame"))
            record = {"start": started, "end": finished,
                      "failed": is_failure(got, refs.get((semantics, source)))}
            if tracer is not None:
                record.update(source=source, semantics=semantics, result=result)
            records.append(record)
            return result

    pool_shutdown = WorkerPool.shutdown

    def measured_shutdown(pool):
        worker_peaks.append(peak_rss_mb_of(children_of(os.getpid())))
        return pool_shutdown(pool)

    def loop(budget: float, host: HostSpeed) -> dict:
        """One ``run_experiment`` call per program, in corpus order, for
        whole passes over the corpus until ``budget`` seconds are spent (at
        least one pass), so every run measures the same mix.  The host's
        speed is sampled before every call."""
        first = len(records)
        setups, calls, trails = [], [], 0
        deadline = time.perf_counter() + budget
        while not calls or time.perf_counter() < deadline:
            for name, source, program_seed in programs:
                host.sample(4)
                mark = len(records)
                started = time.perf_counter()
                found, _ = run_experiment([(name, source)], configs[program_seed])
                calls.append((started, time.perf_counter() - started))
                trails += len(found)
                if len(records) > mark:
                    setups.append((started, min(r["start"] for r in records[mark:]) - started))
        return {"records": records[first:], "setups": setups, "trails": trails,
                "calls": calls}

    def failed(batch) -> int:
        return sum(r["failed"] for r in batch)

    driver.PoolRunner, plain_runner = TimedRunner, driver.PoolRunner
    WorkerPool.shutdown = measured_shutdown
    try:
        if not traced:
            host = HostSpeed()
            run_ = loop(seconds, host)
        else:
            plain_host, traced_host = HostSpeed(), HostSpeed()
            plain = loop(seconds / 2, plain_host)
            book = LayerBook()
            with Tracer() as tracer:
                state["tracer"] = tracer
                tracer.wrap(WorkerPool, "execute", "pool.execute")
                tracer.wrap(driver, "sample_faults", "experiment.plan")
                tracer.wrap(driver, "enumerate_configurations", "experiment.plan")
                tracer.wrap(driver.ProgramLattice, "from_source", "experiment.plan")
                spanned = loop(seconds / 2, traced_host)
                state["tracer"] = None
    finally:
        driver.PoolRunner = plain_runner
        WorkerPool.shutdown = pool_shutdown

    if not traced:
        batch = run_["records"]
        latencies = host.at_reference((r["start"], r["end"] - r["start"]) for r in batch)
        tail_row = block_tail(latencies)
        return {
            "attempted": len(batch),
            "failed": failed(batch),
            "metrics": {
                # Set-up is interleaved with the loop: one per call.
                "setup_s": median(host.at_reference(run_["setups"])),
                "latency_p50_ms": 1000.0 * median(latencies),
                "latency_tail_ms": 1000.0 * tail_row["value"],
                "ops_per_s": len(batch) / sum(host.at_reference(run_["calls"])),
                "peak_rss_mb": self_peak_rss_mb() + max(worker_peaks),
            },
            "tail": tail_row,
            "hosts": {"set-up and loop": host},
        }

    batch = spanned["records"]
    book.ops = len(batch)
    traced_s = layer_self_seconds(tracer.spans)
    worker_s = sum(r["result"].get("compile_s", 0.0) + r["result"].get("run_s", 0.0)
                   for r in batch)
    execute_s = traced_s.get("pool.execute", 0.0)
    plan_s = traced_s.get("experiment.plan", 0.0)
    book.add_seconds("experiment.plan", plan_s)
    book.add_seconds("experiment.dispatch", execute_s - worker_s)
    book.values["experiment.plan_ms"] = 1000.0 * plan_s / len(batch)
    book.values["experiment.dispatch_ms"] = 1000.0 * (execute_s - worker_s) / len(batch)
    book.values["experiment.configs_per_trail"] = len(batch) / spanned["trails"]
    op_s = sum(r["end"] - r["start"] for r in batch)
    book.op_seconds = op_s + plan_s
    book.values["trace.overhead_ratio"] = (
        median(traced_host.at_reference((r["start"], r["end"] - r["start"]) for r in batch))
        / median(plain_host.at_reference((r["start"], r["end"] - r["start"])
                                         for r in plain["records"]))
    )
    book.values["host.calibration_ms"] = 1000.0 * plain_host.kernel_s()

    # The workers' compile, split into layers by an in-process replay of the
    # same configurations in the same order; run times are the workers' own.
    from repro.api import RunConfig

    runs = {s: RunConfig(engine="rvm", semantics=s, fuel=ExperimentConfig().fuel)
            for s in SEMANTICS}
    results, _ = replay(book, [(op, r["source"], runs[r["semantics"]])
                               for op, r in enumerate(batch)],
                        skip=("rvm.run",),
                        compile_s=sum(r["result"].get("compile_s", 0.0) for r in batch))
    for op, record in enumerate(batch):
        run_s = record["result"].get("run_s", 0.0)
        book.add_seconds("rvm.run", run_s)
        if results[op] is not None:
            book.add_rvm(record["semantics"], run_s, results[op].space_stats or {})
    covered = sum(v for k, v in book.seconds.items() if k != "op")
    book.seconds["op"] = book.op_seconds - covered
    return {"attempted": len(plain["records"]) + len(batch),
            "failed": failed(plain["records"]) + failed(batch), "book": book}
