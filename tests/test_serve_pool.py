"""Tests for the persistent worker pool (:mod:`repro.serve.pool`).

The pool is exercised directly (no asyncio front end): warm-image reuse,
crash detection and retry, the ``worker-lost`` terminal error, cooperative
deadlines, worker recycling, and the chaos property — under seeded
``worker_kill``/``slow_compile``/``torn_write`` faults, every job gets
exactly one terminal result and non-faulted results match a fault-free run
bit for bit.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import run
from repro.compiler.cache import sweep_cache
from repro.semantics import SEMANTICS_NAMES
from repro.serve.pool import _IMAGE_MEMO_CAP, WorkerPool
from repro.serve.protocol import TERMINAL_KINDS

SQUARE = "(define (square [x : int]) : int (* x x))\n(square (: 6 ?))\n"
BLAME = "(define lib : ? (lambda (x) #t))\n(+ 1 ((: lib (-> int int)) 3))\n"
SPIN = "(define (spin [n : int]) : int (spin n))\n(spin 0)\n"
IDENT = "((lambda ([x : int]) x) 42)\n"

#: (source, expected kind, expected value) for the chaos property.
PROGRAMS = [
    (SQUARE, "value", 36),
    (IDENT, "value", 42),
    (BLAME, "blame", None),
]


def job(source: str, **overrides) -> dict:
    base = {
        "op": "run_source",
        "source": source,
        "source_hash": None,
        "engine": "vm",
        "semantics": "coercion",
        "opt_level": 2,
        "fuel": None,
        "deadline_s": None,
        "cache_dir": None,
        "use_cache": True,
    }
    base.update(overrides)
    return base


class TestWorkerPool:
    def test_run_source_and_warm_memo(self):
        with WorkerPool(1) as pool:
            first = pool.execute(job(SQUARE))
            assert (first["kind"], first["value"]) == ("value", 36)
            assert first["type"] == "int"
            assert first["cache"] == "miss"
            # Same worker, same source: served straight from the resident
            # image memo — no cache read, no compile.
            second = pool.execute(job(SQUARE))
            assert second["cache"] == "warm"
            assert second["value"] == 36

    def test_blame_and_fuel_timeout(self):
        with WorkerPool(1) as pool:
            blamed = pool.execute(job(BLAME))
            assert blamed["kind"] == "blame" and "blame" in blamed
            spun = pool.execute(job(SPIN, fuel=1000))
            assert spun["kind"] == "timeout"

    def test_rvm_engine(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job(SQUARE, engine="rvm"))
            assert (result["kind"], result["value"]) == ("value", 36)

    def test_front_end_error_is_an_error_result(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job("(+ 1 #t)"))
            assert result["kind"] == "error" and result["error"]

    def test_unknown_source_hash_is_an_error(self):
        with WorkerPool(1) as pool:
            result = pool.execute(job(None, source_hash="ab" * 32))
            assert result["kind"] == "error"
            assert "not in the compile cache" in result["error"]

    def test_source_hash_alone_hits_a_warm_cache(self, tmp_path):
        from repro.compiler.serialize import source_fingerprint

        with WorkerPool(1, max_requests=1) as pool:  # recycle between runs
            pool.execute(job(SQUARE, cache_dir=str(tmp_path)))
            # A fresh worker, no source shipped: the hash finds the entry.
            result = pool.execute(job(
                None,
                source_hash=source_fingerprint(SQUARE),
                cache_dir=str(tmp_path),
            ))
            assert (result["kind"], result["value"]) == ("value", 36)
            assert result["cache"] == "hit"

    def test_cooperative_deadline_preserves_worker(self):
        with WorkerPool(1) as pool:
            slow = pool.execute(job(SPIN, fuel=10**12, deadline_s=0.2))
            assert slow["kind"] == "timeout"
            assert slow["reason"] == "deadline"
            # The worker survived (no crash, no respawn) and still serves.
            after = pool.execute(job(SQUARE))
            assert after["value"] == 36
            info = pool.info()
            assert info["crashes"] == 0 and info["alive"] == 1

    def test_crash_is_retried_and_succeeds(self):
        with WorkerPool(1, faults="worker_kill:1.0:1") as pool:
            result = pool.execute(job(SQUARE))
            assert (result["kind"], result["value"]) == ("value", 36)
            assert result["attempts"] == 2
            info = pool.info()
            assert info["crashes"] == 1 and info["retries"] == 1
            assert info["lost"] == 0 and info["alive"] == 1

    def test_worker_lost_after_retry_budget(self):
        with WorkerPool(1, faults="worker_kill:1.0", retries=1) as pool:
            result = pool.execute(job(SQUARE))
            assert result["kind"] == "error"
            assert result["reason"] == "worker-lost"
            assert result["attempts"] == 2
            assert pool.info()["lost"] == 1
            # The pool itself survives its workers: faults keep firing, but
            # every subsequent job still gets a terminal result.
            again = pool.execute(job(SQUARE))
            assert again["reason"] == "worker-lost"

    def test_recycled_after_max_requests(self):
        with WorkerPool(1, max_requests=1) as pool:
            pool.execute(job(SQUARE))
            second = pool.execute(job(SQUARE))
            # The replacement worker has no resident image: it re-seeds
            # from the on-disk compile cache instead.
            assert second["cache"] == "hit"
            assert pool.info()["recycled"] >= 1

    def test_run_image_job(self, tmp_path):
        from repro.compiler.serialize import serialize_image, source_fingerprint
        from repro.compiler.vm import compile_term
        from repro.surface.interp import compile_source

        term, ty = compile_source(SQUARE)
        data = serialize_image(compile_term(term), static_type=ty,
                               source_hash=source_fingerprint(SQUARE))
        with WorkerPool(1) as pool:
            result = pool.execute(
                {"op": "run_image", "program": "sq", "image": data, "fuel": None}
            )
            assert (result["kind"], result["value"]) == ("value", 36)
            assert result["program"] == "sq"
            assert "load_s" in result and "run_s" in result

    def test_unknown_op_is_an_error(self):
        with WorkerPool(1) as pool:
            assert pool.execute({"op": "nope"})["kind"] == "error"

    def test_execute_after_shutdown_raises(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.execute(job(SQUARE))

    def test_faults_default_from_environment(self, monkeypatch):
        from repro.core.faults import FAULTS_ENV

        monkeypatch.setenv(FAULTS_ENV, "worker_kill:1.0:1")
        with WorkerPool(1) as pool:
            result = pool.execute(job(SQUARE))
            assert result["value"] == 36 and result["attempts"] == 2


class TestFrontEndMemo:
    """Parse, elaborate and λB → λC → λS run once per source per worker;
    only lowering onwards runs per semantics."""

    def test_one_front_end_serves_every_semantics(self, tmp_path, monkeypatch):
        import repro.surface.parser as parser

        expected = {(source, semantics): run(source, engine="machine", semantics=semantics)
                    for source in (SQUARE, BLAME) for semantics in SEMANTICS_NAMES}
        # Forked workers inherit the patch; they report parses through a file.
        parses = tmp_path / "parses"
        original = parser.parse_program

        def counting(source):
            with open(parses, "a") as log:
                log.write("parse\n")
            return original(source)

        monkeypatch.setattr(parser, "parse_program", counting)
        with WorkerPool(1) as pool:
            for source in (SQUARE, BLAME):
                fronts = []
                for semantics in SEMANTICS_NAMES:
                    got = pool.execute(job(source, engine="rvm", semantics=semantics,
                                           use_cache=False))
                    want = expected[source, semantics]
                    assert got["kind"] == want.kind
                    assert got.get("value") == want.value
                    assert got.get("blame") == (str(want.blame_label)
                                                if want.is_blame else None)
                    assert got["cache"] == "off"
                    fronts.append(got["front"])
                assert fronts == ["cold", "warm", "warm", "warm"]
            # A repeated configuration is a resident image: no front end at all.
            again = pool.execute(job(SQUARE, engine="rvm", use_cache=False))
            assert (again["cache"], again["front"]) == ("warm", None)
        assert parses.read_text().count("parse") == 2

    def test_front_end_errors_are_memoized_as_results(self):
        with WorkerPool(1) as pool:
            for source in ("(+ 1", "(+ 1 #t)\n"):
                first = pool.execute(job(source, use_cache=False))
                second = pool.execute(job(source, use_cache=False, semantics="threesome"))
                assert first["kind"] == "error"
                assert (first.pop("front"), second.pop("front")) == ("cold", "warm")
                assert first == second

    def test_front_ends_through_the_compile_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with WorkerPool(1) as pool:
            cold = pool.execute(job(SQUARE, cache_dir=cache_dir))
            warm = pool.execute(job(SQUARE, cache_dir=cache_dir, semantics="threesome"))
        assert (cold["cache"], cold["front"]) == ("miss", "cold")
        assert (warm["cache"], warm["front"]) == ("miss", "warm")
        assert cold["value"] == warm["value"] == 36
        with WorkerPool(1) as pool:  # a fresh worker: both images are on disk
            hit = pool.execute(job(SQUARE, cache_dir=cache_dir, semantics="threesome"))
        assert (hit["cache"], hit["front"]) == ("hit", None)

    def test_the_memo_is_bounded(self):
        sources = [f"(+ 1 {n})\n" for n in range(_IMAGE_MEMO_CAP + 1)]
        with WorkerPool(1) as pool:
            for source in sources:
                assert pool.execute(job(source, use_cache=False))["front"] == "cold"
            newest = pool.execute(job(sources[-1], use_cache=False, semantics="erasure"))
            oldest = pool.execute(job(sources[0], use_cache=False, semantics="erasure"))
        assert newest["front"] == "warm"
        assert oldest["front"] == "cold"
        assert oldest["value"] == 1


class TestChaosProperty:
    """Under seeded faults: every job one terminal result, non-faulted
    results identical to a fault-free run, no corrupt cache entries left."""

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        kill=st.sampled_from([0.0, 0.3, 1.0]),
        picks=st.lists(st.integers(min_value=0, max_value=len(PROGRAMS) - 1),
                       min_size=1, max_size=6),
    )
    def test_every_job_gets_one_terminal_result(self, seed, kill, picks):
        cache_dir = os.environ["REPRO_GRADUAL_CACHE_DIR"]
        spec = f"worker_kill:{kill},slow_compile:0.3:2,torn_write:0.5:2"
        with WorkerPool(1, faults=spec, seed=seed, retries=2) as pool:
            for index in picks:
                source, expected_kind, expected_value = PROGRAMS[index]
                result = pool.execute(job(source, cache_dir=cache_dir))
                assert result["kind"] in TERMINAL_KINDS
                if result["kind"] == "error":
                    # Only injected crashes produce errors for these programs.
                    assert result["reason"] == "worker-lost"
                else:
                    assert result["kind"] == expected_kind
                    if expected_value is not None:
                        assert result["value"] == expected_value
        # Whatever torn writes the run injected, a sweep leaves the cache
        # clean — and entries that survive all load.
        _kept, removed = sweep_cache(cache_dir)
        assert sweep_cache(cache_dir)[1] == 0
