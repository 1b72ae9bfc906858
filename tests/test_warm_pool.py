"""Unit tests for the warm worker pool.

The :class:`~repro.batch.pool.WarmPool` carries three contracts the
batch engine, the CRPD fan-out and the fuzz runner all lean on:

* *seed dedup* — a context value is pickled and spooled exactly once,
  however often it is seeded, and ``ship_bytes`` counts those bytes (a
  serial pool ships nothing and maps against the caller's object);
* *warm reuse* — workers keep unpickled contexts (and their
  :func:`~repro.batch.pool.derived` state) across tasks, counted by
  ``reuse``;
* *taxonomy-faithful fallback* — pool infrastructure failures degrade to
  an in-process serial run with identical results, while analysis errors
  (:class:`~repro.errors.ReproError`) propagate unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import pytest

from repro.batch.pool import WarmPool, derived, in_worker
from repro.errors import ReproError
from repro.obs import observed


def _double(context, item):
    return (context or 0) * 0 + item * 2


def _with_context(context, item):
    return (context["base"], item)


def _report_in_worker(context, item):
    return in_worker()


def _raise_repro(context, item):
    raise ReproError(f"analysis failed on {item}")


def _context_identity(context, item):
    return id(context)


def _derived_id(context, item):
    value = derived(context, "probe", lambda: object())
    return id(value)


class TestWarmPoolBasics:
    def test_serial_map_preserves_order_and_counts(self):
        with WarmPool(jobs=1) as pool:
            assert pool.map(_double, [3, 1, 2]) == [6, 2, 4]
            assert pool.map(_double, []) == []
            assert pool.tasks == 3

    def test_parallel_map_preserves_order(self):
        with WarmPool(jobs=2) as pool:
            token = pool.seed({"base": 7})
            results = pool.map(_with_context, list(range(8)), context=token)
        assert results == [(7, i) for i in range(8)]

    def test_closed_pool_refuses_work(self):
        pool = WarmPool(jobs=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(_double, [1])
        with pytest.raises(RuntimeError):
            pool.seed("ctx")

    def test_unknown_context_token_is_an_error(self):
        with WarmPool(jobs=1) as pool:
            with pytest.raises(KeyError):
                pool.map(_double, [1], context="not-a-token")


class TestSeedDedup:
    def test_equal_contexts_ship_once(self):
        with observed() as (_, metrics):
            with WarmPool(jobs=2) as pool:
                token1 = pool.seed({"layouts": list(range(100))})
                shipped = pool.ship_bytes
                assert shipped > 0
                token2 = pool.seed({"layouts": list(range(100))})
                assert token1 == token2
                assert pool.ship_bytes == shipped  # no second write
                token3 = pool.seed({"layouts": list(range(101))})
                assert token3 != token1
                assert pool.ship_bytes > shipped
        counters = metrics.to_dict()["counters"]
        assert counters["batch.pool.contexts"] == 2
        assert counters["batch.pool.ship_bytes"] == pool.ship_bytes

    def test_serial_pool_ships_and_keeps_nothing(self):
        context = {"base": 7}
        with WarmPool(jobs=1) as pool:
            token = pool.seed(context)
            assert pool.map(_with_context, [1, 2], context=token) == [
                (7, 1), (7, 2)
            ]
            assert pool.map(_context_identity, [0], context=token) == [
                id(context)
            ]
            assert pool.ship_bytes == 0
            assert pool._contexts == {}
            assert pool._spool_dir is None
            assert pool.tasks == 3


class TestWarmReuse:
    def test_workers_serve_repeat_contexts_warm(self):
        items = list(range(10))
        with WarmPool(jobs=2) as pool:
            token = pool.seed({"base": 1})
            pool.map(_with_context, items, context=token)
            first_round_reuse = pool.reuse
            # Each worker unpickles the context at most once, so at least
            # items - jobs tasks were served warm already in round one.
            assert first_round_reuse >= len(items) - pool.jobs
            # A second map against the same token is entirely warm.
            pool.map(_with_context, items, context=token)
            assert pool.reuse >= first_round_reuse + len(items)

    def test_in_worker_flag_matches_execution_path(self):
        assert in_worker() is False
        with WarmPool(jobs=2) as pool:
            token = pool.seed("ctx")
            assert all(pool.map(_report_in_worker, [1, 2], context=token))
        with WarmPool(jobs=1) as pool:
            token = pool.seed("ctx")
            assert pool.map(_report_in_worker, [1], context=token) == [False]

    def test_derived_state_is_memoized_per_context(self):
        context_a, context_b = {"k": "a"}, {"k": "b"}
        first = derived(context_a, "probe", lambda: object())
        assert derived(context_a, "probe", lambda: object()) is first
        assert derived(context_b, "probe", lambda: object()) is not first


class TestFallbackAndErrors:
    def test_unpicklable_item_falls_back_to_identical_serial_run(self):
        items = [1, 2, (lambda: 3)]  # the lambda cannot cross the fork

        def fn(context, item):
            return item() * 2 if callable(item) else item * 2

        # fn itself is a closure (also unpicklable) — either payload
        # triggers the PicklingError that degrades the pool.
        with observed() as (_, metrics):
            with WarmPool(jobs=2) as pool:
                assert pool.map(fn, items) == [2, 4, 6]
                assert pool.fallbacks == 1
                # The pool stays serial: no second fallback, still correct.
                assert pool.map(fn, [5]) == [10]
                assert pool.fallbacks == 1
        assert metrics.to_dict()["counters"]["batch.pool.fallbacks"] == 1

    def test_fallback_does_not_wedge_interpreter_exit(self):
        # Regression: _fall_back used to shut the broken executor down
        # with cancel_futures=True, racing terminate_broken()'s
        # set_exception() on the same futures (3.11 has no
        # cancelled-check there).  The manager thread then died before
        # reaping workers and the interpreter hung forever at exit
        # joining it.  A subprocess with a timeout is the only faithful
        # probe for "exit completes".
        script = textwrap.dedent(
            """
            from repro.batch.pool import WarmPool

            pool = WarmPool(jobs=2)
            items = [1, 2, (lambda: 3)]

            def fn(context, item):
                return item() * 2 if callable(item) else item * 2

            assert pool.map(fn, items) == [2, 4, 6]
            assert pool.fallbacks == 1
            print("fell back cleanly")
            # No pool.close(): exit must still complete promptly.
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "fell back cleanly" in proc.stdout

    def test_worker_killed_mid_sweep_falls_back_to_identical_results(self):
        # A worker SIGKILLed while it analyses one point breaks the pool:
        # the batch must rerun serially, return every payload exactly as
        # a jobs=1 run does, count one fallback and let the interpreter
        # exit 0.  The kill is patched in before the pool forks, so only
        # forked workers inherit it (in_worker() guards the serial rerun).
        script = textwrap.dedent(
            """
            import multiprocessing
            import os
            import signal

            import repro.batch.engine as engine
            from repro.batch.engine import analyze_batch, sweep_grid
            from repro.batch.pool import WarmPool, in_worker

            multiprocessing.set_start_method("fork", force=True)
            analyze_point = engine._analyze_point

            def dying(context, point):
                if in_worker() and point.miss_penalty == 30:
                    os.kill(os.getpid(), signal.SIGKILL)
                return analyze_point(context, point)

            engine._analyze_point = dying
            points = sweep_grid(("exp1",), (10, 20, 30, 40))
            with WarmPool(jobs=2) as pool:
                fanned = analyze_batch(points, pool=pool)
                assert pool.fallbacks == 1, pool.fallbacks
            assert fanned.pool_fallbacks == 1
            serial = analyze_batch(points, jobs=1)
            assert serial.pool_fallbacks == 0
            assert [r.payload for r in fanned] == [r.payload for r in serial]
            print("payloads equal after", pool.fallbacks, "fallback")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "payloads equal after 1 fallback" in proc.stdout

    def test_analysis_errors_propagate_without_fallback(self):
        with WarmPool(jobs=2) as pool:
            with pytest.raises(ReproError, match="analysis failed"):
                pool.map(_raise_repro, [1, 2])
            assert pool.fallbacks == 0
        with WarmPool(jobs=1) as pool:
            with pytest.raises(ReproError):
                pool.map(_raise_repro, [1])
            assert pool.fallbacks == 0
