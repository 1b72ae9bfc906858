"""Shared fixtures: small caches, tiny programs and analysed workloads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import CacheConfig, CacheState
from repro.program import ProgramBuilder, SystemLayout
from repro.analysis import analyze_task
from repro.vm.trace import _KIND_CODES, CompactTrace

from tests.oracles.trace import TraceColumns, block_trace


ROOT = Path(__file__).resolve().parents[1]


def run_from_root(*argv: str) -> subprocess.CompletedProcess:
    """``python ARGV`` from the repo root with src/ and the root on the
    path, the way ``docs/fuzzing.md`` runs the fuzz campaign."""
    return subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(["src", str(ROOT)])),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture
def tiny_cache_config():
    """A 2-way, 8-set, 16B-line cache: small enough to reason about by hand."""
    return CacheConfig(num_sets=8, ways=2, line_size=16, miss_penalty=20)


@pytest.fixture
def tiny_cache(tiny_cache_config):
    return CacheState(tiny_cache_config)


@pytest.fixture
def example2_config():
    """The paper's Example 2 cache: 1KB, 4-way, 16B lines, 16 sets."""
    return CacheConfig.example2_1k()


def compact_trace(events) -> CompactTrace:
    """The trace of ``(address, kind, node)`` references, kind one of
    ``"code"``, ``"read"`` or ``"write"``, as block visits: each node run
    one visit (:func:`tests.oracles.trace.block_trace`)."""
    columns = TraceColumns()
    for address, kind, node in events:
        columns.append(address, _KIND_CODES[kind], node, 0)
    return block_trace(columns.compact())


def make_streaming_program(name: str, words: int, reps: int):
    """A loop that streams over `data` into `out`, `reps` times."""
    b = ProgramBuilder(name)
    data = b.array("data", words=words)
    out = b.array("out", words=words)
    with b.loop(reps):
        with b.loop(words) as i:
            b.load("v", data, index=i)
            b.binop("v", "add", "v", 1)
            b.store("v", out, index=i)
    return b.build()


def make_two_path_program(name: str, words: int):
    """A branchy program: flag selects which of two tables is consulted."""
    b = ProgramBuilder(name)
    data = b.array("data", words=words)
    table_a = b.array("table_a", words=words)
    table_b = b.array("table_b", words=words)
    out = b.array("out", words=words)
    flag = b.scalar("flag")
    b.load("f", flag, index=0)
    with b.if_else("f") as arms:
        with arms.then_case():
            with b.loop(words) as i:
                b.load("v", data, index=i)
                b.load("t", table_a, index=i)
                b.binop("v", "add", "v", "t")
                b.store("v", out, index=i)
        with arms.else_case():
            with b.loop(words) as i:
                b.load("v", data, index=i)
                b.load("t", table_b, index=i)
                b.binop("v", "mul", "v", "t")
                b.store("v", out, index=i)
    return b.build()


@pytest.fixture
def streaming_program():
    return make_streaming_program("stream", words=24, reps=2)


@pytest.fixture
def two_path_program():
    return make_two_path_program("twopath", words=16)


@pytest.fixture
def analyzed_pair(tiny_cache_config):
    """Two small analysed tasks sharing one layout (high preempts low)."""
    config = CacheConfig(num_sets=32, ways=2, line_size=16, miss_penalty=20)
    layout = SystemLayout()
    low = make_streaming_program("low", words=48, reps=2)
    high = make_two_path_program("high", words=16)
    low_layout = layout.place(low)
    high_layout = layout.place(high)
    scenarios = {
        "low": {"default": {"data": list(range(48))}},
        "high": {
            "a": {"data": list(range(16)), "table_a": [2] * 16, "flag": [1]},
            "b": {"data": list(range(16)), "table_b": [3] * 16, "flag": [0]},
        },
    }
    low_art = analyze_task(low_layout, scenarios["low"], config)
    high_art = analyze_task(high_layout, scenarios["high"], config)
    return {
        "low": low_art, "high": high_art, "config": config,
        "scenarios": scenarios,
    }


# ----------------------------------------------------------------------
# Session-scoped experiment contexts (expensive: build + analyse + ART).
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def experiment1_context():
    from repro.experiments import EXPERIMENT_I_SPEC, build_context

    return build_context(EXPERIMENT_I_SPEC, miss_penalty=20)


@pytest.fixture(scope="session")
def experiment2_context():
    from repro.experiments import EXPERIMENT_II_SPEC, build_context

    return build_context(EXPERIMENT_II_SPEC, miss_penalty=20)
