"""Tests for the layout/coloring optimizer (``repro optimize``).

Pins the ISSUE satellites: seeded determinism (same seed => byte-identical
move log and Pareto front), ``anneal best <= greedy best <= baseline`` on
both paper experiments, parameter validation, and the Pareto/score
helpers in isolation.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.analysis.crpd import Approach
from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import WhatIfSession
from repro.cache.config import CacheConfig
from repro.cli import main
from repro.errors import ConfigError
from repro.fuzz.spec import (
    CacheSpec,
    MemSpec,
    ProgramSpec,
    SystemSpec,
    TaskDef,
)
from repro.optimize import (
    MOVE_KINDS,
    MoveProposer,
    default_cache_budgets,
    dominates,
    optimize,
    pareto_front,
    wcrt_score,
)
from repro.program.layout import LayoutAssignment, LayoutError


def small_spec() -> SystemSpec:
    """The same fixed two-task system ``tests/test_whatif.py`` uses."""
    return SystemSpec(
        cache=CacheSpec(num_sets=8, ways=2, line_size=8, miss_penalty=10),
        tasks=(
            TaskDef(
                program=ProgramSpec(
                    arrays=(16,), body=(MemSpec(array=0, count=16),)
                ),
                period_mult=6,
            ),
            TaskDef(
                program=ProgramSpec(
                    arrays=(24, 8),
                    body=(
                        MemSpec(array=0, count=24, store=True),
                        MemSpec(array=1, count=8),
                    ),
                ),
                period_mult=8,
            ),
        ),
        context_switch=7,
    )


class TestPareto:
    def test_dominates_minimizes_both_axes(self):
        a = {"x": 1, "y": 5}
        b = {"x": 2, "y": 5}
        assert dominates(a, b, "x", "y")
        assert not dominates(b, a, "x", "y")
        # Equal points do not dominate each other (weak dominance needs
        # one strict improvement).
        assert not dominates(a, dict(a), "x", "y")

    def test_front_drops_dominated_and_sorts(self):
        points = [
            {"cache_bytes": 8192, "score": 100},
            {"cache_bytes": 4096, "score": 120},
            {"cache_bytes": 4096, "score": 90},  # dominates both above? no:
            # it dominates the 4096/120 point and the 8192/100 point
            # (smaller cache, better score).
            {"cache_bytes": 2048, "score": 300},
        ]
        front = pareto_front(points)
        assert front == [
            {"cache_bytes": 2048, "score": 300},
            {"cache_bytes": 4096, "score": 90},
        ]

    def test_front_keeps_incomparable_points(self):
        points = [
            {"cache_bytes": 8192, "score": 10},
            {"cache_bytes": 4096, "score": 20},
            {"cache_bytes": 2048, "score": 30},
        ]
        assert pareto_front(points) == sorted(
            points, key=lambda p: p["cache_bytes"]
        )

    def test_front_dedups_identical_coordinates(self):
        a = {"cache_bytes": 4096, "score": 10, "tag": "first"}
        b = {"cache_bytes": 4096, "score": 10, "tag": "second"}
        front = pareto_front([a, b])
        assert len(front) == 1 and front[0]["tag"] == "first"


class TestWcrtScore:
    PERIODS = {"a": 100, "b": 400}

    def payload(self, wcrt_a, wcrt_b, flag=True):
        return {
            "wcet": {"a": 1, "b": 1},
            "wcrt": {"4": {"a": wcrt_a, "b": wcrt_b}},
            "schedulable": {"4": flag},
        }

    def test_schedulable_is_plain_sum(self):
        payload = self.payload(50, 200)
        assert wcrt_score(payload, Approach.COMBINED, self.PERIODS) == 250

    def test_each_missed_deadline_adds_the_period_mass(self):
        payload = self.payload(150, 200, flag=False)  # a misses
        assert wcrt_score(payload, Approach.COMBINED, self.PERIODS) == 350 + 500
        payload = self.payload(150, 500, flag=False)  # both miss
        assert (
            wcrt_score(payload, Approach.COMBINED, self.PERIODS) == 650 + 1000
        )

    def test_unschedulable_flag_forces_a_penalty(self):
        # The system flag can trip (jitter/deadline subtleties) even when
        # no per-task wcrt exceeds its period; the score must still rank
        # such a layout behind every schedulable one.
        payload = self.payload(50, 200, flag=False)
        assert wcrt_score(payload, Approach.COMBINED, self.PERIODS) == 250 + 500

    def test_schedulable_always_beats_unschedulable(self):
        good = self.payload(99, 399)
        bad = self.payload(1, 401, flag=False)
        assert wcrt_score(good, Approach.COMBINED, self.PERIODS) < wcrt_score(
            bad, Approach.COMBINED, self.PERIODS
        )


class TestDefaultBudgets:
    def test_two_set_halvings(self):
        config = CacheConfig(num_sets=256, ways=2, line_size=16, miss_penalty=20)
        budgets = default_cache_budgets(config)
        assert [b.num_sets for b in budgets] == [256, 128, 64]
        assert all(
            (b.ways, b.line_size, b.miss_penalty) == (2, 16, 20)
            for b in budgets
        )

    def test_tiny_geometry_stops_at_two_sets(self):
        config = CacheConfig(num_sets=4, ways=1, line_size=8, miss_penalty=10)
        assert [b.num_sets for b in default_cache_budgets(config)] == [4, 2]
        config = CacheConfig(num_sets=2, ways=1, line_size=8, miss_penalty=10)
        assert [b.num_sets for b in default_cache_budgets(config)] == [2]


class TestParameterValidation:
    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"method": "tabu"}, "method"),
            ({"objective": "energy"}, "objective"),
            ({"budget_evals": 0}, "budget_evals"),
            ({"restarts": 0}, "restarts"),
        ],
    )
    def test_bad_parameters_are_config_errors(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            optimize(small_spec(), **kwargs)


class TestMoveProposer:
    def make(self):
        session = WhatIfSession(small_spec())
        try:
            programs = {
                name: session.placed.layouts()[name].program
                for name in session.placed.order
            }
            config = session.placed.config
            assignment = session.layout_assignment()
        finally:
            session.close()
        return MoveProposer(programs, config), assignment

    def test_same_rng_stream_same_moves(self):
        proposer, assignment = self.make()
        streams = []
        for _ in range(2):
            rng = Random("move-determinism")
            current = assignment
            moves = []
            for _ in range(60):
                move = proposer.propose(rng, current)
                moves.append((move.kind, move.detail, move.assignment))
                try:
                    proposer.materialize(move.assignment)
                except LayoutError:
                    continue
                current = move.assignment
            streams.append(moves)
        assert streams[0] == streams[1]

    def test_proposals_cover_the_move_kinds(self):
        proposer, assignment = self.make()
        rng = Random(0)
        kinds = {proposer.propose(rng, assignment).kind for _ in range(200)}
        assert kinds == set(MOVE_KINDS)

    def test_recolor_pins_the_requested_color(self):
        proposer, assignment = self.make()
        rng = Random(1)
        seen = 0
        for _ in range(200):
            move = proposer.propose(rng, assignment)
            if move.kind != "recolor":
                continue
            seen += 1
            task, rest = move.detail.split(":", 2)[1:]
            index, color = (int(x) for x in rest.split("="))
            name = proposer.arrays[task][index]
            base = dict(move.assignment.placement(task).symbols)[name]
            assert proposer.config.color_of(base) == color
            # Recolored arrays land in fresh space: still materializable.
            proposer.materialize(move.assignment)
        assert seen > 0

    def test_swap_trades_bases_and_keeps_symbols(self):
        proposer, assignment = self.make()
        a, b = proposer.tasks
        move = proposer._swap(assignment, a, b)
        pa, pb = assignment.placement(a), assignment.placement(b)
        qa = move.assignment.placement(a)
        qb = move.assignment.placement(b)
        assert (qa.code_base, qa.data_base) == (pb.code_base, pb.data_base)
        assert (qb.code_base, qb.data_base) == (pa.code_base, pa.data_base)
        assert qa.symbols == pa.symbols and qb.symbols == pb.symbols


class TestOptimizeFuzzSpec:
    """Fast end-to-end runs on the two-task fuzz system."""

    def run(self, method, seed=5):
        return optimize(
            small_spec(),
            seed=seed,
            budget_evals=12,
            method=method,
            restarts=2,
            patience=6,
        )

    def test_seeded_determinism_byte_identical(self):
        dumps = [
            json.dumps(self.run("anneal").to_dict(), sort_keys=True)
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_different_seeds_walk_different_moves(self):
        logs = [
            [e["move"] for e in self.run("anneal", seed=s).move_log]
            for s in (5, 6)
        ]
        assert logs[0] != logs[1]

    def test_anneal_no_worse_than_greedy_no_worse_than_baseline(self):
        greedy = self.run("greedy")
        anneal = self.run("anneal")
        baseline = greedy.default_budget.baseline_score
        assert anneal.default_budget.baseline_score == baseline
        assert (
            anneal.default_budget.best_score
            <= greedy.default_budget.best_score
            <= baseline
        )

    def test_outcome_shape(self):
        outcome = self.run("anneal")
        assert outcome.experiment is None  # fuzz base, not an experiment
        assert outcome.evals_used <= 12
        assert outcome.move_log[0]["kind"] == "baseline"
        for entry in outcome.move_log:
            assert set(entry) >= {
                "budget", "kind", "move", "valid", "accepted", "score",
                "assignment", "eval", "restart",
            }
            if entry["valid"]:
                payload = entry["eval"]
                assert set(payload) == {"wcet", "wcrt", "schedulable"}
                LayoutAssignment.from_dict(entry["assignment"])
        front = outcome.pareto
        assert front == sorted(front, key=lambda p: p["cache_bytes"])
        assert 1 <= len(front) <= len(outcome.budgets)
        # Budget 0 is the system's own geometry.
        assert outcome.default_budget.cache.num_sets == 8

    def test_best_payload_matches_a_logged_entry(self):
        outcome = self.run("anneal")
        budget = outcome.default_budget
        logged = [
            e for e in outcome.move_log
            if e["budget"] == 0 and e["valid"]
            and e["assignment"] == budget.best_assignment.to_dict()
        ]
        assert any(
            e["eval"] == budget.best_payload and e["score"] == budget.best_score
            for e in logged
        )


@pytest.fixture(scope="module")
def shared_store():
    return ArtifactStore(directory=None, memory_slots=8192)


def experiment_config(key, store):
    session = WhatIfSession(key, store=store)
    try:
        return session.placed.config
    finally:
        session.close()


class TestOptimizeExperiments:
    """The ordering claim on both paper experiments (slow-ish)."""

    @pytest.mark.parametrize("key", ["exp1", "exp2"])
    def test_anneal_beats_greedy_beats_baseline(self, key, shared_store):
        config = experiment_config(key, shared_store)
        outcomes = {
            method: optimize(
                key,
                seed=1,
                budget_evals=8,
                method=method,
                restarts=2,
                generation=3,
                patience=4,
                cache_budgets=[config],
                store=shared_store,
            )
            for method in ("greedy", "anneal")
        }
        greedy = outcomes["greedy"].default_budget
        anneal = outcomes["anneal"].default_budget
        assert greedy.baseline_score == anneal.baseline_score
        assert anneal.best_score <= greedy.best_score <= greedy.baseline_score
        # The baseline layout of the paper experiments is schedulable, so
        # the score is a plain WCRT sum and the best stays schedulable.
        assert anneal.best_payload["schedulable"]["4"]

    def test_improves_exp1_over_the_default_layout(self, shared_store):
        config = experiment_config("exp1", shared_store)
        outcome = optimize(
            "exp1",
            seed=3,
            budget_evals=20,
            generation=6,
            patience=8,
            restarts=2,
            cache_budgets=[config],
            store=shared_store,
        )
        budget = outcome.default_budget
        assert budget.best_score < budget.baseline_score
        assert budget.improvement_pct() > 0


class TestOptimizeCli:
    def test_cli_smoke_writes_timing_free_json(self, tmp_path, capsys):
        out = tmp_path / "optimize.json"
        argv = [
            "optimize", "--experiment", "1", "--seed", "2",
            "--budget-evals", "4", "--generation", "2", "--patience", "2",
            "--restarts", "1", "--method", "greedy",
            "--cache-budgets", "64x2x16", "--json", str(out),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr().out
        assert "WCRT before -> after" in captured
        assert "Pareto front" in captured
        assert "evaluations in" in captured
        payload = json.loads(out.read_text())
        assert payload["experiment"] == "exp1"
        assert payload["pareto"] and payload["move_log"]
        assert "elapsed" not in payload  # byte-stable artifact: no timing

    def test_unknown_experiment_is_a_config_error(self):
        assert main(["optimize", "--experiment", "exp9"]) == 2

    def test_malformed_cache_budget_is_a_config_error(self):
        assert (
            main(["optimize", "--cache-budgets", "0x4x16"]) == 2
        )
