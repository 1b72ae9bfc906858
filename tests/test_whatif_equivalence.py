"""Randomized equivalence of the incremental what-if engine.

A :class:`~repro.analysis.whatif.WhatIfSession` promises that editing a
live session is *observationally invisible*: after any chain of
single-field edits, the state — WCETs, reload-line estimates, WCRT
fixpoints, soundness verdicts and the degradation-ledger event stream —
is byte-identical to a cold session constructed directly at the edited
configuration.  These tests draw randomized systems and edit chains
through the fuzz generator's :class:`~repro.fuzz.generator.Draw`
protocol (seeded and platform-stable, like the campaign runner) and
compare :meth:`WhatIfResult.signature` strings, which serialise all of
the above canonically.

The vectorized dense kernels ride the same suite: the ``bytes`` layout
and the sparse dict kernels must agree exactly on every draw
(``min(a, b, L) == min(min(a, L), min(b, L))`` makes the capped dense
layout lossless), and the production Approach-4 rule must equal the
branch-and-bound and enumeration references.  The front-door cases run
one system through every entry point (the tables context, ``analyze_batch``,
``WhatIfSession``, an ``AnalysisService`` point request, ``repro whatif
--json``, the optimizer's baseline evaluation, ``build_case``) and
demand one canonical result payload.

Case tally (the satellite demands >= 150 randomized cases):

* ``WHATIF_DRAWS`` systems x ``EDITS_PER_CASE`` incremental-vs-cold
  signature comparisons = 48 cases, plus 8 experiment-base comparisons,
* ``LAYOUT_DRAWS`` systems x ``EDITS_PER_CASE`` layout moves (relocated
  traces) vs cold sessions at the moved placement,
* ``KERNEL_DRAWS`` dense-vs-sparse kernel parity draws = 120 cases.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.crpd import Approach
from repro.analysis.pathcost import approach4_lines
from repro.analysis.pipeline import resolve_system, run_pipeline
from repro.analysis.whatif import Edit, WhatIfSession, parse_edit
from repro.cache.config import MAX_WAYS, CacheConfig
from repro.cache.kernels import (
    conflict_kernel,
    dense_conflict,
    dense_from_ciip_counts,
    dense_max_conflict,
    dense_rows,
    dense_usage,
    usage_kernel,
)
from repro.fuzz.generator import (
    ARRAY_WORDS,
    LAYOUT_MOVES,
    RandomDraw,
    draw_case,
    draw_layout_move,
    rng_for,
)
from repro.errors import ConfigError
from repro.fuzz.spec import SystemSpec, replace_task
from repro.program.layout import LayoutError
from repro.serve.protocol import RESULT_KEYS, canonical_json

from tests.oracles.pathcost import approach4_lines as enumerated_approach4

WHATIF_DRAWS = 24
EDITS_PER_CASE = 2
LAYOUT_DRAWS = 12
KERNEL_DRAWS = 120

#: Small pools keep the randomized systems fast to analyse while still
#: crossing geometry boundaries (sets up and down, ways 1..4).
GEOMETRY_POOL = ((4, 1, 8), (8, 2, 8), (16, 2, 16), (32, 4, 32), (64, 2, 16))
PENALTY_POOL = (5, 10, 20, 40)


def draw_edit(d, spec: SystemSpec):
    """One randomized single-field edit descriptor valid for *spec*.

    Period edits are drawn as WCET multipliers and resolved against the
    live session state (:func:`materialize`): ``TaskSpec`` rejects
    periods below WCET + jitter as trivially unschedulable, so absolute
    cycle counts cannot be drawn blind.  A multiplier of 1 yields the
    tightest legal period (WCET + 1 cycle of slack), the edge where
    response times brush the deadline.
    """
    kind = d.choice(("penalty", "geometry", "period", "array"))
    if kind == "penalty":
        return Edit(kind="penalty", value=d.choice(PENALTY_POOL))
    if kind == "geometry":
        return Edit(kind="geometry", value=d.choice(GEOMETRY_POOL))
    task_index = d.integer(0, len(spec.tasks) - 1)
    if kind == "period":
        return ("period", f"t{task_index}", d.integer(1, 12))
    arrays = spec.tasks[task_index].program.arrays
    return Edit(
        kind="array",
        task=f"t{task_index}",
        index=d.integer(0, len(arrays) - 1),
        value=d.choice(ARRAY_WORDS),
    )


def materialize(edit, state) -> Edit:
    """Resolve a period-multiplier descriptor against the current state."""
    if isinstance(edit, Edit):
        return edit
    _, task, mult = edit
    return Edit(
        kind="period", task=task, value=state.payload["wcet"][task] * mult + 1
    )


def apply_to_reference(spec, config, overrides, edit: Edit):
    """Fold *edit* into the cold-session constructor arguments.

    Mirrors (independently) what the live session mutates, so the cold
    reference is built from first principles, not from session state.
    """
    if edit.kind == "penalty":
        return spec, replace(_effective(spec, config), miss_penalty=edit.value), overrides
    if edit.kind == "geometry":
        sets, ways, line = edit.value
        return (
            spec,
            replace(
                _effective(spec, config), num_sets=sets, ways=ways, line_size=line
            ),
            overrides,
        )
    if edit.kind == "period":
        merged = dict(overrides)
        merged[edit.task] = edit.value
        return spec, config, merged
    index = int(edit.task[1:])
    task_def = spec.tasks[index]
    arrays = list(task_def.program.arrays)
    arrays[edit.index] = edit.value
    program = replace(task_def.program, arrays=tuple(arrays))
    return (
        replace_task(spec, index, replace(task_def, program=program)),
        config,
        overrides,
    )


def _effective(spec: SystemSpec, config) -> CacheConfig:
    if config is not None:
        return config
    cache = spec.cache
    return CacheConfig(
        num_sets=cache.num_sets,
        ways=cache.ways,
        line_size=cache.line_size,
        miss_penalty=cache.miss_penalty,
        policy=cache.policy,
        write_back=cache.write_back,
    )


@pytest.fixture(scope="module")
def whatif_cases() -> list[tuple[SystemSpec, list[Edit]]]:
    draw = RandomDraw(rng_for(20040216, 1))
    cases = []
    for _ in range(WHATIF_DRAWS):
        spec = draw_case(draw)
        cases.append(
            (spec, [draw_edit(draw, spec) for _ in range(EDITS_PER_CASE)])
        )
    return cases


class TestIncrementalEquivalence:
    def test_edited_sessions_match_cold_sessions(self, whatif_cases):
        """Every incremental state is byte-identical — values *and*
        replayed ledger events — to a from-scratch session."""
        for spec, edits in whatif_cases:
            with WhatIfSession(spec) as session:
                state = session.result()  # analyse the base; edits run warm
                ref_spec, ref_config, ref_overrides = spec, None, {}
                for descriptor in edits:
                    edit = materialize(descriptor, state)
                    state = session.apply(edit)
                    ref_spec, ref_config, ref_overrides = apply_to_reference(
                        ref_spec, ref_config, ref_overrides, edit
                    )
                    with WhatIfSession(
                        ref_spec,
                        cache=ref_config,
                        period_overrides=dict(ref_overrides),
                    ) as cold_session:
                        cold = cold_session.result()
                    assert state.signature() == cold.signature(), (
                        f"{edit.describe()} diverged from a cold session"
                    )
                    self._check_reuse(state, edit, len(ref_spec.tasks))

    @staticmethod
    def _check_reuse(state, edit: Edit, tasks: int) -> None:
        """Sanity-check that incrementality actually happened: the
        invalidation counters honour the edit-impact table."""
        if edit.kind == "penalty":
            for stage in ("trace", "sim", "flow", "paths"):
                assert state.reused[stage] == tasks, (edit.describe(), stage)
            assert state.invalidated["pair"] == 0
        elif edit.kind == "geometry":
            assert state.reused["trace"] == tasks
            assert state.reused["paths"] == tasks
        elif edit.kind == "period":
            assert state.invalidated["task"] == 0
            assert state.invalidated["pair"] == 0
        elif edit.kind in LAYOUT_MOVES:
            # Traces and path profiles are placement-free: a move re-runs
            # no VM and re-enumerates no path, only the moved tasks'
            # set-index-dependent stages.
            moved = 2 if edit.kind == "swap" else 1
            assert state.reused["trace"] == state.reused["paths"] == tasks
            assert state.invalidated["sim"] == state.invalidated["flow"] == moved

    def test_layout_moves_match_cold_sessions(self, whatif_cases):
        """Layout moves relocate stored traces; every moved state equals
        a cold session built at the same placement."""
        draw = RandomDraw(rng_for(20040216, 2))
        compared = 0
        for spec, _ in whatif_cases[:LAYOUT_DRAWS]:
            with WhatIfSession(spec) as session:
                session.result()
                for _ in range(EDITS_PER_CASE):
                    edit = parse_edit(draw_layout_move(
                        draw, session.placed.layouts(), session.placed.config.page_colors
                    ))
                    before = session.layout_assignment()
                    try:
                        state = session.apply(edit)
                    except LayoutError:
                        continue  # a swap of differently sized tasks
                    if session.layout_assignment() == before:
                        continue  # the move landed where the task was
                    with WhatIfSession(spec) as cold_session:
                        cold = cold_session.set_assignment(
                            session.layout_assignment()
                        )
                    assert state.signature() == cold.signature(), (
                        f"{edit.describe()} diverged from a cold session"
                    )
                    self._check_reuse(state, edit, len(spec.tasks))
                    compared += 1
        assert compared >= LAYOUT_DRAWS

    def test_experiment_edit_chain_matches_cold_sessions(self):
        """The paper experiments round-trip a penalty + period chain."""
        for experiment in ("exp1", "exp2"):
            with WhatIfSession(experiment) as session:
                base = session.result()
                task = base.periods and next(iter(base.periods))
                doubled = base.periods[task] * 2
                chain = [
                    ("penalty=40", dict(miss_penalty=40)),
                    (
                        f"period:{task}={doubled}",
                        dict(
                            miss_penalty=40,
                            period_overrides={task: doubled},
                        ),
                    ),
                ]
                for text, kwargs in chain:
                    state = session.apply(text)
                    with WhatIfSession(experiment, **kwargs) as cold_session:
                        cold = cold_session.result()
                    assert state.signature() == cold.signature(), (
                        f"{experiment}: {text}"
                    )
                # The chain really ran incrementally, not as re-runs.
                assert state.reused["trace"] > 0
                assert state.elapsed_seconds < base.elapsed_seconds


class TestDenseEngineParity:
    def test_dense_engine_matches_auto_engine(self, whatif_cases):
        """The production Approach-4 rule (dense kernels) computes the
        same bounds as the branch-and-bound search the former ``auto``
        engine ran, and as naive path enumeration."""
        for spec, _ in whatif_cases[:5]:
            result = run_pipeline(resolve_system(spec))
            mode = result.placed.mumbs_mode
            for estimate in result.estimates:
                low = result.artifacts[estimate.preempted]
                high = result.artifacts[estimate.preempting]
                where = (estimate.preempted, estimate.preempting)
                lines = estimate.lines[Approach.COMBINED]
                assert lines == approach4_lines(low, high, mumbs_mode=mode), where
                assert lines == enumerated_approach4(
                    low, high, mumbs_mode=mode
                ), where


def draw_sparse(d, num_sets: int) -> dict:
    return {
        index: d.integer(1, 7) for index in range(num_sets) if d.boolean()
    }


class TestDenseKernelParity:
    def test_dense_kernels_match_sparse_kernels(self):
        d = RandomDraw(rng_for(20040216, 2))
        for _ in range(KERNEL_DRAWS):
            num_sets = d.choice((1, 2, 4, 8, 16, 32))
            ways = d.integer(1, 5)
            a = draw_sparse(d, num_sets)
            b = draw_sparse(d, num_sets)
            da = dense_from_ciip_counts(a, num_sets, ways)
            db = dense_from_ciip_counts(b, num_sets, ways)
            assert len(da) == num_sets
            assert dense_usage(da) == usage_kernel(a, ways)
            assert dense_conflict(da, db) == conflict_kernel(a, b, ways)
            sparse_rows = [
                draw_sparse(d, num_sets) for _ in range(d.integer(0, 4))
            ]
            rows = dense_rows(
                [dense_from_ciip_counts(row, num_sets, ways) for row in sparse_rows]
            )
            expected = max(
                (conflict_kernel(row, b, ways) for row in sparse_rows),
                default=0,
            )
            assert dense_max_conflict(rows, db) == expected

    def test_wide_associativity_is_rejected_not_truncated(self):
        assert CacheConfig(num_sets=4, ways=MAX_WAYS, line_size=16).ways == 255
        with pytest.raises(ConfigError, match=r"ways must be in 1\.\.255"):
            CacheConfig(num_sets=4, ways=MAX_WAYS + 1, line_size=16)
        assert dense_from_ciip_counts({0: 300}, 4, MAX_WAYS) == bytes([255, 0, 0, 0])


# ----------------------------------------------------------------------
# Front doors: one system, every entry point, one answer
# ----------------------------------------------------------------------
#: The payload keys every front door reports: the served result's
#: :data:`~repro.serve.protocol.RESULT_KEYS` minus its envelope tags.
FRONT_DOOR_KEYS = RESULT_KEYS - {"kind", "label"}


def _front_door(payload: dict, keys=FRONT_DOOR_KEYS) -> str:
    """Canonical JSON of *payload* restricted to *keys*."""
    return canonical_json({key: payload[key] for key in keys})


class TestFrontDoorEquivalence:
    @pytest.mark.parametrize("key", ["exp1", "exp2"])
    def test_experiment_front_doors_agree(self, key, tmp_path, capsys):
        """Six front doors, one payload: the tables context, a batch
        point, a what-if session, a served job, state 0 of ``repro
        whatif --json`` and the optimizer's baseline evaluation."""
        from repro.batch.engine import SweepPoint, analyze_batch
        from repro.cli import main
        from repro.experiments.setup import ALL_SPECS
        from repro.experiments.tables import ExperimentSuite
        from repro.optimize import optimize
        from repro.serve.service import AnalysisService

        spec = {s.key: s for s in ALL_SPECS}[key]
        suite = ExperimentSuite(spec, penalties=(20,))
        tables = suite.context(20).pipeline.payload()
        point = analyze_batch([SweepPoint(key, miss_penalty=20)]).results[0]
        with WhatIfSession(key, miss_penalty=20) as session:
            whatif = session.result().payload
        with AnalysisService(workers=1) as service:
            job = service.submit(
                {"kind": "point", "experiment": key, "miss_penalty": 20}
            )
            assert service.wait(job.id, timeout=180)
            served = job.result
        out = tmp_path / "whatif.json"
        argv = ["--no-cache", "whatif", "--base", key, "--json", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        cli = json.loads(out.read_text())[0]
        expected = _front_door(tables)
        for door, payload in (
            ("analyze_batch", point.payload),
            ("WhatIfSession", whatif),
            ("serve", served),
            ("repro whatif --json", cli),
        ):
            assert _front_door(payload) == expected, door

        outcome = optimize(
            key, budget_evals=1, cache_budgets=[CacheConfig.scaled_8k(20)]
        )
        evaluation = ("wcet", "wcrt", "schedulable")
        assert _front_door(
            outcome.default_budget.baseline_payload, evaluation
        ) == _front_door(tables, evaluation)

    def test_fuzz_spec_front_doors_agree(self, whatif_cases):
        from repro.fuzz.build import build_case

        spec, _ = whatif_cases[0]
        with WhatIfSession(spec) as session:
            assert session.result().signature() == canonical_json(
                build_case(spec).pipeline.payload()
            )

    def test_exact_paths_recovers_eq4_on_the_cli(self, capsys):
        """``--max-paths 1`` trips ED's enumeration: Approach 4 for OFDM
        preempted by ED degrades to 58 lines, ``--exact-paths`` recovers
        the exact 47."""
        from repro.cli import main

        def ofdm_by_ed(*flags) -> str:
            assert main(
                [*flags, "--no-cache", "--max-paths", "1", "crpd",
                 "--experiment", "1"]
            ) == 0
            row = next(
                line for line in capsys.readouterr().out.splitlines()
                if line.startswith("OFDM by ED")
            )
            return row.split()[-1]

        assert ofdm_by_ed("--exact-paths") == "47"
        assert ofdm_by_ed() == "58"
