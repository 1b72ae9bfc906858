"""Unit contracts of the what-if layer, plus the satellites pinned here:
the unified intern-table clear path, the per-point sweep JSON telemetry
and the ``repro whatif`` CLI verb."""

from __future__ import annotations

import json

import pytest

from repro.analysis.store import ArtifactStore
from repro.analysis.whatif import (
    Edit,
    WhatIfSession,
    _warm_start_sound,
    check_edit_conflicts,
    parse_edit,
)
from repro.batch import SweepPoint, analyze_batch
from repro.cache.kernels import (
    DEFAULT_INTERN_LIMIT,
    intern_blocks,
    intern_table_size,
    reset_intern_table,
    set_intern_limit,
)
from repro.cli import main
from repro.errors import ConfigError
from repro.fuzz.spec import (
    CacheSpec,
    MemSpec,
    ProgramSpec,
    SystemSpec,
    TaskDef,
)
from repro.obs import observed
from repro.wcrt.response_time import WCRTResult
from repro.wcrt.task import TaskSpec


def small_spec() -> SystemSpec:
    """A fixed two-task system, small enough for sub-100ms analyses."""
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


class TestParseEdit:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("penalty=25", Edit(kind="penalty", value=25)),
            ("penalty=0x10", Edit(kind="penalty", value=16)),
            ("geometry=64x2x32", Edit(kind="geometry", value=(64, 2, 32))),
            ("geometry=64X2X32", Edit(kind="geometry", value=(64, 2, 32))),
            ("period:ed=120000", Edit(kind="period", task="ed", value=120000)),
            (
                "array:t0:1=32",
                Edit(kind="array", task="t0", index=1, value=32),
            ),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_edit(text) == expected

    def test_describe_round_trips(self):
        for text in ("penalty=25", "geometry=64x2x32", "period:ed=120000",
                     "array:t0:1=32"):
            assert parse_edit(parse_edit(text).describe()) == parse_edit(text)

    @pytest.mark.parametrize(
        "text",
        [
            "penalty",            # missing value
            "penalty=abc",        # not an integer
            "geometry=64x2",      # not SxWxL
            "period:=5",          # empty task name
            "array:t0=5",         # missing array index
            "frobnicate=1",       # unknown edit kind
        ],
    )
    def test_rejects_malformed_edits(self, text):
        with pytest.raises(ConfigError):
            parse_edit(text)


class TestSessionValidation:
    def test_unknown_experiment_key(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            WhatIfSession("exp3")

    def test_base_must_be_spec_or_key(self):
        with pytest.raises(ConfigError, match="what-if base"):
            WhatIfSession(42)

    def test_edit_validation(self):
        with WhatIfSession(small_spec()) as session:
            with pytest.raises(ConfigError, match="penalty"):
                session.apply(Edit(kind="penalty", value=-1))
            with pytest.raises(ConfigError, match="unknown task"):
                session.apply(Edit(kind="period", task="t9", value=1000))
            with pytest.raises(ConfigError, match="period"):
                session.apply(Edit(kind="period", task="t0", value=0))
            with pytest.raises(ConfigError, match="arrays 0..1"):
                session.apply(
                    Edit(kind="array", task="t1", index=7, value=16)
                )
            with pytest.raises(ConfigError, match="unknown edit kind"):
                session.apply(Edit(kind="frobnicate", value=1))

    def test_array_edits_need_a_fuzz_base(self):
        with WhatIfSession("exp1") as session:
            with pytest.raises(ConfigError, match="fuzz SystemSpec"):
                session.apply("array:ed:0=32")


class TestInvalidationAccounting:
    def test_counters_track_the_edit_impact_table(self):
        with WhatIfSession(small_spec()) as session:
            base = session.result()
            assert base.label == "base"
            # A cold base invalidates every node: 2 tasks x 4 stages,
            # 1 pair, 4 approaches x 2 tasks of WCRT fixpoints.
            for stage in ("trace", "sim", "flow", "paths", "task"):
                assert base.invalidated[stage] == 2
                assert base.reused[stage] == 0
            assert base.invalidated["pair"] == 1
            assert base.invalidated["wcrt"] == 8

            state = session.apply("penalty=40")
            # Penalty touches costs only: the whole sub-artifact layer is
            # answered from the session store; the task assembly memo
            # (config-keyed) and every WCRT fixpoint recompute.
            for stage in ("trace", "sim", "flow", "paths"):
                assert state.reused[stage] == 2
            assert state.invalidated["task"] == 2
            assert state.invalidated["pair"] == 0
            assert state.invalidated["wcrt"] == 8
            # Penalty up means the recurrence grew pointwise for the
            # top task (no interferers), whose 4 fixpoints warm-start.
            assert state.warm_started >= 4

            doubled = state.periods["t1"] * 2
            state = session.apply(f"period:t1={doubled}")
            # A low-priority period edit leaves the artifact graph and
            # every other task's fixpoints untouched.
            assert state.invalidated["task"] == 0
            assert state.invalidated["pair"] == 0
            assert state.invalidated["wcrt"] == 4
            assert state.reused["wcrt"] == 4
            # t1's busy-window recurrence is unchanged by its own period,
            # so all 4 recomputed nodes restart from their own fixpoint.
            assert state.warm_started == 4

    def test_whatif_span_and_counters(self):
        with observed() as (tracer, metrics):
            with WhatIfSession(small_spec()) as session:
                session.result()
                session.apply("penalty=40")
        spans = [
            r
            for r in tracer.records
            if r.get("type") == "span" and r["name"] == "whatif.edit"
        ]
        assert [s["attrs"]["edit"] for s in spans] == ["base", "penalty=40"]
        for span in spans:
            assert span["attrs"]["elapsed_ms"] >= 0
        counters = metrics.to_dict()["counters"]
        assert counters["whatif.edits"] == 2
        assert counters["whatif.reused.trace"] == 2
        assert counters["whatif.invalidated.wcrt"] == 16


class TestWarmStartGuard:
    OLD = (10, 100, 0, 7, (("a", 50, 2, 30),))

    def _memo(self, converged: bool = True) -> dict:
        task = TaskSpec(name="t", wcet=10, period=100, priority=1)
        return {
            "result": WCRTResult(
                task=task, wcrt=40, converged=converged, schedulable=True
            )
        }

    def sound(self, new_sig, converged: bool = True) -> bool:
        return _warm_start_sound(self.OLD, new_sig, self._memo(converged))

    def test_pointwise_dominance_is_required(self):
        assert self.sound(self.OLD)  # identity dominates
        assert self.sound((12, 100, 0, 7, (("a", 50, 2, 30),)))  # wcet up
        assert self.sound((10, 100, 0, 7, (("a", 40, 2, 30),)))  # period down
        assert self.sound((10, 100, 0, 7, (("a", 50, 3, 30),)))  # jitter up
        assert self.sound((10, 100, 0, 7, (("a", 50, 2, 45),)))  # cost up
        # Own period/jitter don't appear in the busy-window recurrence.
        assert self.sound((10, 60, 5, 7, (("a", 50, 2, 30),)))

    def test_any_shrinking_term_blocks_the_warm_start(self):
        assert not self.sound((9, 100, 0, 7, (("a", 50, 2, 30),)))
        assert not self.sound((10, 100, 0, 7, (("a", 60, 2, 30),)))
        assert not self.sound((10, 100, 0, 7, (("a", 50, 1, 30),)))
        assert not self.sound((10, 100, 0, 7, (("a", 50, 2, 29),)))

    def test_interferer_set_must_be_identical(self):
        assert not self.sound((10, 100, 0, 7, (("b", 50, 2, 30),)))
        assert not self.sound((10, 100, 0, 7, ()))
        assert not self.sound(
            (10, 100, 0, 7, (("a", 50, 2, 30), ("b", 50, 2, 30)))
        )

    def test_diverged_windows_are_not_fixpoints(self):
        assert not self.sound(self.OLD, converged=False)


class TestInternClearUnification:
    """Both intern-clear paths go through :func:`reset_intern_table`, so
    the resets counter and the size gauge can never diverge."""

    @pytest.fixture(autouse=True)
    def _restore_limit(self):
        yield
        set_intern_limit(DEFAULT_INTERN_LIMIT)
        reset_intern_table()

    def test_shrinking_limit_clears_through_the_single_path(self):
        set_intern_limit(64)
        reset_intern_table()
        with observed() as (_, metrics):
            for value in range(8):
                intern_blocks(frozenset({value}))
            assert intern_table_size() == 8
            set_intern_limit(4)  # over the new bound: immediate clear
            snapshot = metrics.to_dict()
        assert intern_table_size() == 0
        assert snapshot["counters"]["kernels.intern.resets"] == 1
        assert snapshot["gauges"]["kernels.intern_size"] == 0

    def test_manual_reset_zeroes_gauge_without_a_bound_reset(self):
        set_intern_limit(64)
        reset_intern_table()
        with observed() as (_, metrics):
            intern_blocks(frozenset({1}))
            reset_intern_table()
            snapshot = metrics.to_dict()
        assert intern_table_size() == 0
        assert snapshot["counters"].get("kernels.intern.resets", 0) == 0
        assert snapshot["gauges"]["kernels.intern_size"] == 0

    def test_growing_limit_never_clears(self):
        set_intern_limit(64)
        reset_intern_table()
        first = intern_blocks(frozenset({1, 2}))
        set_intern_limit(128)
        assert intern_blocks(frozenset({1, 2})) is first


class TestSweepJsonTelemetry:
    def test_per_point_walltime_and_store_fields(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert (
            main(
                [
                    "--no-cache",
                    "sweep",
                    "--experiment",
                    "1",
                    "--penalties",
                    "10",
                    "--json",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["points"]
        for point in payload["points"]:
            assert point["analysis_seconds"] > 0.0
            # --no-cache: the fields exist and honestly report no store.
            assert point["store"] == {"hits": 0, "misses": 0}

    def test_store_counts_attribute_cold_vs_warm_points(self, tmp_path):
        store = ArtifactStore(directory=tmp_path)
        points = [SweepPoint(experiment="exp1", miss_penalty=10)]
        cold = analyze_batch(points, store=store).results[0].to_dict()
        warm = analyze_batch(points, store=store).results[0].to_dict()
        assert cold["store"]["misses"] > 0
        assert warm["store"]["hits"] > 0
        assert warm["store"]["misses"] < cold["store"]["misses"]


class TestWhatIfCli:
    def test_json_states_for_a_fuzz_spec_base(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(small_spec().to_json()))
        out = tmp_path / "whatif.json"
        argv = [
            "--no-cache",
            "whatif",
            "--base",
            str(spec_path),
            "--edit",
            "penalty=40",
            "--edit",
            "period:t0=50000",
            "--json",
            str(out),
        ]
        assert main(argv) == 0
        states = json.loads(out.read_text())
        assert [s["label"] for s in states] == [
            "base",
            "penalty=40",
            "period:t0=50000",
        ]
        assert states[1]["config"]["miss_penalty"] == 40
        assert states[2]["periods"]["t0"] == 50000
        assert states[0]["invalidated"]["wcrt"] == 8
        assert states[2]["invalidated"]["pair"] == 0
        for state in states:
            assert state["elapsed_seconds"] > 0.0
            assert set(state["schedulable"]) == {"1", "2", "3", "4"}

    def test_experiment_base_runs(self, capsys):
        assert main(["--no-cache", "whatif", "--base", "exp1"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("base")
        assert "soundness=" in stdout

    def test_malformed_edit_is_a_config_error(self):
        assert main(["whatif", "--base", "exp1", "--edit", "bogus=1"]) == 2

    def test_unknown_base_is_a_config_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["whatif", "--base", str(missing)]) == 2


class TestLayoutEditGrammar:
    """The code/data/color/swap grammar plus the conflict checker."""

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("code:mr=0x20000", Edit(kind="code", task="mr", value=0x20000)),
            ("data:ed=4096", Edit(kind="data", task="ed", value=4096)),
            ("color:mr:0=3", Edit(kind="color", task="mr", index=0, value=3)),
            ("swap:mr=ed", Edit(kind="swap", task="mr", value="ed")),
        ],
    )
    def test_grammar(self, text, expected):
        assert parse_edit(text) == expected

    def test_describe_round_trips(self):
        for text in ("code:mr=0x20000", "data:ed=0x1000", "color:mr:0=3",
                     "swap:mr=ed"):
            edit = parse_edit(text)
            assert parse_edit(edit.describe()) == edit

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("code:=0x1000", "missing task name"),
            ("color:mr=3", "color:TASK:INDEX"),
            ("swap:mr=", "swap:TASK=TASK"),
            ("geometry=0x4x16", "num_sets"),
            ("geometry=64x0x16", "ways"),
            ("geometry=64x2x0", "line_size"),
        ],
    )
    def test_rejects_malformed(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_edit(text)

    def test_geometry_error_explains_the_hex_trap(self):
        # '0x4x16' is a classic paste of hex 0x40 geometry: the parser
        # must say which field broke and why, not silently build a
        # zero-set cache.
        with pytest.raises(ConfigError, match="decimal"):
            parse_edit("geometry=0x4x16")

    @pytest.mark.parametrize(
        "first, second",
        [
            ("penalty=10", "penalty=20"),
            ("geometry=64x2x16", "geometry=32x2x16"),
            ("period:t0=100", "period:t0=200"),
            ("array:t0:0=16", "array:t0:0=32"),
            ("code:t0=0x1000", "code:t0=0x2000"),
            ("code:t0=0x1000", "swap:t0=t1"),
            ("data:t1=0x1000", "swap:t0=t1"),
            ("swap:t0=t1", "swap:t1=t2"),
        ],
    )
    def test_conflicting_pairs_rejected(self, first, second):
        edits = [parse_edit(first), parse_edit(second)]
        with pytest.raises(ConfigError, match="conflict"):
            check_edit_conflicts(edits)

    @pytest.mark.parametrize(
        "first, second",
        [
            ("penalty=10", "geometry=64x2x16"),
            ("period:t0=100", "period:t1=200"),
            ("code:t0=0x1000", "data:t0=0x2000"),
            ("code:t0=0x1000", "code:t1=0x2000"),
            ("color:t0:0=1", "color:t0:1=2"),
            # A swap moves region origins, not pinned symbols, so it is
            # compatible with recoloring an array of a swapped task.
            ("color:t0:0=1", "swap:t0=t1"),
        ],
    )
    def test_compatible_pairs_pass(self, first, second):
        check_edit_conflicts([parse_edit(first), parse_edit(second)])

    def test_conflict_error_names_both_edits(self):
        with pytest.raises(ConfigError) as exc:
            check_edit_conflicts(
                [parse_edit("penalty=10"), parse_edit("penalty=20")]
            )
        message = str(exc.value)
        assert "penalty=10" in message and "penalty=20" in message

    def test_cli_conflicting_edits_exit_2(self):
        rc = main(
            ["whatif", "--base", "exp1", "--edit", "penalty=10",
             "--edit", "penalty=40"]
        )
        assert rc == 2


class TestLayoutEditsOnSession:
    def names(self, session):
        return list(session.placed.order)

    def test_code_shift_changes_the_analysis(self):
        with observed():
            session = WhatIfSession(small_spec())
            try:
                base = session.result()
                t0 = self.names(session)[0]
                old_base = session.placed.layouts()[t0].code_base
                # +24 is not a multiple of the 64-byte index span, so the
                # code block really lands on different cache sets (a full
                # index-span shift would be an analysis no-op).
                moved = session.apply(
                    Edit(kind="code", task=t0, value=old_base + 24)
                )
                assert moved.signature() != base.signature()
                back = session.apply(Edit(kind="code", task=t0, value=old_base))
                assert back.signature() == base.signature()
            finally:
                session.close()

    def test_color_pins_array_into_the_requested_band(self):
        session = WhatIfSession(small_spec())
        try:
            t0 = self.names(session)[0]
            config = session.placed.config
            session.apply(Edit(kind="color", task=t0, index=0, value=2))
            layout = session.placed.layouts()[t0]
            name = next(iter(layout.program.arrays))
            base = layout.symbol_overrides[name]
            assert config.color_of(base) == 2
        finally:
            session.close()

    def test_swap_trades_region_origins(self):
        session = WhatIfSession(small_spec())
        try:
            a, b = self.names(session)
            before = {
                n: (session.placed.layouts()[n].code_base, session.placed.layouts()[n].data_base)
                for n in (a, b)
            }
            session.apply(Edit(kind="swap", task=a, value=b))
            assert (
                session.placed.layouts()[a].code_base,
                session.placed.layouts()[a].data_base,
            ) == before[b]
            assert (
                session.placed.layouts()[b].code_base,
                session.placed.layouts()[b].data_base,
            ) == before[a]
        finally:
            session.close()

    def test_rejected_overlap_leaves_the_session_untouched(self):
        from repro.program.layout import LayoutError

        session = WhatIfSession(small_spec())
        try:
            base = session.result()
            a, b = self.names(session)
            bad = session.layout_assignment()
            bad = bad.replace(
                type(bad.placement(a))(
                    name=a,
                    code_base=bad.placement(b).code_base,
                    data_base=bad.placement(a).data_base,
                    symbols=bad.placement(a).symbols,
                )
            )
            with pytest.raises(LayoutError):
                session.set_assignment(bad)
            assert session.result().signature() == base.signature()
        finally:
            session.close()

    def test_set_assignment_round_trip(self):
        session = WhatIfSession(small_spec())
        try:
            base = session.result()
            home = session.layout_assignment()
            t0 = self.names(session)[0]
            session.apply(
                Edit(
                    kind="code",
                    task=t0,
                    value=session.placed.layouts()[t0].code_base + 128,
                )
            )
            restored = session.set_assignment(home)
            assert restored.signature() == base.signature()
        finally:
            session.close()

    def test_layout_edits_survive_an_array_resize(self):
        # An array edit rebuilds programs from the spec; the session must
        # re-apply the standing layout assignment on the new programs.
        session = WhatIfSession(small_spec())
        try:
            t0 = self.names(session)[0]
            moved = session.placed.layouts()[t0].code_base + 64
            session.apply(Edit(kind="code", task=t0, value=moved))
            session.apply(Edit(kind="array", task=t0, index=0, value=32))
            assert session.placed.layouts()[t0].code_base == moved
        finally:
            session.close()

    def test_apply_all_checks_conflicts_first(self):
        session = WhatIfSession(small_spec())
        try:
            base = session.result()
            with pytest.raises(ConfigError, match="conflict"):
                session.apply_all(["penalty=15", "penalty=25"])
            # Nothing was applied.
            assert session.result().signature() == base.signature()
            results = session.apply_all(["penalty=15", "geometry=16x2x8"])
            assert len(results) == 2
        finally:
            session.close()

    def test_bad_layout_edit_values(self):
        session = WhatIfSession(small_spec())
        try:
            t0 = self.names(session)[0]
            with pytest.raises(ConfigError, match="unknown task"):
                session.apply(Edit(kind="code", task="ghost", value=0x1000))
            with pytest.raises(ConfigError, match="negative"):
                session.apply(Edit(kind="data", task=t0, value=-4))
            with pytest.raises(ConfigError, match="color"):
                session.apply(Edit(kind="color", task=t0, index=0, value=99))
            with pytest.raises(ConfigError, match="itself"):
                session.apply(Edit(kind="swap", task=t0, value=t0))
        finally:
            session.close()
