"""Property-based soundness: random programs vs the analysis chain.

The random-case space lives in :mod:`repro.fuzz.generator`; this file
drives the same ``draw_*`` functions through a Hypothesis adapter
(:class:`HypothesisDraw`), so the property tests and the ``tests.fuzz``
campaign explore one shared generator by construction — there is no
second program-shape strategy to drift out of sync.

For each random (preempted, preempting) pair we verify the paper's
claims empirically:

* measured reloads after a real preemption never exceed any approach's
  line bound (Approaches 1-4 are all sound),
* the approach ordering App4 <= min(App2, App3) <= App1 holds,
* cold-cache WCET measurement dominates any warm-cache run (on LRU
  write-through, where that domination actually holds — a warm victim
  on a write-back cache can pay for the intruder's dirty lines).
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import ALL_APPROACHES, Approach, CRPDAnalyzer, analyze_task
from repro.cache import CacheConfig, CacheState
from repro.fuzz.build import build_program, scenarios_for
from repro.fuzz.generator import Draw, draw_cache_spec, draw_program_spec
from repro.program import SystemLayout

from tests.oracles.measurement import measure_preemption, prepared_machine


class HypothesisDraw(Draw):
    """The generator's three-primitive :class:`Draw` protocol backed by
    Hypothesis strategies, so failures shrink through Hypothesis while the
    case space stays identical to the campaign's :class:`RandomDraw`."""

    def __init__(self, draw):
        self._draw = draw

    def integer(self, low: int, high: int) -> int:
        return self._draw(st.integers(min_value=low, max_value=high))

    def choice(self, options):
        return self._draw(st.sampled_from(list(options)))

    def boolean(self) -> bool:
        return self._draw(st.booleans())


def _config_from(cache_spec) -> CacheConfig:
    return CacheConfig(
        num_sets=cache_spec.num_sets,
        ways=cache_spec.ways,
        line_size=cache_spec.line_size,
        miss_penalty=cache_spec.miss_penalty,
        policy=cache_spec.policy,
        write_back=cache_spec.write_back,
    )


@st.composite
def task_pairs(draw, lru_write_through=False):
    """A shared-generator cache plus a placed (low, high) program pair."""
    d = HypothesisDraw(draw)
    cache_spec = draw_cache_spec(d)
    if lru_write_through:
        cache_spec = replace(cache_spec, policy="lru", write_back=False)
    config = _config_from(cache_spec)
    layout = SystemLayout()
    placed = []
    for name in ("low", "high"):
        program, inputs = build_program(draw_program_spec(d), name)
        inputs["flag"] = [int(d.boolean())]
        placed.append((layout.place(program), inputs))
    return config, placed[0], placed[1]


_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _measured_reloads(config, low, high, footprint, step):
    """Reloads of *low* after *high* preempts it at *step* (None past
    its end)."""
    measurement = measure_preemption(
        *low, *high, lambda: CacheState(config), step,
        victim_footprint=footprint,
    )
    return None if measurement is None else measurement.reloaded


@given(pair=task_pairs(), preempt_step=st.integers(min_value=1, max_value=400))
@_SETTINGS
def test_measured_reloads_bounded_by_every_approach(pair, preempt_step):
    config, low, high = pair
    low_art = analyze_task(low[0], scenarios_for(low[1]), config)
    high_art = analyze_task(high[0], scenarios_for(high[1]), config)
    crpd = CRPDAnalyzer({"low": low_art, "high": high_art})

    measured = _measured_reloads(config, low, high, low_art.footprint,
                                 preempt_step)
    if measured is None:
        return  # preemption point beyond the program's end; trivially fine

    lines = {a: crpd.lines_reloaded("low", "high", a) for a in ALL_APPROACHES}
    for approach, bound in lines.items():
        assert measured <= bound, (
            f"approach {approach} bound {bound} violated: {measured} reloads"
        )
    # Approach ordering (Sections V-VI).
    assert lines[Approach.COMBINED] <= lines[Approach.INTERTASK]
    assert lines[Approach.COMBINED] <= lines[Approach.LEE]
    assert lines[Approach.INTERTASK] <= lines[Approach.BUSQUETS]


@given(pair=task_pairs())
@_SETTINGS
def test_per_point_mode_sound_and_dominates_def4(pair):
    """The per_point Approach-4 variant is >= the Definition-4 value (the
    joint maximisation covers the Definition-4 point) and bounds measured
    reloads from a real mid-run preemption."""
    config, (low_layout, low_inputs), (high_layout, high_inputs) = pair
    low_art = analyze_task(low_layout, scenarios_for(low_inputs), config)
    high_art = analyze_task(high_layout, scenarios_for(high_inputs), config)
    paper = CRPDAnalyzer({"low": low_art, "high": high_art}, mumbs_mode="paper")
    tight = CRPDAnalyzer({"low": low_art, "high": high_art}, mumbs_mode="per_point")
    paper_lines = paper.lines_reloaded("low", "high", Approach.COMBINED)
    tight_lines = tight.lines_reloaded("low", "high", Approach.COMBINED)
    assert tight_lines >= paper_lines

    # Empirical check against a mid-run full eviction by the real intruder.
    measured = _measured_reloads(
        config, (low_layout, low_inputs), (high_layout, high_inputs),
        low_art.footprint, 60,
    )
    assert measured is None or measured <= tight_lines


@given(pair=task_pairs())
@_SETTINGS
def test_static_bound_dominates_measured_wcet(pair):
    """The all-miss structural bound dominates the measured WCET for
    arbitrary generated programs — including write-back caches, where
    every miss may also pay a dirty-line writeback (the fuzz campaign's
    first engine catch; see tests/test_fuzz_regressions.py)."""
    from repro.analysis.wcet import static_wcet_bound

    config, (low_layout, low_inputs), _ = pair
    art = analyze_task(low_layout, scenarios_for(low_inputs), config)
    assert static_wcet_bound(low_layout, config) >= art.wcet.cycles


@given(pair=task_pairs())
@_SETTINGS
def test_path_footprints_cover_observed_footprint(pair):
    """Every observed memory block lies on at least one feasible path's
    footprint (each executed node belongs to some path), and each path
    footprint is a subset of the total footprint."""
    from tests.oracles.pathcost import path_footprints

    config, (low_layout, low_inputs), _ = pair
    art = analyze_task(low_layout, scenarios_for(low_inputs), config)
    footprints = path_footprints(art)
    union: set[int] = set()
    for fp in footprints:
        assert fp <= art.footprint
        union |= fp
    assert union == set(art.footprint)


@given(pair=task_pairs())
@_SETTINGS
def test_lee_bound_dominates_any_single_point(pair):
    """Approach 3's MUMBS-based bound dominates every individual
    execution point's reload bound (it is their maximum)."""
    config, (low_layout, low_inputs), _ = pair
    art = analyze_task(low_layout, scenarios_for(low_inputs), config)
    lee = art.useful.lee_reload_bound()
    for point in art.useful.points:
        assert point.reload_bound() <= lee


@given(pair=task_pairs(lru_write_through=True))
@_SETTINGS
def test_cold_wcet_dominates_warm_runs(pair):
    """The WCET measured from a cold cache bounds any warm-start run of
    the same scenario.  This holds on LRU write-through only: LRU has no
    cold-start anomalies, but under write-back the warm run can pay
    writebacks for dirty lines the intruder left behind."""
    config, (low_layout, low_inputs), (high_layout, high_inputs) = pair
    low_art = analyze_task(low_layout, scenarios_for(low_inputs), config)
    # Warm the cache with the other task, then run the measured scenario.
    cache = CacheState(config)
    prepared_machine(high_layout, cache, high_inputs).run()
    worst = low_art.wcet.worst_scenario
    warm = prepared_machine(
        low_layout, cache, scenarios_for(low_inputs)[worst]
    )
    warm.run()
    assert warm.cycles <= low_art.wcet.cycles
