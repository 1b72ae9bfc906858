"""Micro-benchmarks of the substrate primitives.

Not a paper table — these track the cost of the building blocks every
experiment leans on: LRU cache access, trace recording and replay, the
block view, VM instruction dispatch, RMB/LMB fixpoint solving, CIIP
intersection and the WCRT iteration.
"""

from repro.analysis import analyze_task, scenario_traces, solve_rmb_lmb
from repro.analysis.rmb_lmb import solve_rmb_lmb as _solve
from repro.cache import CIIP, CacheConfig, CacheState, conflict_bound
from repro.program import ProgramBuilder, SystemLayout
from repro.vm import Machine, TraceRecorder
from repro.wcrt import TaskSpec, TaskSystem, compute_system_wcrt
from tests.oracles import rmb_lmb as oracle
from tests.oracles.trace import relocated


def test_cache_access_throughput(benchmark):
    config = CacheConfig.scaled_16k()
    cache = CacheState(config)
    addresses = [(i * 52) % 0x8000 for i in range(4096)]

    def run():
        return sum(cache.access(address).cycles for address in addresses)

    benchmark(run)
    assert cache.stats.accesses > 0


def test_replay_throughput(benchmark):
    """``access_stream`` over Experiment I's recorded traces, each from a
    cold cache: the kernel behind every WCET charge, geometry edit and
    layout move."""
    from repro.experiments import EXPERIMENT_I_SPEC

    config = CacheConfig.scaled_8k()
    traces = []
    for build in EXPERIMENT_I_SPEC.builders.values():
        workload = build()
        layout = SystemLayout().place(workload.program)
        traces.extend(
            scenario_traces(layout, workload.scenario_map(), config).values()
        )

    def run():
        return sum(trace.replay(CacheState(config)) for trace in traces)

    cycles = benchmark(run)
    assert cycles > 0


def test_vm_instruction_throughput(benchmark):
    b = ProgramBuilder("bench")
    data = b.array("data", words=64)
    out = b.array("out", words=64)
    with b.loop(32):
        with b.loop(64) as i:
            b.load("v", data, index=i)
            b.binop("v", "mul", "v", 3)
            b.binop("v", "add", "v", 1)
            b.store("v", out, index=i)
    program = b.build()
    layout = SystemLayout().place(program)
    config = CacheConfig.scaled_16k()

    def run():
        machine = Machine(layout=layout, cache=CacheState(config))
        machine.write_array("data", list(range(64)))
        machine.run()
        return machine.steps

    steps = benchmark(run)
    assert steps > 10_000


def _same_solution(result, expected) -> bool:
    """*result*'s masks decode to the frozenset oracle's per-set states."""
    for state in ("entry_rmb", "exit_rmb", "entry_lmb", "exit_lmb"):
        for label, mask in getattr(result, state).items():
            sets = getattr(expected, state).get(label, {})
            if result.bits.per_set(mask) != {i: b for i, b in sets.items() if b}:
                return False
    return True


def test_rmb_lmb_fixpoint(benchmark):
    """RMB/LMB solved as a cold run solves it, from the home view of
    OFDM's trace, checked against the oracle fed every visit."""
    from repro.analysis.store import TraceBundle
    from repro.workloads import build_ofdm

    config = CacheConfig.scaled_16k()
    workload = build_ofdm()
    layout = SystemLayout().place(workload.program)
    trace = TraceRecorder()
    machine = Machine(layout=layout, cache=CacheState(config), trace=trace)
    for name, values in workload.scenarios[0].inputs.items():
        machine.write_array(name, values)
    machine.run()
    traces = {"s": trace.compact()}
    bases = layout.region_bases()
    view = TraceBundle(traces=traces, base_cycles={"s": 0}, bases=bases).view(
        config.line_size, bases, traces
    )
    cfg = workload.program.cfg

    result = benchmark(_solve, cfg, view.visits, config, view.moved(bases))
    assert result.entry_rmb
    every = oracle.every_visit_aggregate(config, traces.values())
    assert _same_solution(result, oracle.solve_rmb_lmb(cfg, every, config))


def test_flow_from_view(benchmark):
    """RMB/LMB solved from Experiment I's trace views at a placement
    moved by whole lines: what a layout move or a geometry edit runs,
    checked against the oracle fed every visit of the moved traces."""
    from repro.analysis.store import TraceBundle
    from repro.experiments import EXPERIMENT_I_SPEC

    config = CacheConfig.scaled_8k()
    solves = []
    for build in EXPERIMENT_I_SPEC.builders.values():
        workload = build()
        layout = SystemLayout().place(workload.program)
        traces = scenario_traces(layout, workload.scenario_map(), config)
        home = layout.region_bases()
        bundle = TraceBundle(
            traces=traces, base_cycles=dict.fromkeys(traces, 0), bases=home
        )
        bases = tuple(base + 0x140 * (region + 1) for region, base in enumerate(home))
        view = bundle.view(config.line_size, bases, tuple(traces))
        moved = [
            relocated(trace.expand(), [new - old for new, old in zip(bases, home)])
            for trace in traces.values()
        ]
        expected = oracle.solve_rmb_lmb(
            workload.program.cfg, oracle.every_visit_aggregate(config, moved), config
        )
        solves.append((workload.program.cfg, view, bases, expected))

    def run():
        return [
            _solve(cfg, view.visits, config, view.moved(bases))
            for cfg, view, bases, _ in solves
        ]

    results = benchmark(run)
    assert all(
        _same_solution(result, expected)
        for result, (*_, expected) in zip(results, solves)
    )


def test_record_throughput(benchmark):
    """One cache-free VM run per scenario of Experiment I's tasks: the
    block visits and data addresses every cold analysis records."""
    from repro.analysis.pipeline import resolve_system
    from repro.analysis.wcet import measure_wcet_detailed

    tasks = resolve_system("exp1").tasks

    def run():
        return [measure_wcet_detailed(task.layout, task.scenarios) for task in tasks]

    recorded = benchmark(run)
    assert all(len(trace) for runs in recorded for _, trace in runs.values())


def test_view_build(benchmark):
    """The six Experiment I and II cold views, each from a freshly
    recorded trace bundle: what a cold run reads its counts and flow
    from."""
    from repro.analysis.pipeline import resolve_system
    from repro.analysis.store import TraceBundle
    from repro.analysis.wcet import measure_wcet_detailed

    recorded = [
        (task, placed.config, measure_wcet_detailed(task.layout, task.scenarios))
        for placed in (resolve_system("exp1"), resolve_system("exp2"))
        for task in placed.tasks
    ]

    def run():
        views = []
        for task, config, runs in recorded:
            bundle = TraceBundle(
                traces={name: trace for name, (_, trace) in runs.items()},
                base_cycles={name: base for name, (base, _) in runs.items()},
                bases=task.layout.region_bases(),
            )
            views.append(
                bundle.view(config.line_size, bundle.bases, tuple(task.scenarios))
            )
        return views

    views = benchmark(run)
    assert len(views) == 6 and all(view.keys for view in views)


def test_ciip_conflict_bound(benchmark):
    config = CacheConfig.scaled_16k()
    a = CIIP.from_addresses(config, [i * 48 for i in range(600)])
    b = CIIP.from_addresses(config, [4096 + i * 80 for i in range(400)])

    bound = benchmark(conflict_bound, a, b)
    assert bound > 0


def test_full_task_analysis(benchmark):
    """End-to-end analyze_task on the ED workload (the per-task pipeline)."""
    from repro.workloads import build_edge_detection

    config = CacheConfig.scaled_16k()
    workload = build_edge_detection()
    layout = SystemLayout().place(workload.program)

    art = benchmark.pedantic(
        analyze_task, args=(layout, workload.scenario_map(), config),
        rounds=2, iterations=1,
    )
    assert art.wcet.cycles > 0


def test_wcrt_iteration(benchmark):
    system = TaskSystem(
        tasks=[
            TaskSpec(name=f"t{i}", wcet=100 + 37 * i, period=1000 * (i + 1), priority=i)
            for i in range(8)
        ]
    )

    result = benchmark(
        compute_system_wcrt, system, cpre=lambda l, h: 40, context_switch=20
    )
    assert len(result.results) == 8


def test_view_counts(benchmark):
    """The six Experiment I and II views counted at the ``edit``
    workload's four geometries (mostly from footprints) and at a 1-way
    16-set cache (every scenario replayed): what each geometry edit and
    layout move pays per task, checked against replaying the traces."""
    from repro.analysis.pipeline import resolve_system
    from repro.analysis.store import TraceBundle
    from repro.analysis.wcet import measure_wcet_detailed

    geometries = ("256x2x16", "64x2x32", "128x2x16", "128x4x16", "16x1x16")
    configs = [
        CacheConfig(num_sets=sets, ways=ways, line_size=line)
        for sets, ways, line in (map(int, each.split("x")) for each in geometries)
    ]
    counted = []
    for placed in (resolve_system("exp1"), resolve_system("exp2")):
        for task in placed.tasks:
            runs = measure_wcet_detailed(task.layout, task.scenarios)
            bundle = TraceBundle(
                traces={name: trace for name, (_, trace) in runs.items()},
                base_cycles={name: base for name, (base, _) in runs.items()},
                bases=task.layout.region_bases(),
            )
            for config in configs:
                view = bundle.view(config.line_size, bundle.bases, tuple(runs))
                counted.append((view, bundle, config))

    def run():
        return [view.counts(bundle.bases, config) for view, bundle, config in counted]

    results = benchmark(run)
    for counts, (_, bundle, config) in zip(results, counted):
        for scenario, trace in bundle.traces.items():
            cache = CacheState(config)
            trace.replay(cache)
            stats = cache.stats
            assert counts[scenario] == (
                stats.hits + stats.misses, stats.misses, stats.writebacks
            )
