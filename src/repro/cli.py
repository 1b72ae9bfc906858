"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``    — regenerate the paper's Tables I-VI (optionally a subset).
* ``figures``   — regenerate Figures 1-5.
* ``workloads`` — list the built-in benchmark workloads.
* ``analyze``   — full single-task analysis report for one workload.
* ``crpd``      — Table II (reload-line estimates) for one experiment.
* ``simulate``  — run the shared-cache scheduler and report ARTs.
* ``sweep``     — batch-analyse a penalty × geometry grid on the warm
  worker pool with sub-artifact reuse (see ``docs/performance.md``).
* ``whatif``    — incremental what-if re-analysis: load a base system
  (``exp1``/``exp2`` or a fuzz spec JSON), apply single-field edits and
  re-analyse only what each edit invalidated (see ``docs/performance.md``).
* ``obs``       — observability utilities (``obs summarize trace.jsonl``).
* ``serve``     — long-lived multi-tenant analysis daemon over the warm
  pool: ``POST /v1/analyze``, ``GET /v1/jobs/<id>``, ``POST /v1/compare``,
  per-client quotas and graceful shedding (see ``docs/serving.md``).

Every analysis command runs *guarded* (see ``docs/robustness.md``):
budgets are enforced, budget trips degrade to sound conservative bounds
recorded in a degradation ledger, and failures surface as one-line typed
diagnostics with distinct exit codes (config=2, budget=3, divergence=4,
simulation=5) instead of tracebacks.  ``--strict`` turns every would-be
degradation into a hard typed failure.

``--trace-out FILE`` / ``--metrics-out FILE`` (see ``docs/observability.md``)
enable the zero-dependency tracing layer for any command: spans, span
events and metrics from every instrumented stage are exported on exit —
including when the command fails, so a budget trip leaves a trace
explaining where the time went.
"""

from __future__ import annotations

import argparse
import sys


def _add_experiment_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--experiment",
        choices=("1", "2"),
        default="1",
        help="which of the paper's two experiments to use (default: 1)",
    )


def _spec_for(experiment: str):
    from repro.experiments import EXPERIMENT_I_SPEC, EXPERIMENT_II_SPEC

    return EXPERIMENT_I_SPEC if experiment == "1" else EXPERIMENT_II_SPEC


def _budget_from(args: argparse.Namespace):
    from repro.guard.budget import AnalysisBudget

    return AnalysisBudget(
        max_paths=args.max_paths,
        max_wcrt_iterations=args.max_iterations,
        wall_clock_seconds=args.time_budget,
        strict=args.strict,
        exact_paths=args.exact_paths,
    )


def _store_from(args: argparse.Namespace):
    if args.no_cache:
        return None
    from repro.analysis.store import default_store

    return default_store()


def _report_degradations(ledger) -> None:
    """One stderr line per fallback fired, so stdout stays machine-friendly.

    Takes anything with ``events``: a ledger or a what-if state."""
    for event in ledger.events:
        print(f"repro: degraded {event.describe()}", file=sys.stderr)


def cmd_tables(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import generate_all_tables

    tables = generate_all_tables(
        include_art=not args.no_art, budget=_budget_from(args),
        store=_store_from(args),
    )
    wanted = set(args.only) if args.only else None
    for key, table in tables.items():
        if wanted and not any(token in key for token in wanted):
            continue
        print(table.render())
        print()
        if args.csv:
            directory = Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / f"{key}.csv").write_text(table.to_csv())
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import generate_all_figures

    for key, text in generate_all_figures().items():
        print(text)
        print()
    return 0


def cmd_workloads(args: argparse.Namespace) -> int:
    from repro.workloads import build_workload, workload_names

    for name in workload_names():
        workload = build_workload(name)
        blocks = len(workload.program.cfg.labels())
        scenarios = ", ".join(s.name for s in workload.scenarios)
        print(f"{name:8s} {blocks:3d} blocks  scenarios: {scenarios}")
        print(f"         {workload.description}")
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_task, scenario_traces, task_report
    from repro.cache import CacheConfig
    from repro.guard.ledger import DegradationLedger
    from repro.program import SystemLayout
    from repro.workloads import build_workload

    workload = build_workload(args.workload)
    config = CacheConfig.scaled_8k(miss_penalty=args.penalty)
    layout = SystemLayout().place(workload.program)
    scenarios = workload.scenario_map()
    ledger = DegradationLedger()
    budget = _budget_from(args)
    art = analyze_task(
        layout,
        scenarios,
        config,
        budget=budget,
        ledger=ledger,
        store=_store_from(args),
    )
    traces = None
    if args.reuse:
        # analyze_task's step cap under this budget.
        max_steps = min(10_000_000, budget.max_sim_steps)
        traces = scenario_traces(layout, scenarios, config, max_steps=max_steps)
    print(f"workload {args.workload!r}: {workload.description}\n")
    print(task_report(art, traces=traces, max_paths=budget.max_paths))
    print(f"\nsoundness: {ledger.soundness}")
    _report_degradations(ledger)
    return 0


def cmd_crpd(args: argparse.Namespace) -> int:
    from repro.experiments import build_context, table2_cache_lines

    context = build_context(
        _spec_for(args.experiment),
        miss_penalty=args.penalty,
        budget=_budget_from(args),
        store=_store_from(args),
    )
    print(table2_cache_lines(context).render())
    _report_degradations(context.ledger)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments import build_context

    context = build_context(
        _spec_for(args.experiment),
        miss_penalty=args.penalty,
        budget=_budget_from(args),
        store=_store_from(args),
    )
    horizon = args.horizon or 2 * context.system.hyperperiod
    result = context.simulate(horizon)
    print(f"{context.spec.title}: simulated {result.end_time} cycles, "
          f"{len(result.jobs)} jobs, Cmiss={args.penalty}")
    for name in context.priority_order:
        responses = result.response_times(name)
        print(f"  {name.upper():8s} jobs={len(responses):4d} "
              f"ART={max(responses):7d} "
              f"preemptions={result.preemption_count(name):4d}")
    misses = result.deadline_misses()
    print(f"  deadline misses: {len(misses)}")
    if args.events:
        for event in result.events[: args.events]:
            print(f"  {event}")
    _report_degradations(context.ledger)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments import generate_all_figures, generate_all_tables
    from repro.experiments.validation import validate_reproduction

    sections = [
        "# Reproduction report",
        "",
        "Generated by `python -m repro report`.  See EXPERIMENTS.md for the",
        "paper-vs-measured discussion of every table and figure.",
        "",
        "## Tables",
        "",
    ]
    for table in generate_all_tables(
        include_art=not args.no_art, budget=_budget_from(args),
        store=_store_from(args),
    ).values():
        sections.append("```")
        sections.append(table.render())
        sections.append("```")
        sections.append("")
    sections.append("## Figures")
    sections.append("")
    for text in generate_all_figures().values():
        sections.append("```")
        sections.append(text)
        sections.append("```")
        sections.append("")
    report = validate_reproduction(penalties=(10, 40))
    sections.append("## Validation")
    sections.append("")
    sections.append("```")
    sections.append(report.render())
    sections.append("```")
    output = Path(args.output)
    output.write_text("\n".join(sections) + "\n")
    print(f"wrote {output} ({'all checks passed' if report.passed else 'FAILURES'})")
    return 0 if report.passed else 1


def _parse_geometry(text: str) -> tuple[int, int, int]:
    from repro.errors import ConfigError

    try:
        num_sets, ways, line_size = (int(part) for part in text.split("x"))
    except ValueError:
        raise ConfigError(
            f"--geometry must look like SETSxWAYSxLINE (e.g. 64x4x32), "
            f"got {text!r}"
        ) from None
    for name, value in (
        ("num_sets", num_sets), ("ways", ways), ("line_size", line_size)
    ):
        if value < 1:
            raise ConfigError(
                f"geometry {text!r}: {name} must be >= 1, got {value} "
                "(write geometry fields in decimal)"
            )
    return num_sets, ways, line_size


def cmd_sweep(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.batch import analyze_batch, sweep_grid

    experiments = ("exp1", "exp2") if args.experiment == "both" else (
        f"exp{args.experiment}",
    )
    geometries = (
        [_parse_geometry(text) for text in args.geometry]
        if args.geometry
        else None
    )
    points = sweep_grid(
        experiments=experiments,
        penalties=tuple(args.penalties),
        geometries=geometries,
    )
    batch = analyze_batch(
        points,
        jobs=args.jobs,
        store=_store_from(args),
        budget=_budget_from(args),
    )
    for result in batch:
        payload = result.payload
        print(
            f"{result.point.label():24s} {_verdicts(payload)}  "
            f"soundness={payload['soundness']} "
            f"degradations={len(payload['events'])}"
        )
    summary = batch.summary()
    print(
        f"swept {summary['points']} point(s) "
        f"({summary['unique_points']} unique, "
        f"{summary['deduplicated']} deduplicated) in "
        f"{summary['elapsed_seconds']:.2f}s — "
        f"pool reuse {summary['pool']['reuse']}/{summary['pool']['tasks']}, "
        f"store {summary['store']['hits']} hit(s) / "
        f"{summary['store']['misses']} miss(es)"
    )
    if args.json:
        path = Path(args.json)
        path.write_text(json.dumps(batch.to_dict(), indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def _verdicts(payload: dict) -> str:
    """``a1=ok a2=MISS ...``: a result payload's per-approach verdicts."""
    return " ".join(
        f"a{approach}={'ok' if ok else 'MISS'}"
        for approach, ok in payload["schedulable"].items()
    )


def _print_whatif_state(result) -> None:
    invalidated = result.invalidated
    print(
        f"{result.label:28s} {_verdicts(result.payload)}  "
        f"{result.elapsed_seconds * 1e3:8.2f} ms  "
        f"recomputed tasks={invalidated.get('task', 0)} "
        f"pairs={invalidated.get('pair', 0)}  "
        f"soundness={result.payload['soundness']}"
    )


def cmd_whatif(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.whatif import (
        WhatIfSession,
        check_edit_conflicts,
        parse_edit,
    )

    base = args.base if args.base in ("exp1", "exp2") else _load_spec(args.base)
    edits = [parse_edit(text) for text in (args.edit or [])]
    # Duplicate/conflicting edits in one batch are a typo, not an intent:
    # fail fast (exit 2) instead of silently letting the last one win.
    check_edit_conflicts(edits)
    states = []
    with WhatIfSession(
        base, budget=_budget_from(args), store=_store_from(args)
    ) as session:
        result = session.result()
        states.append(result)
        _print_whatif_state(result)
        _report_degradations(result)
        for edit in edits:
            result = session.apply(edit)
            states.append(result)
            _print_whatif_state(result)
            _report_degradations(result)
    if args.json:
        path = Path(args.json)
        path.write_text(
            json.dumps([state.to_dict() for state in states], indent=2) + "\n"
        )
        print(f"wrote {path}")
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.optimize import before_after_table, optimize, pareto_table

    if args.experiment in ("exp1", "exp2"):
        base = args.experiment
    elif args.experiment in ("1", "2"):
        base = f"exp{args.experiment}"
    else:
        raise ConfigError(
            f"--experiment must be exp1, exp2, 1 or 2, got {args.experiment!r}"
        )
    cache_budgets = None
    if args.cache_budgets:
        from repro.cache.config import CacheConfig

        cache_budgets = [
            CacheConfig(
                **dict(
                    zip(
                        ("num_sets", "ways", "line_size"),
                        _parse_geometry(text),
                    )
                ),
                miss_penalty=args.penalty,
            )
            for text in args.cache_budgets
        ]
    started = time.perf_counter()
    outcome = optimize(
        base,
        seed=args.seed,
        budget_evals=args.budget_evals,
        method=args.method,
        objective=args.objective,
        approach=args.approach,
        restarts=args.restarts,
        generation=args.generation,
        patience=args.patience,
        cache_budgets=cache_budgets,
        miss_penalty=args.penalty,
        budget=_budget_from(args),
    )
    elapsed = time.perf_counter() - started
    print(before_after_table(outcome).render())
    print()
    print(pareto_table(outcome).render())
    evals_per_sec = outcome.evals_used / elapsed if elapsed > 0 else 0.0
    # Timing goes to stdout only — the JSON artifact stays byte-stable
    # across runs of the same seed.
    print(
        f"\n{outcome.evals_used} evaluations in {elapsed:.1f}s "
        f"({evals_per_sec:.1f} evals/s)"
    )
    if args.json:
        path = Path(args.json)
        path.write_text(
            json.dumps(outcome.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {path}")
    return 0


def cmd_obs_summarize(args: argparse.Namespace) -> int:
    from repro.obs.summary import summarize_trace

    print(summarize_trace(args.trace).render())
    return 0


def _load_spec(path: str):
    import json

    from repro.errors import ConfigError
    from repro.fuzz.spec import SystemSpec

    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise ConfigError(f"cannot read spec {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ConfigError(f"spec {path!r} is not valid JSON: {error}") from error
    # Accept both a bare spec and a corpus failure entry wrapping one.
    return SystemSpec.from_json(payload.get("spec", payload))


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.daemon import run_daemon
    from repro.serve.quota import QuotaConfig
    from repro.serve.service import AnalysisService

    service = AnalysisService(
        workers=args.serve_workers,
        queue_capacity=args.queue_capacity,
        quota=QuotaConfig(
            capacity=args.quota_capacity,
            refill_per_second=args.quota_refill,
        ),
        store=_store_from(args),
        budget=_budget_from(args),
    )
    return run_daemon(
        args.host, args.port, service, verbose=args.verbose
    )


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.experiments.validation import validate_reproduction

    report = validate_reproduction(penalties=tuple(args.penalties))
    print(report.render())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRPD-aware WCRT analysis (Tan & Mooney, DATE 2004 "
        "reproduction)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="fail with a typed error instead of degrading to a "
        "conservative bound when an analysis budget trips",
    )
    parser.add_argument(
        "--max-paths", type=int, default=4096, metavar="N",
        help="feasible-path enumeration budget per task (default: 4096)",
    )
    parser.add_argument(
        "--max-iterations", type=int, default=1000, metavar="N",
        help="WCRT fixpoint iteration budget (default: 1000)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole analysis (default: none)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep points (default 1); "
        "other commands run serially",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk artifact cache (see docs/performance.md)",
    )
    parser.add_argument(
        "--exact-paths", action="store_true",
        help="recover the exact Eq. 4 bound by branch-and-bound even for "
        "tasks whose path enumeration tripped --max-paths",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="enable tracing and write the JSONL span trace to FILE "
        "(see docs/observability.md)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="enable metrics and write the JSON registry dump to FILE",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate Tables I-VI")
    p_tables.add_argument(
        "--only", nargs="*", metavar="NAME",
        help="substring filter, e.g. 'table2' or 'exp1'",
    )
    p_tables.add_argument(
        "--no-art", action="store_true",
        help="skip the (slow) actual-response-time simulations",
    )
    p_tables.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each table as CSV into DIR",
    )
    p_tables.set_defaults(func=cmd_tables)

    p_figures = sub.add_parser("figures", help="regenerate Figures 1-5")
    p_figures.set_defaults(func=cmd_figures)

    p_workloads = sub.add_parser("workloads", help="list benchmark workloads")
    p_workloads.set_defaults(func=cmd_workloads)

    p_analyze = sub.add_parser("analyze", help="analyse one workload")
    p_analyze.add_argument("workload", help="workload name (see 'workloads')")
    p_analyze.add_argument("--penalty", type=int, default=20, help="Cmiss cycles")
    p_analyze.add_argument(
        "--reuse", action="store_true",
        help="also print reuse-distance and set-pressure diagnostics",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_crpd = sub.add_parser("crpd", help="Table II for one experiment")
    _add_experiment_argument(p_crpd)
    p_crpd.add_argument("--penalty", type=int, default=20)
    p_crpd.set_defaults(func=cmd_crpd)

    p_report = sub.add_parser(
        "report", help="write tables + figures + validation to one file"
    )
    p_report.add_argument("--output", default="REPORT.md")
    p_report.add_argument("--no-art", action="store_true",
                          help="skip the ART simulations")
    p_report.set_defaults(func=cmd_report)

    p_validate = sub.add_parser(
        "validate", help="re-verify every reproduction shape claim"
    )
    p_validate.add_argument(
        "--penalties", type=int, nargs="*", default=[10, 40],
        help="miss penalties to check (default: 10 40)",
    )
    p_validate.set_defaults(func=cmd_validate)

    p_sim = sub.add_parser("simulate", help="run the scheduler simulation")
    _add_experiment_argument(p_sim)
    p_sim.add_argument("--penalty", type=int, default=20)
    p_sim.add_argument("--horizon", type=int, default=None, help="cycles")
    p_sim.add_argument(
        "--events", type=int, default=0, metavar="N",
        help="print the first N scheduler events",
    )
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser(
        "sweep",
        help="batch-analyse a penalty × geometry grid on the warm pool "
        "(see docs/performance.md)",
    )
    p_sweep.add_argument(
        "--experiment", choices=("1", "2", "both"), default="1",
        help="which experiment(s) to sweep (default: 1)",
    )
    p_sweep.add_argument(
        "--penalties", type=int, nargs="*", default=[10, 20, 30, 40],
        metavar="CYCLES",
        help="miss penalties to sweep (default: 10 20 30 40)",
    )
    p_sweep.add_argument(
        "--geometry", nargs="*", metavar="SETSxWAYSxLINE", default=None,
        help="cache geometries to sweep, e.g. 64x4x32 128x2x32 "
        "(default: the scaled 8KB geometry only)",
    )
    p_sweep.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the full per-point results as JSON to FILE",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_whatif = sub.add_parser(
        "whatif",
        help="incremental what-if re-analysis of a base system under "
        "single-field edits (see docs/performance.md)",
    )
    p_whatif.add_argument(
        "--base", required=True, metavar="EXP|SPEC.json",
        help="base system: 'exp1', 'exp2', or a fuzz SystemSpec JSON file",
    )
    p_whatif.add_argument(
        "--edit", action="append", metavar="EDIT", default=None,
        help="an edit to apply (repeatable, applied in order): penalty=N, "
        "geometry=SETSxWAYSxLINE, period:TASK=N, array:TASK:INDEX=WORDS "
        "(fuzz bases only), or a layout move: code:TASK=ADDR, data:TASK=ADDR, "
        "color:TASK:INDEX=COLOR or swap:TASK=TASK",
    )
    p_whatif.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write every analysed state (base + one per edit) as "
        "JSON to FILE",
    )
    p_whatif.set_defaults(func=cmd_whatif)

    p_optimize = sub.add_parser(
        "optimize",
        help="seeded layout/coloring search minimizing system WCRT "
        "(see docs/optimize.md)",
    )
    p_optimize.add_argument(
        "--experiment", default="exp1", metavar="EXP",
        help="experiment to optimize: exp1, exp2 (or 1/2; default: exp1)",
    )
    p_optimize.add_argument(
        "--seed", type=int, default=0,
        help="search seed; same seed => byte-identical move log and "
        "Pareto front (default: 0)",
    )
    p_optimize.add_argument(
        "--budget-evals", type=int, default=200, metavar="N",
        help="total layout evaluations, split across cache budgets "
        "(default: 200)",
    )
    p_optimize.add_argument(
        "--method", choices=("greedy", "anneal"), default="anneal",
        help="greedy descent only, or greedy restart 0 + annealing "
        "restarts (default: anneal)",
    )
    p_optimize.add_argument(
        "--objective", choices=("wcrt", "breakdown"), default="wcrt",
        help="minimize system WCRT, or maximize the critical scaling "
        "factor (default: wcrt)",
    )
    p_optimize.add_argument(
        "--approach", type=int, choices=(1, 2, 3, 4), default=4,
        help="CRPD approach the objective scores (default: 4)",
    )
    p_optimize.add_argument(
        "--restarts", type=int, default=3,
        help="annealing restarts including the greedy restart 0 "
        "(default: 3)",
    )
    p_optimize.add_argument(
        "--generation", type=int, default=6, metavar="N",
        help="random candidates fanned through analyze_batch before the "
        "local search (default: 6)",
    )
    p_optimize.add_argument(
        "--patience", type=int, default=25, metavar="N",
        help="stop a restart after N proposals without a new best "
        "(default: 25)",
    )
    p_optimize.add_argument(
        "--penalty", type=int, default=20, metavar="CYCLES",
        help="cache miss penalty Cmiss (default: 20)",
    )
    p_optimize.add_argument(
        "--cache-budgets", nargs="*", metavar="SETSxWAYSxLINE", default=None,
        help="cache budgets for the Pareto axis (default: the experiment "
        "geometry plus two set-halvings)",
    )
    p_optimize.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the timing-free run artifact (Pareto front + move "
        "log) as JSON to FILE",
    )
    p_optimize.set_defaults(func=cmd_optimize)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_summarize = obs_sub.add_parser(
        "summarize", help="per-phase wall-time breakdown of a JSONL trace"
    )
    p_summarize.add_argument("trace", help="trace file from --trace-out")
    p_summarize.set_defaults(func=cmd_obs_summarize)

    p_serve = sub.add_parser(
        "serve",
        help="multi-tenant analysis daemon on the warm pool "
        "(see docs/serving.md)",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port; 0 lets the OS pick, the bound port is printed "
        "(default: 8642)",
    )
    p_serve.add_argument(
        "--serve-workers", type=int, default=2, metavar="N",
        help="analysis worker threads draining the job queue (default: 2)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=16, metavar="N",
        help="bounded job queue depth; submissions beyond it are shed "
        "with 429 (default: 16)",
    )
    p_serve.add_argument(
        "--quota-capacity", type=int, default=0, metavar="N",
        help="per-client token-bucket burst; 0 disables quotas "
        "(default: 0)",
    )
    p_serve.add_argument(
        "--quota-refill", type=float, default=4.0, metavar="PER_SEC",
        help="per-client token refill rate (default: 4/s)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true",
        help="log one stderr line per handled HTTP request",
    )
    p_serve.set_defaults(func=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; typed errors become one-line stderr diagnostics.

    Exit codes: 0 success, 1 unclassified :class:`ReproError`, 2 config,
    3 budget, 4 divergence, 5 simulation (see :mod:`repro.errors`).
    """
    from repro.errors import ReproError, error_kind

    parser = build_parser()
    args = parser.parse_args(argv)
    tracer = metrics = None
    if args.trace_out is not None or args.metrics_out is not None:
        from repro.obs import install

        tracer, metrics = install()
    try:
        if tracer is not None:
            with tracer.span(f"cli.{args.command}"):
                return args.func(args)
        return args.func(args)
    except ReproError as error:
        print(f"repro: {error_kind(error)} error: {error}", file=sys.stderr)
        return error.exit_code
    finally:
        if tracer is not None:
            from repro.obs import uninstall

            uninstall()
            # Export even on failure: a tripped budget leaves a trace
            # explaining where the time went.  Exit codes are unchanged.
            if args.trace_out is not None:
                tracer.export_jsonl(args.trace_out)
            if args.metrics_out is not None:
                metrics.export_json(args.metrics_out)


if __name__ == "__main__":
    sys.exit(main())
