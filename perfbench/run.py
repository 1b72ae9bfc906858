#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cold|edit|serve --seed N \\
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--seconds`` fixes how many operations a run makes (about that many
seconds on a 2-core x86-64 host; see ``workloads.op_count``).  Times are
process CPU time (see ``workloads.py``) divided by the run's host-speed
factor (see ``hostspeed.py``); the lines before the result line also give
the factor and each time as measured.

``--trace 0`` reports the end-to-end metrics (see README.md for what each
one means on each workload).  ``--trace 1`` makes an untraced pass over
half the operations, sets up again, replays the same operations with
every layer entry point wrapped (see ``layers.py``) and reports the
per-layer metrics, the per-layer self-time shares and the tracing
overhead.  Spans are written to ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: A run stops early once its measured loop has taken this many times
#: ``--seconds`` of wall time, so a starved host still ends in time.
WALL_LIMIT_FACTOR = 3

UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_cpu_s": "1/s",
    "tail_cpu_ms": "ms",
    "light_cpu_ms": "ms",
    "mid_cpu_ms": "ms",
    "heavy_cpu_ms": "ms",
}

#: What each generic metric measures on each workload (see README.md).
MEANING = {
    "cold": {
        "ops_per_cpu_s": "cold_tasks_per_s (tasks to a 4-approach verdict)",
        "tail_cpu_ms": "p80 of the generated systems (cold_system_p90_ms)",
        "light_cpu_ms": "generated systems of 2-8 tasks",
        "mid_cpu_ms": "every generated system (cold_system_p50_ms)",
        "heavy_cpu_ms": "generated systems of 9-16 tasks",
    },
    "edit": {
        "ops_per_cpu_s": "edits_per_s",
        "tail_cpu_ms": "p90 of all edits (edit_p90_ms)",
        "light_cpu_ms": "penalty=/period: edits (edit_param_p50_ms)",
        "mid_cpu_ms": "geometry= edits (edit_geometry_p50_ms)",
        "heavy_cpu_ms": "layout moves (edit_layout_p50_ms)",
    },
    "serve": {
        "ops_per_cpu_s": "requests per CPU second",
        "tail_cpu_ms": "p95 of all requests",
        "light_cpu_ms": "warm point requests",
        "mid_cpu_ms": "repeated spec requests",
        "heavy_cpu_ms": "fresh spec requests",
    },
}

#: Per workload: the tail percentile and the operation kinds behind it,
#: then the kinds behind light/mid/heavy (None: every operation).  Cold
#: and edit take the highest percentile with about ten operations beyond
#: it in a 20-second run (60 generated systems, 96 edits); serve takes
#: p95, with 50 of its 1000 requests beyond it.
CLASSES = {
    "cold": (0.8, ("small", "large"), ("small",), ("small", "large"),
             ("large",)),
    "edit": (0.9, None, ("param",), ("geometry",), ("layout",)),
    "serve": (0.95, None, ("point",), ("repeat",), ("fresh",)),
}

SERVE_LAYER = (
    "serve.queue_wait_p50_ms", "serve.queue_wait_p95_ms",
    "serve.service_p50_ms", "serve.service_p95_ms", "serve.shed",
)


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def pin_to_one_cpu() -> None:
    """Keep every thread of the run on one CPU.

    The analysis is bound by the interpreter lock, so it uses one core
    either way; handing the lock between threads on different cores only
    adds run-to-run noise to the serve latencies.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(name: str, result, setup_s: float) -> dict:
    """Every end-to-end metric as measured (CPU times, not yet divided by
    the host-speed factor)."""
    from workloads import latency_ms, trimmed_mean_ms

    ops = result.ops
    ok = [op for op in ops if op.latency_s != float("inf")]
    q, tail, light, mid, heavy = CLASSES[name]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_cpu_s": sum(op.work for op in ok) / result.busy_s,
        "tail_cpu_ms": latency_ms(ops, q, tail),
        "light_cpu_ms": trimmed_mean_ms(ops, light),
        "mid_cpu_ms": trimmed_mean_ms(ops, mid),
        "heavy_cpu_ms": trimmed_mean_ms(ops, heavy),
    }


def sample_counts(name: str, ops) -> str:
    """How many operations each percentile or class metric is taken over."""
    _, *kinds = CLASSES[name]
    slots = ("tail", "light", "mid", "heavy")
    return ", ".join(
        f"{slot} {sum(1 for op in ops if k is None or op.kind in k)}"
        for slot, k in zip(slots, kinds)
    )


def at_nominal_speed(name: str, value: float, factor: float) -> float:
    """*value* as it would read on a host running at nominal speed."""
    if UNITS[name] == "1/s":
        return value * factor
    if UNITS[name] in ("s", "ms"):
        return value / factor
    return value


def make_workload(name: str, seed: int):
    import workloads

    if name == "cold":
        return workloads.Cold(seed)
    if name == "edit":
        return workloads.Edit(seed)
    return workloads.Serve(seed, WORKDIR)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    from hostspeed import SETUP_SAMPLES, HostSpeed

    speed = HostSpeed()
    started = process_time()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.analysis.whatif  # noqa: F401
        import repro.batch.engine  # noqa: F401
        import repro.serve.service  # noqa: F401
    except ImportError as error:
        print(f"perfbench: cannot import repro from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        return 2
    import_s = process_time() - started
    # Keep every scratch file (the warm pool spools contexts to the temp
    # directory) inside the checkout.
    tempfile.tempdir = str(WORKDIR / "tmp")
    os.makedirs(tempfile.tempdir, exist_ok=True)

    workload = make_workload(args.workload, args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = process_time()
        workload.setup()
        setups.append(process_time() - t0)
    setup_s = import_s + statistics.median(setups)
    while len(speed.samples) < SETUP_SAMPLES:
        speed.sample()
    # Set-up is scaled by the host speed measured around it, the measured
    # loop by the speed measured through it.
    setup_factor = speed.factor()
    loop_start = len(speed.samples)

    from workloads import op_count

    count = op_count(workload, args.seconds)
    wall_limit_s = WALL_LIMIT_FACTOR * args.seconds
    if args.trace:
        metrics, result, mismatches = traced(
            workload, args, count, wall_limit_s, speed
        )
    else:
        result = workload.run(count, wall_limit_s, speed)
        workload.finish(result)
        mismatches = result.mismatches
        factor = speed.factor(loop_start)
        print(f"host-speed factor {factor:.4f} in the measured loop "
              f"({len(speed.samples) - loop_start} reference samples), "
              f"{setup_factor:.4f} around set-up ({loop_start})")
        measured = end_to_end(args.workload, result, setup_s)
        metrics = {}
        meaning = MEANING[args.workload]
        for name, value in measured.items():
            metrics[name] = at_nominal_speed(
                name, value, setup_factor if name == "setup_s" else factor
            )
            note = f"  {meaning[name]}" if name in meaning else ""
            print(f"{name:>16} {metrics[name]:12.4f} {UNITS[name]:<5} "
                  f"(measured {value:.4f}){note}")
        print(f"operations per metric: "
              f"{sample_counts(args.workload, result.ops)}")
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in metrics.items()}
    print(f"attempted {len(result.ops)}, failed {result.failed}, "
          f"output-check mismatches {mismatches}")
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": len(result.ops),
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


def traced(workload, args, count, wall_limit_s, speed):
    from layers import LayerTrace, per_layer_metrics, self_shares

    baseline = workload.run(max(1, count // 2), wall_limit_s / 2, speed)
    workload.finish(baseline)
    workload.setup()
    trace = LayerTrace()
    with trace:
        result = workload.run(len(baseline.ops), wall_limit_s, speed)
    workload.finish(result)
    trace.write(WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl")

    values = per_layer_metrics(trace, result.wall_s)
    for name in SERVE_LAYER:
        values[name] = result.extra.get(name, 0)
    values["trace.overhead_ratio"] = result.busy_s / baseline.busy_s
    print(f"per-layer self-time share of the traced wall "
          f"({result.wall_s:.3f} s):")
    for layer, share in self_shares(trace, result.wall_s).items():
        print(f"{layer:>10} {100 * share:7.2f} %")
    for name, value in values.items():
        print(f"{name:>34} {value:14.6f} {layer_unit(name)}")
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in values.items()}
    return metrics, result, baseline.mismatches + result.mismatches


if __name__ == "__main__":
    sys.exit(main())
