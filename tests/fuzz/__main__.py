"""``python -m tests.fuzz run|replay|shrink``: the campaign's command line.

Run from the repository root with ``PYTHONPATH=src``.  Exit codes: 0
clean, 1 violations found, 2 a usage or config error (see
``docs/fuzzing.md``).  Every case runs under ``runner.CASE_BUDGET``;
``--time-budget`` adds a wall clock for the whole run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.cli import _load_spec
from repro.errors import ConfigError, ReproError, error_kind
from repro.fuzz.build import cfg_node_count
from repro.fuzz.generator import case_from_seed

from tests.fuzz.runner import (
    CASE_BUDGET,
    run_campaign,
    run_one_case,
    shard_indices,
)
from tests.fuzz.shrink import (
    PLANTED,
    planted_predicate,
    shrink_case,
    violation_predicate,
    write_artifacts,
)


def _shard(text: str) -> tuple[int, int]:
    try:
        index, count = map(int, text.split("/"))
        shard_indices(0, index, count)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must look like i/n with 0 <= i < n, got {text!r}"
        ) from None
    return index, count


def cmd_run(args: argparse.Namespace, budget) -> int:
    shard_index, shard_count = args.shard
    result = run_campaign(
        seed=args.seed,
        cases=args.cases,
        jobs=args.jobs,
        shard_index=shard_index,
        shard_count=shard_count,
        corpus_dir=args.corpus,
        budget=budget,
        oracle_names=args.oracles,
        report=lambda line: print(line, file=sys.stderr),
    )
    print(result.summary())
    return 1 if result.failures else 0


def cmd_replay(args: argparse.Namespace, budget) -> int:
    spec = _load_spec(args.spec) if args.spec else None
    violations = run_one_case(
        args.seed, args.index, budget=budget, oracle_names=args.oracles,
        spec=spec,
    )
    for violation in violations:
        print(violation)
    source = args.spec or f"seed {args.seed} case {args.index}"
    if violations:
        print(f"{source}: {len(violations)} violation(s)")
        return 1
    print(f"{source}: ok")
    return 0


def cmd_shrink(args: argparse.Namespace, budget) -> int:
    spec = (
        _load_spec(args.spec) if args.spec else case_from_seed(args.seed, args.index)
    )
    if args.planted is not None:
        predicate = planted_predicate(args.planted, budget=budget)
        # Planted doubles are shrinker self-tests: the emitted artifacts
        # replay the real oracle bank, which the minimized case passes.
        oracle_names = None
    else:
        predicate = violation_predicate(args.oracles, budget=budget)
        oracle_names = args.oracles
    try:
        result = shrink_case(spec, predicate)
    except ValueError as error:
        raise ConfigError(str(error)) from None
    print(
        f"shrunk weight {result.weight_before} -> {result.weight_after} "
        f"({result.rounds} round(s), {result.attempts} candidate(s)); "
        f"{cfg_node_count(spec)} -> {result.cfg_nodes} CFG node(s)"
    )
    for kind, path in write_artifacts(
        args.out, result, args.seed, args.index, oracle_names
    ).items():
        print(f"  {kind}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m tests.fuzz",
        description="differential fuzzing campaign (see docs/fuzzing.md)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the cases of 'run' (default 1)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole run (default: none)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    case = argparse.ArgumentParser(add_help=False)
    case.add_argument("--seed", type=int, default=0,
                      help="campaign seed (default: 0)")
    case.add_argument("--oracles", nargs="*", metavar="NAME", default=None,
                      help="restrict to these oracles (default: all)")
    one = argparse.ArgumentParser(add_help=False, parents=[case])
    one.add_argument("--index", type=int, default=0,
                     help="case index within the seed stream")
    one.add_argument(
        "--spec", metavar="FILE", default=None,
        help="use a saved spec (corpus fail-*.json or a shrunk spec) "
        "instead of regenerating from seed/index",
    )

    run = sub.add_parser("run", parents=[case],
                         help="run a seeded campaign over random systems")
    run.add_argument("--cases", type=int, default=1000, metavar="N",
                     help="cases in the campaign (default: 1000)")
    run.add_argument(
        "--shard", type=_shard, default=(0, 1), metavar="I/N",
        help="run only shard I of N (case indices I, I+N, ...; default 0/1)",
    )
    run.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="resumable corpus directory: progress stamps + failing specs",
    )
    run.set_defaults(func=cmd_run)

    replay = sub.add_parser("replay", parents=[one],
                            help="re-run one case and print its violations")
    replay.set_defaults(func=cmd_replay)

    shrink = sub.add_parser("shrink", parents=[one],
                            help="minimize a failing case by delta debugging")
    shrink.add_argument(
        "--planted", choices=sorted(PLANTED), default=None,
        help="shrink against a deliberately unsound oracle double "
        "(shrinker self-test)",
    )
    shrink.add_argument(
        "--out", metavar="DIR", default="fuzz-out",
        help="directory for spec/repro-script/pytest-stub artifacts",
    )
    shrink.set_defaults(func=cmd_shrink)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; typed errors become one-line stderr diagnostics."""
    args = build_parser().parse_args(argv)
    budget = replace(CASE_BUDGET, wall_clock_seconds=args.time_budget)
    try:
        return args.func(args, budget)
    except ReproError as error:
        print(f"fuzz: {error_kind(error)} error: {error}", file=sys.stderr)
        return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
