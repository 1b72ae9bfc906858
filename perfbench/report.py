#!/usr/bin/env python3
"""Print every end-to-end metric and the per-layer self-time shares.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` for each workload, untraced then traced, one after the
other, and prints their human-readable lines (metric, value, unit).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    status = 0
    for workload in ("cold", "edit", "serve"):
        for trace in (0, 1):
            label = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload}: {label}", flush=True)
            run = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = run.stdout.splitlines()
            print("\n".join(lines[:-1]) if run.returncode == 0 else run.stderr)
            status = status or run.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
