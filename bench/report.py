"""Print every benchmark metric with its unit, for all three workloads.

Usage, from the root of a checkout:

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

Without --trace it prints setup_s, wall_s, peak_rss_mb, pass_frac and
fail_frac (failed over attempted operations) per workload; with --trace the
per-layer metrics and the tracing overheads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(int(args.trace))],
            cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(f"{workload}: benchmark failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload} (seed {args.seed}): correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
        if not args.trace:
            print(f"  {'fail_frac':<46} {result['failed'] / result['attempted']:>14.6g} ratio")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
