"""Check that the traced run's work counts repeat exactly.

Run from the repository root::

    python3 perfbench/check_counts.py --workload planted-tall --seed 3

Runs the traced run of one workload twice with the same seed and
compares every count metric (unit ``count``).  Any difference is
program nondeterminism: it is printed and the exit code is 1.  It must
not be absorbed into a bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: int) -> dict[str, float]:
    out = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "1",
        ],
        capture_output=True,
        text=True,
        cwd=HERE.parent,
        check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    first = traced_counts(args.workload, args.seed, seconds)
    second = traced_counts(args.workload, args.seed, seconds)
    differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    for name, value in sorted(first.items()):
        print(f"{name}: {value}" + ("  DIFFERS: %s" % (differ[name],) if name in differ else ""))
    if differ:
        print(f"nondeterministic counts: {sorted(differ)}", file=sys.stderr)
        return 1
    print(f"{len(first)} counts identical across two traced runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
