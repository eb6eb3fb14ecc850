"""Run one workload over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/spread.py --workload planted-tall --seeds 10

For every end-to-end metric it prints the median of the runs and the
distance between their first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``) next to the metric's
bound from ``BENCHMARK.json``, and the same spread of the raw
(uncalibrated) time and of the reference task's median, which show how
much the host itself moved.  Runs are sequential; seeds are
``first .. first + seeds - 1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--first", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    raw: dict[str, list[float]] = {}
    for seed in range(args.first, args.first + args.seeds):
        out = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            cwd=HERE.parent,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        (HERE.parent / ".perfbench-out" / f"spread-{args.workload}-{seed}.jsonl").write_text(
            "\n".join(lines[-2:]) + "\n", encoding="utf-8"
        )
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"]
        for name, value in detail["raw_metrics"].items():
            raw.setdefault(name, []).append(value)
        raw.setdefault("reference", []).append(detail["calibration"]["median_s"])
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {line}", flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, bound in bounds.items():
        spread = stats.quartile_spread(values[name])
        print(
            f"{name:>12}: median {statistics.median(values[name]):.4f} "
            f"spread {spread:.3f} (bound {bound}, target < {bound / 3:.3f})"
        )
    for name, samples in raw.items():
        print(
            f"{'raw ' + name:>16}: median {statistics.median(samples):.4f} "
            f"spread {stats.quartile_spread(samples):.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
