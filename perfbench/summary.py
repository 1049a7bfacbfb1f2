"""Traced-run summary: each layer's self time and share, per workload.

    python3 perfbench/summary.py --seed 1 --seconds 30 > summary.md

Runs run.py with --trace 1 on every workload and prints one Markdown table
per workload (layer calls, busy and self seconds per pass, share of the
traced pass, exceptions raised), the key function figures, and
trace.overhead_frac.  perfbench/BASELINE.md holds its output for the commit
the benchmark was defined on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from run import PER_LAYER  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, timeout=180, check=True,
    )
    lines = done.stdout.strip().splitlines()
    env = next(line[4:] for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def table(result: dict) -> list[str]:
    m = {name: value["value"] for name, value in result["metrics"].items()}
    rows = ["| layer | calls | busy s | self s | share | raised |", "|---|---:|---:|---:|---:|---:|"]
    for layer in LAYERS:
        rows.append(f"| {layer} | {m[layer + '.calls']:.0f} | {m[layer + '.s']:.3f} | "
                    f"{m[layer + '.self_s']:.3f} | {m[layer + '.share']:.3f} | {m[layer + '.raised']:.0f} |")
    rows.append("")
    rows += ["| function metric | value |", "|---|---:|"]
    for name, unit in PER_LAYER.items():
        if name.count(".") >= 2 and m[name]:
            rows.append(f"| {name} | {m[name]:.4g} {unit} |")
    rows.append(f"| trace.overhead_frac | {m['trace.overhead_frac']:+.4f} |")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        result, env = traced(workload, args.seed, args.seconds)
        print(f"## {workload}\n\nenv `{env}`\n")
        print(f"attempted {result['attempted']}, failed {result['failed']}; figures per traced pass\n")
        print("\n".join(table(result)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
