"""spg benchmark: one workload, end-to-end or traced per-layer figures.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it benchmarks the spg under src/.  Each
run starts fresh interpreters with BLAS pinned to one thread: several only
time the set-up, and one more runs the workload's closed loop for about
--seconds seconds (whole passes, at least 100 item calls).  Output: readable lines, then,
as the last line, one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
SPANS = os.path.join(HERE, "_out")

sys.path.insert(0, HERE)
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 7          # fresh interpreters timed per run, the measuring one included
TIME_LIMIT_S = 170.0    # a run gives up (and fails) past this
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "wall_norm_s": "s",
    "item_p50_norm_ms": "ms",
    "item_p90_norm_ms": "ms",
    "peak_rss_mb": "MiB",
}
_LAYER_FIELDS = {"calls": "count", "s": "s", "self_s": "s", "share": "fraction", "raised": "count"}
PER_LAYER = {f"{layer}.{f}": unit for layer in LAYERS for f, unit in _LAYER_FIELDS.items()}
PER_LAYER.update({
    "groups.load_cayley_table.calls": "count",
    "groups.load_cayley_table.s": "s",
    "groups.validate_cayley_table.calls": "count",
    "groups.validate_cayley_table.s": "s",
    "groups.is_cyclic.calls": "count",
    "groups.is_cyclic.s": "s",
    "graphs.strong_power_graph.s": "s",
    "graphs.adjacency_matrix.s": "s",
    "graphs.distance_matrix.s": "s",
    "graphs.distance_matrix.raised": "count",
    "graphs.to_dot.s": "s",
    "exactalg.charpoly.calls": "count",
    "exactalg.charpoly.s": "s",
    "exactalg.charpoly.p50_ms": "ms",
    "exactalg.charpoly.share": "fraction",
    "exactalg.closed_forms.s": "s",
    "spectra.symmetric_eigenvalues.calls": "count",
    "spectra.symmetric_eigenvalues.s": "s",
    "spectra.symmetric_eigenvalues.p50_ms": "ms",
    "spectra.symmetric_eigenvalues.share": "fraction",
    "spectra.closed.s": "s",
    "spectra.compare_spectra.s": "s",
    "verify.verify_range.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "fraction",
})


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """Start worker.py in a fresh interpreter.  Returns its set-up time (start to
    `ready`) and, unless setup_only, its result."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    if args.trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS, f"spans-{args.workload}-seed{args.seed}.json")]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **PINNED}
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        first = proc.stdout.readline() if readable else ""
        setup = time.perf_counter() - started
        proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        if first.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}) before producing a result")
        if setup_only:
            return setup, None
        with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
            return setup, json.load(handle)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {TIME_LIMIT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args) -> dict:
    """Run the set-up probes and the workload; return the result document."""
    if not os.path.isfile(os.path.join(ROOT, "src", "spg", "__init__.py")):
        raise BenchError(f"no spg sources at {os.path.join(ROOT, 'src', 'spg')}")
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [run_worker(args, True, deadline)[0] for _ in range(SETUP_RUNS - 1)]
    setup, result = run_worker(args, False, deadline)
    setups.append(setup)
    latencies, norm = result["latencies_ms"], result["norm_latencies_ms"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["walls"]),
        "wall_norm_s": statistics.median(result["norm_walls"]),
        "item_p50_ms": statistics.median(latencies),
        "item_p50_norm_ms": statistics.median(norm),
        "item_p90_ms": percentile(latencies, 0.9),
        "item_p90_norm_ms": percentile(norm, 0.9),
        "peak_rss_mb": result["peak_rss_mb"],
        "probe_ms": result["probe_ms"],
    }
    wanted = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else end_to_end
    env = {
        "commit": git_commit(),
        **result["env"],
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "items_per_pass": result["items_per_pass"],
        "orders": result["sizes"],
        "passes": len(result["walls"]),
        "setup_runs": len(setups),
    }
    return {
        "env": env,
        "end_to_end": end_to_end,
        "samples": len(latencies),
        "failures": result["failures"],
        "summary": {
            "correct": not result["failures"],
            "attempted": result["attempted"],
            "failed": len(result["failures"]),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
        },
    }


def report_lines(doc: dict, trace: int) -> list[str]:
    """The readable lines printed above the JSON result."""
    env, e2e, summary = doc["env"], doc["end_to_end"], doc["summary"]
    n = doc["samples"]
    lines = [f"perfbench {env['workload']} seed={env['seed']} trace={trace} size={env['size']}",
             "env " + json.dumps(env, sort_keys=True)]
    if trace:
        metrics = summary["metrics"]
        lines.append(f"{'layer':<10}{'calls':>10}{'busy s':>10}{'self s':>10}{'share':>8}{'raised':>8}")
        for layer in LAYERS:
            m = {f: metrics[f"{layer}.{f}"]["value"] for f in _LAYER_FIELDS}
            lines.append(f"{layer:<10}{m['calls']:>10.0f}{m['s']:>10.3f}{m['self_s']:>10.3f}"
                         f"{m['share']:>8.3f}{m['raised']:>8.0f}")
        for name, unit in PER_LAYER.items():
            if name.count(".") >= 2 or name.startswith("trace."):
                lines.append(f"  {name:<40} {metrics[name]['value']:.6g} {unit}")
    else:
        beyond = n - math.ceil(0.9 * n)
        passes = f"median of {env['passes']} passes of {env['items_per_pass']} items"
        rows = [
            ("setup_s", "s", f"median of {env['setup_runs']} fresh interpreters"),
            ("wall_s", "s", passes),
            ("wall_norm_s", "s", passes + ", at reference speed"),
            ("item_p50_ms", "ms", f"{n} samples"),
            ("item_p50_norm_ms", "ms", f"{n} samples, at reference speed"),
            ("item_p90_ms", "ms", f"{n} samples, {beyond} beyond p90"),
            ("item_p90_norm_ms", "ms", f"{n} samples, {beyond} beyond p90, at reference speed"),
            ("peak_rss_mb", "MiB", "worker process"),
            ("probe_ms", "ms", "median reference probe; REF_S in worker.py is the reference"),
        ]
        for name, unit, note in rows:
            lines.append(f"  {name:<17} {e2e[name]:>12.4f} {unit:<4} {note}")
    frac = summary["failed"] / summary["attempted"]
    lines.append(f"  {'failed_frac':<17} {frac:>12.4f} {'':<4} "
                 f"{summary['failed']} of {summary['attempted']} items failed a check")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is a smoke-test size, not a measurement")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that run_worker stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        doc = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for reason in doc["failures"][:20]:
        print(f"perfbench: check failed: {reason}", file=sys.stderr)
    print("\n".join(report_lines(doc, args.trace)))
    print(json.dumps(doc["summary"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
