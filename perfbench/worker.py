"""One workload in a fresh interpreter: set-up, then a closed loop of spg CLI calls.

Started by run.py, never by hand.  Prints `ready` once spg is imported and the
inputs exist, then, unless --setup-only, runs passes over the workload's items
and writes the raw figures to result.json in its work directory.  One caller,
one item at a time: the next CLI call starts only after the previous one
returned.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

from tracing import Tracer, layer_metrics
from workloads import CHECKS, make_workload, write_tables

MIN_SAMPLES = 100  # item latencies per run, so that p90 has ten samples beyond it
# probe seconds at the reference speed, near the probes' median on a 2.0 GHz Xeon
REF_S = {"sweep": 0.004, "spectrum": 0.004, "cayley": 0.005}
SMOOTH = 3         # items on each side whose probes set an item's speed factor
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_spg_cli():
    """spg.cli from this checkout's src/, refusing any other installed copy."""
    sys.path.insert(0, SRC)
    import spg.cli

    if not os.path.abspath(spg.cli.__file__).startswith(os.path.join(SRC, "spg") + os.sep):
        raise SystemExit(f"perfbench: imported spg from {spg.cli.__file__}, not from {SRC}")
    return spg.cli


def make_probe(workload: str):
    """A function timing a fixed slice of work like the workload's own.

    The machine's speed drifts by a quarter and more over seconds to minutes
    as other tenants load the shared cores.  The probe runs before every item,
    so each latency can be scaled to the speed at which the probe takes
    REF_S[workload] seconds.  Its work mirrors the workload's: an interpreter
    loop, plus short numpy row updates (as in Jacobi, graph build and the
    charpoly's Python side) or, for cayley, random gathers from a table larger
    than the caches (as in table validation).  Chosen by trying the
    candidates: these two kept the passes of one run closest together.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    if workload == "cayley":
        table = np.arange(1 << 21, dtype=np.int64)
        picks = rng.integers(0, 1 << 21, 1 << 17)

        def numpy_part():
            table[picks].sum()
    else:
        rows = rng.random((160, 160))

        def numpy_part():
            a = rows.copy()
            for k in range(100):
                row = a[k, :].copy()
                a[k, :] = 0.6 * row - 0.8 * a[k + 1, :]
                a[k + 1, :] = 0.8 * row + 0.6 * a[k + 1, :]

    def probe() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(30000):
            total += i * i % 7
        numpy_part()
        return time.perf_counter() - start

    return probe


def normalised(latencies: list[float], probes: list[float], ref: float) -> list[float]:
    """Each latency scaled by ref over the median probe of the items around it."""
    out = []
    for index, latency in enumerate(latencies):
        local = statistics.median(probes[max(0, index - SMOOTH): index + SMOOTH + 1])
        out.append(latency * ref / local)
    return out


def run_pass(cli, workload, out_path, check, probe, tracer=None, first_item=0):
    """Every item once.  Returns (wall s without the probes and checks, latencies s,
    probe times s, failure reasons)."""
    latencies, probes, failures = [], [], []
    overhead = 0.0
    started = time.perf_counter()
    for index, item in enumerate(workload.items):
        if tracer is not None:
            tracer.item = first_item + index
        probes.append(probe())
        overhead += probes[-1]
        begin = time.perf_counter()
        try:
            code = cli.main([*item.argv, "--out", out_path])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an item that crashes counts as failed; the loop goes on
            code = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        latencies.append(end - begin)
        if code != 0:
            reason = f"{item.argv}: exit {code}"
        else:
            try:
                with open(out_path, encoding="utf-8") as handle:
                    reason = check(item, handle.read())
                os.remove(out_path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                reason = f"{item.argv}: unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(reason)
        overhead += time.perf_counter() - end
    return time.perf_counter() - started - overhead, latencies, probes, failures


def environment(cli) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "spg": os.path.relpath(os.path.dirname(cli.__file__), ROOT),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_spg_cli()
    workload = make_workload(args.workload, args.seed, args.size)
    write_tables(workload, args.workdir)
    out_path = os.path.join(args.workdir, "out")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    check = CHECKS[args.workload]
    probe, ref = make_probe(args.workload), REF_S[args.workload]
    walls, norm_walls, traced_norm_walls, traced_walls = [], [], [], []
    latencies, norm_latencies, probes, failures = [], [], [], []
    attempted = 0
    tracer = Tracer() if args.trace else None
    budget_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall, lat, probed, failed = run_pass(cli, workload, out_path, check, probe)
        walls.append(wall)
        norm = normalised(lat, probed, ref)
        norm_walls.append(sum(norm))
        latencies += lat
        norm_latencies += norm
        probes += probed
        failures += failed
        attempted += len(lat)
        if tracer is not None:
            # traced pass right after an untraced one over the same items
            with tracer:
                wall, lat, probed, failed = run_pass(
                    cli, workload, out_path, check, probe, tracer, first_item=attempted
                )
            traced_walls.append(wall)
            traced_norm_walls.append(sum(normalised(lat, probed, ref)))
            failures += failed
            attempted += len(lat)
        took = time.perf_counter() - round_start
        if len(latencies) >= MIN_SAMPLES and time.perf_counter() - budget_start + took > args.seconds:
            break

    result = {
        "walls": walls,
        "norm_walls": norm_walls,
        "latencies_ms": [x * 1000.0 for x in latencies],
        "norm_latencies_ms": [x * 1000.0 for x in norm_latencies],
        "probe_ms": statistics.median(probes) * 1000.0,
        "attempted": attempted,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(cli),
        "items_per_pass": len(workload.items),
        "sizes": workload.info.get("orders"),
    }
    if tracer is not None:
        passes = len(traced_walls)
        layers = layer_metrics(tracer.spans, sum(traced_walls), passes)
        layers["trace.overhead_frac"] = (
            statistics.median(traced_norm_walls) / statistics.median(norm_walls) - 1.0
        )
        result["traced_walls"] = traced_walls
        result["layers"] = layers
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as handle:
                json.dump({"fields": ["key", "start", "end", "parent", "item", "raised"],
                           "spans": tracer.spans}, handle)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
