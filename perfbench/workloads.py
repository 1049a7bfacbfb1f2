"""Seeded workload generators and independent output checks.

A workload is a list of items; each item is one `spg` CLI call.  The
generators take the seed and a size, never anything from spg, so the same
seed always yields the same calls and the same input files.  The checks
compare each output against facts computed here (orders, edge counts from a
gcd totient, the zero trace of the matrices), not against spg's closed forms.

The groups sit on a fixed grid of orders, their kinds taking turns along it;
the seed picks the matrices, the relabelling, the labels and the item order.
The work per pass is therefore nearly independent of the seed: with the
groups drawn by the seed too, the item-latency median of `spectrum` moved by
a fifth between seeds, because it falls in a gap between cheap and costly
queries.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sweep", "spectrum", "cayley")

# "full" is what the benchmark measures; "tiny" is for the self-tests.
SIZES = {
    "full": {
        # verify --range n..n for n in 2..n_max: 109 items, one pass of about
        # 25 s on a 2-CPU Xeon at 2.0 GHz.  The charpoly's share of the work
        # grows with n (53 % up to 80, 74 % up to 110, 87 % up to 150); 110
        # is the largest order that keeps a run near 30 s.
        "sweep": {"n_max": 110},
        # The other two take about 7 s a pass, so a 30 s run holds several.
        # At each grid order one cyclic and one noncyclic query: 60 items
        "spectrum": {"slots": 30, "lo": 100, "hi": 250},
        # 25 tables on a grid over lo..hi plus one of order `big`, each
        # built as DOT and as JSON: 52 items
        "cayley": {"tables": 25, "lo": 64, "hi": 192, "big": 256},
    },
    "tiny": {
        "sweep": {"n_max": 12},
        "spectrum": {"slots": 3, "lo": 12, "hi": 30},
        "cayley": {"tables": 3, "lo": 8, "hi": 20, "big": 24},
    },
}


@dataclass
class Item:
    """One CLI call: its arguments (without --out) and what its output must show."""

    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    items: list[Item]
    info: dict


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` evenly spaced orders from lo to hi inclusive."""
    return [lo + (hi - lo) * i // (count - 1) for i in range(count)]


def _nearest(target: int, wanted) -> int:
    """The order closest to target (the smaller on a tie) for which wanted holds."""
    for step in range(target):
        for m in (target - step, target + step):
            if m >= 2 and wanted(m):
                return m
    raise ValueError(f"no order near {target} qualifies")


def is_composite(n: int) -> bool:
    return n >= 4 and any(n % d == 0 for d in range(2, math.isqrt(n) + 1))


def totient_by_gcd(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def expected_edges(order: int, cyclic: bool) -> int:
    """Edge count of the strong power graph: complete for noncyclic groups; for
    Z_n the non-identity elements form a clique and the identity is joined to
    the n - 1 - phi(n) non-generators."""
    if not cyclic:
        return order * (order - 1) // 2
    return (order - 1) * (order - 2) // 2 + (order - 1 - totient_by_gcd(order))


def _factor_pairs(n: int) -> list[tuple[int, int]]:
    return [(a, n // a) for a in range(2, math.isqrt(n) + 1) if n % a == 0]


def _noncyclic_specs(order: int) -> list[str]:
    """Group specs of the given order that spg accepts and that are noncyclic."""
    specs = [f"product:{a},{b}" for a, b in _factor_pairs(order) if math.gcd(a, b) > 1]
    if order % 2 == 0 and order >= 4:
        specs.append(f"dihedral:{order // 2}")
    return specs


def _sweep(rng: random.Random, p: dict) -> tuple[list[Item], dict]:
    orders = list(range(2, p["n_max"] + 1))
    rng.shuffle(orders)
    items = [Item(["verify", "--range", f"{n}..{n}"], {"n": n}) for n in orders]
    return items, {"orders": [2, p["n_max"]]}


def _spectrum(rng: random.Random, p: dict) -> tuple[list[Item], dict]:
    items = []
    for slot, target in enumerate(_grid(p["lo"], p["hi"], p["slots"])):
        n = _nearest(target, is_composite)
        order = _nearest(target, lambda m: bool(_noncyclic_specs(m)))
        specs = _noncyclic_specs(order)
        other = specs[slot % len(specs)]
        first, second = rng.sample(["adjacency", "distance"], 2)
        items.append(Item(["spectrum", "--group", f"cyclic:{n}", "--matrix", first], {"n": n}))
        items.append(Item(["spectrum", "--group", other, "--matrix", second], {"n": order}))
    rng.shuffle(items)
    return items, {"orders": [p["lo"], p["hi"]], "slots": p["slots"]}


def group_table(spec: str) -> np.ndarray:
    """Multiplication table of `cyclic:N`, `product:A,B` or `dihedral:M`, built
    here from the group law and indexed with the identity at 0."""
    kind, _, arg = spec.partition(":")
    if kind == "cyclic":
        i = np.arange(int(arg))
        return (i[:, None] + i[None, :]) % int(arg)
    if kind == "product":
        a, b = (int(x) for x in arg.split(","))
        i = np.arange(a * b)
        x, y = i // b, i % b
        return ((x[:, None] + x[None, :]) % a) * b + (y[:, None] + y[None, :]) % b
    # dihedral: 0..m-1 are rotations r^i, m..2m-1 reflections s r^i, with
    # r^i r^j = r^(i+j), r^i s r^j = s r^(j-i), s r^i r^j = s r^(i+j), s r^i s r^j = r^(j-i)
    m = int(arg)
    i = np.arange(2 * m)
    r, f = i % m, i >= m
    ra, rb, fa, fb = r[:, None], r[None, :], f[:, None], f[None, :]
    return np.where(fb, rb - ra, ra + rb) % m + m * (fa != fb)


def _cayley_group(order: int, turn: int) -> tuple[str, bool]:
    """The turn-th group spec of the given order, cycling through the kinds
    that exist at that order, and whether it is cyclic."""
    kinds = ["cyclic"]
    if _factor_pairs(order):
        kinds.append("product")
    if order % 2 == 0 and order >= 4:
        kinds.append("dihedral")
    kind = kinds[turn % len(kinds)]
    if kind == "cyclic":
        return f"cyclic:{order}", True
    if kind == "dihedral":
        return f"dihedral:{order // 2}", False
    pairs = _factor_pairs(order)
    a, b = pairs[turn % len(pairs)]
    return f"product:{a},{b}", math.gcd(a, b) == 1


def _cayley(rng: random.Random, p: dict) -> tuple[list[Item], dict]:
    orders = _grid(p["lo"], p["hi"], p["tables"]) + [p["big"]]
    items, tables = [], []
    for index, order in enumerate(orders):
        spec, cyclic = _cayley_group(order, index)
        perm = list(range(order))
        rng.shuffle(perm)
        tables.append({"file": f"t{index:03d}.json", "spec": spec, "perm": perm,
                       "labels": rng.random() < 0.5})
        expect = {"n": order, "edges": expected_edges(order, cyclic), "file": tables[-1]["file"]}
        for fmt in ("dot", "json"):
            items.append(Item(["build", "--group", f"cayley:{{dir}}/{tables[-1]['file']}",
                               "--format", fmt], dict(expect)))
    rng.shuffle(items)
    return items, {"orders": [p["lo"], p["hi"], p["big"]], "tables": tables}


def make_workload(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's items and set-up description, a pure function of its arguments."""
    generators = {"sweep": _sweep, "spectrum": _spectrum, "cayley": _cayley}
    rng = random.Random(f"{name}:{seed}")
    items, info = generators[name](rng, SIZES[size][name])
    return Workload(items, info)


def write_tables(workload: Workload, directory: str) -> None:
    """Write the cayley workload's relabelled tables as JSON input files and
    point the items at them.  Element k of the group becomes label perm[k], so
    the identity usually lands away from index 0."""
    for table in workload.info.get("tables", ()):
        perm = np.array(table["perm"])
        base = group_table(table["spec"])
        relabelled = np.empty_like(base)
        relabelled[np.ix_(perm, perm)] = perm[base]
        document = {"order": len(perm), "table": relabelled.tolist()}
        if table["labels"]:
            document["labels"] = [f"x{k}" for k in range(len(perm))]
        with open(os.path.join(directory, table["file"]), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(document))
    for item in workload.items:
        item.argv = [arg.replace("{dir}", directory) for arg in item.argv]


# --- output checks --------------------------------------------------------------
# Each returns None when the output is right, else a one-line reason.


def check_sweep(item: Item, text: str) -> str | None:
    report = json.loads(text)
    n = item.expect["n"]
    records = report["records"]
    if report["summary"]["failures"]:
        return f"n={n}: report lists failures {report['summary']['failures']}"
    if [r["n"] for r in records] != [n]:
        return f"n={n}: expected one record for n, got {[r['n'] for r in records]}"
    return None


def check_spectrum(item: Item, text: str) -> str | None:
    doc = json.loads(text)
    n = item.expect["n"]
    comparison = doc["comparison"]
    numeric = doc["numeric_eigenvalues"]
    if doc["n"] != n or len(numeric) != n:
        return f"{item.argv}: expected {n} vertices and eigenvalues"
    if not (comparison["within_tol"] and comparison["multiplicity_match"]):
        return f"{item.argv}: comparison failed {comparison}"
    # both matrices have a zero diagonal, so the eigenvalues sum to zero
    if abs(math.fsum(numeric)) > 1e-6 * n * n:
        return f"{item.argv}: eigenvalues sum to {math.fsum(numeric)}, not 0"
    return None


def check_cayley(item: Item, text: str) -> str | None:
    n, edges = item.expect["n"], item.expect["edges"]
    if item.argv[-1] == "dot":
        lines = text.splitlines()
        got_vertices = sum(1 for line in lines if "[label=" in line)
        got_edges = sum(1 for line in lines if " -- " in line)
    else:
        doc = json.loads(text)
        got_vertices = doc["n"]
        pairs = {(u, v) for u, v in doc["edges"] if 0 <= u < v < n}
        got_edges = len(pairs) if len(pairs) == len(doc["edges"]) else -1
    if (got_vertices, got_edges) != (n, edges):
        return (f"{item.expect['file']} as {item.argv[-1]}: expected {n} vertices and "
                f"{edges} edges, got {got_vertices} and {got_edges}")
    return None


CHECKS = {"sweep": check_sweep, "spectrum": check_spectrum, "cayley": check_cayley}
