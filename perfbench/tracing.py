"""Spans around spg's layer boundaries, recorded from outside the program.

The tracer replaces each traced function at every name it is looked up by
(`spg.cli.charpoly`, `spg.verify.charpoly` and `spg.exactalg.charpoly` are one
function bound three times), records a span per call in memory, and restores
the originals on exit.  Nothing under `src/` changes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

LAYERS = ("groups", "graphs", "exactalg", "spectra", "verify", "cli")

# span key -> (module, function names).  The key's first part is the layer.
# Cheap number-theory helpers (is_prime, totient) are left out: the charpoly
# prime search calls them in a loop and a span per call would swamp it.
TRACED_FUNCTIONS = {
    "groups.load_cayley_table": ("spg.groups", ("load_cayley_table",)),
    "groups.validate_cayley_table": ("spg.groups", ("validate_cayley_table",)),
    "graphs.strong_power_graph": ("spg.graphs", ("strong_power_graph",)),
    "graphs.adjacency_matrix": ("spg.graphs", ("adjacency_matrix",)),
    "graphs.distance_matrix": ("spg.graphs", ("distance_matrix",)),
    "graphs.to_dot": ("spg.graphs", ("to_dot",)),
    "exactalg.charpoly": ("spg.exactalg", ("charpoly",)),
    "exactalg.closed_forms": (
        "spg.exactalg",
        ("distance_charpoly_formula", "adjacency_charpoly_formula", "prime_adjacency_charpoly"),
    ),
    "spectra.symmetric_eigenvalues": ("spg.spectra", ("symmetric_eigenvalues",)),
    "spectra.closed": ("spg.spectra", ("distance_spectrum_closed", "adjacency_spectrum_closed")),
    "spectra.compare_spectra": ("spg.spectra", ("compare_spectra",)),
    "verify.verify_range": ("spg.verify", ("verify_range",)),
    "cli.main": ("spg.cli", ("main",)),
}
# span key -> (module, class, method); subclasses that override it are not traced
TRACED_METHODS = {
    "groups.is_cyclic": ("spg.groups", "GroupSpec", "is_cyclic"),
}

START, END, PARENT, ITEM, RAISED = 1, 2, 3, 4, 5


class Tracer:
    """Records spans [key, start, end, parent index, item, raised] while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([key, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.item, False])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[index][RAISED] = True
                raise
            finally:
                spans[index][END] = time.perf_counter()
                stack.pop()

        return traced

    def _replace(self, owner: object, name: str, new: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def __enter__(self) -> "Tracer":
        spg_modules = [m for name, m in sys.modules.items() if name == "spg" or name.startswith("spg.")]
        for key, (module_name, names) in TRACED_FUNCTIONS.items():
            home = importlib.import_module(module_name)
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(key, original)
                for module in spg_modules:
                    if getattr(module, name, None) is original:
                        self._replace(module, name, wrapper)
        for key, (module_name, class_name, method) in TRACED_METHODS.items():
            cls = getattr(importlib.import_module(module_name), class_name)
            self._replace(cls, method, self._wrap(key, getattr(cls, method)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# --- span arithmetic -------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered = [(max(s, span[START]), min(e, span[END])) for s, e in children.get(index, ())]
        out.append(span[END] - span[START] - union_length([c for c in covered if c[0] < c[1]]))
    return out


def layer_metrics(spans: list[list], traced_wall: float, passes: int) -> dict[str, float]:
    """Per-layer and per-function figures, per traced pass.

    For a layer: `calls` spans, busy `s` (time with one of its spans open),
    `self_s` (time in its own code, child spans excluded), `share` (self_s
    over traced wall) and `raised` (spans that ended in an exception).  For a
    traced function: the same, plus `p50_ms` of its calls; its `share` is
    busy `s` over traced wall.
    """
    own = self_times(spans)
    keys = list(TRACED_FUNCTIONS) + list(TRACED_METHODS)
    groups = {name: [] for name in LAYERS + tuple(keys)}
    for index, span in enumerate(spans):
        groups[span[0].split(".")[0]].append(index)
        groups[span[0]].append(index)
    metrics: dict[str, float] = {}
    for name, indices in groups.items():
        busy = union_length([(spans[i][START], spans[i][END]) for i in indices])
        self_s = sum(own[i] for i in indices)
        prefix = name + "."
        metrics[prefix + "calls"] = len(indices) / passes
        metrics[prefix + "s"] = busy / passes
        metrics[prefix + "self_s"] = self_s / passes
        metrics[prefix + "raised"] = sum(1 for i in indices if spans[i][RAISED]) / passes
        if name in LAYERS:
            metrics[prefix + "share"] = self_s / traced_wall
        else:
            metrics[prefix + "share"] = busy / traced_wall
            durations = [(spans[i][END] - spans[i][START]) * 1000.0 for i in indices]
            metrics[prefix + "p50_ms"] = statistics.median(durations) if durations else 0.0
    return metrics
