"""Batch verification of the closed forms over a range of cyclic orders.

For each n the strong power graph of Z_n is built from the definition, the
exact characteristic polynomial of each matrix, as the integer stage's block
factors, is compared against the paper's factored closed form on one coprime
basis, with no polynomial expanded, and the closed-form spectra are compared
against the Householder + implicit-QL eigenvalue oracle.  Results land in a
machine-readable report.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from .exactalg import (
    adjacency_formula_factors,
    charpoly_factors,
    distance_formula_factors,
    prime_adjacency_factors,
    same_product,
)
from .graphs import (
    DisconnectedGraph,
    adjacency_matrix,
    distance_matrix,
    is_connected,
    strong_power_graph,
)
from .groups import CyclicGroup, is_composite, is_prime
from .jsontext import dumps_indented
from .spectra import (
    adjacency_spectrum_closed,
    compare_spectra,
    distance_spectrum_closed,
    symmetric_eigenvalues,
)

__all__ = ["VerificationRecord", "VerificationReport", "verify_range"]

log = logging.getLogger("spg.verify")


@dataclass
class VerificationRecord:
    """Outcome of all applicable checks for a single order n.

    Fields are None where a check does not apply (distance-side checks for
    prime n, thetas outside the cyclic composite case).
    """

    n: int
    composite: bool
    charpoly_distance_match: Optional[bool]
    charpoly_adjacency_match: bool
    spectrum_distance_max_dev: Optional[float]
    spectrum_adjacency_max_dev: float
    spectrum_distance_mult_match: Optional[bool]
    spectrum_adjacency_mult_match: bool
    theta_distance: Optional[float]
    theta_adjacency: Optional[float]
    theta_in_range: bool
    elapsed_ms: int

    def failed(self, tol: float) -> bool:
        """True when any boolean check is False or any deviation exceeds tol."""
        booleans = (
            self.charpoly_distance_match,
            self.charpoly_adjacency_match,
            self.spectrum_distance_mult_match,
            self.spectrum_adjacency_mult_match,
            self.theta_in_range,
        )
        if any(b is False for b in booleans):
            return True
        deviations = (self.spectrum_distance_max_dev, self.spectrum_adjacency_max_dev)
        return any(d is not None and not d <= tol for d in deviations)


@dataclass
class VerificationReport:
    n_min: int
    n_max: int
    tol: float
    records: list[VerificationRecord]
    failures: list[int]
    wall_time_ms: int

    def to_document(self) -> dict:
        return {
            # every field is a scalar, so a shallow copy is what asdict returns
            "records": [dict(vars(r)) for r in self.records],
            "summary": {
                "range": [self.n_min, self.n_max],
                "tol": self.tol,
                "failures": list(self.failures),
                "wall_time_ms": self.wall_time_ms,
            },
        }

    @classmethod
    def from_document(cls, document: dict) -> "VerificationReport":
        summary = document["summary"]
        records = [VerificationRecord(**r) for r in document["records"]]
        return cls(
            n_min=summary["range"][0],
            n_max=summary["range"][1],
            tol=summary["tol"],
            records=records,
            failures=list(summary["failures"]),
            wall_time_ms=summary["wall_time_ms"],
        )

    def to_json(self) -> str:
        return dumps_indented(self.to_document())


def _verify_single(task: tuple[int, float]) -> VerificationRecord:
    """All checks for one order n; pure, suitable for worker processes.

    Each matrix's exact factors (charpoly_factors) are computed once and
    compared with same_product against the closed form's factors, which
    come from n alone; at prime n the adjacency factors are compared with
    the prime corollary's too.
    """
    n, tol = task
    started = time.perf_counter()
    group = CyclicGroup(n)
    graph = strong_power_graph(group)
    composite = is_composite(n)

    adjacency = adjacency_matrix(graph)
    adjacency_factors = charpoly_factors(adjacency)
    adjacency_match = same_product(adjacency_factors, adjacency_formula_factors(n))
    if is_prime(n):
        adjacency_match = adjacency_match and same_product(
            adjacency_factors, prime_adjacency_factors(n)
        )
    closed_adjacency = adjacency_spectrum_closed(group)
    numeric_adjacency = symmetric_eigenvalues(adjacency)
    cmp_adjacency = compare_spectra(closed_adjacency, numeric_adjacency)

    distance_match: Optional[bool] = None
    distance_dev: Optional[float] = None
    distance_mult: Optional[bool] = None
    theta_distance: Optional[float] = None
    theta_in_range = cmp_adjacency.theta_in_range
    if composite:
        try:
            distance = distance_matrix(graph)
        except DisconnectedGraph:
            distance_match = False  # contradicts connectivity for composite n
        else:
            distance_match = same_product(charpoly_factors(distance), distance_formula_factors(n))
            closed_distance = distance_spectrum_closed(group)
            numeric_distance = symmetric_eigenvalues(distance)
            cmp_distance = compare_spectra(closed_distance, numeric_distance)
            distance_dev = cmp_distance.max_abs_deviation
            distance_mult = cmp_distance.multiplicity_match
            theta_distance = closed_distance.theta
            theta_in_range = theta_in_range and cmp_distance.theta_in_range
    elif is_connected(graph):
        distance_match = False  # connected at prime order contradicts theory

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    record = VerificationRecord(
        n=n,
        composite=composite,
        charpoly_distance_match=distance_match,
        charpoly_adjacency_match=adjacency_match,
        spectrum_distance_max_dev=distance_dev,
        spectrum_adjacency_max_dev=cmp_adjacency.max_abs_deviation,
        spectrum_distance_mult_match=distance_mult,
        spectrum_adjacency_mult_match=cmp_adjacency.multiplicity_match,
        theta_distance=theta_distance,
        theta_adjacency=closed_adjacency.theta,
        theta_in_range=theta_in_range,
        elapsed_ms=elapsed_ms,
    )
    if log.isEnabledFor(logging.DEBUG):
        log.debug("verified n=%d in %d ms (failed=%s)", n, elapsed_ms, record.failed(tol))
    return record


def verify_range(
    n_min: int, n_max: int, tol: float = 1e-8, workers: int = 1
) -> VerificationReport:
    """Run every applicable check for each n in [n_min, n_max] (see
    _verify_single): exact charpolys as factor lists against the closed
    forms' factors, closed-form spectra against the numeric oracle.

    Workers > 1 fans the per-n tasks out to a process pool of at most
    min(workers, cpu count, number of orders) processes; the report content
    is identical either way because tasks are pure and the merge is ordered
    by n.  tol must be finite and nonnegative.
    """
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    started = time.perf_counter()
    tasks = [(n, tol) for n in range(n_min, n_max + 1)]
    workers = min(workers, os.cpu_count() or 1, len(tasks))
    if workers == 1:
        records = [_verify_single(task) for task in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_verify_single, tasks))
    records.sort(key=lambda r: r.n)
    failures = [r.n for r in records if r.failed(tol)]
    wall_time_ms = int((time.perf_counter() - started) * 1000)
    log.info(
        "verified range [%d, %d]: %d orders, %d failures, %d ms",
        n_min, n_max, len(records), len(failures), wall_time_ms,
    )
    return VerificationReport(
        n_min=n_min,
        n_max=n_max,
        tol=tol,
        records=records,
        failures=failures,
        wall_time_ms=wall_time_ms,
    )
