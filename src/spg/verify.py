"""Batch verification of the closed forms over a range of cyclic orders.

For each n the strong power graph of Z_n is built from the definition.  Each
matrix a closed form covers (exactalg.closed_form) gives one Check: its exact
characteristic polynomial, as the integer stage's block factors, against the
closed form's factors on one coprime basis, with no polynomial expanded, and
the closed-form spectrum against the Householder + implicit-QL eigenvalue
oracle.  A record holds the checks and whether the graph is connected where
the paper says; the records land in a machine-readable report.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import Optional

from .exactalg import (
    NoClosedForm,
    adjacency_formula_factors,
    charpoly_factors,
    closed_form,
    same_product,
)
from .graphs import (
    DisconnectedGraph,
    adjacency_matrix,
    distance_matrix,
    is_connected,
    strong_power_graph,
)
from .groups import CyclicGroup
from .jsontext import dumps_indented
from .spectra import (
    ComplexRoots,
    closed_spectrum,
    compare_spectra,
    comparison_holds,
    symmetric_eigenvalues,
)

__all__ = ["Check", "VerificationRecord", "VerificationReport", "check_range", "verify_range"]

log = logging.getLogger("spg.verify")


@dataclass
class Check:
    """One matrix against its closed form: the charpoly's factors compared
    exactly, and the closed-form spectrum against the numeric eigenvalues.
    theta is the angle of the closed form's cubic, None when it has none
    (the prime corollary, K_n)."""

    matrix: str
    source: str
    charpoly_match: bool
    max_abs_deviation: float
    multiplicity_match: bool
    theta: Optional[float]
    theta_in_range: bool

    def failed(self, tol: float) -> bool:
        """True when the charpolys differ or the spectrum comparison fails
        (spectra.comparison_holds)."""
        return not (self.charpoly_match and comparison_holds(self, tol))


@dataclass
class VerificationRecord:
    """Outcome of all checks for one group: one Check per matrix the
    paper's closed forms cover (both at composite n, the adjacency one
    alone at prime n), and connectivity_match, whether the graph is
    connected exactly when the paper gives a distance closed form."""

    n: int
    group: str
    connectivity_match: bool
    checks: list[Check]
    elapsed_ms: int

    def failed(self, tol: float) -> bool:
        """True when connectivity contradicts the paper or any check failed."""
        return not self.connectivity_match or any(c.failed(tol) for c in self.checks)


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
            # every field is a scalar but checks, a list of checks of
            # scalars: what asdict returns, without its deep copy of each
            "records": [
                {**vars(r), "checks": [dict(vars(c)) for c in r.checks]} for r in self.records
            ],
            "summary": {
                "range": [self.n_min, self.n_max],
                "tol": self.tol,
                "failures": list(self.failures),
                "wall_time_ms": self.wall_time_ms,
            },
        }

    def to_json(self) -> str:
        return dumps_indented(self.to_document())


def _verify_single(n: int) -> VerificationRecord:
    """All checks for one order n; pure, suitable for worker processes.

    Each covered matrix's exact factors (charpoly_factors) are computed
    once and compared with same_product against exactalg.closed_form's
    factors; at prime n the adjacency factors are compared with the general
    cubic's list too, of which the prime corollary is a case.  Where no
    distance form applies the graph must be disconnected, and where one
    does the distance matrix must exist.
    """
    started = time.perf_counter()
    group = CyclicGroup(n)
    graph = strong_power_graph(group)
    connectivity_match = True
    checks = []
    for kind, build in (("adjacency", adjacency_matrix), ("distance", distance_matrix)):
        try:
            factors, source = closed_form(group, kind)
            matrix = build(graph)
        except NoClosedForm:
            connectivity_match = not is_connected(graph)
            continue
        except DisconnectedGraph:
            connectivity_match = False
            continue
        computed = charpoly_factors(matrix)
        match = same_product(computed, factors)
        if source == "adjacency-prime":
            match = match and same_product(computed, adjacency_formula_factors(n))
        try:
            closed = closed_spectrum(factors, source)
        except ComplexRoots as exc:  # a cubic without three real roots fails its check
            log.debug("n=%d %s: %s", n, kind, exc)
            checks.append(Check(kind, source, match, math.inf, False, theta=None, theta_in_range=False))
            continue
        comparison = compare_spectra(closed, symmetric_eigenvalues(matrix))
        checks.append(Check(
            matrix=kind, source=source, charpoly_match=match, theta=closed.theta, **vars(comparison)
        ))

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return VerificationRecord(n, f"cyclic:{n}", connectivity_match, checks, elapsed_ms)


def check_range(n_min: int, n_max: int, tol: float, workers: int) -> None:
    """Raise ValueError unless 2 <= n_min <= n_max, workers >= 1 and tol is
    finite and nonnegative: verify_range's arguments, checked before any
    order runs."""
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")


def verify_range(
    n_min: int, n_max: int, tol: float = 1e-8, workers: int = 1
) -> VerificationReport:
    """Run every applicable check for each n in [n_min, n_max] (see
    _verify_single): exact charpolys as factor lists against the closed
    forms' factors, closed-form spectra against the numeric oracle.

    Workers > 1 fans the per-n tasks out to a process pool of at most
    min(workers, cpu count, number of orders) processes; the report content
    is identical either way because tasks are pure and pool.map, like the
    serial loop, returns the records in the order of n.  The arguments are
    checked first (check_range).  A closed form whose degree differs from
    n, or whose cubic has non-real roots, fails its check with deviation
    inf; the latter has no theta and both flags False.
    """
    check_range(n_min, n_max, tol, workers)
    started = time.perf_counter()
    orders = range(n_min, n_max + 1)
    if workers > 1:  # a serial run never asks for the CPU count
        workers = min(workers, os.cpu_count() or 1, len(orders))
    if workers == 1:
        records = [_verify_single(n) for n in orders]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pool run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_verify_single, orders))
    failures = []
    for r in records:
        failed = r.failed(tol)
        log.debug("verified n=%d in %d ms (failed=%s)", r.n, r.elapsed_ms, failed)
        if failed:
            failures.append(r.n)
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
