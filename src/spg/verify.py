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
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .exactalg import (
    IntegerGrowth,
    IntPolynomial,
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
    SpectrumComparison,
    closed_spectrum,
    compare_spectra,
    comparison_holds,
    symmetric_eigenvalues,
)

__all__ = ["DEFAULT_TOL", "Check", "VerificationRecord", "VerificationReport", "charpoly_match",
           "check_range", "verify_range"]

log = logging.getLogger("spg.verify")

DEFAULT_TOL = 1e-8  # the spectrum tolerance of verify_range and of the CLI's --tol


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


def charpoly_match(computed: Sequence[tuple[IntPolynomial, int]],
                   closed: Sequence[tuple[IntPolynomial, int]], source: str, n: int) -> bool:
    """The charpoly verdict of verify and spg charpoly: whether the exact
    factors of an order-n matrix have the closed form's product
    (same_product).  At a prime order ("adjacency-prime") they must also
    have the general cubic's, adjacency_formula_factors(n), of which the
    prime corollary is a case."""
    match = same_product(computed, closed)
    if source == "adjacency-prime":
        match = match and same_product(computed, adjacency_formula_factors(n))
    return match


def _verify_single(n: int) -> VerificationRecord:
    """All checks for one order n.

    Each covered matrix's exact factors (charpoly_factors) are computed
    once and judged against exactalg.closed_form's factors by
    charpoly_match.  Where no distance form applies the graph must be
    disconnected, and where one does the distance matrix must exist.
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
        try:
            computed = charpoly_factors(matrix)
        except IntegerGrowth as exc:  # a charpoly the integer stage refuses fails its check
            log.debug("n=%d %s: %s", n, kind, exc)
            match = False
        else:
            match = charpoly_match(computed, factors, source, n)
        try:
            closed = closed_spectrum(factors, source)
        except ComplexRoots as exc:  # a closed form with no real spectrum fails its check
            log.debug("n=%d %s: %s", n, kind, exc)
            comparison, theta = SpectrumComparison(math.inf, False, False), None
        else:
            comparison, theta = compare_spectra(closed, symmetric_eigenvalues(matrix)), closed.theta
        checks.append(Check(
            matrix=kind, source=source, charpoly_match=match, theta=theta, **vars(comparison)
        ))

    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return VerificationRecord(n, f"cyclic:{n}", connectivity_match, checks, elapsed_ms)


def check_range(n_min: int, n_max: int, tol: float) -> None:
    """Raise ValueError unless n_min and n_max are ints with
    2 <= n_min <= n_max, and tol is a finite nonnegative int or float,
    none of them a bool: verify_range's arguments, checked before any order
    runs, and written into the report as they are."""
    for name, value in (("n_min", n_min), ("n_max", n_max)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if not isinstance(tol, (int, float)) or isinstance(tol, bool):
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")
    if not (2 <= n_min <= n_max):
        raise ValueError(f"need 2 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite nonnegative number, got {tol!r}")


def verify_range(n_min: int, n_max: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Run every applicable check for each n in [n_min, n_max], one order
    after another in this process (see _verify_single): exact charpolys as
    factor lists against the closed forms' factors, closed-form spectra
    against the numeric oracle.

    The arguments are checked first (check_range).  A closed form whose
    degree differs from n, or with no real spectrum
    (spectra.ComplexRoots), fails its check with deviation inf; the latter
    has no theta and both flags False.  A charpoly the integer stage
    refuses (exactalg.IntegerGrowth) fails its charpoly match, and the
    spectra are still compared.
    """
    check_range(n_min, n_max, tol)
    started = time.perf_counter()
    records = [_verify_single(n) for n in range(n_min, n_max + 1)]
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
