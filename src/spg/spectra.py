"""Closed-form eigenvalue spectra of strong power graphs, a trigonometric
cubic solver, and an independent Jacobi eigenvalue oracle to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .exactalg import IntMatrix, IntPolynomial, UnsupportedN, adjacency_cubic, distance_cubic
from .groups import GroupSpec, is_composite, is_prime

__all__ = [
    "ClosedFormSpectrum",
    "SpectrumComparison",
    "ComplexRoots",
    "PrimeOrder",
    "NonSymmetric",
    "NoConvergence",
    "CountMismatch",
    "solve_cubic_trig",
    "distance_spectrum_closed",
    "adjacency_spectrum_closed",
    "symmetric_eigenvalues",
    "compare_spectra",
    "spectrum_document",
]

MatrixLike = Union[IntMatrix, np.ndarray, Sequence[Sequence[float]]]

# Newton steps per cubic root; a simple root stops moving after a few
_NEWTON_STEPS = 64


class ComplexRoots(ArithmeticError):
    """The cubic does not have three real roots."""


class PrimeOrder(ValueError):
    """The distance spectrum closed form needs a connected graph, so a
    noncyclic group or a cyclic group of composite order."""


class NonSymmetric(ValueError):
    """The Jacobi oracle only accepts exactly symmetric input."""


class NoConvergence(RuntimeError):
    """Jacobi sweeps exhausted before the off-diagonal mass fell below tolerance."""


class CountMismatch(ValueError):
    """Closed-form and numeric spectra hold different numbers of eigenvalues."""


@dataclass(frozen=True)
class ClosedFormSpectrum:
    """Eigenvalues with multiplicities, sorted descending by value.

    theta is the angle of the trigonometric solution of the cyclic composite
    cubic (see solve_cubic_trig) and is None for the complete-graph and prime
    cases.
    """

    entries: tuple[tuple[float, int], ...]
    theta: Optional[float]
    source: str

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        assert all(a > b for a, b in zip(values, values[1:])), (
            f"spectrum values must be strictly descending, got {values}"
        )
        assert all(m >= 1 for _, m in self.entries), "multiplicities must be positive"

    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def values(self) -> list[float]:
        """All eigenvalues expanded by multiplicity, descending."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out

    def max_value(self) -> float:
        return self.entries[0][0]


@dataclass(frozen=True)
class SpectrumComparison:
    max_abs_deviation: float
    multiplicity_match: bool
    theta_in_range: bool


def solve_cubic_trig(a2: int, a1: int, a0: int) -> tuple[tuple[float, float, float], float]:
    """The three real roots of the integer cubic x^3 + a2 x^2 + a1 x + a0,
    descending, and the angle theta of their trigonometric form.

    With the exact integers delta = a2^2 - 3 a1 and
    N = -2 a2^3 + 9 a2 a1 - 27 a0, the roots are
    (-a2 + 2 cos((theta + 2k pi) / 3) sqrt(delta)) / 3 for k in {0, 1, -1},
    where theta = arccos(N / (2 delta^(3/2))).  The cubic has three real
    roots exactly when 4 delta^3 - N^2 (27 times its discriminant) is
    nonnegative; this is decided in integers, and ComplexRoots is raised
    otherwise.  theta is computed as atan2(sqrt(4 delta^3 - N^2), N), which
    stays accurate where the arccos of a float near 1 does not (Kahan, *To
    Solve a Real Cubic Equation*, 1986).  Each root then takes Newton steps,
    with f / f' evaluated exactly in Fraction, until it stops moving.
    Cubics with 4 delta^3 beyond the float range raise OverflowError.
    """
    delta = a2 * a2 - 3 * a1
    numerator = -2 * a2**3 + 9 * a2 * a1 - 27 * a0
    disc = 4 * delta**3 - numerator**2
    if disc < 0:
        raise ComplexRoots(f"cubic ({a2}, {a1}, {a0}) has fewer than three real roots")
    theta = math.atan2(math.sqrt(disc), numerator)
    scale = 2.0 * math.sqrt(delta)
    roots = []
    for k in (0, 1, -1):
        r = (scale * math.cos((theta + 2.0 * math.pi * k) / 3.0) - a2) / 3.0
        for _ in range(_NEWTON_STEPS):
            x = Fraction(r)
            slope = (3 * x + 2 * a2) * x + a1
            if slope == 0:
                break
            moved = float(x - (((x + a2) * x + a1) * x + a0) / slope)
            if moved == r:
                break
            r = moved
        roots.append(r)
    roots.sort(reverse=True)
    return (roots[0], roots[1], roots[2]), theta


def _merge_entries(pairs: Sequence[tuple[float, int]]) -> tuple[tuple[float, int], ...]:
    merged: dict[float, int] = {}
    for value, mult in pairs:
        if mult > 0:
            merged[value] = merged.get(value, 0) + mult
    return tuple(sorted(merged.items(), key=lambda item: -item[0]))


def _complete_graph_entries(n: int) -> tuple[tuple[float, int], ...]:
    return ((float(n - 1), 1), (-1.0, n - 1))


def _cubic_spectrum(n: int, cubic: IntPolynomial, source: str) -> ClosedFormSpectrum:
    """-1 with multiplicity n-3 plus the three simple roots of the cubic."""
    a0, a1, a2, _ = cubic.coeffs
    roots, theta = solve_cubic_trig(a2, a1, a0)
    entries = _merge_entries([(r, 1) for r in roots] + [(-1.0, n - 3)])
    return ClosedFormSpectrum(entries, theta, source)


def distance_spectrum_closed(g: GroupSpec) -> ClosedFormSpectrum:
    """Closed-form distance spectrum of the strong power graph of g.

    Noncyclic groups give {n-1 once, -1 with multiplicity n-1}.  A cyclic
    group of composite order n gives -1 with multiplicity n-3 plus the three
    simple roots of exactalg.distance_cubic(n).  Prime (and order < 4) cyclic
    groups are rejected: their strong power graphs are disconnected or too
    small.
    """
    n = g.order
    if not g.is_cyclic():
        return ClosedFormSpectrum(_complete_graph_entries(n), None, "distance-complete")
    if not is_composite(n):
        raise PrimeOrder(
            f"distance spectrum needs composite cyclic order, got {n}"
        )
    return _cubic_spectrum(n, distance_cubic(n), "distance-cyclic-composite")


def adjacency_spectrum_closed(g: GroupSpec) -> ClosedFormSpectrum:
    """Closed-form adjacency spectrum of the strong power graph of g.

    Noncyclic groups give {n-1 once, -1 with multiplicity n-1}; cyclic prime
    order p gives {p-2 once, 0 once, -1 with multiplicity p-2}, which at
    p = 2 collapses to {0 twice}; cyclic composite order n gives -1 with
    multiplicity n-3 plus the three simple roots of
    exactalg.adjacency_cubic(n).
    """
    n = g.order
    if not g.is_cyclic():
        return ClosedFormSpectrum(_complete_graph_entries(n), None, "adjacency-complete")
    if n == 1:
        raise UnsupportedN("the adjacency closed form does not cover order 1")
    if is_prime(n):
        entries = _merge_entries([(float(n - 2), 1), (0.0, 1), (-1.0, n - 2)])
        return ClosedFormSpectrum(entries, None, "adjacency-prime")
    return _cubic_spectrum(n, adjacency_cubic(n), "adjacency-cyclic-composite")


def _as_array(matrix: MatrixLike) -> np.ndarray:
    if isinstance(matrix, IntMatrix):
        return np.array(matrix.rows, dtype=np.float64)
    arr = np.array(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NonSymmetric(f"expected a square matrix, got shape {arr.shape}")
    return arr


def symmetric_eigenvalues(
    matrix: MatrixLike, tol: float = 1e-12, max_sweeps: int = 50
) -> list[float]:
    """All eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    sorted descending.

    Input must be exactly symmetric (these matrices come from integers).
    Sweeps run until the off-diagonal Frobenius mass drops below
    tol * max(1, ||A||_F); the scaling keeps the stopping rule meaningful
    across matrix magnitudes, since absolute 1e-12 sits below float noise
    for the larger inputs.  Raises NoConvergence after max_sweeps sweeps.
    """
    a = _as_array(matrix)
    if not np.array_equal(a, a.T):
        raise NonSymmetric("matrix is not exactly symmetric")
    n = a.shape[0]
    if n == 1:
        return [float(a[0, 0])]
    scale = max(1.0, float(np.linalg.norm(a)))
    threshold = tol * scale
    skip = threshold / (10.0 * n)
    for _ in range(max_sweeps):
        if math.sqrt(2.0) * np.linalg.norm(np.triu(a, 1)) < threshold:
            return sorted((float(v) for v in a.diagonal()), reverse=True)
        for k in range(n - 1):
            for l in range(k + 1, n):
                akl = a[k, l]
                if abs(akl) <= skip:
                    continue
                tau = (a[l, l] - a[k, k]) / (2.0 * akl)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                row_k, row_l = a[k, :].copy(), a[l, :].copy()
                a[k, :] = c * row_k - s * row_l
                a[l, :] = s * row_k + c * row_l
                col_k, col_l = a[:, k].copy(), a[:, l].copy()
                a[:, k] = c * col_k - s * col_l
                a[:, l] = s * col_k + c * col_l
                a[k, l] = 0.0
                a[l, k] = 0.0
    if math.sqrt(2.0) * np.linalg.norm(np.triu(a, 1)) < threshold:
        return sorted((float(v) for v in a.diagonal()), reverse=True)
    raise NoConvergence(f"off-diagonal mass still above tolerance after {max_sweeps} sweeps")


def _cluster_sizes(values: Sequence[float], rel_tol: float) -> list[int]:
    if not values:
        return []
    sizes = [1]
    for previous, value in zip(values, values[1:]):
        if abs(previous - value) <= rel_tol * max(1.0, abs(previous)):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def compare_spectra(
    closed: ClosedFormSpectrum, numeric: Sequence[float], cluster_tol: float = 1e-6
) -> SpectrumComparison:
    """Compare a closed-form spectrum against numeric eigenvalues.

    Both sides are paired greedily in descending order for the deviation;
    multiplicities match when clustering the numeric values at relative
    tolerance cluster_tol reproduces the closed-form multiplicities.  The
    theta flag checks 0 < theta < pi/2 and is True when theta is absent.
    """
    expanded = closed.values()
    if len(expanded) != len(numeric):
        raise CountMismatch(
            f"closed form has {len(expanded)} eigenvalues, numeric side has {len(numeric)}"
        )
    numeric_sorted = sorted((float(v) for v in numeric), reverse=True)
    deviation = max(
        (abs(c - v) for c, v in zip(expanded, numeric_sorted)), default=0.0
    )
    mult_match = _cluster_sizes(numeric_sorted, cluster_tol) == [m for _, m in closed.entries]
    theta_ok = closed.theta is None or 0.0 < closed.theta < math.pi / 2.0
    return SpectrumComparison(deviation, mult_match, theta_ok)


def spectrum_document(spectrum: ClosedFormSpectrum, n: int, matrix_kind: str) -> dict:
    """JSON-ready document for a closed-form spectrum."""
    return {
        "n": n,
        "matrix": matrix_kind,
        "theta_radians": spectrum.theta,
        "eigenvalues": [
            {"value": value, "multiplicity": mult} for value, mult in spectrum.entries
        ],
        "source": spectrum.source,
    }
