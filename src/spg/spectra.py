"""Closed-form eigenvalue spectra of strong power graphs, a trigonometric
cubic solver, and an independent Householder + implicit-QL eigenvalue oracle
to compare against.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exactalg import IntMatrix, IntPolynomial, closed_form, first_asymmetry
from .groups import GroupSpec

__all__ = [
    "ClosedFormSpectrum",
    "SpectrumComparison",
    "ComplexRoots",
    "NonSymmetric",
    "NoConvergence",
    "solve_cubic_trig",
    "closed_spectrum",
    "distance_spectrum_closed",
    "adjacency_spectrum_closed",
    "symmetric_eigenvalues",
    "compare_spectra",
]

log = logging.getLogger("spg.spectra")

# Newton steps per cubic root; a simple root stops moving after a few
_NEWTON_STEPS = 64

# float64 entries in the temporary of one row block of a rank-2 update
# (64 KiB): the update never holds the whole m x m product
_UPDATE_ENTRIES = 1 << 13

# rows per vectorised skip test of the Householder reduction; row i of a
# block's slab a[k:k+c, k+2:] starts its part below the subdiagonal at
# column i, which the fixed upper-triangular mask selects
_SCAN_ROWS = 32
_SCAN_MASK = np.triu(np.ones((_SCAN_ROWS, _SCAN_ROWS), dtype=bool))

# the oracle's skip tolerance (see symmetric_eigenvalues), and the QL
# iterations allowed per eigenvalue, as in tql1
_SKIP_TOL = 1e-12
_QL_ITERATIONS = 30

# relative gap within which compare_spectra counts two sorted numeric
# eigenvalues as one cluster, to read off multiplicities
_CLUSTER_TOL = 1e-6


class ComplexRoots(ArithmeticError):
    """The cubic does not have three real roots."""


class NonSymmetric(ValueError):
    """The eigenvalue oracle only accepts exactly symmetric square input."""


class NoConvergence(RuntimeError):
    """QL iterations on one eigenvalue exhausted before its subdiagonal deflated."""


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

    def theta_in_range(self) -> bool:
        """0 < theta < pi/2, or True when there is no theta."""
        return self.theta is None or 0.0 < self.theta < math.pi / 2.0

    def values(self) -> list[float]:
        """All eigenvalues expanded by multiplicity, descending."""
        out: list[float] = []
        for v, m in self.entries:
            out.extend([v] * m)
        return out


@dataclass(frozen=True)
class SpectrumComparison:
    max_abs_deviation: float
    multiplicity_match: bool
    theta_in_range: bool


def comparison_holds(c, tol: float) -> bool:
    """True when the deviation of c is at most tol and both of its flags
    are true: the rule for a SpectrumComparison, and for a verify.Check,
    which carries the same three fields."""
    return c.max_abs_deviation <= tol and c.multiplicity_match and c.theta_in_range


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
    Solve a Real Cubic Equation*, 1986).  Each root r = m / q (q a power
    of two) then takes Newton steps until it stops moving.  Each step forms
    q^3 f(r) and q^2 f'(r) as integers, so the next iterate
    (m q^2 f' - q^3 f) / (q^3 f') is one int / int true division: the
    correctly rounded float of the exact Newton step.
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
            # r = m / q exactly, so value = q^3 f(r) and slope = q^2 f'(r)
            m, q = r.as_integer_ratio()
            slope = (3 * m + 2 * a2 * q) * m + a1 * q * q
            if slope == 0:
                break
            value = ((m + a2 * q) * m + a1 * q * q) * m + a0 * q * q * q
            moved = (m * slope - value) / (q * slope)
            if moved == r:
                break
            r = moved
        roots.append(r)
    roots.sort(reverse=True)
    return (roots[0], roots[1], roots[2]), theta


def closed_spectrum(
    factors: Sequence[tuple[IntPolynomial, int]], source: str
) -> ClosedFormSpectrum:
    """The roots of a closed form's factor list, with multiplicities: a
    linear factor x - r gives r, and a cubic its three roots by
    solve_cubic_trig, whose theta the spectrum keeps.  Equal roots are
    merged, and a root of multiplicity 0, as -1 in (x+1)^(p-2) at p = 2,
    is dropped."""
    merged: dict[float, int] = {}
    theta = None
    for factor, mult in factors:
        if factor.degree == 1:
            roots: Sequence[float] = (float(-factor.coeffs[0]),)
        else:
            a0, a1, a2, _ = factor.coeffs
            roots, theta = solve_cubic_trig(a2, a1, a0)
        for root in roots:
            merged[root] = merged.get(root, 0) + mult
    entries = sorted((item for item in merged.items() if item[1]), key=lambda item: -item[0])
    return ClosedFormSpectrum(tuple(entries), theta, source)


def distance_spectrum_closed(g: GroupSpec) -> ClosedFormSpectrum:
    """Closed-form distance spectrum of the strong power graph of g, the
    roots of exactalg.closed_form(g, "distance"): {n-1 once, -1 n-1 times}
    for a noncyclic group, and -1 n-3 times plus the roots of
    exactalg.distance_cubic(n) at a composite cyclic order n.  Other cyclic
    orders raise exactalg.NoClosedForm: their graphs are disconnected or
    too small."""
    return closed_spectrum(*closed_form(g, "distance"))


def adjacency_spectrum_closed(g: GroupSpec) -> ClosedFormSpectrum:
    """Closed-form adjacency spectrum of the strong power graph of g, the
    roots of exactalg.closed_form(g, "adjacency"): as the distance one for
    a noncyclic group or a composite cyclic order, with the roots of
    exactalg.adjacency_cubic(n); {p-2 once, 0 once, -1 p-2 times} at a
    prime p, which at p = 2 collapses to {0 twice}.  Cyclic order 1 raises
    exactalg.NoClosedForm."""
    return closed_spectrum(*closed_form(g, "adjacency"))


def _working_copy(matrix: IntMatrix) -> np.ndarray:
    """One float64 copy of an exactly symmetric integer matrix.

    Any argument but an IntMatrix goes through IntMatrix first, whose
    ValueError names a non-integer entry or one beyond int64.  Symmetry is
    decided on the integers, in their own dtype, before the conversion can
    round two unequal entries to one float; only then is the copy made.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    if first_asymmetry(matrix.entries) is not None:
        raise NonSymmetric("matrix is not exactly symmetric")
    return matrix.entries.astype(np.float64)


def _tridiagonal_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal matrix with diagonal d and
    subdiagonal e[:-1] (e[-1] is 0), by implicit-shift QL: the tql1 of
    Bowdler, Martin, Reinsch and Wilkinson (Numer. Math. 1968).  d and e are
    overwritten.  e[m] deflates once |e[m]| <= eps * norm, where norm is
    the largest |d[l]| + |e[l]| over the l reached so far, as in tql1.  A
    test local to d[m] and d[m+1] alone never fires on a cluster of
    eigenvalues at roundoff level around zero.
    """
    n = len(d)
    eps = sys.float_info.epsilon
    norm = 0.0
    for l in range(n):
        norm = max(norm, abs(d[l]) + abs(e[l]))
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > eps * norm:
                m += 1
            if m == l:
                break
            if iterations == _QL_ITERATIONS:
                raise NoConvergence(
                    f"eigenvalue {l} not isolated after {_QL_ITERATIONS} QL iterations"
                )
            iterations += 1
            # Wilkinson-style shift from the leading 2 x 2 block, then one
            # QL sweep of plane rotations from m - 1 up to l
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow splits the block; sweep it again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def _reflect(a: np.ndarray, k: int) -> None:
    """Householder step k on the symmetric working array a: reflect
    row k right of the diagonal (which equals column k below it) onto its
    first entry, and apply the reflection to the trailing block as one
    rank-2 update B -= v w^T + w v^T, with p = beta B v and
    w = p - (beta/2)(p^T v) v (Golub & Van Loan, sec. 8.3.1; LAPACK's
    dsytd2 and dsyr2).  The update runs a block of rows at a time, each
    block's product [v w] [w v]^T holding at most _UPDATE_ENTRIES
    entries, so no m x m temporary is made.  [w v]^T is filled into one
    2 x m array and [v w] is its C-order copy, reversed and transposed.
    Only a[k, k+1] and the trailing block are written."""
    x = a[k, k + 1 :]
    alpha = -math.copysign(math.sqrt(float(x @ x)), x[0])
    v = x.copy()
    v[0] -= alpha
    beta = 2.0 / float(v @ v)
    block = a[k + 1 :, k + 1 :]
    p = beta * (block @ v)
    w = p - (0.5 * beta * float(p @ v)) * v
    right = np.empty((2, len(v)))
    right[0], right[1] = w, v
    # C order: a strided view of right would take another BLAS path at
    # some orders, and round the products differently
    left = right[::-1].T.copy()
    rows = max(1, _UPDATE_ENTRIES // len(v))
    for top in range(0, len(v), rows):
        block[top : top + rows] -= left[top : top + rows] @ right
    a[k, k + 1] = alpha


def symmetric_eigenvalues(matrix: IntMatrix) -> list[float]:
    """All eigenvalues of a symmetric integer matrix, sorted descending, by
    Householder reduction to tridiagonal form and implicit-shift QL
    (Golub & Van Loan, *Matrix Computations*, sec. 8.3).

    The matrix is an IntMatrix; any other argument goes through IntMatrix
    first, whose ValueError names a float, NaN or bool entry, or an int
    beyond int64, by its (i, j).  Symmetry must be exact and is checked on
    the integers, so two entries that differ but round to one float64 are
    still caught (NonSymmetric).  The float64 copy of the integers is the
    working array, and the only n x n float64 array the oracle holds; it is
    not rescaled.  Entries |a_ij| < 2^63 keep every intermediate within
    float64.  The reduction is orthogonal, so no entry it writes exceeds
    ||A||_F < n 2^63 by more than rounding, and its largest sum of squares,
    about ||A||_F^2 < n^2 2^126, is far below the float64 maximum near
    2^1024 at any order that fits in memory.  A nonzero integer matrix has
    ||A||_F >= 1, so a column is reflected only when its squared tail
    exceeds skip^2 >= (1e-13 / n)^2, far above the smallest normal float,
    and the 2 / (v^T v) made from it cannot overflow.  QL's shift ratios
    stay below 1 / eps, since every entry e it has not deflated exceeds
    eps times its norm.

    Step k of the reduction reflects the column below the diagonal onto its
    first entry.  When the part of that column below the subdiagonal has
    norm at most skip = tol * ||A||_F / (10 n), where tol is
    _SKIP_TOL = 1e-12, the step is skipped and that part is dropped; the
    zero matrix skips every step.  A skipped step writes nothing, so the
    test runs over a block of _SCAN_ROWS rows at once, and the reduction
    reflects at the first row of the block that fails it and resumes after
    that row.  Each row's squared tail is summed by np.add.reduce
    along the row, in numpy's pairwise order; a sum in another order
    (np.einsum's, say) may differ in its last bits, which moves a skip
    decision only for a tail within a rounding of the threshold.  ||A||_F
    is the square root of one dot product of the working array with
    itself, as np.linalg.norm forms it.  Each reflection is one rank-2
    update (see _reflect).  Under SPG_LOG=debug each call logs n, skip and
    the number of reflections it applied.
    These matrices have minimal polynomials of degree at most 4, so after a
    few reflections the remaining columns sit at roundoff level and almost
    every step is skipped.  The result is therefore the exact spectrum of
    A + E with ||E||_F <= sqrt(2n) * skip < tol * ||A||_F, plus
    O(n eps ||A||_F) rounding; by the Hoffman-Wielandt inequality each
    eigenvalue is within that distance of A's.  QL's deflation drops each
    subdiagonal entry |e| <= eps * norm <= 2 eps ||A||_F (see
    _tridiagonal_eigenvalues), at most n - 1 of them, which lies inside the
    O(n eps ||A||_F) term.  QL raises NoConvergence after _QL_ITERATIONS
    iterations on one eigenvalue (30, as in tql1).
    """
    a = _working_copy(matrix)
    n = a.shape[0]
    flat = a.ravel(order="K")  # a view, in the order np.linalg.norm takes
    skip = _SKIP_TOL * math.sqrt(float(flat.dot(flat))) / (10.0 * n)
    reflections = 0
    k = 0
    while k < n - 2:
        slab = a[k : min(k + _SCAN_ROWS, n - 2), k + 2 :]
        rows = slab.shape[0]
        head = np.where(_SCAN_MASK[:rows, : slab.shape[1]], slab[:, :_SCAN_ROWS], 0.0)
        rest = slab[:, _SCAN_ROWS:]
        tails = np.add.reduce(head * head, axis=1) + np.add.reduce(rest * rest, axis=1)
        fails = tails > skip * skip
        first = int(fails.argmax())
        if fails[first]:
            k += first
            _reflect(a, k)
            reflections += 1
            k += 1
        else:
            k += rows
    log.debug("oracle n=%d skip=%.3g reflections=%d", n, skip, reflections)
    d = a.diagonal().tolist()
    e = a.diagonal(1).tolist() + [0.0]
    return sorted(_tridiagonal_eigenvalues(d, e), reverse=True)


def _cluster_sizes(values: Sequence[float]) -> list[int]:
    if not values:
        return []
    sizes = [1]
    for previous, value in zip(values, values[1:]):
        if abs(previous - value) <= _CLUSTER_TOL * max(1.0, abs(previous)):
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


def compare_spectra(closed: ClosedFormSpectrum, numeric: Sequence[float]) -> SpectrumComparison:
    """Compare a closed-form spectrum against numeric eigenvalues.

    Both sides are paired greedily in descending order for the deviation;
    multiplicities match when clustering the numeric values at relative
    tolerance _CLUSTER_TOL reproduces the closed-form multiplicities.  The
    theta flag checks 0 < theta < pi/2 and is True when theta is absent.
    Sides of different lengths cannot be paired: the comparison then fails,
    with deviation inf and multiplicity_match False.
    """
    expanded = closed.values()
    if len(expanded) != len(numeric):
        return SpectrumComparison(math.inf, False, closed.theta_in_range())
    numeric_sorted = sorted((float(v) for v in numeric), reverse=True)
    deviation = max(
        (abs(c - v) for c, v in zip(expanded, numeric_sorted)), default=0.0
    )
    mult_match = _cluster_sizes(numeric_sorted) == [m for _, m in closed.entries]
    return SpectrumComparison(deviation, mult_match, closed.theta_in_range())
