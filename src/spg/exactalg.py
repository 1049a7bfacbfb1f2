"""Exact integer linear algebra: matrices, dense polynomials, characteristic
polynomials, and the closed-form polynomials they are checked against.

Everything here is exact: matrices and polynomials hold Python integers, and
every division performed by an algorithm is asserted to leave no remainder.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .groups import is_composite, is_prime, totient

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "PrimeOrTrivialN",
    "UnsupportedN",
    "NotPrime",
    "InexactDivision",
    "poly_mul",
    "poly_eval",
    "binom_power",
    "charpoly",
    "bareiss_det",
    "distance_cubic",
    "adjacency_cubic",
    "distance_charpoly_formula",
    "adjacency_charpoly_formula",
    "prime_adjacency_charpoly",
]

Scalar = Union[int, Fraction]


class PrimeOrTrivialN(ValueError):
    """The distance closed form needs a composite order of at least 4."""


class UnsupportedN(ValueError):
    """The adjacency closed form does not cover order 1."""


class NotPrime(ValueError):
    """The prime-order closed form needs a prime argument."""


class InexactDivision(ArithmeticError):
    """A polynomial division expected to be exact was not."""


class IntMatrix:
    """Immutable square matrix over arbitrary-precision integers.

    A square 2-D int64 ndarray is taken as it is: its dtype already proves
    every entry an integer.  Any other input is checked entry by entry.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows: Union[Sequence[Sequence[int]], np.ndarray]):
        if (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.int64
            and rows.ndim == 2
            and rows.shape[0] == rows.shape[1]
        ):
            rows = tuple(map(tuple, rows.tolist()))
        else:
            rows = tuple(tuple(row) for row in rows)
            n = len(rows)
            for i, row in enumerate(rows):
                if len(row) != n:
                    raise ValueError(f"row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"entry ({i}, {j}) is {v!r}, expected an integer")
        if not rows:
            raise ValueError("matrix must have at least one row")
        self.rows = rows
        self.n = len(rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n})"


class IntPolynomial:
    """Dense univariate polynomial over the integers, coefficients ascending.

    The zero polynomial is stored with an empty coefficient tuple; all other
    polynomials carry a nonzero leading coefficient.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficient {c!r} is not an integer")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return poly_mul(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def to_coeff_strings(self) -> list[str]:
        """Decimal coefficient strings, ascending degree (exact at any size)."""
        if not self.coeffs:
            return ["0"]
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_coeff_strings(cls, items: Sequence[str]) -> "IntPolynomial":
        return cls([int(s) for s in items])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "x" if k == 1 else f"x^{k}"
                term = var if mag == 1 else f"{mag}{var}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        text = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            text += f" {sign} {term}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Exact polynomial product."""
    if not a.coeffs or not b.coeffs:
        return IntPolynomial([])
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
    return IntPolynomial(out)


def poly_eval(p: IntPolynomial, x: Scalar) -> Scalar:
    """Evaluate exactly at an integer or Fraction by Horner's rule."""
    result: Scalar = 0
    for c in reversed(p.coeffs):
        result = result * x + c
    return result


def binom_power(k: int) -> IntPolynomial:
    """(x + 1)^k via the Pascal row."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return IntPolynomial([math.comb(k, i) for i in range(k + 1)])


# --- characteristic polynomial ------------------------------------------------

_DOT_LIMIT = 1 << 53  # every basis prime has n * (p-1)^2 below this
_SIEVE_WINDOW = 1 << 11  # candidates sieved per pass of the prime search
_STACK_LIMIT = 1 << 22  # residues per (primes, n, n) stack, but at least one prime


def _primes_between(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi), ascending, by sieving that window alone."""
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if small[q]:
            small[q * q :: q] = False
    window = np.ones(hi - lo, dtype=bool)
    window[lo % 2 :: 2] = False  # the even numbers; 2 itself is put back below
    for q in np.flatnonzero(small)[1:].tolist():  # the odd primes up to the root
        first = max(q * q, -(-lo // q) * q)
        window[first - lo :: q] = False
    primes = np.flatnonzero(window) + lo
    if lo <= 2 < hi:
        primes = np.concatenate(([2], primes))
    return primes


@functools.lru_cache(maxsize=1)
def _sieved_windows(n: int) -> list[list[int]]:
    """Basis candidates for order n sieved so far: one descending list per
    sieve window, the window of the largest primes first.

    _prime_basis appends windows as it needs them.  The cache holds the
    latest n only, so the adjacency and distance charpolys of one order
    share one sieve, and nothing accumulates from order to order.
    """
    return []


def _prime_basis(n: int, bound: int) -> tuple[list[int], int]:
    """Descending primes p with n*(p-1)^2 < 2^53 whose product exceeds bound."""
    top = math.isqrt((_DOT_LIMIT - 1) // max(n, 1)) + 1  # candidates lie below top
    windows = _sieved_windows(n)
    primes: list[int] = []
    product = 1
    k = 0
    while product <= bound:
        hi = top - k * _SIEVE_WINDOW
        if hi <= 2:
            raise AssertionError("prime basis exhausted; matrix too large")
        if k == len(windows):
            windows.append(_primes_between(max(2, hi - _SIEVE_WINDOW), hi)[::-1].tolist())
        for p in windows[k]:
            primes.append(p)
            product *= p
            if product > bound:
                break
        k += 1
    return primes, product


def _crt_signed(residues: np.ndarray, primes: Sequence[int], modulus: int) -> list[int]:
    """Garner reconstruction of each column of the (P, K) residue array into
    the symmetric range (-modulus/2, modulus/2].

    The Garner constants depend only on the basis, so each is computed once
    and applied to all K columns together.
    """
    x = np.zeros(residues.shape[1], dtype=object)
    m = 1
    for r, p in zip(residues.astype(object), primes):
        x += ((r - x) * pow(m, -1, p) % p) * m
        m *= p
    return [v - modulus if 2 * v > modulus else v for v in x.tolist()]


def _residue_stack(entries: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """Matrix reduced modulo each prime, stacked along axis 0 as int64.

    entries is an int64 array, or an object array of Python integers when
    some entry is too large for int64 arithmetic.
    """
    pcol = np.array(primes, dtype=entries.dtype).reshape(-1, 1, 1)
    return (entries[None] % pcol).astype(np.int64, copy=False)


def _hessenberg(h: np.ndarray, pcol: np.ndarray) -> None:
    """Reduce each h[k] in place to an upper Hessenberg matrix similar to it
    modulo pcol[k], all primes of the stack in one batch (Cohen, Alg. 2.2.9).

    As in Cohen's algorithm, a column that is already zero below the
    subdiagonal is skipped.  A matrix with a low-degree minimal polynomial,
    such as a strong power graph's adjacency or distance matrix, splits into
    small Hessenberg blocks and skips most columns.
    """
    num, n, _ = h.shape
    p = pcol[:, 0]
    p3 = pcol[:, :, None]
    rows = np.arange(num)
    work = np.empty(h.size, dtype=np.int64)
    for m in range(n - 2):
        if not h[:, m + 2 :, m].any():
            continue  # column m is already in Hessenberg form for every prime
        if not h[:, m + 1, m].all():
            # pivot: the first nonzero entry at or below the subdiagonal of
            # column m; with none, u below is zero and the step changes nothing
            piv = np.argmax(h[:, m + 1 :, m] != 0, axis=1) + m + 1
            top = h[rows, m + 1].copy()
            h[rows, m + 1] = h[rows, piv]
            h[rows, piv] = top
            left = h[rows, :, m + 1].copy()
            h[rows, :, m + 1] = h[rows, :, piv]
            h[rows, :, piv] = left
        pivot = h[:, m + 1, m]
        inv = np.array(
            [pow(v, -1, q) if v else 0 for v, q in zip(pivot.tolist(), p.tolist())],
            dtype=np.int64,
        )
        assert (pivot * inv % p == (pivot != 0)).all(), "bad pivot inverse"
        # rows m+2.. -= u * row m+1, then columns m+1 += (columns m+2..) @ u
        u = h[:, m + 2 :, m] * inv[:, None] % pcol
        t = work[: num * (n - m - 2) * (n - m)].reshape(num, n - m - 2, n - m)
        np.multiply(u[:, :, None], h[:, m + 1, None, m:], out=t)
        np.subtract(h[:, m + 2 :, m:], t, out=t)
        np.remainder(t, p3, out=h[:, m + 2 :, m:])
        h[:, :, m + 1] += np.einsum("pik,pk->pi", h[:, :, m + 2 :], u)
        h[:, :, m + 1] %= pcol


def _hessenberg_charpoly(h: np.ndarray, pcol: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - h[k]) mod pcol[k] for upper Hessenberg h[k],
    as a (P, n+1) array with ascending degree along axis 1.

    The charpoly q_m of the leading m x m block obeys
    q_m = (x - h[m-1,m-1]) q_{m-1} - sum_{i<m-1} h[i,m-1] t_i q_i, where
    t_i = h[i+1,i] h[i+2,i+1] ... h[m-1,m-2] is carried as a running vector.
    _block_charpoly calls it on one diagonal block at a time, so its
    (P, n+1, n+1) table is only as large as that block.
    """
    num, n, _ = h.shape
    q = np.zeros((num, n + 1, n + 1), dtype=np.int64)  # q[:, i, d]: x^d in q_i
    q[:, 0, 0] = 1
    t = np.zeros((num, n), dtype=np.int64)
    for m in range(1, n + 1):
        prev = q[:, m - 1, :m]
        q[:, m, 1 : m + 1] = prev
        q[:, m, :m] -= h[:, m - 1, m - 1, None] * prev
        if m >= 2:
            sub = h[:, m - 1, m - 2, None]
            t[:, : m - 2] = t[:, : m - 2] * sub % pcol
            t[:, m - 2] = sub[:, 0]
            w = h[:, : m - 1, m - 1] * t[:, : m - 1] % pcol
            q[:, m, : m - 1] -= np.einsum("pi,pid->pd", w, q[:, : m - 1, : m - 1])
        q[:, m, : m + 1] %= pcol
    return q[:, n].copy()


def _poly_mul_mod(a: np.ndarray, b: np.ndarray, pcol: np.ndarray) -> np.ndarray:
    """Product of the polynomials a[k] and b[k] mod pcol[k], coefficients
    ascending along axis 1, as one batched convolution over all primes.

    Coefficient d sums a[i] * b[d-i] over at most min(len a, len b) terms,
    each below (p-1)^2.  charpoly forms no product of degree above n, so
    that is at most n terms for n >= 2, and the sum stays below 2^53.
    """
    if a.shape[1] > b.shape[1]:
        a, b = b, a
    k = a.shape[1]
    padded = np.zeros((b.shape[0], b.shape[1] + 2 * (k - 1)), dtype=np.int64)
    padded[:, k - 1 : k - 1 + b.shape[1]] = b
    windows = np.lib.stride_tricks.sliding_window_view(padded, k, axis=1)
    return np.einsum("pdj,pj->pd", windows, a[:, ::-1]) % pcol


def _poly_pow_mod(a: np.ndarray, k: int, pcol: np.ndarray) -> np.ndarray:
    """a[j] ** k mod pcol[j] for k >= 1, by square-and-multiply."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else _poly_mul_mod(result, a, pcol)
        k >>= 1
        if not k:
            return result
        a = _poly_mul_mod(a, a, pcol)


def _block_charpoly(h: np.ndarray, pcol: np.ndarray) -> np.ndarray:
    """Coefficients of det(xI - h[k]) mod pcol[k] for upper Hessenberg h[k],
    as a (P, n+1) array with ascending degree along axis 1.

    Where a subdiagonal entry is zero for every prime, every h[k] is block
    upper triangular there, and its charpoly is the product of those of
    its diagonal blocks (Cohen, Alg. 2.2.9).  Each distinct block, the same
    order and the same residues for every prime, runs the recurrence once;
    its charpoly is raised to the block's multiplicity, and the powers are
    multiplied together.  A strong power graph's matrix, with its minimal
    polynomial of degree at most 4, leaves one 3 x 3 block and n - 3 equal
    1 x 1 blocks.
    """
    n = h.shape[1]
    sub = np.diagonal(h, offset=-1, axis1=1, axis2=2)
    cuts = [0, *(np.flatnonzero(~sub.any(axis=0)) + 1).tolist(), n]
    blocks: dict[tuple[int, bytes], list] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        block = h[:, lo:hi, lo:hi]
        seen = blocks.setdefault((hi - lo, block.tobytes()), [block, 0])
        seen[1] += 1
    result = None
    for block, count in blocks.values():
        factor = _poly_pow_mod(_hessenberg_charpoly(block, pcol), count, pcol)
        result = factor if result is None else _poly_mul_mod(result, factor, pcol)
    return result


def charpoly(matrix: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M), monic of degree n.

    Multimodular Hessenberg method (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.2.9).  Modulo each prime of a basis,
    similarity transforms reduce M to upper Hessenberg form.  That form
    splits into diagonal blocks wherever a subdiagonal entry is zero for
    every prime, and the charpoly is the product of the blocks' charpolys:
    each distinct block runs the recurrence once and is raised to its
    multiplicity (see _block_charpoly).  The primes run in stacks of at
    most 2^22 residues (one prime per stack from n = 1449), and each
    stack's n + 1 coefficients are copied out before the next, so memory
    is O(n^2 + P * n) whatever the basis size P.

    The coefficient c_k of x^(n-k) is (-1)^k times the sum of the C(n, k)
    principal k x k minors.  By Hadamard's inequality the minor on rows S is
    at most the product of the Euclidean norms r_i of rows i in S, so
    |c_k| <= e_k(r_1, ..., r_n) <= prod_i (1 + r_i).  With each r_i rounded
    up to an integer, computed exactly as isqrt(s_i - 1) + 1 from the
    integer s_i = sum_j M[i, j]^2, a basis whose product exceeds
    2 * prod_i (1 + ceil(r_i)) recovers every coefficient exactly by CRT in
    the symmetric range.  The s_i are summed in int64 when
    n * max|M[i, j]|^2 < 2^63, and in Python integers otherwise.

    Every basis prime satisfies n * (p-1)^2 < 2^53, so each int64 product of
    two residues, and each batched dot product of at most n + 1 of them,
    stays far below 2^63 and is exact.  Each pivot inverse is asserted, and
    so are the leading coefficient 1 and the x^(n-1) coefficient -tr(M).
    """
    n = matrix.n
    small = (1 << 62) // n  # below this, a sum of n entries (the trace) fits int64
    try:
        entries = np.array(matrix.rows, dtype=np.int64)
        fits = -small < entries.min() and entries.max() < small
    except OverflowError:
        fits = False
    if not fits:
        entries = np.array(matrix.rows, dtype=object)  # exact Python integers
    if fits and n * int(np.abs(entries).max()) ** 2 < 1 << 63:
        squares = (entries * entries).sum(axis=1).tolist()
    else:
        squares = [sum(v * v for v in row) for row in matrix.rows]
    bound = 2
    for s in squares:
        bound *= 1 + (math.isqrt(s - 1) + 1 if s else 0)
    primes, modulus = _prime_basis(n, bound)

    step = max(1, _STACK_LIMIT // (n * n))  # primes per stack
    residues = np.empty((len(primes), n + 1), dtype=np.int64)
    for lo in range(0, len(primes), step):
        chunk = primes[lo : lo + step]
        pcol = np.array(chunk, dtype=np.int64).reshape(-1, 1)
        h = _residue_stack(entries, chunk)
        _hessenberg(h, pcol)
        residues[lo : lo + step] = _block_charpoly(h, pcol)
    coeffs = _crt_signed(residues, primes, modulus)
    assert coeffs[n] == 1, "charpoly is not monic"
    assert coeffs[n - 1] == -int(entries.trace()), "x^(n-1) coefficient is not -tr(M)"
    return IntPolynomial(coeffs)


def bareiss_det(matrix: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Independent of charpoly; used to cross-check its constant coefficient.
    Every interior division is exact and asserted.
    """
    n = matrix.n
    a = [list(row) for row in matrix.rows]
    sign = 1
    previous = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                value = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                assert value % previous == 0, "inexact division in Bareiss elimination"
                a[i][j] = value // previous
            a[i][k] = 0
        previous = a[k][k]
    return sign * a[n - 1][n - 1]


# --- closed-form polynomials ---------------------------------------------------
#
# The two cubics below are the only place the paper's closed forms are spelled
# out: the charpoly formulas multiply them by (x+1)^(n-3), and the closed-form
# spectra in spg.spectra solve them.


def distance_cubic(n: int) -> IntPolynomial:
    """The cubic factor of the distance characteristic polynomial of the
    strong power graph of Z_n:
    x^3 + (3-n)x^2 + (3-2n-3*phi)x - phi^2 - phi*(4-n) - n + 1.
    """
    phi = totient(n)
    return IntPolynomial([-(phi * phi) - phi * (4 - n) - n + 1, 3 - 2 * n - 3 * phi, 3 - n, 1])


def adjacency_cubic(n: int) -> IntPolynomial:
    """The cubic factor of the adjacency characteristic polynomial of the
    strong power graph of Z_n:
    x^3 + (3-n)x^2 + (3-2n+phi)x + (n-phi-1)(phi-1).
    """
    phi = totient(n)
    return IntPolynomial([(n - phi - 1) * (phi - 1), 3 - 2 * n + phi, 3 - n, 1])


def distance_charpoly_formula(n: int) -> IntPolynomial:
    """Closed form of the distance characteristic polynomial of the strong
    power graph of Z_n, valid for composite n >= 4: (x+1)^(n-3) times
    distance_cubic(n).
    """
    if not is_composite(n):
        raise PrimeOrTrivialN(f"closed form needs a composite order >= 4, got {n}")
    return poly_mul(binom_power(n - 3), distance_cubic(n))


def adjacency_charpoly_formula(n: int) -> IntPolynomial:
    """Closed form of the adjacency characteristic polynomial of the strong
    power graph of Z_n, for any order n >= 2: (x+1)^(n-3) times
    adjacency_cubic(n).

    At n = 2 the exponent is negative; the cubic is divided exactly by
    (x+1), which yields x^2 and matches the edgeless two-vertex graph.
    Order 1 is rejected: the formula does not reduce to the true
    single-vertex characteristic polynomial x.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n == 1:
        raise UnsupportedN("the adjacency closed form does not cover order 1")
    cubic = adjacency_cubic(n)
    if n >= 3:
        return poly_mul(binom_power(n - 3), cubic)
    # synthetic division by (x + 1): the remainder is the cubic's value at -1
    quotient = [0] * 3
    carry = 0
    for k in range(3, 0, -1):
        carry = cubic.coeffs[k] - carry
        quotient[k - 1] = carry
    if cubic.coeffs[0] - carry != 0:
        raise InexactDivision(f"(x+1) does not divide the n=2 cubic {cubic}")
    return IntPolynomial(quotient)


def prime_adjacency_charpoly(p: int) -> IntPolynomial:
    """Adjacency characteristic polynomial for prime order: x(x+1)^(p-2)(x+2-p)."""
    if not is_prime(p):
        raise NotPrime(f"expected a prime order, got {p}")
    x = IntPolynomial([0, 1])
    return poly_mul(poly_mul(x, binom_power(p - 2)), IntPolynomial([2 - p, 1]))
