"""Exact integer linear algebra: matrices, dense polynomials, characteristic
polynomials, and the closed-form polynomials they are checked against.

Everything here is exact: matrices hold int64 or Python integers, polynomials
hold Python integers, and every division performed by an algorithm is
asserted to leave no remainder.
"""

from __future__ import annotations

import math
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
    "binom_power",
    "charpoly",
    "distance_cubic",
    "adjacency_cubic",
    "distance_charpoly_formula",
    "adjacency_charpoly_formula",
    "prime_adjacency_charpoly",
]

class PrimeOrTrivialN(ValueError):
    """The distance closed form needs a composite order of at least 4."""


class UnsupportedN(ValueError):
    """The adjacency closed form does not cover order 1."""


class NotPrime(ValueError):
    """The prime-order closed form needs a prime argument."""


class InexactDivision(ArithmeticError):
    """A polynomial division expected to be exact was not."""


class IntMatrix:
    """Immutable square integer matrix, held as one read-only n x n array
    `entries`: int64 when every entry fits, otherwise an object array of
    Python integers.

    A square 2-D int64 ndarray is copied as it is: its dtype already proves
    every entry an integer.  Any other input is checked entry by entry.
    """

    __slots__ = ("entries", "n")

    def __init__(self, rows: Union[Sequence[Sequence[int]], np.ndarray]):
        if (
            isinstance(rows, np.ndarray)
            and rows.dtype == np.int64
            and rows.ndim == 2
            and rows.shape[0] == rows.shape[1]
        ):
            entries = rows.copy()
        else:
            rows = [list(row) for row in rows]
            n = len(rows)
            for i, row in enumerate(rows):
                if len(row) != n:
                    raise ValueError(f"row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"entry ({i}, {j}) is {v!r}, expected an integer")
            try:
                entries = np.array(rows, dtype=np.int64)
            except OverflowError:
                entries = np.array(rows, dtype=object)
        if not entries.size:
            raise ValueError("matrix must have at least one row")
        entries.flags.writeable = False
        self.entries = entries
        self.n = len(entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        # an object array holds an entry beyond int64, so it never equals an
        # int64 one, and its bytes are pointers: hash its decimal text
        if self.entries.dtype == object:
            return hash(str(self.entries.tolist()))
        return hash(self.entries.tobytes())

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
        if not set(map(type, coeffs)) <= {int}:  # scan only to name the offender
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


def binom_power(k: int) -> IntPolynomial:
    """(x + 1)^k via the multiplicative Pascal row,
    C(k, i + 1) = C(k, i) (k - i) / (i + 1), each division exact."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    row = [1]
    for i in range(k):
        coeff, remainder = divmod(row[-1] * (k - i), i + 1)
        assert not remainder, "inexact division in the Pascal row"
        row.append(coeff)
    return IntPolynomial(row)


# --- characteristic polynomial ------------------------------------------------

_DOT_LIMIT = 1 << 53  # every basis prime has n * (p-1)^2 below this
_ROW_UPDATE_LIMIT = 1 << 16  # int64 entries per block of an integer Hessenberg row update


def _prime_basis(n: int, bound: int) -> tuple[list[int], int]:
    """Descending primes p with n*(p-1)^2 < 2^53 whose product exceeds bound,
    each candidate from the largest down tested by is_prime."""
    p = math.isqrt((_DOT_LIMIT - 1) // max(n, 1)) + 1  # candidates lie below this
    primes: list[int] = []
    product = 1
    while product <= bound:
        p -= 1
        if p < 2:
            raise AssertionError("prime basis exhausted; matrix too large")
        if is_prime(p):
            primes.append(p)
            product *= p
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


def _hessenberg(h: np.ndarray, p: int) -> None:
    """Reduce the int64 matrix h of residues mod p in place to an upper
    Hessenberg matrix similar to it modulo p (Cohen, Alg. 2.2.9)."""
    n = len(h)
    for m in range(n - 2):
        if not h[m + 2 :, m].any():
            continue  # column m is already in Hessenberg form
        if not h[m + 1, m]:
            # pivot: the first nonzero entry below the subdiagonal of column m
            k = m + 2 + int(np.argmax(h[m + 2 :, m] != 0))
            h[[m + 1, k]] = h[[k, m + 1]]
            h[:, [m + 1, k]] = h[:, [k, m + 1]]
        pivot = int(h[m + 1, m])
        inv = pow(pivot, -1, p)
        assert pivot * inv % p == 1, "bad pivot inverse"
        # rows m+2.. -= u * row m+1, then column m+1 += (columns m+2..) @ u
        u = h[m + 2 :, m] * inv % p
        h[m + 2 :, m:] = (h[m + 2 :, m:] - u[:, None] * h[m + 1, m:]) % p
        h[:, m + 1] = (h[:, m + 1] + h[:, m + 2 :] @ u) % p


def _hessenberg_charpoly(h: np.ndarray, p: int) -> np.ndarray:
    """Coefficients of det(xI - h) mod p for the upper Hessenberg int64
    matrix h of residues mod p, as n + 1 residues in ascending degree.

    The charpoly q_m of the leading m x m block obeys
    q_m = (x - h[m-1,m-1]) q_{m-1} - sum_{i<m-1} h[i,m-1] t_i q_i, where
    t_i = h[i+1,i] h[i+2,i+1] ... h[m-1,m-2] is carried as a running vector.
    Each coefficient sums at most n products of two residues, so it stays
    below 2^53 for every basis prime.
    """
    n = len(h)
    q = np.zeros((n + 1, n + 1), dtype=np.int64)  # q[i, d]: x^d in q_i
    q[0, 0] = 1
    t = np.zeros(n, dtype=np.int64)
    for m in range(1, n + 1):
        prev = q[m - 1, :m]
        q[m, 1 : m + 1] = prev
        q[m, :m] -= h[m - 1, m - 1] * prev
        if m >= 2:
            sub = h[m - 1, m - 2]
            t[: m - 2] = t[: m - 2] * sub % p
            t[m - 2] = sub
            w = h[: m - 1, m - 1] * t[: m - 1] % p
            q[m, : m - 1] -= w @ q[: m - 1, : m - 1]
        q[m, : m + 1] %= p
    return q[n]


def _distinct_blocks(h: np.ndarray, cuts: Sequence[int]) -> list[list]:
    """The diagonal blocks h[lo:hi, lo:hi] of the 2-D int64 array h between
    consecutive cuts, one [block, multiplicity] pair per distinct block: the
    same order and the same entries."""
    blocks: dict[tuple[int, bytes], list] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        block = h[lo:hi, lo:hi]
        seen = blocks.setdefault((hi - lo, block.tobytes()), [block, 0])
        seen[1] += 1
    return list(blocks.values())


def _integer_hessenberg(h: np.ndarray) -> int:
    """Reduce the leading columns of the int64 matrix h in place to upper
    Hessenberg form by similarity transforms over the integers, and return
    how many leading columns are in that form.

    Column m is cleared by Euclid's algorithm.  Each pass moves the nonzero
    entry of least magnitude at or below the subdiagonal to the subdiagonal
    as pivot, and subtracts u_i times the pivot row from each row below it,
    with u_i the integer nearest to entry_i / pivot; the columns take the
    inverse, (I - u e^T)^-1 = I + u e^T, so the pass is a similarity over
    Z.  It leaves every entry below the pivot at most |pivot|/2, so the
    least magnitude falls until the column is clear, and only then does m
    advance.  Before each pass, B = max|h| and q = round(max|entry| /
    |pivot|), which bounds |u|, must show that the pass keeps every entry
    below 2^62/n: the rows grow to at most B(1+q), then column m+1 to
    B(1+q)(1+nq).  The reduction stops at the first pass where it would
    not.  When the next column is already in Hessenberg form, one scan of
    each row's first nonzero entry finds the first later column that is
    not.  A pass rewrites the columns from m on, so each scan starts after
    the last pass.  Its row update runs a block of rows at a time, so no n^2
    int64 temporary is made.
    """
    n = len(h)
    small = (1 << 62) // n
    m = 0
    while m < n - 2:
        if not h[m + 2 :, m].any():
            # entry (i, j) of the slice is h[m+2+i, m+j], below the subdiagonal
            # iff i >= j: the next column to step is the least first nonzero
            # column j <= i of any row i
            nonzero = h[m + 2 :, m:] != 0
            first = nonzero.argmax(axis=1)
            rows = np.arange(len(first))
            pending = first[(first <= rows) & nonzero[rows, first]]
            if not pending.size:
                break
            m += int(pending.min())
        col = h[m + 1 :, m]
        mag = np.abs(col)
        k = int(np.argmin(np.where(col != 0, mag, small)))
        pivot = int(col[k])
        q = (2 * int(mag.max()) + abs(pivot)) // (2 * abs(pivot))
        big = max(int(h.max()), -int(h.min()))
        if big * (1 + q) * (1 + n * q) >= small:
            return m
        if k:
            h[[m + 1, m + 1 + k]] = h[[m + 1 + k, m + 1]]
            h[:, [m + 1, m + 1 + k]] = h[:, [m + 1 + k, m + 1]]
        u = (2 * h[m + 2 :, m] + pivot) // (2 * pivot)
        # a block of rows at a time, so the product u_i h[m+1, m:] never
        # holds more than _ROW_UPDATE_LIMIT entries; one block up to n = 256
        rows = max(1, _ROW_UPDATE_LIMIT // (n - m))
        for top in range(0, len(u), rows):
            h[m + 2 + top : m + 2 + top + rows, m:] -= u[top : top + rows, None] * h[m + 1, m:]
        h[:, m + 1] += h[:, m + 2 :] @ u
        if not h[m + 2 :, m].any():
            m += 1
    return n - 1


def _exact_hessenberg_charpoly(h: list[list[int]]) -> list[int]:
    """Coefficients of det(xI - h), ascending, for an upper Hessenberg h of
    Python integers: the recurrence of _hessenberg_charpoly with no
    modulus.  It multiplies and subtracts only, so it is exact over Z."""
    n = len(h)
    q = [[1]]  # q[m]: the charpoly of the leading m x m block
    t: list[int] = []
    for m in range(1, n + 1):
        prev = q[m - 1]
        diag = h[m - 1][m - 1]
        qm = [0, *prev]
        for d, c in enumerate(prev):
            qm[d] -= diag * c
        if m >= 2:
            sub = h[m - 1][m - 2]
            t = [v * sub for v in t] + [sub]
            for i in range(m - 1):
                w = h[i][m - 1] * t[i]
                if w:
                    for d, c in enumerate(q[i]):
                        qm[d] -= w * c
        q.append(qm)
    return q[n]


def _poly_pow(a: Sequence[int], k: int) -> list[int]:
    """a(x)^k for k >= 1 over Python integers, ascending, by J. C. P.
    Miller's recurrence (Knuth, TAOCP Vol. 2, Sec. 4.7).

    With x^v factored out so that a_0 != 0, and s the degree of what is
    left, g = a^k has g_0 = a_0^k and, for m >= 1,
    m a_0 g_m = sum_{j=1..min(m,s)} ((k+1) j - m) a_j g_{m-j},
    which follows from a g' = k a' g.  Each division is exact, and asserted.
    That is at most s multiply-adds per coefficient of g, where
    square-and-multiply by convolutions takes O(k * s) per coefficient.
    """
    v = next(i for i, c in enumerate(a) if c)
    a = a[v:]
    s = len(a) - 1
    a0 = a[0]
    g = [a0**k]
    for m in range(1, k * s + 1):
        total = 0
        for j in range(1, min(m, s) + 1):
            total += ((k + 1) * j - m) * a[j] * g[m - j]
        quotient, remainder = divmod(total, m * a0)
        assert not remainder, "inexact division in the power recurrence"
        g.append(quotient)
    return [0] * (v * k) + g


def _hadamard_bound(entries: np.ndarray) -> int:
    """2 * prod_i (1 + ceil(r_i)) for the Euclidean norms r_i of the rows of
    the int64 or object array entries (see charpoly)."""
    wide = entries
    if entries.dtype == np.int64 and len(entries) * int(np.abs(entries).max()) ** 2 >= 1 << 63:
        wide = entries.astype(object)
    bound = 2
    for s in (wide * wide).sum(axis=1).tolist():
        bound *= 1 + (math.isqrt(s - 1) + 1 if s else 0)
    return bound


def _modular_charpoly(entries: np.ndarray, bound: int) -> list[int]:
    """Coefficients of det(xI - M), ascending, for the int64 or object
    array M = entries, by the Hessenberg method modulo each prime of a
    basis whose product exceeds bound, then Garner's CRT into the
    symmetric range.  bound must be at least twice every |coefficient|,
    as _hadamard_bound of M, or of any matrix with M's charpoly, is.

    One prime at a time: M mod p is reduced and its n + 1 coefficients
    are written to one row of the (P, n + 1) residue array before the
    next prime, so memory is O(n^2 + P * n) whatever the basis size P.
    """
    n = len(entries)
    primes, modulus = _prime_basis(n, bound)
    residues = np.empty((len(primes), n + 1), dtype=np.int64)
    for k, p in enumerate(primes):
        h = (entries % p).astype(np.int64, copy=False)
        _hessenberg(h, p)
        residues[k] = _hessenberg_charpoly(h, p)
    return _crt_signed(residues, primes, modulus)


def charpoly(matrix: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M), monic of degree n.

    Hessenberg method (Cohen, *A Course in Computational Algebraic Number
    Theory*, Alg. 2.2.9), first over the integers, then, for whatever the
    integers could not reduce, modulo each prime of a basis.

    Integer stage.  When every |M[i, j]| < 2^62/n, an int64 copy of M is
    reduced column by column to upper Hessenberg form over Z, each column
    cleared by Euclid's algorithm in passes of one integer step each.  It
    stops only before a pass that could take an entry to 2^62/n or more
    (see _integer_hessenberg).  Each pass is an integer similarity with an
    integer inverse, so the reduced matrix H has the charpoly of M,
    exactly.  Wherever a subdiagonal entry among the reduced columns is
    zero, H is block upper triangular, and its charpoly is the product of
    those of its diagonal blocks.

    Exact fold.  Every block that lies wholly inside the reduced columns is
    upper Hessenberg over Z; when the stage reduces every column, so is the
    last one.  Each distinct block, the same order and the same entries,
    runs the Hessenberg recurrence once in Python integers.  The
    recurrence only multiplies and subtracts, so no division and no
    modulus arise.  Its charpoly is raised to the block's multiplicity by
    J. C. P. Miller's recurrence (see _poly_pow), whose divisions are
    asserted exact, and the powers are multiplied with poly_mul.  A strong
    power graph's matrix of Z_n, in the element order the builders use,
    reduces completely, to one 3 x 3 block and n - 3 equal 1 x 1 blocks:
    its minimal polynomial has degree at most 4, and each of its two
    working columns clears in one pass.  So its charpoly never reaches the
    primes.

    Modular stage.  Only the trailing block, from the last cut onward,
    when the integer stage stopped before the end, goes to the primes
    (see _modular_charpoly); so does all of M when it is a matrix of
    Python integers or has entries of 2^62/n or more.  One prime at a
    time, that block B is reduced modulo p to Hessenberg form and the
    recurrence runs on it whole (see _hessenberg_charpoly), in O(b^2 +
    P * b) memory for B's order b and P basis primes, found by is_prime.
    Every basis prime has b * (p-1)^2 < 2^53, so each int64 product of
    two residues, and each dot product of at most b of them, is exact.

    The basis is sized by B's own entries.  B is an integer matrix and
    the CRT recovers B's own charpoly, so Hadamard's bound on B holds,
    however large B's entries grew in the integer stage.  When B is the
    whole reduced matrix, which has M's charpoly, the bound on M holds as
    well, and the smaller of the two is taken: the integer steps can grow
    the rows far beyond M's.  The coefficient c_k of x^(b-k) is (-1)^k
    times the sum of the C(b, k) principal k x k minors.  By Hadamard's
    inequality the minor on rows S is at most the product of the Euclidean
    norms r_i of rows i in S, so |c_k| <= e_k(r_1, ..., r_b) <=
    prod_i (1 + r_i).  With each r_i rounded up to an integer, computed
    exactly as isqrt(s_i - 1) + 1 from the integer s_i = sum_j B[i, j]^2,
    a basis whose product exceeds 2 * prod_i (1 + ceil(r_i)) recovers every
    coefficient exactly by CRT in the symmetric range (see
    _hadamard_bound).  The s_i are summed in int64 when
    b * max|B[i, j]|^2 < 2^63, and in Python integers otherwise.

    Each pivot inverse is asserted, and so are the leading coefficient 1
    and the x^(n-1) coefficient -tr(M).
    """
    n = matrix.n
    entries = matrix.entries
    small = (1 << 62) // n  # the integer stage's int64 limit (see _integer_hessenberg)
    poly = IntPolynomial([1])
    if entries.dtype == np.int64 and -small < entries.min() and entries.max() < small:
        h = entries.copy()
        done = _integer_hessenberg(h)
        cuts = [0, *(np.flatnonzero(np.diagonal(h, offset=-1)[:done] == 0) + 1).tolist()]
        if done == n - 1:
            cuts.append(n)  # every column is reduced: the last block is Hessenberg too
        for block, count in _distinct_blocks(h, cuts):
            power = _poly_pow(_exact_hessenberg_charpoly(block.tolist()), count)
            poly = poly_mul(poly, IntPolynomial(power))
        rest = h[cuts[-1] :, cuts[-1] :]
        if len(rest):
            bound = _hadamard_bound(rest)
            if cuts[-1] == 0:  # rest is all of h, which has M's charpoly
                bound = min(bound, _hadamard_bound(entries))
    else:
        rest = entries.astype(object, copy=False)  # exact Python integers
        bound = _hadamard_bound(rest)
    if len(rest):
        poly = poly_mul(poly, IntPolynomial(_modular_charpoly(rest, bound)))
    trace = sum(np.diagonal(entries).tolist())  # Python integers: no int64 wraparound
    assert poly.degree == n and poly.coeffs[n] == 1, "charpoly is not monic"
    assert poly.coefficient(n - 1) == -trace, "x^(n-1) coefficient is not -tr(M)"
    return poly


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
