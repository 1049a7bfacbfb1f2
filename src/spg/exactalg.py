"""Exact integer linear algebra: matrices, dense polynomials, characteristic
polynomials as factor lists, their comparison on a coprime basis, and the
closed-form polynomials they are checked against.  The tiled symmetry check
that the graph constructor and the eigenvalue oracle share lives here too.

Everything here is exact: matrices hold signed integer arrays of at most
64 bits, widened to int64 before any arithmetic; polynomials hold Python
integers; and every division performed by an algorithm is asserted to leave
no remainder.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from .groups import GroupSpec, _is_positive_int, is_composite, is_prime, totient

__all__ = [
    "IntMatrix",
    "IntPolynomial",
    "NoClosedForm",
    "InexactDivision",
    "IntegerGrowth",
    "first_asymmetry",
    "expand",
    "charpoly",
    "charpoly_factors",
    "same_product",
    "distance_cubic",
    "adjacency_cubic",
    "distance_charpoly_formula",
    "adjacency_charpoly_formula",
    "prime_adjacency_charpoly",
    "distance_formula_factors",
    "adjacency_formula_factors",
    "prime_adjacency_factors",
    "complete_graph_factors",
    "closed_form",
]

class NoClosedForm(ValueError):
    """The paper gives no closed form here: the distance form of a cyclic
    order that is not composite (the graph is disconnected or a single
    vertex), the adjacency form of order 1, or the prime corollary of an
    order that is not prime."""


class InexactDivision(ArithmeticError):
    """A polynomial division expected to be exact was not."""


class IntegerGrowth(ArithmeticError):
    """The integer stage of charpoly_factors stopped before its last column:
    its next pass could take an entry to 2^62/n or more.  The message names
    the column, n and that bound."""


class IntMatrix:
    """Immutable square integer matrix, held as one read-only n x n signed
    integer array `entries` of at most 64 bits.

    A square 2-D ndarray of a signed integer dtype (int8 to int64) is copied
    as it is, dtype and all: its dtype already proves every entry an
    integer.  Any other input must be a list or tuple of n rows, each a list
    or tuple of n entries, and is checked entry by entry and becomes int64;
    any other 2-D ndarray (unsigned, bool, float or object) is read with
    tolist(), so each entry is checked as the Python value it holds.  An
    array of another shape, a row that is not a list or tuple, or a row of
    another length raises ValueError naming the shape or the row.  An
    entry that is not an int (a float, NaN or bool), or an int beyond
    int64, raises ValueError naming its (i, j).  Equality and
    the hash follow the values, not the dtype.  Arithmetic widens first: an
    int8 or int16 array cannot hold the products and sums the integer stage
    makes.
    """

    __slots__ = ("entries", "n")

    def __init__(self, rows: Union[Sequence[Sequence[int]], np.ndarray]):
        if (
            isinstance(rows, np.ndarray)
            and rows.dtype.kind == "i"
            and rows.ndim == 2
            and rows.shape[0] == rows.shape[1]
        ):
            entries = rows.copy()
        else:
            if isinstance(rows, np.ndarray):
                if rows.ndim != 2:
                    raise ValueError(f"array has shape {rows.shape}, expected (n, n)")
                rows = rows.tolist()
            if not isinstance(rows, (list, tuple)):
                raise ValueError(f"matrix is {type(rows).__name__}, expected a list of rows")
            n = len(rows)
            for i, row in enumerate(rows):
                if not isinstance(row, (list, tuple)):
                    raise ValueError(f"row {i} is {row!r}, expected a list of {n} entries")
                if len(row) != n:
                    raise ValueError(f"row {i} has length {len(row)}, expected {n}")
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise ValueError(f"entry ({i}, {j}) is {v!r}, expected an integer")
            try:
                entries = np.array(rows, dtype=np.int64)
            except OverflowError:  # scan only to name the offender
                i, j = next(
                    (i, j)
                    for i, row in enumerate(rows)
                    for j, v in enumerate(row)
                    if not -(1 << 63) <= v < 1 << 63
                )
                raise ValueError(f"entry ({i}, {j}) is {rows[i][j]}, beyond int64") from None
        if not entries.size:
            raise ValueError("matrix must have at least one row")
        entries.flags.writeable = False
        self.entries = entries
        self.n = len(entries)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntMatrix) and bool(np.array_equal(self.entries, other.entries))

    def __hash__(self) -> int:
        # hashed over int64 values, so equal matrices of different dtypes
        # hash equal
        return hash(self.entries.astype(np.int64, copy=False).tobytes())

    def __repr__(self) -> str:
        return f"IntMatrix(n={self.n})"


# rows and columns per tile of first_asymmetry for items of 1 or 2 bytes;
# wider items take half as many, which keeps two tiles within 256 KiB
_SYMMETRY_TILE = 256


def first_asymmetry(x: np.ndarray) -> Optional[tuple[int, int]]:
    """The lowest pair (u, v) in row-major order with x[u, v] != x[v, u],
    or None when the square array x equals its transpose.

    The mismatch pattern is symmetric, so that pair has u < v.  Each tile
    x[i:i+b, j:j+b] with j >= i is compared with x[j:j+b, i:i+b].T, for
    b = _SYMMETRY_TILE, or half of it when an item is wider than 2 bytes: a
    whole-array compare against x.T reads one operand a whole row apart per
    element, a tile only a tile's row apart.  An array of order at most b is
    one tile, compared whole.
    """
    b = _SYMMETRY_TILE if x.itemsize <= 2 else _SYMMETRY_TILE // 2
    n = len(x)
    for i in range(0, n, b):
        pairs = []
        for j in range(i, n, b):
            mismatch = x[i : i + b, j : j + b] != x[j : j + b, i : i + b].T
            if mismatch.any():
                u, v = np.argwhere(mismatch)[0].tolist()
                pairs.append((i + u, j + v))
        if pairs:
            return min(pairs)
    return None


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


# --- characteristic polynomial ------------------------------------------------

_ROW_UPDATE_LIMIT = 1 << 16  # int64 entries per block of an integer Hessenberg row update


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
    assert h.dtype == np.int64, "the integer stage works on an int64 array"
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
        mag = np.abs(col).view(np.uint64)  # |x| of every int64, -2^63 included
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
    Python integers.

    The charpoly q_m of the leading m x m block obeys
    q_m = (x - h[m-1,m-1]) q_{m-1} - sum_{i<m-1} h[i,m-1] t_i q_i, where
    t_i = h[i+1,i] h[i+2,i+1] ... h[m-1,m-2] is carried as a running list.
    It multiplies and subtracts only, so it is exact over Z."""
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


def charpoly_factors(matrix: IntMatrix) -> list[tuple[IntPolynomial, int]]:
    """The characteristic polynomial det(xI - M) as monic factors with
    multiplicities, [(f_1, m_1), ...], whose product f_1^m_1 f_2^m_2 ...
    is it: the charpolys of the distinct diagonal blocks the integer stage
    splits M into.  The factors are neither coprime nor squarefree (see
    same_product).  Any argument but an IntMatrix goes through IntMatrix
    first, whose ValueError names a non-integer entry or one beyond int64.

    Hessenberg method over the integers (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.2.9).  An int64 copy of M, whatever
    M's integer dtype, is reduced column by column to upper Hessenberg form
    over Z, each column cleared by Euclid's algorithm in passes of one
    integer step each (see _integer_hessenberg).  Each pass is an integer
    similarity with an integer inverse, so the reduced matrix H has the
    charpoly of M, exactly.  Before each pass the stage checks that the
    pass keeps every entry below 2^62/n; where it cannot, the stage stops,
    and IntegerGrowth names the column.  A matrix that needs no pass (n <= 2,
    or M already upper Hessenberg) finishes whatever its entries.  Strong
    power graphs' matrices, K_n's or Z_n's in some element order, finish in
    every case tested, relabelled Z_2048 included.  Random dense matrices
    do stop it: with entries in -9..9, about a third of them at order 6,
    and all from order 7 on.

    Wherever a subdiagonal entry of H is zero, H is block upper
    triangular, and its charpoly is the product of those of its diagonal
    blocks, each upper Hessenberg over Z.  One pass over the cuts, in
    Python, sorts the blocks: a 1 x 1 block [v] is the factor x - v,
    counted by v, and these unit factors come first in the list, in
    ascending v.  Each distinct larger block, the same order and the same
    entries, follows in the order it first appears, and runs the
    Hessenberg recurrence once in Python integers (see
    _exact_hessenberg_charpoly), which only multiplies and subtracts.  Z_n's
    matrices in the builders' element order reduce to one 3 x 3 block and
    n - 3 equal 1 x 1 blocks.

    Every factor is asserted monic, and so are these: sum m * deg f = n,
    and sum m * [x^(deg f - 1)] f = -tr(M), the x^(n-1) coefficient of the
    product.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    n = matrix.n
    h = matrix.entries.astype(np.int64)  # the one int64 working copy, whatever M's dtype
    done = _integer_hessenberg(h)
    if done < n - 1:
        raise IntegerGrowth(
            f"the integer stage stopped at column {done} of n = {n}: its next pass "
            f"could take an entry to 2^62/n = {(1 << 62) // n} or more"
        )
    cuts = [0, *(np.flatnonzero(np.diagonal(h, offset=-1) == 0) + 1).tolist(), n]
    diagonal = np.diagonal(h).tolist()
    units: dict[int, int] = {}
    blocks: dict[tuple[int, bytes], list] = {}
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo == 1:
            units[diagonal[lo]] = units.get(diagonal[lo], 0) + 1
        else:
            block = h[lo:hi, lo:hi]
            blocks.setdefault((hi - lo, block.tobytes()), [block, 0])[1] += 1
    factors = [(IntPolynomial([-v, 1]), m) for v, m in sorted(units.items())]
    for block, m in blocks.values():
        factors.append((IntPolynomial(_exact_hessenberg_charpoly(block.tolist())), m))
    trace = sum(np.diagonal(matrix.entries).tolist())  # Python integers: no int64 wraparound
    assert all(f.is_monic() for f, _ in factors), "a block charpoly is not monic"
    assert sum(m * f.degree for f, m in factors) == n, "block orders do not sum to n"
    assert sum(m * f.coefficient(f.degree - 1) for f, m in factors) == -trace, (
        "x^(n-1) coefficient is not -tr(M)"
    )
    return factors


def expand(factors: Sequence[tuple[IntPolynomial, int]]) -> IntPolynomial:
    """The product f_1^m_1 f_2^m_2 ... of a factor list, multiplied out: the
    powers of positive multiplicity by Miller's recurrence (see _poly_pow)
    and poly_mul, then divided -m times by each factor of multiplicity
    m < 0, which must be monic (ValueError otherwise).  A division that
    leaves a remainder raises InexactDivision."""
    poly = IntPolynomial([1])
    for factor, m in factors:
        if m > 0:  # _poly_pow needs a nonzero factor; a power of zero is zero
            power = _poly_pow(list(factor.coeffs), m) if factor.coeffs else []
            poly = poly_mul(poly, IntPolynomial(power))
    for factor, m in factors:
        if m < 0 and not factor.is_monic():
            raise ValueError(f"factor {factor} of multiplicity {m} is not monic")
        for _ in range(-m):
            quotient, remainder = _divide_monic(poly.coeffs, factor.coeffs)
            if any(remainder):
                raise InexactDivision(f"({factor}) does not divide {poly}")
            poly = IntPolynomial(quotient)
    return poly


def charpoly(matrix: IntMatrix) -> IntPolynomial:
    """Exact characteristic polynomial det(xI - M), monic of degree n: the
    product of charpoly_factors(M), expanded."""
    return expand(charpoly_factors(matrix))


# --- comparison of factored polynomials ---------------------------------------


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, the sign taken so the leading coefficient
    is positive; each division is asserted exact."""
    content = math.gcd(*a)
    if a[-1] < 0:
        content = -content
    out = []
    for c in a:
        quotient, remainder = divmod(c, content)
        assert not remainder, "inexact content division"
        out.append(quotient)
    return out


def _pseudo_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A remainder of a by b over Z, up to a factor lc(b)^k (Knuth, TAOCP
    Vol. 2, Sec. 4.6.1): each step scales a by lc(b) and cancels its
    leading term, so no division arises.  The result, with trailing zeros
    stripped, has degree below b's."""
    r = list(a)
    lead, db = b[-1], len(b) - 1
    while len(r) > db:
        top, shift = r[-1], len(r) - 1 - db
        if lead != 1:
            r = [lead * c for c in r]
        for i, c in enumerate(b):
            r[shift + i] -= top * c
        while r and r[-1] == 0:
            r.pop()
    return r


def _divide_monic(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """The quotient and remainder of a by the monic b, coefficients
    ascending; the remainder has b's degree, zeros included."""
    r = list(a)
    db = len(b) - 1
    quotient = [0] * max(len(a) - db, 0)
    for k in range(len(quotient) - 1, -1, -1):
        top = quotient[k] = r[k + db]
        if top:
            for i, c in enumerate(b):
                r[k + i] -= top * c
    return quotient, r[:db]


def _divide_exactly(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The quotient a / b for monic b, asserted to leave no remainder."""
    quotient, remainder = _divide_monic(a, b)
    assert not any(remainder), "inexact polynomial division"
    return tuple(quotient)


def _gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The monic gcd of two monic polynomials over Z, by the primitive
    pseudo-remainder sequence: each remainder divided by its content.  A
    primitive divisor of a monic polynomial has leading coefficient +-1
    (Gauss's lemma), and the last nonzero remainder, made primitive with a
    positive lead, is asserted monic."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_remainder(a, b)
        a, b = b, (_primitive(r) if r else r)
    assert a[-1] == 1, "gcd of monic polynomials is not monic up to sign"
    return tuple(a)


def same_product(
    a: Sequence[tuple[IntPolynomial, int]], b: Sequence[tuple[IntPolynomial, int]]
) -> bool:
    """Whether two lists of monic factors with integer multiplicities,
    [(f, m), ...], have the same product f_1^m_1 f_2^m_2 ...; a negative
    multiplicity divides by its factor.

    No product is expanded.  The factors of both lists are refined into one
    basis of pairwise coprime monic polynomials, each carrying its exponent
    in a and in b (Bach, Driscoll & Shallit, *Factor refinement*, J.
    Algorithms 15, 1993).  A factor equal to a basis element adds its
    exponent to it.  Otherwise, where it meets a basis element g with
    d = gcd(f, g) of positive degree, g is replaced by d, g / d and f / d,
    d taking both exponents summed, and each of the three is placed again;
    the total degree falls at every split, so the refinement ends.  Over a
    coprime basis the two products agree exactly when their exponent
    vectors do.  gcds are primitive pseudo-remainder sequences in Z[x] (see
    _gcd); every content division and every quotient is asserted exact.
    """
    for f, _ in (*a, *b):
        if not f.is_monic():
            raise ValueError(f"factor {f} is not monic")
    work = [(f.coeffs, m, 0) for f, m in a] + [(f.coeffs, 0, m) for f, m in b]
    basis: dict[tuple[int, ...], list[int]] = {}  # element -> [exponent in a, in b]
    while work:
        f, ea, eb = work.pop()
        if len(f) == 1:
            continue  # the constant 1
        if f in basis:
            basis[f][0] += ea
            basis[f][1] += eb
            continue
        for g in basis:
            d = _gcd(f, g)
            if len(d) > 1:
                ga, gb = basis.pop(g)
                work += [(d, ea + ga, eb + gb), (_divide_exactly(g, d), ga, gb),
                         (_divide_exactly(f, d), ea, eb)]
                break
        else:
            basis[f] = [ea, eb]
    return all(ea == eb for ea, eb in basis.values())


# --- closed-form polynomials ---------------------------------------------------
#
# Each of the paper's closed forms is written once, as a factor list: Z_n's
# (x+1)^(n-3) times a cubic, the prime corollary x(x+1)^(p-2)(x+2-p), and
# K_n's (x-n+1)(x+1)^(n-1), which every noncyclic group has.  closed_form
# alone picks the list for a group and a matrix.  verify and spg charpoly
# compare it with same_product, the charpoly formulas are the lists' expand,
# and the closed-form spectra in spg.spectra are their roots.


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


def distance_formula_factors(n: int) -> list[tuple[IntPolynomial, int]]:
    """The closed form of the distance characteristic polynomial of the
    strong power graph of Z_n as factors, [(x+1, n-3), (distance_cubic(n),
    1)], for composite n >= 4."""
    if not _is_positive_int(n):
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if not is_composite(n):
        raise NoClosedForm(f"the distance closed form needs a composite order >= 4, got {n}")
    return [(IntPolynomial([1, 1]), n - 3), (distance_cubic(n), 1)]


def adjacency_formula_factors(n: int) -> list[tuple[IntPolynomial, int]]:
    """The closed form of the adjacency characteristic polynomial of the
    strong power graph of Z_n as factors, [(x+1, n-3), (adjacency_cubic(n),
    1)], for any order n >= 2.  At n = 2 the exponent is -1 (see
    adjacency_charpoly_formula)."""
    if not _is_positive_int(n):
        raise ValueError(f"order must be a positive integer, got {n!r}")
    if n == 1:
        raise NoClosedForm("the adjacency closed form does not cover order 1")
    return [(IntPolynomial([1, 1]), n - 3), (adjacency_cubic(n), 1)]


def prime_adjacency_factors(p: int) -> list[tuple[IntPolynomial, int]]:
    """The adjacency characteristic polynomial for prime order p as
    factors, [(x, 1), (x+1, p-2), (x+2-p, 1)]."""
    if not is_prime(p):
        raise NoClosedForm(f"expected a prime order, got {p}")
    return [(IntPolynomial([0, 1]), 1), (IntPolynomial([1, 1]), p - 2), (IntPolynomial([2 - p, 1]), 1)]


def complete_graph_factors(n: int) -> list[tuple[IntPolynomial, int]]:
    """The characteristic polynomial of K_n, the strong power graph of every
    noncyclic group of order n, as factors, [(x-n+1, 1), (x+1, n-1)]: its
    adjacency and distance matrices are both J - I."""
    if not _is_positive_int(n):
        raise ValueError(f"order must be a positive integer, got {n!r}")
    return [(IntPolynomial([1 - n, 1]), 1), (IntPolynomial([1, 1]), n - 1)]


def closed_form(
    group: GroupSpec, matrix: str
) -> tuple[list[tuple[IntPolynomial, int]], str]:
    """The paper's closed form of the characteristic polynomial of group's
    strong power graph, for its "adjacency" or "distance" matrix, as a
    factor list, and the name of the form (the spectra's `source`).

    A noncyclic group has K_n's, for both matrices; a cyclic prime order
    has the adjacency corollary x(x+1)^(p-2)(x+2-p); any other cyclic order
    has (x+1)^(n-3) times the matrix's cubic.  The distance form of a cyclic
    order that is not composite, and the adjacency form of order 1, raise
    NoClosedForm.
    """
    if matrix not in ("adjacency", "distance"):
        raise ValueError(f"matrix must be adjacency or distance, got {matrix!r}")
    n = group.order
    if not group.is_cyclic():
        return complete_graph_factors(n), f"{matrix}-complete"
    if matrix == "distance":
        return distance_formula_factors(n), "distance-cyclic-composite"
    if is_prime(n):
        return prime_adjacency_factors(n), "adjacency-prime"
    return adjacency_formula_factors(n), "adjacency-cyclic-composite"


def distance_charpoly_formula(n: int) -> IntPolynomial:
    """distance_formula_factors(n), expanded: for composite n >= 4,
    (x+1)^(n-3) times distance_cubic(n)."""
    return expand(distance_formula_factors(n))


def adjacency_charpoly_formula(n: int) -> IntPolynomial:
    """adjacency_formula_factors(n), expanded: for n >= 2, (x+1)^(n-3)
    times adjacency_cubic(n).  At n = 2, (x+1) divides the cubic exactly,
    leaving x^2, the edgeless two-vertex graph's charpoly.  Order 1, whose
    charpoly x the formula does not give, is rejected."""
    return expand(adjacency_formula_factors(n))


def prime_adjacency_charpoly(p: int) -> IntPolynomial:
    """prime_adjacency_factors(p), expanded: x(x+1)^(p-2)(x+2-p)."""
    return expand(prime_adjacency_factors(p))
