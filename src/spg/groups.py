"""Finite groups with elements indexed 0..n-1 and the identity pinned at index 0."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

__all__ = [
    "GroupSpec",
    "CyclicGroup",
    "DirectProductGroup",
    "DihedralGroup",
    "CayleyGroup",
    "CayleyTableError",
    "BadTableShape",
    "NotLatinSquare",
    "MissingIdentity",
    "NotAssociative",
    "totient",
    "is_prime",
    "is_composite",
    "load_cayley_table",
    "validate_cayley_table",
]


class CayleyTableError(ValueError):
    """A multiplication table failed group validation."""


class BadTableShape(CayleyTableError):
    """Table is not n x n or holds entries outside 0..n-1."""


class NotLatinSquare(CayleyTableError):
    """Some row or column repeats an entry."""


class MissingIdentity(CayleyTableError):
    """No element acts as a two-sided identity."""


class NotAssociative(CayleyTableError):
    """The table violates associativity (a witness triple is reported)."""


def _is_positive_int(v) -> bool:
    """v is an int of at least 1, and not a bool."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


class GroupSpec:
    """Base class for finite groups on indices 0..order-1.

    Instances are immutable after construction and all operations are pure,
    so a GroupSpec may be shared freely across threads.  Index 0 is always
    the identity element.
    """

    order: int
    labels: Optional[tuple[str, ...]] = None

    def law(self, a, b):
        """The product a*b of element indices, unchecked.

        a and b are ints or integer numpy arrays of broadcastable shapes; the
        law is integer arithmetic (or a table lookup) that applies
        elementwise, so one definition serves single products and whole
        index arrays alike.  The graph builder passes a 2-D int32 block of
        indices, one row per exponent, and one int32 row that broadcasts
        against it; a law must be exact on such blocks and return indices
        in 0..order-1 of any integer dtype.
        """
        raise NotImplementedError

    def is_cyclic(self) -> bool:
        """True iff some element has order |G|, by the generator test of
        _generators: O(log n) law calls on index arrays of length n, using
        the law alone.  A law that breaks Lagrange's a^n = e is refused
        with a ValueError naming a.

        CyclicGroup, DirectProductGroup and DihedralGroup override this with
        an O(1) answer from their structure.  The overrides stay for two
        measured reasons: with every group routed through the law test, the
        benchmark's spectrum workload read its normalised wall time 10.8 %
        and its median item time 12 % higher (2-vCPU machine), and the
        closed forms of Z_n at n near 10^9 would need arrays of length n.
        """
        return bool(_generators(self).any())

    def cayley_table(self) -> list[list[int]]:
        """Materialise the full multiplication table."""
        i = np.arange(self.order)
        return self.law(i[:, None], i[None, :]).tolist()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(GroupSpec):
    """Z_n with addition modulo n; element k is the residue k."""

    def __init__(self, n: int):
        if not _is_positive_int(n):
            raise ValueError(f"cyclic group order must be a positive integer, got {n!r}")
        self.order = n

    def law(self, a, b):
        return (a + b) % self.order

    def is_cyclic(self) -> bool:
        """True by definition: the residue 1 generates Z_n."""
        return True


class DirectProductGroup(GroupSpec):
    """Direct product of cyclic groups, elements encoded in mixed radix.

    For orders (m_0, ..., m_{r-1}) the tuple (d_0, ..., d_{r-1}) maps to the
    index d_0 * m_1 * ... * m_{r-1} + ... + d_{r-1}.
    """

    def __init__(self, orders: Sequence[int]):
        orders = tuple(orders)
        if not orders or not all(map(_is_positive_int, orders)):
            raise ValueError(f"component orders must be positive integers, got {orders!r}")
        self.orders = orders
        self.order = math.prod(orders)

    def law(self, a, b):
        # add digit by digit, the last factor's digit at place value 1; one
        # divmod per factor splits off each operand's next digit
        out, place = 0, 1
        for m in reversed(self.orders):
            a, da = divmod(a, m)
            b, db = divmod(b, m)
            out = out + (da + db) % m * place
            place *= m
        return out

    def is_cyclic(self) -> bool:
        """True iff lcm(m_0, ..., m_{r-1}) = |G|.  The largest element order
        of a product of cyclic groups is the lcm of the factor orders, which
        is |G| iff they are pairwise coprime (Chinese remainder theorem)."""
        return math.lcm(*self.orders) == self.order


class DihedralGroup(GroupSpec):
    """Dihedral group of order 2m: indices 0..m-1 are rotations r^i,
    indices m..2m-1 are reflections s*r^i."""

    def __init__(self, m: int):
        if not _is_positive_int(m):
            raise ValueError(f"dihedral parameter must be a positive integer, got {m!r}")
        self.m = m
        self.order = 2 * m

    def law(self, a, b):
        # r^i r^j = r^(i+j), r^i s r^j = s r^(j-i), s r^i r^j = s r^(i+j),
        # s r^i s r^j = r^(j-i): the rotation part of b, plus or minus (when b
        # is a reflection) the rotation part of a; reflection flags add mod 2
        m = self.m
        fa, ra = divmod(a, m)
        fb, rb = divmod(b, m)
        return (rb + (1 - 2 * fb) * ra) % m + m * (fa ^ fb)

    def is_cyclic(self) -> bool:
        """True iff m = 1: D_1 is Z_2, and for m >= 2 every element of D_m
        has order at most max(m, 2) < 2m."""
        return self.m == 1


class CayleyGroup(GroupSpec):
    """A group given by an explicit multiplication table, validated here.

    table is a list or tuple of n rows of n ints, as JSON and cayley_table()
    give it; labels, if given, is a list or tuple of n strings.  The table
    is converted and range-checked once, then its axioms are checked once on
    that int64 array (see validate_cayley_table), every error in the
    caller's own indexing; the labels are checked after the table.  If the
    identity sits at e != 0, indices 0 and e are swapped, in the table and
    in the labels, which keeps it a group table with the identity at 0: rows
    0 and e, then columns 0 and e, then the values 0 and e are swapped in
    place.  The law looks products up in the read-only int64 table,
    flattened, by one flat take.

    Every table-sized step runs one block of rows at a time (see
    _row_blocks), so besides the table itself the constructor holds at
    most one n x n boolean array and a few arrays of one block each.
    """

    def __init__(self, table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        t = _table_array(table)
        e = _check_axioms(t)
        n = len(t)
        if labels is not None:
            if not isinstance(labels, (list, tuple)) or [type(x) for x in labels] != [str] * n:
                raise BadTableShape(f"labels must list {n} strings")
            labels = tuple(labels)
        if e != 0:
            # relabel by sigma, the swap of 0 and e: the new table is
            # sigma(t[sigma(i), sigma(j)])
            t[[0, e]] = t[[e, 0]]
            t[:, [0, e]] = t[:, [e, 0]]
            for rows in _row_blocks(n, n):
                block = t[rows]
                zero = block == 0
                block[block == e] = 0
                block[zero] = e
            if labels is not None:
                swapped = list(labels)
                swapped[0], swapped[e] = labels[e], labels[0]
                labels = tuple(swapped)
        t.flags.writeable = False
        self._flat = t.reshape(-1)
        self.order = n
        self.labels = labels

    def law(self, a, b):
        return self._flat.take(np.multiply(a, self.order, dtype=np.intp) + b)


# spg needs primality, the totient and the prime divisors of group orders,
# which the n^2 bytes of a graph bound, and primality of the exact charpoly's
# basis primes, which lie below 2^27.  All three accept 1 <= n < _LIMIT and
# refuse the rest.
# _LIMIT is 3215031751 = 151 * 751 * 28351, the smallest strong pseudoprime
# to the bases 2, 3, 5 and 7 (Jaeschke, Math. Comp. 61, 1993), so the test to
# those four bases is exact below it; trial division there takes at most
# isqrt(_LIMIT) / 2 ~ 28350 steps.
_BASES = (2, 3, 5, 7)
_LIMIT = 3215031751


def _check_domain(n: int, name: str) -> None:
    if not _is_positive_int(n) or n >= _LIMIT:
        raise ValueError(f"{name} requires an integer 1 <= n < {_LIMIT}, got {n!r}")


def is_prime(n: int) -> bool:
    """Primality of 1 <= n < 3215031751: division by 2, 3, 5 and 7, then
    the strong probable-prime test to those four bases, exact below that
    bound.  Other input raises ValueError."""
    _check_domain(n, "is_prime")
    for p in _BASES:
        if n % p == 0:
            return n == p
    if n < 121:  # no prime factor up to 7 left
        return n > 1
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_divisors(n: int, name: str) -> list[int]:
    """The primes dividing 1 <= n < 3215031751, ascending, by trial division
    by 2 and the odd p with p^2 <= the cofactor.  Other input raises the
    ValueError of the function called name."""
    _check_domain(n, name)
    primes, p = [], 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def totient(n: int) -> int:
    """Euler's totient of 1 <= n < 3215031751, n times the product of
    (1 - 1/p) over the primes p | n (see _prime_divisors).  Other input
    raises ValueError."""
    result = n
    for p in _prime_divisors(n, "totient"):
        result -= result // p
    return result


def _generators(g: GroupSpec) -> np.ndarray:
    """The boolean mask of the elements of order n = |G|, from g.law alone.

    Every element is raised at once to n and to n / p for each prime p | n:
    the squarings a^(2^i) are made once, and each exponent multiplies in
    those of its binary digits, so the law is called fewer than
    (omega(n) + 2) * n.bit_length() times, on index arrays of length n.
    The order of a divides n (Lagrange), so a^n = e for a group law, and an
    element with a^n != e is refused with a ValueError naming it.  Then a
    has order n iff a^(n/p) != e for every prime p | n.
    """
    n = g.order
    primes = _prime_divisors(n, "is_cyclic")
    exponents = [n] + [n // p for p in primes]
    powers: list = [None] * len(exponents)
    square = np.arange(n)
    for i in range(n.bit_length()):
        if i:
            square = g.law(square, square)
        for j, k in enumerate(exponents):
            if k >> i & 1:
                powers[j] = square if powers[j] is None else g.law(powers[j], square)
    full, *proper = powers
    if full.any():
        a = int(np.flatnonzero(full)[0])
        raise ValueError(
            f"element {a} has {a}^{n} = {full[a]}, not the identity 0: "
            f"the law is not that of a group of order {n}"
        )
    generators = np.ones(n, dtype=bool)
    for power in proper:
        generators &= power != 0
    return generators


def is_composite(n: int) -> bool:
    """Whether 1 <= n < 3215031751 is composite: at least 4 and not prime
    (is_prime).  Other input raises ValueError."""
    _check_domain(n, "is_composite")
    return n >= 4 and not is_prime(n)


# entries of the table per block of rows (512 KiB of int64): every
# table-sized step of validation and relabelling runs a block at a time, so
# a table of order 256 or less is one block
_BLOCK_ENTRIES = 1 << 16


def _row_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices covering range(count), each of as many rows of the given
    width as fit in _BLOCK_ENTRIES entries, and at least one."""
    step = max(1, _BLOCK_ENTRIES // width)
    return (slice(top, min(top + step, count)) for top in range(0, count, step))


def _raise_bad_entry(rows: Sequence[Sequence], top: int, n: int) -> None:
    """Raise BadTableShape at the first entry of rows, which are the table's
    rows top, top + 1, ..., that is not an int in 0..n-1 (bools excluded);
    return if there is none."""
    for i, row in enumerate(rows, top):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise BadTableShape(f"entry at row {i}, col {j} is {v!r}, expected 0..{n - 1}")


def _table_array(table: Sequence[Sequence[int]]) -> np.ndarray:
    """The list or tuple of rows table as a new n x n int64 array, with
    shape and integrality checked.

    Rows are checked in file order, each row's type and length before its
    entries, so the error names the first offending row or the lowest
    offending `row i, col j`.
    The entries are converted one block of rows at a time (see _row_blocks)
    into the preallocated array; only when a block's conversion or range
    check fails are its entries scanned one by one to find the offender.
    """
    if not isinstance(table, (list, tuple)):
        raise BadTableShape(f"table is {type(table).__name__}, expected a list of rows")
    n = len(table)
    if n == 0:
        raise BadTableShape("table is empty")
    bad_row, fault = n, None
    for i, row in enumerate(table):
        if not isinstance(row, (list, tuple)):
            fault = f"row {i} is {type(row).__name__}, expected a list of {n} entries"
        elif len(row) != n:
            fault = f"row {i} has length {len(row)}, expected {n}"
        if fault:
            bad_row = i
            break
    t = np.empty((bad_row, n), dtype=np.int64)
    for rows in _row_blocks(bad_row, n):
        lines, block = table[rows], t[rows]
        exact = set(map(type, itertools.chain.from_iterable(lines))) <= {int}
        if exact:
            try:
                block[...] = lines
            except OverflowError:
                exact = False
        if not exact or block.min() < 0 or block.max() >= n:
            _raise_bad_entry(lines, rows.start, n)
            block[...] = lines  # int subclasses other than bool
    if fault is not None:
        raise BadTableShape(fault)
    return t


def _first_repeat(line: np.ndarray) -> tuple[int, int, int]:
    """(v, k, j) for the first position j whose entry v already sat at k < j."""
    seen: dict[int, int] = {}
    for j, v in enumerate(line.tolist()):
        if v in seen:
            return v, seen[v], j
        seen[v] = j
    raise AssertionError("line has no repeated entry")


def _raise_associativity_witness(t: np.ndarray) -> None:
    """Raise NotAssociative at the lowest triple (a, b, c) with
    (a*b)*c != a*(b*c).  First factors a are scanned in order, and for each
    the second factors b one block of rows at a time (see _row_blocks), so
    that no array larger than a block is made:
    t.take(t[a, b], axis=0)[c] = (a*b)*c and t[a].take(t[b])[c] = a*(b*c)."""
    n = len(t)
    for a in range(n):
        for rows in _row_blocks(n, n):
            mismatch = t.take(t[a, rows], axis=0) != t[a].take(t[rows])
            if mismatch.any():
                i, c = divmod(int(np.argmax(mismatch)), n)
                b = rows.start + i
                raise NotAssociative(
                    f"associativity fails at ({a}, {b}, {c}): "
                    f"({a}*{b})*{c} = {t[t[a, b], c]} but {a}*({b}*{c}) = {t[a, t[b, c]]}"
                )
    raise AssertionError("Light's test failed but no triple violates associativity")


def validate_cayley_table(table: Sequence[Sequence[int]]) -> int:
    """Check the group axioms on a multiplication table.

    table is a list or tuple of n rows of n ints, as for CayleyGroup.
    Returns the index of the identity element.
    Raises a CayleyTableError subclass naming the failed axiom, with
    row/column coordinates where applicable, in this order:

    - BadTableShape: a table that is not a list or tuple (a numpy array
      included), the first row that is not a list or tuple of length n, or
      the lowest entry before it that is not an int in 0..n-1.  Closure is
      then structural (entries are indices).
    - NotLatinSquare: the first row, else the first column, that repeats an
      entry, at the first entry repeated in it.  The pairs (row, entry) are
      marked in one n x n boolean array, and a row is a permutation iff its
      n marks are all set; then the array is cleared and the pairs
      (column, entry) are marked the same way; nothing is sorted.
    - MissingIdentity: no e has row e and column e both equal to 0..n-1.
      Column 0 of a Latin square holds 0 in one row only, and e*0 = 0, so
      that row is the one candidate.
    - NotAssociative: the lowest witness (a, b, c).

    Associativity is settled by Light's test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, 1961, section 1.2).  Let M be the set
    of b with (x*b)*y = x*(b*y) for all x, y; checking one b is O(n^2).  M
    holds the identity, and it is closed under products: for b1, b2 in M,

        (x*(b1*b2))*y = ((x*b1)*b2)*y = (x*b1)*(b2*y)
                      = x*(b1*(b2*y)) = x*((b1*b2)*y).

    So the reached set R, seeded with the identity, is checked one element
    at a time: the smallest g outside R is checked and added, and R is
    closed under products (each round squares the word length) until it
    stops growing or holds everything.  R stays inside M, and the table is
    associative once R is everything.  For a group each new g at least doubles the subgroup R
    (Lagrange), so at most log2(n) elements are checked; any other table
    takes at most n checks.  Only when a check fails is every first factor
    scanned, to report the lowest witness.

    Inverses need no check.  Row a of a Latin square holds the identity e,
    say a*b = e, and column a holds it too, say c*a = e; then associativity
    gives c = c*(a*b) = (c*a)*b = b, a two-sided inverse.

    Every table-sized step, the conversion included, runs one block of
    rows of about 2^16 entries at a time (see _row_blocks), each gather a
    flat or axis take.  So above the n x n int64 table, validation holds one
    n x n boolean array or a few arrays of one block each, whether it
    accepts or raises: at order 2000, 4.4 MiB above the table's 30.5 MiB
    under tracemalloc.

    CayleyGroup runs the same two passes, conversion and axioms, once each.
    """
    return _check_axioms(_table_array(table))


def _check_axioms(t: np.ndarray) -> int:
    """The identity of the n x n int64 table t of entries in 0..n-1, after
    the Latin, identity and associativity checks of validate_cayley_table.

    Each step reads t one block of rows at a time (see _row_blocks): the
    marks of the Latin check take one n x n boolean array, and Light's test
    and its closure gather one block at a time, so the check holds at most
    that array and a few arrays of one block above t, and so does
    _raise_associativity_witness on failure."""
    n = len(t)
    idx = np.arange(n)
    seen = np.zeros((n, n), dtype=bool)
    marks = seen.reshape(-1)
    for rows in _row_blocks(n, n):
        marks[t[rows] + idx[rows, None] * n] = True  # the pairs (row, entry)
    bad_rows = ~seen.all(axis=1)
    if bad_rows.any():
        i = int(np.argmax(bad_rows))
        v, k, j = _first_repeat(t[i])
        raise NotLatinSquare(
            f"not a Latin square: row {i} repeats entry {v} at columns {k} and {j}"
        )
    seen[...] = False
    for rows in _row_blocks(n, n):
        marks[t[rows].T + idx[:, None] * n] = True  # the pairs (column, entry)
    bad_cols = ~seen.all(axis=1)
    if bad_cols.any():
        j = int(np.argmax(bad_cols))
        v, k, i = _first_repeat(t[:, j])
        raise NotLatinSquare(
            f"not a Latin square: column {j} repeats entry {v} at rows {k} and {i}"
        )
    del seen, marks

    e = int(np.argmin(t[:, 0]))  # column 0 is a permutation: the row of its 0
    if not ((t[e] == idx).all() and (t[:, e] == idx).all()):
        raise MissingIdentity("no element acts as a two-sided identity")

    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    while not reached.all():
        g = int(np.argmin(reached))
        for rows in _row_blocks(n, n):
            # (x*g)*y against x*(g*y) for the x of the block and every y
            if not np.array_equal(t.take(t[rows, g], axis=0), t[rows].take(t[g], axis=1)):
                _raise_associativity_witness(t)
        reached[g] = True
        members = np.flatnonzero(reached)
        while members.size < n:
            for rows in _row_blocks(members.size, n):
                reached[t.take(members[rows], axis=0).take(members, axis=1)] = True
            grown = np.flatnonzero(reached)
            if grown.size == members.size:
                break
            members = grown
    return e


def load_cayley_table(document: dict) -> CayleyGroup:
    """Build a CayleyGroup from a parsed JSON document.

    Expected shape: {"order": n, "table": [[int; n]; n], "labels": [str; n]?}.
    Only the document is checked here: an object with both keys, a positive
    integer order, and that many rows.  CayleyGroup then checks the rows,
    their entries, the axioms and the labels, in the file's own indexing,
    and moves the identity to index 0.
    """
    if not isinstance(document, dict):
        raise BadTableShape(f"expected a JSON object, got {type(document).__name__}")
    try:
        order = document["order"]
        table = document["table"]
    except KeyError as missing:
        raise BadTableShape(f"missing required key {missing}") from None
    if not _is_positive_int(order):
        raise BadTableShape(f"order must be a positive integer, got {order!r}")
    if not isinstance(table, (list, tuple)) or len(table) != order:
        got = len(table) if isinstance(table, (list, tuple)) else type(table).__name__
        raise BadTableShape(f"table must have {order} rows, got {got}")
    return CayleyGroup(table, document.get("labels"))
