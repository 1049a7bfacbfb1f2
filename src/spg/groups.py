"""Finite groups with elements indexed 0..n-1 and the identity pinned at index 0."""

from __future__ import annotations

import math
from typing import Optional, Sequence

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
    "MissingInverse",
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


class MissingInverse(CayleyTableError):
    """Some element has no two-sided inverse."""


class GroupSpec:
    """Base class for finite groups on indices 0..order-1.

    Instances are immutable after construction and all operations are pure,
    so a GroupSpec may be shared freely across threads.  Index 0 is always
    the identity element.
    """

    kind: str
    order: int
    labels: Optional[tuple[str, ...]] = None

    def op(self, a: int, b: int) -> int:
        raise NotImplementedError

    def _check(self, a: int) -> None:
        if not isinstance(a, int) or isinstance(a, bool) or not 0 <= a < self.order:
            raise IndexError(
                f"element index {a!r} out of range for group of order {self.order}"
            )

    def power(self, a: int, k: int) -> int:
        """a composed with itself k times; k = 0 yields the identity."""
        self._check(a)
        if k < 0:
            raise ValueError("exponent must be nonnegative")
        result, base = 0, a
        while k:
            if k & 1:
                result = self.op(result, base)
            base = self.op(base, base)
            k >>= 1
        return result

    def element_order(self, a: int) -> int:
        """Smallest k >= 1 with a^k = identity, found by plain iteration."""
        self._check(a)
        current, k = a, 1
        while current != 0:
            current = self.op(current, a)
            k += 1
            if k > self.order:
                raise RuntimeError(f"element {a} never reached the identity")
        return k

    def is_cyclic(self) -> bool:
        """True iff some element has order |G|."""
        return any(self.element_order(a) == self.order for a in range(self.order))

    def elements(self) -> range:
        return range(self.order)

    def cayley_table(self) -> list[list[int]]:
        """Materialise the full multiplication table."""
        n = self.order
        return [[self.op(a, b) for b in range(n)] for a in range(n)]

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(order={self.order})"


class CyclicGroup(GroupSpec):
    """Z_n with addition modulo n; element k is the residue k."""

    kind = "cyclic"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"cyclic group order must be a positive integer, got {n!r}")
        self.order = n

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return (a + b) % self.order

    def is_cyclic(self) -> bool:
        return True


class DirectProductGroup(GroupSpec):
    """Direct product of cyclic groups, elements encoded in mixed radix.

    For orders (m_0, ..., m_{r-1}) the tuple (d_0, ..., d_{r-1}) maps to the
    index d_0 * m_1 * ... * m_{r-1} + ... + d_{r-1}.
    """

    kind = "product"

    def __init__(self, orders: Sequence[int]):
        orders = tuple(int(m) for m in orders)
        if not orders or any(m < 1 for m in orders):
            raise ValueError(f"component orders must be positive integers, got {orders!r}")
        self.orders = orders
        self.order = math.prod(orders)

    def to_tuple(self, a: int) -> tuple[int, ...]:
        self._check(a)
        digits = []
        for m in reversed(self.orders):
            a, d = divmod(a, m)
            digits.append(d)
        return tuple(reversed(digits))

    def from_tuple(self, digits: Sequence[int]) -> int:
        index = 0
        for d, m in zip(digits, self.orders):
            index = index * m + d
        return index

    def op(self, a: int, b: int) -> int:
        ta, tb = self.to_tuple(a), self.to_tuple(b)
        return self.from_tuple([(x + y) % m for x, y, m in zip(ta, tb, self.orders)])

    def is_cyclic(self) -> bool:
        """True iff the factor orders are pairwise coprime (Chinese remainder theorem)."""
        return math.lcm(*self.orders) == self.order


class DihedralGroup(GroupSpec):
    """Dihedral group of order 2m: indices 0..m-1 are rotations r^i,
    indices m..2m-1 are reflections s*r^i."""

    kind = "dihedral"

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"dihedral parameter must be a positive integer, got {m!r}")
        self.m = m
        self.order = 2 * m

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        m = self.m
        ra, rb = a % m, b % m
        fa, fb = a >= m, b >= m
        if not fa and not fb:          # r^i * r^j
            return (ra + rb) % m
        if not fa and fb:              # r^i * s r^j = s r^(j-i)
            return m + (rb - ra) % m
        if fa and not fb:              # s r^i * r^j = s r^(i+j)
            return m + (ra + rb) % m
        return (rb - ra) % m           # s r^i * s r^j = r^(j-i)

    def is_cyclic(self) -> bool:
        """True iff m = 1: D_1 is Z_2, and for m >= 2 every element of D_m
        has order at most max(m, 2) < 2m."""
        return self.m == 1


class CayleyGroup(GroupSpec):
    """A group given by an explicit validated multiplication table."""

    kind = "cayley"

    def __init__(self, table: Sequence[Sequence[int]], labels: Optional[Sequence[str]] = None):
        rows = tuple(tuple(row) for row in table)
        e = validate_cayley_table(rows)
        if e != 0:
            raise MissingIdentity(f"identity must sit at index 0, found it at {e}")
        self.table = rows
        self.order = len(rows)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.order:
            raise BadTableShape(
                f"got {len(self.labels)} labels for a table of order {self.order}"
            )

    @classmethod
    def _from_validated(
        cls, rows: tuple[tuple[int, ...], ...], labels: Optional[tuple[str, ...]]
    ) -> "CayleyGroup":
        """Wrap a table that already passed validation with its identity at 0."""
        group = cls.__new__(cls)
        group.table, group.order, group.labels = rows, len(rows), labels
        return group

    def op(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.table[a][b]


def totient(n: int) -> int:
    """Euler's totient, via trial-division factorisation of n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"totient requires a positive integer, got {n!r}")
    result, remaining, p = n, n, 2
    while p * p <= remaining:
        if remaining % p == 0:
            result -= result // p
            while remaining % p == 0:
                remaining //= p
        p += 1 if p == 2 else 2
    if remaining > 1:
        result -= result // remaining
    return result


def is_prime(n: int) -> bool:
    """Trial-division primality test."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"is_prime requires a positive integer, got {n!r}")
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    p = 3
    while p * p <= n:
        if n % p == 0:
            return False
        p += 2
    return True


def is_composite(n: int) -> bool:
    return n >= 4 and not is_prime(n)


def _find_identity(rows: tuple[tuple[int, ...], ...]) -> int:
    n = len(rows)
    for e in range(n):
        if all(rows[e][a] == a and rows[a][e] == a for a in range(n)):
            return e
    raise MissingIdentity("no element acts as a two-sided identity")


def validate_cayley_table(table: Sequence[Sequence[int]]) -> int:
    """Check the group axioms on a multiplication table.

    Closure is structural (entries are indices).  Returns the index of the
    identity element.  Raises a CayleyTableError subclass naming the failed
    axiom, with row/column coordinates where applicable.
    """
    rows = tuple(tuple(row) for row in table)
    n = len(rows)
    if n == 0:
        raise BadTableShape("table is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadTableShape(f"row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise BadTableShape(f"entry at row {i}, col {j} is {v!r}, expected 0..{n - 1}")
    for i, row in enumerate(rows):
        seen: dict[int, int] = {}
        for j, v in enumerate(row):
            if v in seen:
                raise NotLatinSquare(
                    f"not a Latin square: row {i} repeats entry {v} at columns {seen[v]} and {j}"
                )
            seen[v] = j
    for j in range(n):
        seen = {}
        for i in range(n):
            v = rows[i][j]
            if v in seen:
                raise NotLatinSquare(
                    f"not a Latin square: column {j} repeats entry {v} at rows {seen[v]} and {i}"
                )
            seen[v] = i

    e = _find_identity(rows)

    # associativity one first factor a at a time, so memory stays O(n^2):
    # t[t[a]][b, c] = (a*b)*c and t[a][t][b, c] = a*(b*c)
    t = np.array(rows, dtype=np.int64)
    for a in range(n):
        mismatch = t[t[a]] != t[a][t]
        if mismatch.any():
            b, c = (int(x[0]) for x in np.nonzero(mismatch))
            raise NotAssociative(
                f"associativity fails at ({a}, {b}, {c}): "
                f"({a}*{b})*{c} = {rows[rows[a][b]][c]} but {a}*({b}*{c}) = {rows[a][rows[b][c]]}"
            )

    for a in range(n):
        if not any(rows[a][b] == e and rows[b][a] == e for b in range(n)):
            raise MissingInverse(f"element {a} has no two-sided inverse")
    return e


def load_cayley_table(document: dict) -> CayleyGroup:
    """Build a CayleyGroup from a parsed JSON document.

    Expected shape: {"order": n, "table": [[int; n]; n], "labels": [str; n]?}.
    The table is validated once, in the file's own indexing.  If the
    identity is not at index 0 the table is then relabelled by swapping
    index 0 with the identity, which keeps it a valid group table.
    """
    if not isinstance(document, dict):
        raise BadTableShape(f"expected a JSON object, got {type(document).__name__}")
    try:
        order = document["order"]
        table = document["table"]
    except KeyError as missing:
        raise BadTableShape(f"missing required key {missing}") from None
    if not isinstance(order, int) or order < 1:
        raise BadTableShape(f"order must be a positive integer, got {order!r}")
    if not isinstance(table, (list, tuple)) or len(table) != order:
        got = len(table) if isinstance(table, (list, tuple)) else type(table).__name__
        raise BadTableShape(f"table must have {order} rows, got {got}")
    rows = tuple(tuple(row) for row in table)
    for i, row in enumerate(rows):
        if len(row) != order:
            raise BadTableShape(f"row {i} has length {len(row)}, expected {order}")

    labels = document.get("labels")
    if labels is not None:
        if not isinstance(labels, (list, tuple)) or len(labels) != order:
            raise BadTableShape(f"labels must list {order} strings")
        labels = tuple(str(x) for x in labels)

    e = validate_cayley_table(rows)
    if e != 0:
        swap = {0: e, e: 0}
        sigma = lambda x: swap.get(x, x)
        rows = tuple(
            tuple(sigma(rows[sigma(i)][sigma(j)]) for j in range(order)) for i in range(order)
        )
        if labels is not None:
            relabelled = list(labels)
            relabelled[0], relabelled[e] = relabelled[e], relabelled[0]
            labels = tuple(relabelled)
    return CayleyGroup._from_validated(rows, labels)
