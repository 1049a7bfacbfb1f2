"""Group arithmetic, number-theoretic helpers, and Cayley table validation."""

import copy
import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spg import groups
from spg.groups import (
    BadTableShape,
    CayleyGroup,
    CayleyTableError,
    CyclicGroup,
    DihedralGroup,
    DirectProductGroup,
    GroupSpec,
    MissingIdentity,
    NotAssociative,
    NotLatinSquare,
    is_composite,
    is_prime,
    load_cayley_table,
    totient,
    validate_cayley_table,
)

from spg.spectra import distance_spectrum_closed

from conftest import (
    element_order,
    group_power,
    op,
    quaternion_table,
    reference_validate_cayley_table,
)


# --- independent scalar group laws: the element-by-element definitions ------


def _cyclic_product(n, a, b):
    return (a + b) % n


def _product_product(orders, a, b):
    def to_tuple(x):
        digits = []
        for m in reversed(orders):
            x, d = divmod(x, m)
            digits.append(d)
        return tuple(reversed(digits))

    index = 0
    for x, y, m in zip(to_tuple(a), to_tuple(b), orders):
        index = index * m + (x + y) % m
    return index


def _dihedral_product(m, a, b):
    ra, rb = a % m, b % m
    fa, fb = a >= m, b >= m
    if not fa and not fb:          # r^i * r^j
        return (ra + rb) % m
    if not fa and fb:              # r^i * s r^j = s r^(j-i)
        return m + (rb - ra) % m
    if fa and not fb:              # s r^i * r^j = s r^(i+j)
        return m + (ra + rb) % m
    return (rb - ra) % m           # s r^i * s r^j = r^(j-i)


def _scalar_table(name, g):
    kind, _, arg = name.partition(":")
    n = g.order
    if kind == "cyclic":
        product = lambda a, b: _cyclic_product(n, a, b)
    elif kind == "product":
        orders = [int(x) for x in arg.split(",")]
        product = lambda a, b: _product_product(orders, a, b)
    elif kind == "dihedral":
        product = lambda a, b: _dihedral_product(int(arg), a, b)
    elif name == "cayley:S3":
        product = lambda a, b: _dihedral_product(3, a, b)
    else:
        assert name == "cayley:Q8"
        return quaternion_table()
    return [[product(a, b) for b in range(n)] for a in range(n)]


# --- trial-division references for the number theory ------------------------


def _trial_is_prime(n):
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


def _trial_totient(n):
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


CARMICHAEL = (
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041, 46657,
    52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401, 172081, 188461,
    252601, 278545, 294409, 314821, 334153, 340561, 399001, 410041, 449065,
    488881, 512461,
)

# the smallest strong pseudoprimes to the first k prime bases, with their
# factorisations; is_prime and totient refuse 3215031751, the k = 4 entry,
# and every later one
STRONG_PSEUDOPRIMES = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}

# the end of the domain of is_prime and totient
BOUND = 3215031751


def _segmented_sieve(lo, hi):
    """{n: n is prime} for lo <= n < hi, by crossing out, in a numpy array
    of the window, the multiples of every prime up to isqrt(hi - 1)."""
    root = math.isqrt(hi - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p :: p] = False
    window = np.ones(hi - lo, dtype=bool)
    for p in np.flatnonzero(small).tolist():
        start = max(p * p, -(-lo // p) * p)
        window[start - lo :: p] = False
    window[: max(0, 2 - lo)] = False
    return dict(zip(range(lo, hi), window.tolist()))


def test_cyclic_op():
    g = CyclicGroup(6)
    assert op(g, 4, 5) == 3
    for x in range(6):
        assert op(g, 0, x) == x
        assert op(g, x, 0) == x


def test_power():
    assert group_power(CyclicGroup(4), 2, 2) == 0
    assert group_power(CyclicGroup(12), 5, 7) == 11  # 35 mod 12 by direct iteration
    g = DihedralGroup(5)
    for a in range(g.order):
        assert group_power(g, a, 1) == a
        assert group_power(g, a, 0) == 0


def test_power_matches_iteration():
    g = DihedralGroup(6)
    for a in range(g.order):
        current = 0
        for k in range(0, 13):
            assert group_power(g, a, k) == current
            current = op(g, current, a)


def test_dihedral_is_noncommutative():
    g = DihedralGroup(3)
    assert any(
        op(g, a, b) != op(g, b, a) for a in range(6) for b in range(6)
    )


def test_dihedral_table_is_a_group():
    for m in (1, 2, 3, 5, 8):
        assert validate_cayley_table(DihedralGroup(m).cayley_table()) == 0


def _assert_is_cyclic_matches_the_law_test(g, expected):
    """expected, the O(1) structural answer, equals the base class's law
    test; up to order 64 both equal the element-order definition, element
    by element; a cyclic group has totient(n) generators."""
    n = g.order
    assert GroupSpec.is_cyclic(g) == expected, g
    generators = groups._generators(g)
    if n <= 64:
        assert generators.tolist() == [element_order(g, a) == n for a in range(n)], g
    if expected:
        assert generators.sum() == totient(n), g
    else:
        assert not generators.any(), g


def test_is_cyclic(q8):
    assert CyclicGroup(8).is_cyclic()
    assert not DirectProductGroup([2, 2]).is_cyclic()
    assert DirectProductGroup([2, 3]).is_cyclic()
    assert element_order(DirectProductGroup([2, 3]), 4) == 6  # (1, 1)
    # Z_1..Z_300, then the relabelled Cayley tables of the 660-group set of
    # test_graphs (the same sources, seed and permutations), which have no
    # override and are compared with their source's, and Q8
    for n in range(1, 301):
        g = CyclicGroup(n)
        _assert_is_cyclic_matches_the_law_test(g, g.is_cyclic())
    rng = random.Random(20261020)
    for source in (CyclicGroup(12), CyclicGroup(49), CyclicGroup(64), CyclicGroup(97),
                   DirectProductGroup((2, 8)), DirectProductGroup((3, 3, 3)),
                   DirectProductGroup((5, 25)), DihedralGroup(10), DihedralGroup(32),
                   DihedralGroup(60)):
        perm = list(range(source.order))
        rng.shuffle(perm)
        table = CayleyGroup(_relabelled(source.cayley_table(), perm))
        _assert_is_cyclic_matches_the_law_test(table, source.is_cyclic())
    _assert_is_cyclic_matches_the_law_test(q8, False)


def test_direct_product_cyclic_iff_coprime_orders():
    for a in range(2, 21):
        for b in range(2, 21):
            got = DirectProductGroup([a, b]).is_cyclic()
            assert got == (math.gcd(a, b) == 1), (a, b)


def test_product_is_cyclic_matches_the_element_order_definition():
    # factor order does not change the group up to isomorphism, so every
    # multiset of two or three factor orders up to 8 is covered, then the
    # products of the 660-group set of test_graphs: Z_a x Z_b for
    # 2 <= a, b <= 15 and three three-factor products
    products = [
        orders
        for size in (2, 3)
        for orders in itertools.combinations_with_replacement(range(1, 9), size)
    ]
    products += [(a, b) for a in range(2, 16) for b in range(2, 16)]
    products += [(2, 3, 5), (2, 2, 9), (3, 4, 6)]
    for orders in products:
        g = DirectProductGroup(orders)
        _assert_is_cyclic_matches_the_law_test(g, g.is_cyclic())


def test_dihedral_is_cyclic_matches_the_element_order_definition():
    for m in range(1, 151):
        g = DihedralGroup(m)
        _assert_is_cyclic_matches_the_law_test(g, g.is_cyclic())
    assert DihedralGroup(1).is_cyclic()  # D_1 is Z_2


class _BrokenZ6(GroupSpec):
    """Z_6 with the one product 3*3 set to 1, so 3^6 = 3, not the identity."""

    kind = "broken"
    order = 6

    def law(self, a, b):
        return np.where((a == 3) & (b == 3), 1, (a + b) % 6)


def test_law_test_refuses_a_law_that_breaks_lagrange():
    with pytest.raises(ValueError, match=r"element 3 has 3\^6 = 3, not the identity 0"):
        _BrokenZ6().is_cyclic()


@pytest.mark.parametrize(
    "source, cyclic",
    [(DirectProductGroup([2, 1000]), False), (DihedralGroup(1000), False), (CyclicGroup(2048), True)],
    ids=["Z2xZ1000", "D1000", "Z2048"],
)
def test_law_test_makes_logarithmically_many_law_calls(monkeypatch, source, cyclic):
    # the squarings a^(2^i) are shared by a^n and each a^(n/p); the bound is
    # (omega(n) + 2) * n.bit_length() calls, on arrays of length n: 44, 44
    # and 36 here, where 22, 22 and 11 are made
    g = CayleyGroup(source.cayley_table())
    n = g.order
    shapes = []
    law = g.law

    def counting(a, b):
        shapes.append((np.shape(a), np.shape(b)))
        return law(a, b)

    monkeypatch.setattr(g, "law", counting)
    assert GroupSpec.is_cyclic(g) == cyclic
    omega = sum(1 for p in range(2, n + 1) if n % p == 0 and _trial_is_prime(p))
    assert len(shapes) <= (omega + 2) * n.bit_length(), len(shapes)
    assert set(shapes) == {((n,), (n,))}


# an order is an int of at least 1, never a bool, a float or a string
_NOT_AN_ORDER = (True, False, 2.0, 2.5, "3", None, 0, -2)


def test_cyclic_group_refuses_bools_and_non_integers():
    for n in _NOT_AN_ORDER:
        with pytest.raises(ValueError, match="cyclic group order must be a positive integer"):
            CyclicGroup(n)


def test_dihedral_group_refuses_bools_and_non_integers():
    for m in _NOT_AN_ORDER:
        with pytest.raises(ValueError, match="dihedral parameter must be a positive integer"):
            DihedralGroup(m)


def test_direct_product_refuses_bools_and_non_integers():
    for n in _NOT_AN_ORDER:
        for orders in ([n, 3], [3, n]):
            with pytest.raises(ValueError, match="component orders must be positive integers"):
                DirectProductGroup(orders)
    with pytest.raises(ValueError, match="component orders must be positive integers"):
        DirectProductGroup([])
    assert DirectProductGroup((2, 3)).orders == (2, 3)


def test_lagrange_over_catalog(catalog60):
    for name, g in catalog60:
        for a in range(g.order):
            k = element_order(g, a)
            assert g.order % k == 0, (name, a, k)
            assert group_power(g, a, k) == 0, (name, a, k)


def test_totient_examples():
    assert totient(1) == 1
    assert totient(7) == 6
    assert totient(12) == 4
    with pytest.raises(ValueError):
        totient(0)


def test_totient_against_gcd_enumeration():
    for n in range(1, 1001):
        expected = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert totient(n) == expected, n


def test_totient_of_primes():
    for p in range(2, 1001):
        if is_prime(p):
            assert totient(p) == p - 1


def test_is_prime():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(91)  # 7 * 13
    sieve = {n for n in range(2, 201) if all(n % d for d in range(2, n))}
    assert {n for n in range(1, 201) if is_prime(n)} == sieve
    assert not is_composite(3) and not is_composite(1) and is_composite(4)


def test_load_quaternion_table(q8):
    assert q8.order == 8
    assert not q8.is_cyclic()
    assert all(element_order(q8, a) in (1, 2, 4) for a in range(8))


def test_load_tiny_table():
    g = load_cayley_table({"order": 2, "table": [[0, 1], [1, 0]]})
    assert g.is_cyclic()


def test_load_relocates_identity():
    # identity of this table sits at index 1; loading must move it to 0
    g = load_cayley_table({"order": 2, "table": [[1, 0], [0, 1]], "labels": ["a", "e"]})
    assert op(g, 0, 1) == 1
    assert g.labels == ("e", "a")



@pytest.mark.parametrize("labels", [["e", 5], [None, "a"], ["e", ["a"]], ["e", True], "ea"])
def test_load_refuses_labels_that_are_not_strings(labels):
    # a number or null is refused, not turned into its text, also where the
    # identity is moved to index 0
    for table in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        with pytest.raises(BadTableShape, match="labels must list 2 strings"):
            load_cayley_table({"order": 2, "table": table, "labels": labels})


@pytest.mark.parametrize("labels", [[5, None], ["e"], ["e", "a", "b"], "ea", ["e", True]])
def test_constructor_refuses_labels_that_are_not_strings(labels):
    # the same check as the loader's, so to_dot never meets a label it cannot write
    with pytest.raises(BadTableShape, match="labels must list 2 strings"):
        CayleyGroup([[0, 1], [1, 0]], labels=labels)
    assert CayleyGroup([[0, 1], [1, 0]], labels=("e", "a")).labels == ("e", "a")

def test_load_validates_once(monkeypatch):
    # Z_6 with its elements shifted so that the identity sits at index 4;
    # each path into a group converts the table once and checks its axioms once
    shift = 4
    table = [[(a + b - shift) % 6 for b in range(6)] for a in range(6)]
    calls = []
    for name in ("_table_array", "_check_axioms"):
        original = getattr(groups, name)

        def counting(t, name=name, original=original):
            calls.append(name)
            return original(t)

        monkeypatch.setattr(groups, name, counting)
    for build in (lambda t: load_cayley_table({"order": 6, "table": t}), CayleyGroup):
        calls.clear()
        g = build(table)
        assert calls == ["_table_array", "_check_axioms"]
        assert g.cayley_table()[0] == list(range(6))  # the identity row, now at index 0
        assert g.is_cyclic()
    calls.clear()
    assert validate_cayley_table(table) == shift
    assert calls == ["_table_array", "_check_axioms"]


def test_associativity_check_memory_is_quadratic():
    table = CyclicGroup(200).cayley_table()
    tracemalloc.start()
    try:
        assert validate_cayley_table(table) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


def _peak_above_start(fn):
    """The tracemalloc peak of fn() above the traced memory at its start, in
    bytes, and what fn returned or raised."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        try:
            outcome = fn()
        except CayleyTableError as exc:
            outcome = exc
        return tracemalloc.get_traced_memory()[1] - start, outcome
    finally:
        tracemalloc.stop()


def test_validation_memory_stays_within_a_few_blocks_at_order_1000():
    # the int64 table of order 1000 takes 7.6 MiB; the checks hold one n x n
    # boolean array (0.95 MiB) and a few row blocks of 0.5 MiB beside it
    perm = random.Random(1000).sample(range(1000), 1000)
    rows = _relabelled(DirectProductGroup([2, 500]).cayley_table(), perm)
    t = groups._table_array(rows)
    assert t.nbytes == 8 * 10**6
    peak, e = _peak_above_start(lambda: groups._check_axioms(t))
    assert e == validate_cayley_table(rows) != 0
    assert peak < 4 * 2**20, peak
    del t
    peak, g = _peak_above_start(lambda: CayleyGroup(rows))
    assert g.order == 1000 and g.law(0, 17) == 17
    assert peak < 12 * 2**20, peak  # the table itself and the same checks


def test_a_failed_associativity_check_stays_within_the_same_bound():
    # swapping the cells of an intercalate, the 2 x 2 subsquare at rows a and
    # a + 500 and columns b and b + 500, keeps Z_1000's table a Latin square
    # with identity 0 but breaks associativity
    t = np.array(CyclicGroup(1000).cayley_table())
    i = np.array([3, 3, 503, 503])
    j = np.array([7, 507, 7, 507])
    t[i, j] = t[i, j[[1, 0, 3, 2]]]
    peak, raised = _peak_above_start(lambda: groups._check_axioms(t))
    assert isinstance(raised, NotAssociative), raised
    assert peak < 4 * 2**20, peak


def _law_operands(n, rng):
    """(a, b) pairs in the forms the code passes to a law: a block of int32
    powers against one int32 row (graphs._power_sets), pairs of int64
    index arrays (_generators), the (n, 1) by (1, n) broadcast
    (cayley_table), and Python and numpy integer scalars."""
    i = np.arange(n)
    block = rng.integers(0, n, (min(n, 9), n)).astype(np.int32)
    yield block, block[-1]
    yield i, i
    yield i, rng.permutation(n)
    yield i[:, None], i[None, :]
    yield 3 % n, n - 1
    yield np.int64(n - 1), np.int32(5 % n)


@pytest.mark.parametrize(
    "base",
    [CyclicGroup(12).cayley_table(), DihedralGroup(5).cayley_table(), quaternion_table(),
     DirectProductGroup([2, 128]).cayley_table()],
    ids=["Z12", "D5", "Q8", "Z2xZ128"],
)
def test_cayley_law_is_the_lookup_in_the_relabelled_table(base):
    n = len(base)
    rng = np.random.default_rng(n)
    perm = [int(k) for k in rng.permutation(n)]
    table = _relabelled(base, perm)
    e = perm[0]
    assert e != 0
    swap = {0: e, e: 0}
    sigma = lambda x: swap.get(x, x)
    lookup = [[sigma(table[sigma(i)][sigma(j)]) for j in range(n)] for i in range(n)]
    reference = np.array(lookup)
    g = CayleyGroup(table)
    for a, b in _law_operands(n, rng):
        product = g.law(a, b)
        expected = reference[a, b]
        assert np.shape(product) == np.shape(expected)
        assert np.array_equal(product, expected)
        if np.ndim(product) == 0:
            assert int(product) == lookup[int(a)][int(b)]


def test_not_latin_square():
    with pytest.raises(NotLatinSquare, match="not a Latin square"):
        load_cayley_table({"order": 2, "table": [[0, 0], [1, 0]]})


def test_missing_identity():
    table = [[0, 2, 1], [2, 1, 0], [1, 0, 2]]
    with pytest.raises(MissingIdentity):
        load_cayley_table({"order": 3, "table": table})


def test_not_associative():
    # a Latin square with two-sided identity 0 that is not a group
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(NotAssociative, match=r"associativity fails at"):
        load_cayley_table({"order": 5, "table": table})


def test_shape_errors_carry_coordinates():
    with pytest.raises(BadTableShape, match="row 1"):
        load_cayley_table({"order": 2, "table": [[0, 1], [1]]})
    with pytest.raises(BadTableShape, match="row 0, col 1"):
        load_cayley_table({"order": 2, "table": [[0, 7], [1, 0]]})
    with pytest.raises(BadTableShape):
        load_cayley_table({"order": 2})
    with pytest.raises(BadTableShape):
        load_cayley_table({"order": 0, "table": []})


def test_mutated_tables_are_rejected():
    rng = random.Random(20240817)
    sources = [
        CyclicGroup(6).cayley_table(),
        DihedralGroup(4).cayley_table(),
        quaternion_table(),
        DirectProductGroup([3, 3]).cayley_table(),
    ]
    for _ in range(100):
        table = [row[:] for row in rng.choice(sources)]
        n = len(table)
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = (table[i][j] + rng.randrange(1, n)) % n
        with pytest.raises(CayleyTableError):
            validate_cayley_table(table)


def test_cayley_group_relocates_identity():
    # as test_load_relocates_identity: the constructor moves the identity to 0
    g = CayleyGroup([[1, 0], [0, 1]], labels=["a", "e"])
    assert op(g, 0, 1) == 1
    assert g.labels == ("e", "a")


def test_a_bad_entry_is_reported_before_a_later_short_row():
    # row 0 holds 9 and row 3 is short: the table is read in file order
    table = [[0, 9, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0]]
    expected = "entry at row 0, col 1 is 9, expected 0..3"
    with pytest.raises(BadTableShape, match=expected):
        load_cayley_table({"order": 4, "table": table})
    with pytest.raises(BadTableShape, match=expected):
        CayleyGroup(table)


def test_malformed_documents_raise_bad_table_shape():
    with pytest.raises(BadTableShape, match="order must be a positive integer, got True"):
        load_cayley_table({"order": True, "table": [[0]]})
    with pytest.raises(BadTableShape, match="row 0 is int, expected a list of 2 entries"):
        load_cayley_table({"order": 2, "table": [5, [1, 0]]})
    with pytest.raises(BadTableShape, match="row 0 is int, expected a list of 2 entries"):
        validate_cayley_table([5, [1, 0]])
    with pytest.raises(BadTableShape, match="row 1 is str"):
        validate_cayley_table([[0, 1], "10"])
    with pytest.raises(BadTableShape, match="table is int"):
        validate_cayley_table(5)
    array = np.array(CyclicGroup(2).cayley_table())
    with pytest.raises(BadTableShape, match="table is ndarray, expected a list of rows"):
        validate_cayley_table(array)
    with pytest.raises(BadTableShape, match="table is ndarray, expected a list of rows"):
        CayleyGroup(array)
    with pytest.raises(BadTableShape, match="table must have 2 rows, got ndarray"):
        load_cayley_table({"order": 2, "table": array})


def test_cayley_group_freezes_a_copy_of_the_caller_rows():
    t = CyclicGroup(4).cayley_table()
    g = CayleyGroup(t)
    t[0][0] = 3
    t[1] = [0, 0, 0, 0]
    assert op(g, 0, 0) == 0
    assert g.cayley_table() == CyclicGroup(4).cayley_table()


# --- the array validation against the loop-by-loop reference in conftest ----


def _relabelled(base, perm):
    """The table of the same group with element k renamed perm[k]."""
    n = len(base)
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[perm[a]][perm[b]] = perm[base[a][b]]
    return table


def _random_loop(n, rng):
    """A random reduced Latin square of order n: row 0 and column 0 read
    0..n-1, so 0 is a two-sided identity.  Most are not associative.

    Each row is filled column by column with backtracking; a reduced Latin
    rectangle always extends by a row (Hall's marriage theorem), so the
    search never fails."""
    rows = [list(range(n))]
    for i in range(1, n):
        used = [{row[j] for row in rows} for j in range(n)]
        row = [i] + [0] * (n - 1)

        def fill(j, free):
            if j == n:
                return True
            options = sorted(free - used[j])
            rng.shuffle(options)
            for v in options:
                row[j] = v
                if fill(j + 1, free - {v}):
                    return True
            return False

        assert fill(1, set(range(n)) - {i})
        rows.append(row)
    return rows


_SMALL_TABLES = [CyclicGroup(n).cayley_table() for n in range(1, 9)] + [
    DirectProductGroup([2, 2]).cayley_table(),
    DirectProductGroup([2, 4]).cayley_table(),
    DirectProductGroup([2, 2, 2]).cayley_table(),
    DirectProductGroup([3, 3]).cayley_table(),
    DihedralGroup(3).cayley_table(),
    DihedralGroup(4).cayley_table(),
    DihedralGroup(5).cayley_table(),
    quaternion_table(),
]
_WRONG_TYPES = (True, False, 0.0, 1.0, 0.5, "0", "1", None)


@st.composite
def _tables(draw):
    """A relabelled small group table or a random loop of order 5..8, then
    up to three edits: a cell set to another element, two cells of a row
    swapped (the row stays a permutation), a row or column swap, an int
    outside 0..n-1, an entry of the wrong type, a row cut short or made
    longer."""
    if draw(st.booleans()):
        table = _random_loop(draw(st.integers(5, 8)), draw(st.randoms(use_true_random=False)))
    else:
        base = draw(st.sampled_from(_SMALL_TABLES))
        table = _relabelled(base, draw(st.permutations(range(len(base)))))
    n = len(table)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["cell", "pair", "rows", "cols", "range", "type", "short", "long"]))
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if edit == "cell" and j < len(table[i]):
            table[i][j] = draw(st.integers(0, n - 1))
        elif edit == "pair" and j < len(table[i]):
            k = draw(st.integers(0, len(table[i]) - 1))
            table[i][j], table[i][k] = table[i][k], table[i][j]
        elif edit == "rows":
            table[i], table[j] = table[j], table[i]
        elif edit == "cols":
            for row in table:
                if max(i, j) < len(row):
                    row[i], row[j] = row[j], row[i]
        elif edit == "range" and j < len(table[i]):
            table[i][j] = draw(st.sampled_from((-1, n, 2**70, -(2**70))))
        elif edit == "type" and j < len(table[i]):
            table[i][j] = draw(st.sampled_from(_WRONG_TYPES))
        elif edit == "short":
            table[i] = table[i][:j]
        elif edit == "long":
            table[i] = table[i] + [draw(st.integers(0, n - 1))]
    return table


def _outcome(validate, table):
    """The identity validate returns, or the type and message it raises."""
    try:
        return validate(table)
    except CayleyTableError as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(_tables())
@example([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]])
@example([[0, 1], [1, 1.0]])
@example([[0, 2**70], [1]])
@example([[0, 1], [1], [0, True, 1]])
@example([[True, 0], [1, 0]])
def test_validation_matches_the_reference(table):
    expected = _outcome(reference_validate_cayley_table, copy.deepcopy(table))
    assert _outcome(validate_cayley_table, table) == expected
    assert _outcome(validate_cayley_table, tuple(map(tuple, table))) == expected


def test_random_loops_match_the_reference_and_most_are_not_groups():
    rng = random.Random(5)
    outcomes = []
    for _ in range(120):
        table = _random_loop(rng.randrange(5, 9), rng)
        expected = _outcome(reference_validate_cayley_table, table)
        assert _outcome(validate_cayley_table, table) == expected
        outcomes.append(expected)
    rejected = [o for o in outcomes if o != 0]
    assert all(o[0] is NotAssociative for o in rejected)
    assert len(rejected) > 100


@pytest.mark.parametrize(
    "group",
    [CyclicGroup(256), DirectProductGroup([16, 16]), DirectProductGroup([2, 128]), DihedralGroup(128)],
    ids=["Z256", "Z16xZ16", "Z2xZ128", "D128"],
)
def test_large_relabelled_groups_are_accepted_with_the_reference_identity(group):
    perm = list(range(group.order))
    random.Random(repr(group)).shuffle(perm)
    table = _relabelled(group.cayley_table(), perm)
    assert perm[0] != 0
    assert validate_cayley_table(table) == reference_validate_cayley_table(table) == perm[0]


def test_law_matches_the_scalar_definitions_over_catalog(catalog60):
    for name, g in catalog60:
        expected = _scalar_table(name, g)
        i = np.arange(g.order)
        assert g.law(i[:, None], i[None, :]).tolist() == expected, name
        assert g.cayley_table() == expected, name
        assert [[op(g, a, b) for b in range(g.order)] for a in range(g.order)] == expected, name


def test_load_relabelling_matches_the_swap_definition():
    rng = random.Random(7)
    for base in (DihedralGroup(5).cayley_table(), quaternion_table(), CyclicGroup(12).cayley_table()):
        n = len(base)
        perm = list(range(n))
        rng.shuffle(perm)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[perm[a]][perm[b]] = perm[base[a][b]]
        labels = [f"x{k}" for k in range(n)]
        e = perm[0]
        assert e != 0
        swap = {0: e, e: 0}
        sigma = lambda x: swap.get(x, x)
        expected = tuple(
            tuple(sigma(table[sigma(i)][sigma(j)]) for j in range(n)) for i in range(n)
        )
        g = load_cayley_table({"order": n, "table": table, "labels": labels})
        assert g.labels == tuple(labels[sigma(k)] for k in range(n))
        assert g.cayley_table() == [list(row) for row in expected]


def test_is_prime_and_totient_match_trial_division_up_to_1e5():
    for n in range(1, 10**5 + 1):
        assert is_prime(n) == _trial_is_prime(n), n
        assert totient(n) == _trial_totient(n), n


def test_carmichael_numbers_are_composite():
    for n in CARMICHAEL:
        assert not is_prime(n), n
        assert totient(n) == _trial_totient(n), n
    for f in (is_prime, totient):  # the largest Carmichael number here, above the bound
        with pytest.raises(ValueError):
            f(9746347772161)


def test_strong_pseudoprimes_to_small_bases_are_composite():
    for n, factors in STRONG_PSEUDOPRIMES.items():
        assert math.prod(factors) == n
        assert all(_trial_is_prime(p) for p in factors)
        if n >= BOUND:
            for f in (is_prime, totient):
                with pytest.raises(ValueError):
                    f(n)
            continue
        assert not is_prime(n), n
        assert all(is_prime(p) for p in factors), n
        assert totient(n) == math.prod(p - 1 for p in factors), n


def _assert_refused_at_once(f, *args):
    started = time.perf_counter()
    with pytest.raises(ValueError, match=f"requires an integer 1 <= n < {BOUND}"):
        f(*args)
    elapsed = time.perf_counter() - started
    assert elapsed < 0.1, (f.__name__, args, elapsed)


def test_large_primes_and_their_products():
    # far above the bound, where trial division would not end, both refuse
    p, q = 10**18 + 3, 10**18 + 9
    for n in (p, q, p * 1000003, 2 * 3**5 * q, 1000003**2 * 999983, 2**61 - 1, 2**89 - 1):
        for f in (is_prime, totient):
            _assert_refused_at_once(f, n)


def test_is_prime_and_totient_accept_exactly_the_domain():
    assert is_prime(BOUND - 1) == _trial_is_prime(BOUND - 1)
    assert totient(BOUND - 1) == _trial_totient(BOUND - 1)
    for n in (BOUND, 2**89 - 1, 0, -7):
        _assert_refused_at_once(is_prime, n)
        _assert_refused_at_once(totient, n)
        _assert_refused_at_once(is_composite, n)
    for n in (True, 5.0, "5", None):
        for f in (is_prime, totient, is_composite):
            with pytest.raises(ValueError, match=f.__name__):
                f(n)


@pytest.mark.parametrize(
    "lo, hi",
    [
        # 10^5 integers near 10^8, well inside the domain, where the strong
        # probable-prime test decides every n with no prime factor up to 7;
        # and the last 2*10^5 integers of the domain, just below the first
        # strong pseudoprime to all four bases
        (math.isqrt(1 << 53) - 10**5, math.isqrt(1 << 53)),
        (BOUND - 2 * 10**5, BOUND),
    ],
)
def test_is_prime_matches_a_segmented_sieve(lo, hi):
    assert _segmented_sieve(1, 3000) == {n: _trial_is_prime(n) for n in range(1, 3000)}
    sieve = _segmented_sieve(lo, hi)
    assert {n: is_prime(n) for n in range(lo, hi)} == sieve


def test_totient_matches_trial_division_below_the_bound():
    sieve = _segmented_sieve(BOUND - 2 * 10**5, BOUND)
    sample = random.Random(7).sample(sorted(sieve), 150)
    sample += [n for n, prime in sieve.items() if prime][-20:]  # the worst case of both loops
    for n in sample:
        assert totient(n) == _trial_totient(n), n


def test_closed_distance_spectrum_of_z2p_near_1e18_is_refused_at_once():
    _assert_refused_at_once(distance_spectrum_closed, CyclicGroup(2 * (10**18 + 3)))
