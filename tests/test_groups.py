"""Group arithmetic, number-theoretic helpers, and Cayley table validation."""

import itertools
import math
import random
import tracemalloc

import pytest

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

from conftest import quaternion_table


def test_cyclic_op():
    g = CyclicGroup(6)
    assert g.op(4, 5) == 3
    for x in range(6):
        assert g.op(0, x) == x
        assert g.op(x, 0) == x


def test_op_rejects_out_of_range():
    g = CyclicGroup(4)
    with pytest.raises(IndexError):
        g.op(0, 4)
    with pytest.raises(IndexError):
        g.op(-1, 0)


def test_power():
    assert CyclicGroup(4).power(2, 2) == 0
    assert CyclicGroup(12).power(5, 7) == 11  # 35 mod 12 by direct iteration
    g = DihedralGroup(5)
    for a in range(g.order):
        assert g.power(a, 1) == a
        assert g.power(a, 0) == 0


def test_power_matches_iteration():
    g = DihedralGroup(6)
    for a in range(g.order):
        current = 0
        for k in range(0, 13):
            assert g.power(a, k) == current
            current = g.op(current, a)


def test_dihedral_is_noncommutative():
    g = DihedralGroup(3)
    assert any(
        g.op(a, b) != g.op(b, a) for a in range(6) for b in range(6)
    )


def test_dihedral_table_is_a_group():
    for m in (1, 2, 3, 5, 8):
        assert validate_cayley_table(DihedralGroup(m).cayley_table()) == 0


def test_is_cyclic():
    assert CyclicGroup(8).is_cyclic()
    assert not DirectProductGroup([2, 2]).is_cyclic()
    assert DirectProductGroup([2, 3]).is_cyclic()
    assert DirectProductGroup([2, 3]).element_order(4) == 6  # (1, 1)


def test_direct_product_cyclic_iff_coprime_orders():
    for a in range(2, 21):
        for b in range(2, 21):
            got = DirectProductGroup([a, b]).is_cyclic()
            assert got == (math.gcd(a, b) == 1), (a, b)


def test_product_is_cyclic_matches_the_element_order_definition():
    # factor order does not change the group up to isomorphism, so every
    # multiset of two or three factor orders up to 8 is covered
    for size in (2, 3):
        for orders in itertools.combinations_with_replacement(range(1, 9), size):
            g = DirectProductGroup(orders)
            assert g.is_cyclic() == GroupSpec.is_cyclic(g), orders


def test_dihedral_is_cyclic_matches_the_element_order_definition():
    for m in range(1, 31):
        g = DihedralGroup(m)
        assert g.is_cyclic() == GroupSpec.is_cyclic(g), m
    assert DihedralGroup(1).is_cyclic()  # D_1 is Z_2


def test_lagrange_over_catalog(catalog60):
    for name, g in catalog60:
        for a in range(g.order):
            k = g.element_order(a)
            assert g.order % k == 0, (name, a, k)
            assert g.power(a, k) == 0, (name, a, k)


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
    assert all(q8.element_order(a) in (1, 2, 4) for a in range(8))


def test_load_tiny_table():
    g = load_cayley_table({"order": 2, "table": [[0, 1], [1, 0]]})
    assert g.is_cyclic()


def test_load_relocates_identity():
    # identity of this table sits at index 1; loading must move it to 0
    g = load_cayley_table({"order": 2, "table": [[1, 0], [0, 1]], "labels": ["a", "e"]})
    assert g.op(0, 1) == 1
    assert g.labels == ("e", "a")


def test_load_validates_once(monkeypatch):
    # Z_6 with its elements shifted so that the identity sits at index 4
    shift = 4
    table = [[(a + b - shift) % 6 for b in range(6)] for a in range(6)]
    calls = []
    original = groups.validate_cayley_table

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(groups, "validate_cayley_table", counting)
    g = load_cayley_table({"order": 6, "table": table})
    assert calls == [6]
    assert g.table[0] == tuple(range(6))  # the identity row, now at index 0
    assert g.is_cyclic()


def test_associativity_check_memory_is_quadratic():
    table = CyclicGroup(200).cayley_table()
    tracemalloc.start()
    try:
        assert validate_cayley_table(table) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


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


def test_cayley_group_requires_identity_at_zero():
    with pytest.raises(MissingIdentity):
        CayleyGroup([[1, 0], [0, 1]])
