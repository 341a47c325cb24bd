"""Tests for group descriptors, normal forms, and finite-subset generation."""

import dataclasses
import random

import numpy as np
import pytest

from soficlen.groups import (
    MAX_BALL,
    GroupError,
    ball,
    finite_group,
    format_word,
    free_group,
    integer_line,
    inverse,
    lattice,
    load_table_file,
    multiply,
    parse_word,
)

from group_tables import cyclic_table, symmetric_table


def test_integer_line_arithmetic():
    Z = integer_line()
    two = Z.element(2)
    three = Z.element(3)
    assert multiply(two, three) == Z.element(5)
    assert inverse(Z.element(5)) == Z.element(-5)
    e = Z.identity()
    assert multiply(e, two) == two
    assert multiply(two, e) == two


def test_free_word_reduction():
    F2 = free_group(2)
    s = F2.element((1,))
    s_inv = F2.element((-1,))
    assert multiply(s, s_inv) == F2.identity()
    # (s t) * (t^-1 s) -> s s
    st = F2.element((1, 2))
    t_inv_s = F2.element((-2, 1))
    assert multiply(st, t_inv_s) == F2.element((1, 1))


def test_free_inverse_reverses_word():
    F2 = free_group(2)
    st = F2.element((1, 2))
    assert inverse(st) == F2.element((-2, -1))
    assert multiply(st, inverse(st)) == F2.identity()


def test_free_element_normalizes_unreduced_word():
    F2 = free_group(2)
    assert F2.element((1, -1)) == F2.identity()
    assert F2.element((1, 2, -2)) == F2.element((1,))
    with pytest.raises(GroupError):
        F2.element((3,))


def test_finite_cyclic_inverse():
    Z3 = finite_group(cyclic_table(3))
    assert inverse(Z3.element(1)) == Z3.element(2)
    assert multiply(Z3.element(1), Z3.element(2)) == Z3.identity()
    assert Z3.order == 3


def test_ball_integer_line():
    Z = integer_line()
    b1 = ball(Z, 1)
    assert sorted(g.value for g in b1) == [-1, 0, 1]
    assert Z.identity() in b1
    for g in b1:
        assert inverse(g) in b1


def test_ball_free_two():
    F2 = free_group(2)
    b1 = ball(F2, 1)
    assert len(b1) == 5
    assert F2.identity() in b1
    # radius 2: 1 + 4 + 4*3 reduced words
    b2 = ball(F2, 2)
    assert len(b2) == 17
    assert set(b1) <= set(b2)


def test_ball_lattice_two():
    L2 = lattice(2)
    b1 = ball(L2, 1)
    assert len(b1) == 5
    values = {g.value for g in b1}
    assert (0, 0) in values and (1, 0) in values and (0, -1) in values
    assert len(ball(L2, 2)) == 13


def test_ball_size_is_capped_before_enumeration():
    """The largest radius of each family within MAX_BALL enumerates, with
    the count that the closed forms give; one more is refused."""
    for desc, radius, size in ((free_group(2), 7, 4373), (lattice(2), 70, 9941),
                               (integer_line(), 4999, 9999)):
        assert len(ball(desc, radius)) == size <= MAX_BALL
        with pytest.raises(GroupError, match=f"radius {radius + 1} has more than {MAX_BALL}"):
            ball(desc, radius + 1)


def test_ball_is_symmetric_and_nested():
    for desc in (integer_line(), lattice(2), free_group(2)):
        previous = set()
        for radius in range(4):
            current = set(ball(desc, radius))
            assert previous <= current
            for g in current:
                assert inverse(g) in current
            previous = current


def test_ball_product_containment():
    for desc in (integer_line(), lattice(2), free_group(2)):
        b1 = ball(desc, 1)
        b2 = set(ball(desc, 2))
        for g in b1:
            for h in b1:
                assert multiply(g, h) in b2


def test_ball_deterministic_order():
    F2 = free_group(2)
    assert ball(F2, 2) == ball(F2, 2)
    assert ball(F2, 2)[0] == F2.identity()


def test_associativity_randomized_words():
    rng = random.Random(12345)
    F2 = free_group(2)
    L2 = lattice(2)
    for _ in range(200):
        def random_free():
            length = rng.randrange(0, 8)
            letters = []
            for _ in range(length):
                letters.append(rng.choice((1, 2, -1, -2)))
            g = F2.identity()
            for letter in letters:
                g = multiply(g, F2.element((letter,)))
            return g

        g, h, k = random_free(), random_free(), random_free()
        assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))

        a = L2.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        b = L2.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        c = L2.element((rng.randrange(-4, 5), rng.randrange(-4, 5)))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_associativity_exhaustive_finite():
    S3 = finite_group(symmetric_table(3))
    elements = [S3.element(i) for i in range(S3.order)]
    for g in elements:
        for h in elements:
            for k in elements:
                assert multiply(multiply(g, h), k) == multiply(g, multiply(h, k))


def test_inverse_involution():
    rng = random.Random(7)
    for desc in (integer_line(), lattice(3), free_group(2),
                 finite_group(symmetric_table(3))):
        near = ball(desc, 1)
        for g in ball(desc, 2):
            assert inverse(inverse(g)) == g
            assert multiply(g, inverse(g)).is_identity()
            assert g.is_identity() == all(multiply(g, h) == h for h in near)
        _ = rng  # randomized coverage comes from the ball contents


class _CountingTuple(tuple):
    """A tuple that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountingTuple.hashes += 1
        return super().__hash__()


def test_element_hash_leaves_the_table_unhashed():
    S3 = finite_group(symmetric_table(3))
    counted = dataclasses.replace(S3, table=_CountingTuple(S3.table),
                                  inverse_table=_CountingTuple(S3.inverse_table))
    _CountingTuple.hashes = 0
    assert hash(counted.element(1)) == hash(S3.element(1))
    assert _CountingTuple.hashes == 0
    assert counted == S3
    Z6 = finite_group(cyclic_table(6))
    assert Z6.order == S3.order and Z6 != S3  # the tables still decide equality
    assert Z6.element(1) != S3.element(1)


def test_symmetric_table_is_a_group():
    table = symmetric_table(3)
    assert len(table) == 6
    S3 = finite_group(table)
    assert S3.identity().value == 0
    # the regular representation is faithful: all rows distinct
    assert len({tuple(row) for row in table}) == 6


def test_finite_group_rejects_bad_tables():
    # not square
    with pytest.raises(GroupError):
        finite_group([[0, 1], [1]])
    # no identity element at all
    with pytest.raises(GroupError):
        finite_group([[0, 0], [1, 1]])
    # non-associative magma with identity: build one by perturbing Z/4
    table = [row[:] for row in cyclic_table(4)]
    table[2][2] = 1  # 2*2 = 1 breaks associativity but keeps bijectivity rows
    with pytest.raises(GroupError):
        finite_group(table)


def test_finite_group_samples_associativity_beyond_order_64():
    # order 70 is past the exhaustive check: a fixed sample of triples
    table = cyclic_table(70)
    assert finite_group(table).order == 70
    table[3][4] = 8  # 3 * 4 is 7 in Z/70, and no identity or inverse moves
    with pytest.raises(GroupError, match="associativity fails"):
        finite_group(table)


def test_elements_and_tables_take_numpy_integers_as_python_ints():
    Z, Z2, F2 = integer_line(), lattice(2), free_group(2)
    Z3 = finite_group(np.array(cyclic_table(3)))
    assert Z3 == finite_group(cyclic_table(3))
    assert all(type(x) is int for row in Z3.table for x in row)
    cases = ((Z, np.int64(-3), -3), (Z2, np.array([1, -2]), (1, -2)),
             (F2, np.array([1, 2, -2]), (1,)), (Z3, np.uint8(2), 2))
    for desc, given, value in cases:
        g = desc.element(given)
        assert g == desc.element(value) and g.value == value
        assert all(type(x) is int for x in (g.value if isinstance(value, tuple) else [g.value]))
    for desc, given in ((Z, 1.0), (Z2, (1.0, 2)), (F2, (1.0,)), (Z3, "1")):
        with pytest.raises(GroupError):
            desc.element(given)
    with pytest.raises(GroupError, match=r"table entry 1\.0 out of range 0\.\.1"):
        finite_group([[0, 1.0], [1, 0]])


def test_table_file_round_trip(tmp_path):
    S3 = finite_group(symmetric_table(3))
    path = tmp_path / "s3.table"
    rows = "\n".join(" ".join(map(str, row)) for row in S3.table)
    path.write_text(f"# S3\n{S3.order}\n{rows}\n")
    loaded = load_table_file(path)
    assert loaded.table == S3.table
    assert loaded.order == 6


def test_table_file_requires_identity_first(tmp_path):
    # cyclic Z/2 with rows swapped puts the identity at index 1
    path = tmp_path / "bad.table"
    path.write_text("2\n1 0\n0 1\n")
    with pytest.raises(GroupError):
        load_table_file(path)


def test_word_format_parse_round_trip():
    F2 = free_group(2)
    for word in ((), (1,), (-2,), (1, 2, -1), (2, 2, 2), (1, 1, -2, -2, -2, 1),
                 (-1, -1, 2), (2, -1, -1, -1, -1)):
        g = F2.element(word)
        assert parse_word(F2, format_word(g)) == g
    assert format_word(F2.element((1, 1, -2, -2, -2, 1))) == "s1^2*s2^-3*s1"
    assert format_word(F2.element((-1, 2, 2))) == "s1^-1*s2^2"
    for desc in (F2, integer_line(), lattice(2), finite_group(cyclic_table(6))):
        e = parse_word(desc, "e")
        assert e == desc.identity() and e.is_identity()
        assert parse_word(desc, format_word(e)) == e
    assert format_word(F2.identity()) == "e"
    Z = integer_line()
    assert parse_word(Z, format_word(Z.element(-7))) == Z.element(-7)
    L2 = lattice(2)
    g = L2.element((3, -1))
    assert parse_word(L2, format_word(g)) == g
    Z6 = finite_group(cyclic_table(6))
    assert parse_word(Z6, format_word(Z6.element(4))) == Z6.element(4)


def test_parse_word_free_syntax():
    F2 = free_group(2)
    assert parse_word(F2, "e") == F2.identity()
    assert parse_word(F2, "s1*s2^-1") == F2.element((1, -2))
    assert parse_word(F2, "s1^3") == F2.element((1, 1, 1))
    with pytest.raises(GroupError):
        parse_word(F2, "s3")


def test_generators_match_family():
    assert [g.value for g in integer_line().generators()] == [1]
    assert [g.value for g in lattice(2).generators()] == [(1, 0), (0, 1)]
    assert [g.value for g in free_group(2).generators()] == [(1,), (2,)]
