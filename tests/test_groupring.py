"""Tests for group-ring arithmetic, matrices, and the direct-finiteness checker."""

import random

import pytest

from soficlen.groups import (
    ball,
    cyclic_table,
    finite_group,
    free_group,
    integer_line,
    lattice,
)
from soficlen.groupring import (
    CONFIRMED_TWO_SIDED,
    INTEGERS,
    NOT_LEFT_INVERSE,
    RATIONALS,
    GroupRingElement,
    GroupRingError,
    GroupRingMatrix,
    check_direct_finite,
    format_matrix,
    gr_add,
    gr_mul,
    group_token,
    parse_element,
    parse_group_token,
    parse_matrix,
    parse_ring,
    prime_field,
)


def _random_element(rng, desc, ring, radius=2, terms=3, bound=3):
    support = ball(desc, radius)
    coeffs = []
    for _ in range(terms):
        g = rng.choice(support)
        c = rng.randrange(-bound, bound + 1)
        coeffs.append((g, c))
    return GroupRingElement.from_terms(desc, ring, coeffs)


def test_unit_element_is_neutral():
    rng = random.Random(1)
    for desc in (integer_line(), free_group(2), finite_group(cyclic_table(5))):
        one = GroupRingElement.one(desc, INTEGERS)
        for _ in range(10):
            a = _random_element(rng, desc, INTEGERS)
            assert gr_mul(one, a) == a
            assert gr_mul(a, one) == a


def test_free_group_expansion():
    F2 = free_group(2)
    s = F2.element((1,))
    s_inv = F2.element((-1,))
    a = GroupRingElement.from_terms(F2, INTEGERS, [(s, 1), (F2.identity(), -1)])
    b = GroupRingElement.monomial(F2, INTEGERS, s_inv)
    expect = GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.identity(), 1), (s_inv, -1)])
    assert gr_mul(a, b) == expect


def test_laurent_difference_of_squares():
    Z = integer_line()
    t = Z.element(1)
    t_minus_1 = GroupRingElement.from_terms(Z, INTEGERS, [(t, 1), (Z.identity(), -1)])
    t_plus_1 = GroupRingElement.from_terms(Z, INTEGERS, [(t, 1), (Z.identity(), 1)])
    expect = GroupRingElement.from_terms(Z, INTEGERS, [(Z.element(2), 1),
                                                       (Z.identity(), -1)])
    assert gr_mul(t_minus_1, t_plus_1) == expect


def test_zero_coefficients_pruned():
    Z = integer_line()
    a = GroupRingElement.from_terms(Z, INTEGERS, [(Z.element(1), 2),
                                                  (Z.element(1), -2),
                                                  (Z.element(0), 1)])
    assert a.support() == [Z.identity()]
    t_minus_1 = GroupRingElement.from_terms(Z, INTEGERS, [(Z.element(1), 1),
                                                          (Z.identity(), -1)])
    t_plus_1 = GroupRingElement.from_terms(Z, INTEGERS, [(Z.element(1), 1),
                                                         (Z.identity(), 1)])
    prod = gr_mul(t_minus_1, t_minus_1)
    # (t-1)^2 = t^2 - 2t + 1: middle coefficient present, no zero entries stored
    assert all(c != 0 for c in prod.coeffs.values())
    diff = t_minus_1 - t_minus_1
    assert diff.is_zero()
    _ = t_plus_1


def test_ring_axioms_randomized():
    rng = random.Random(99)
    rings = (INTEGERS, RATIONALS, prime_field(5))
    descs = (integer_line(), free_group(2), finite_group(cyclic_table(4)))
    for ring in rings:
        for desc in descs:
            for _ in range(15):
                a = _random_element(rng, desc, ring)
                b = _random_element(rng, desc, ring)
                c = _random_element(rng, desc, ring)
                assert gr_mul(a, gr_add(b, c)) == gr_add(gr_mul(a, b), gr_mul(a, c))
                assert gr_mul(gr_add(a, b), c) == gr_add(gr_mul(a, c), gr_mul(b, c))
                assert gr_mul(gr_mul(a, b), c) == gr_mul(a, gr_mul(b, c))


def test_support_of_product_contained_in_product_of_supports():
    rng = random.Random(5)
    F2 = free_group(2)
    for _ in range(25):
        a = _random_element(rng, F2, INTEGERS)
        b = _random_element(rng, F2, INTEGERS)
        allowed = {g * h for g in a.support() for h in b.support()}
        assert set(gr_mul(a, b).support()) <= allowed


def test_translate_is_left_multiplication():
    F2 = free_group(2)
    rng = random.Random(17)
    for _ in range(10):
        a = _random_element(rng, F2, INTEGERS)
        g = rng.choice(ball(F2, 2))
        mono = GroupRingElement.monomial(F2, INTEGERS, g)
        assert a.translate(g) == gr_mul(mono, a)


def test_prime_field_arithmetic():
    gf5 = prime_field(5)
    assert gf5.normalize(7) == 2
    assert gf5.normalize(-1) == 4
    from fractions import Fraction
    assert gf5.normalize(Fraction(1, 2)) == 3  # 2^-1 = 3 mod 5
    with pytest.raises(GroupRingError):
        prime_field(4)


def test_matrix_identity_multiplication():
    Z = integer_line()
    rng = random.Random(3)
    entries = [[_random_element(rng, Z, INTEGERS) for _ in range(2)]
               for _ in range(2)]
    b = GroupRingMatrix(Z, INTEGERS, entries)
    eye = GroupRingMatrix.identity(Z, INTEGERS, 2)
    assert eye @ b == b
    assert b @ eye == b


def test_matrix_one_by_one_reduces_to_gr_mul():
    F2 = free_group(2)
    rng = random.Random(4)
    a = _random_element(rng, F2, INTEGERS)
    b = _random_element(rng, F2, INTEGERS)
    ma = GroupRingMatrix(F2, INTEGERS, [[a]])
    mb = GroupRingMatrix(F2, INTEGERS, [[b]])
    assert (ma @ mb)[0, 0] == gr_mul(a, b)


def test_matrix_cancellation():
    Z = integer_line()
    t = GroupRingElement.monomial(Z, INTEGERS, Z.element(1))
    one = GroupRingElement.one(Z, INTEGERS)
    left = GroupRingMatrix(Z, INTEGERS, [[t, one]])
    right = GroupRingMatrix(Z, INTEGERS, [[one], [-t]])
    prod = left @ right
    assert prod.m == 1 and prod.n == 1
    assert prod[0, 0].is_zero()


def test_matrix_shape_mismatch_raises():
    Z = integer_line()
    a = GroupRingMatrix.identity(Z, INTEGERS, 2)
    b = GroupRingMatrix.identity(Z, INTEGERS, 3)
    with pytest.raises(GroupRingError):
        _ = a @ b


def test_direct_finite_identity():
    Z = integer_line()
    eye = GroupRingMatrix.identity(Z, INTEGERS, 2)
    verdict = check_direct_finite(eye, eye)
    assert verdict.kind == CONFIRMED_TWO_SIDED


def test_direct_finite_group_unit():
    F2 = free_group(2)
    s = GroupRingElement.monomial(F2, INTEGERS, F2.element((1,)))
    s_inv = GroupRingElement.monomial(F2, INTEGERS, F2.element((-1,)))
    verdict = check_direct_finite(GroupRingMatrix(F2, INTEGERS, [[s]]),
                                  GroupRingMatrix(F2, INTEGERS, [[s_inv]]))
    assert verdict.kind == CONFIRMED_TWO_SIDED


def test_direct_finite_not_left_inverse():
    Z = integer_line()
    two = GroupRingElement.from_terms(Z, INTEGERS, [(Z.identity(), 2)])
    three = GroupRingElement.from_terms(Z, INTEGERS, [(Z.identity(), 3)])
    verdict = check_direct_finite(GroupRingMatrix(Z, INTEGERS, [[two]]),
                                  GroupRingMatrix(Z, INTEGERS, [[three]]))
    assert verdict.kind == NOT_LEFT_INVERSE
    assert verdict.ba is None


def _elementary_pair(rng, desc, ring, k):
    """A random elementary or unit-diagonal matrix together with its inverse."""
    kind = rng.randrange(2)
    if kind == 0:
        i = rng.randrange(k)
        j = rng.randrange(k)
        while j == i:
            j = rng.randrange(k)
        r = _random_element(rng, desc, ring, radius=1, terms=2, bound=1)
        fwd = GroupRingMatrix.identity(desc, ring, k)
        bwd = GroupRingMatrix.identity(desc, ring, k)
        entries_f = [list(fwd.row(a)) for a in range(k)]
        entries_b = [list(bwd.row(a)) for a in range(k)]
        entries_f[i][j] = entries_f[i][j] + r
        entries_b[i][j] = entries_b[i][j] + (-r)
        return (GroupRingMatrix(desc, ring, entries_f),
                GroupRingMatrix(desc, ring, entries_b))
    support = ball(desc, 2)
    fwd_rows = []
    bwd_rows = []
    zero = GroupRingElement.zero(desc, ring)
    units = []
    for _ in range(k):
        g = rng.choice(support)
        sign = rng.choice((1, -1))
        units.append((g, sign))
    for a in range(k):
        g, sign = units[a]
        fwd_rows.append([GroupRingElement.monomial(desc, ring, g, sign)
                         if b == a else zero for b in range(k)])
        bwd_rows.append([GroupRingElement.monomial(desc, ring, g.inverse(), sign)
                         if b == a else zero for b in range(k)])
    return (GroupRingMatrix(desc, ring, fwd_rows),
            GroupRingMatrix(desc, ring, bwd_rows))


def test_direct_finite_on_constructed_units():
    """Products of elementary matrices and unit diagonals have two-sided inverses."""
    rng = random.Random(2024)
    F2 = free_group(2)
    k = 2
    for _ in range(200):
        u = GroupRingMatrix.identity(F2, INTEGERS, k)
        v = GroupRingMatrix.identity(F2, INTEGERS, k)
        for _ in range(rng.randrange(1, 4)):
            fwd, bwd = _elementary_pair(rng, F2, INTEGERS, k)
            u = u @ fwd
            v = bwd @ v
        verdict = check_direct_finite(u, v)
        assert verdict.kind == CONFIRMED_TWO_SIDED


def test_ring_tokens():
    assert parse_ring("Z") is INTEGERS
    assert parse_ring("Q") is RATIONALS
    assert parse_ring("GF(7)").p == 7
    with pytest.raises(GroupRingError):
        parse_ring("GF(6)")
    with pytest.raises(GroupRingError):
        parse_ring("R")


def test_group_tokens():
    assert parse_group_token("Z").family == "integer_line"
    assert parse_group_token("Z^3").rank == 3
    assert parse_group_token("F2").rank == 2
    Z4 = finite_group(cyclic_table(4))
    assert parse_group_token("finite", Z4) is Z4
    with pytest.raises(GroupRingError):
        parse_group_token("finite")
    assert group_token(lattice(2)) == "Z^2"
    assert group_token(free_group(3)) == "F3"


def test_parse_element_terms():
    F2 = free_group(2)
    a = parse_element(F2, INTEGERS, "1@s1 -1@e")
    assert a == GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((1,)), 1), (F2.identity(), -1)])
    assert parse_element(F2, INTEGERS, "0").is_zero()
    Z = integer_line()
    b = parse_element(Z, RATIONALS, "1/2@1 3@-2")
    from fractions import Fraction
    assert b.coeffs[Z.element(1)] == Fraction(1, 2)
    assert b.coeffs[Z.element(-2)] == 3


def test_matrix_text_round_trip():
    rng = random.Random(11)
    cases = [
        (integer_line(), INTEGERS, None),
        (lattice(2), RATIONALS, None),
        (free_group(2), INTEGERS, None),
        (finite_group(cyclic_table(5)), prime_field(7),
         finite_group(cyclic_table(5))),
    ]
    for desc, ring, finite_desc in cases:
        entries = [[_random_element(rng, desc, ring) for _ in range(3)]
                   for _ in range(2)]
        mat = GroupRingMatrix(desc, ring, entries)
        text = format_matrix(mat)
        back = parse_matrix(text, finite_desc=finite_desc)
        assert back == mat


def test_matrix_text_errors_carry_line_numbers():
    bad = "2 2 Z Z\n0 0 1@0\n0 0 1@1\n"
    with pytest.raises(GroupRingError) as info:
        parse_matrix(bad)
    assert "line 3" in str(info.value)
    with pytest.raises(GroupRingError):
        parse_matrix("not a header\n")
    with pytest.raises(GroupRingError) as info:
        parse_matrix("2 2 Z Z\n0 0 1@0\n# comment\n1 1 x@1\n")
    assert "line 4: bad coefficient 'x'" in str(info.value)


def test_explicit_zero_matrix_entry_parses_as_zero():
    m = parse_matrix("1 2 Z Z\n0 0 0\n0 1 1@1\n")
    assert m.entries[0][0].is_zero()
    assert not m.entries[0][1].is_zero()
