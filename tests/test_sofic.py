"""Tests for permutation models of groups and their quality reports."""

from fractions import Fraction

import numpy as np
import pytest

from soficlen.groups import (
    ball,
    cyclic_table,
    finite_group,
    free_group,
    integer_line,
    lattice,
    symmetric_table,
)
from soficlen.sofic import (
    SoficError,
    SoficSchedule,
    build_cyclic,
    build_quotient,
    build_random_free,
    build_torus,
    build_translation,
    defect,
    make_sigma,
    perm_compose,
    perm_inverse,
    perm_power,
    restrict,
)


def test_perm_helpers():
    p = np.array([1, 2, 0])
    q = np.array([2, 0, 1])
    assert np.array_equal(perm_compose(p, q), p[q])
    assert np.array_equal(perm_compose(p, perm_inverse(p)), np.arange(3))
    assert np.array_equal(perm_power(p, 3), np.arange(3))
    assert np.array_equal(perm_power(p, -1), perm_inverse(p))
    assert np.array_equal(perm_power(p, 0), np.arange(3))


def test_cyclic_is_the_shift():
    sigma = build_cyclic(5)
    Z = integer_line()
    one = sigma.perm(Z.element(1))
    assert np.array_equal(one, np.array([1, 2, 3, 4, 0]))
    minus = sigma.perm(Z.element(-1))
    assert np.array_equal(minus, perm_inverse(one))


def test_cyclic_homomorphism_on_ball():
    sigma = build_cyclic(7)
    Z = integer_line()
    window = ball(Z, 3)
    for g in window:
        for h in window:
            lhs = perm_compose(sigma.perm(g), sigma.perm(h))
            assert np.array_equal(lhs, sigma.perm(g * h))


def test_cyclic_defect_is_exact():
    Z = integer_line()
    report = defect(build_cyclic(5), ball(Z, 2))
    assert report.min_multiplicativity() == 1
    assert report.min_separation() == 1
    report4 = defect(build_cyclic(4), [Z.element(0), Z.element(2)])
    assert report4.separation[(Z.element(0), Z.element(2))] == 1


def test_torus_generator_cycles():
    sigma = build_torus((2, 2))
    L2 = lattice(2)
    e1 = sigma.perm(L2.element((1, 0)))
    # a product of two 2-cycles: order two, no fixed points
    assert np.array_equal(perm_compose(e1, e1), np.arange(4))
    assert np.count_nonzero(e1 == np.arange(4)) == 0
    report = defect(sigma, ball(L2, 1))
    assert report.min_multiplicativity() == 1
    assert report.separation[(L2.identity(), L2.element((1, 0)))] == 1


def test_torus_homomorphism_on_ball():
    sigma = build_torus((3, 4))
    L2 = lattice(2)
    window = ball(L2, 3)
    for g in window:
        for h in window:
            lhs = perm_compose(sigma.perm(g), sigma.perm(h))
            assert np.array_equal(lhs, sigma.perm(g * h))


def test_translation_swap_and_faithfulness():
    Z2 = finite_group(cyclic_table(2))
    sigma = build_translation(Z2)
    assert np.array_equal(sigma.perm(Z2.element(1)), np.array([1, 0]))

    S3 = finite_group(symmetric_table(3))
    tr = build_translation(S3)
    perms = {tuple(tr.perm(S3.element(i))) for i in range(6)}
    assert len(perms) == 6
    report = defect(tr, [S3.element(i) for i in range(6)])
    assert report.min_multiplicativity() == 1
    assert report.min_separation() > 0


def test_random_free_determinism():
    F2 = free_group(2)
    s = F2.element((1,))
    a = build_random_free(2, 64, seed=5)
    b = build_random_free(2, 64, seed=5)
    c = build_random_free(2, 64, seed=6)
    assert np.array_equal(a.perm(s), b.perm(s))
    assert not np.array_equal(a.perm(s), c.perm(s))


def test_random_free_exact_inverses():
    F2 = free_group(2)
    sigma = build_random_free(2, 50, seed=3)
    for g in ball(F2, 2):
        composed = perm_compose(sigma.perm(g), sigma.perm(g.inverse()))
        assert np.array_equal(composed, np.arange(50))
    assert np.array_equal(sigma.perm(F2.identity()), np.arange(50))


def test_random_free_word_composition_order():
    F2 = free_group(2)
    sigma = build_random_free(2, 40, seed=9)
    s = F2.element((1,))
    t = F2.element((2,))
    st = F2.element((1, 2))
    assert np.array_equal(sigma.perm(st),
                          perm_compose(sigma.perm(s), sigma.perm(t)))


def test_random_free_multiplicativity_statistics():
    """Word-composed random permutations have no multiplicativity defect and
    separation defect on the order of 1/d."""
    F2 = free_group(2)
    window = ball(F2, 2)
    seps = []
    for seed in range(1, 21):
        report = defect(build_random_free(2, 1000, seed), window)
        assert report.min_multiplicativity() == 1
        seps.append(report.mean_separation())
    mean_sep = sum(seps, Fraction(0)) / len(seps)
    assert mean_sep >= Fraction(99, 100)


def test_defect_reproducible():
    F2 = free_group(2)
    window = ball(F2, 1)
    r1 = defect(build_random_free(2, 100, 7), window)
    r2 = defect(build_random_free(2, 100, 7), window)
    assert r1.multiplicativity == r2.multiplicativity
    assert r1.separation == r2.separation
    for value in list(r1.multiplicativity.values()) + list(r1.separation.values()):
        assert 0 <= value <= 1


def test_restrict_random_free_powers():
    F2 = free_group(2)
    Z = integer_line()
    base = build_random_free(2, 30, seed=2)
    s = F2.element((1,))
    restricted = restrict(base, s)
    ps = base.perm(s)
    for n in range(-2, 4):
        assert np.array_equal(restricted.perm(Z.element(n)), perm_power(ps, n))


def test_restrict_torus_first_coordinate():
    L2 = lattice(2)
    Z = integer_line()
    torus = build_torus((4, 4))
    restricted = restrict(torus, L2.element((1, 0)))
    assert np.array_equal(restricted.perm(Z.element(1)),
                          torus.perm(L2.element((1, 0))))
    report = defect(restricted, ball(Z, 2))
    assert report.min_multiplicativity() == 1


def test_restrict_rejects_identity_image():
    torus = build_torus((3, 3))
    L2 = lattice(2)
    with pytest.raises(SoficError):
        restrict(torus, L2.identity())


def test_quotient_map_matches_cyclic():
    Z = integer_line()
    Z6 = finite_group(cyclic_table(6))
    sigma = build_quotient(Z, Z6, [Z6.element(1)])
    cyc = build_cyclic(6)
    for n in range(-6, 7):
        assert np.array_equal(sigma.perm(Z.element(n)), cyc.perm(Z.element(n)))
    report = defect(sigma, ball(Z, 3))
    assert report.min_multiplicativity() == 1


def test_quotient_map_lattice():
    L2 = lattice(2)
    Z4 = finite_group(cyclic_table(4))
    sigma = build_quotient(L2, Z4, [Z4.element(1), Z4.element(2)])
    window = ball(L2, 2)
    for g in window:
        for h in window:
            lhs = perm_compose(sigma.perm(g), sigma.perm(h))
            assert np.array_equal(lhs, sigma.perm(g * h))


def test_make_sigma_dispatch():
    Z = integer_line()
    assert make_sigma(Z, 10).d == 10
    L2 = lattice(2)
    sigma = make_sigma(L2, 12, dims=(3, 4))
    assert sigma.d == 12
    with pytest.raises(SoficError):
        make_sigma(L2, 12)  # missing dims
    with pytest.raises(SoficError):
        make_sigma(L2, 10, dims=(3, 4))  # product mismatch
    F2 = free_group(2)
    assert make_sigma(F2, 16, seed=1).d == 16
    S3 = finite_group(symmetric_table(3))
    assert make_sigma(S3, 6).d == 6
    with pytest.raises(SoficError):
        make_sigma(S3, 5)


_S3 = finite_group(symmetric_table(3))
_F2 = free_group(2)


def test_every_builder_respects_inverses():
    cases = [
        (build_cyclic(8), integer_line().element(3)),
        (build_torus((2, 3)), lattice(2).element((1, -1))),
        (build_translation(finite_group(symmetric_table(3))),
         finite_group(symmetric_table(3)).element(4)),
        (build_random_free(2, 25, 11), free_group(2).element((1, -2))),
        (build_quotient(_F2, _S3, [_S3.element(1), _S3.element(3)]), _F2.element((2, 1, -2))),
        (restrict(build_random_free(2, 25, 11), _F2.element((1, -2))), integer_line().element(3)),
    ]
    for sigma, g in cases:
        composed = perm_compose(sigma.perm(g), sigma.perm(g.inverse()))
        assert np.array_equal(composed, np.arange(sigma.d))


@pytest.mark.parametrize("sigma, window", [
    (build_translation(_S3), ball(_S3, 1)),
    (build_random_free(2, 30, 4), ball(_F2, 2)),
    (build_quotient(_F2, _S3, [_S3.element(1), _S3.element(3)]), ball(_F2, 2)),
    (restrict(build_random_free(2, 30, 4), _F2.element((1, -2))), ball(integer_line(), 4)),
], ids=["translation", "random-free", "quotient-free", "restricted"])
def test_every_map_is_a_homomorphism_on_a_ball(sigma, window):
    for g in window:
        for h in window:
            assert np.array_equal(perm_compose(sigma.perm(g), sigma.perm(h)),
                                  sigma.perm(g * h))


def test_perm_results_are_read_only():
    sigma = build_cyclic(5)
    p = sigma.perm(integer_line().element(1))
    with pytest.raises(ValueError):
        p[0] = 3


def test_schedule_validation():
    with pytest.raises(SoficError):
        SoficSchedule(())
    with pytest.raises(SoficError):
        SoficSchedule((100, 100))
    with pytest.raises(SoficError):
        SoficSchedule((100, 50))
    with pytest.raises(SoficError):
        SoficSchedule((100,), seeds=(1, 1))
    sched = SoficSchedule((10, 20), seeds=(1, 2, 3))
    assert len(sched.points()) == 6
    assert sched.largest == 20


def test_schedule_from_dims():
    sched = SoficSchedule.from_dims([(4, 4), (8, 8)])
    assert sched.ds == (16, 64)
    assert sched.points()[0].dims == (4, 4)
    with pytest.raises(SoficError):
        SoficSchedule((10,), dims=((3, 4),))
