"""Tests for permutation models of groups and their quality reports."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from soficlen.groupring import INTEGERS, GroupRingElement, GroupRingMatrix
from soficlen.groups import (
    ball,
    finite_group,
    free_group,
    integer_line,
    lattice,
)
from soficlen.meanlength import estimate_vrk_fp
from soficlen.sofic import (
    MAX_SEEDS,
    SoficError,
    SoficMap,
    SoficSchedule,
    build_cyclic,
    build_quotient,
    build_random_free,
    build_torus,
    build_translation,
    defect,
    make_sigma,
    perm_inverse,
    perm_power,
)

from group_tables import cyclic_table, symmetric_table


def test_perm_helpers():
    p = np.array([1, 2, 0])
    q = np.array([2, 0, 1])
    assert np.array_equal(p[perm_inverse(p)], np.arange(3))
    assert np.array_equal(perm_power(p, 2), q)
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
            lhs = sigma.perm(g)[sigma.perm(h)]
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
    assert np.array_equal(e1[e1], np.arange(4))
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
            lhs = sigma.perm(g)[sigma.perm(h)]
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
        composed = sigma.perm(g)[sigma.perm(g.inverse())]
        assert np.array_equal(composed, np.arange(50))
    assert np.array_equal(sigma.perm(F2.identity()), np.arange(50))


def test_random_free_word_composition_order():
    F2 = free_group(2)
    sigma = build_random_free(2, 40, seed=9)
    s = F2.element((1,))
    t = F2.element((2,))
    st = F2.element((1, 2))
    assert np.array_equal(sigma.perm(st),
                          sigma.perm(s)[sigma.perm(t)])


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
    ps = base.perm(s)
    restricted = SoficMap(Z, [ps], "PowersOfS")
    for n in range(-2, 4):
        assert np.array_equal(restricted.perm(Z.element(n)), perm_power(ps, n))


def test_quotient_map_matches_cyclic():
    Z = integer_line()
    Z6 = finite_group(cyclic_table(6))
    sigma = build_quotient(Z, Z6, [Z6.element(1)])
    cyc = build_cyclic(6)
    for n in range(-6, 7):
        assert np.array_equal(sigma.perm(Z.element(n)), cyc.perm(Z.element(n)))
    report = defect(sigma, ball(Z, 3))
    assert report.min_multiplicativity() == 1


def test_a_schedule_takes_at_most_max_seeds_seeds():
    assert len(SoficSchedule((5,), range(MAX_SEEDS)).seeds) == MAX_SEEDS
    with pytest.raises(SoficError, match=f"at most {MAX_SEEDS} seeds, got {MAX_SEEDS + 1}"):
        SoficSchedule((5,), range(MAX_SEEDS + 1))


def test_cycles_and_tori_record_their_dims_and_no_other_map_does():
    Z, L2, F2 = integer_line(), lattice(2), free_group(2)
    Z6 = finite_group(cyclic_table(6))
    assert build_cyclic(6).dims == (6,)
    assert build_torus((3, 4)).dims == (3, 4)
    assert make_sigma(L2, 12, 0, (3, 4)).dims == (3, 4)
    torus = build_torus((3, 4))
    for sigma in (build_quotient(Z, Z6, [Z6.element(1)]), build_translation(Z6),
                  build_random_free(2, 6, 1),
                  SoficMap(Z, [torus.perm(L2.element((1, 0)))], "Axis"),
                  SoficMap(Z, [build_random_free(2, 6, 1).perm(F2.element((1,)))], "PowersOfS")):
        assert sigma.dims is None


@pytest.mark.parametrize("dims", [(1,), (12,), (30,), (1, 5), (4, 6), (6, 6), (2, 2, 2)])
def test_galois_orbits_are_the_cyclic_subgroups_of_the_characters(dims):
    """One (m, units, c) per cyclic subgroup of ∏ ℤ/L_i, by brute force: the
    character χ(s) = ζ_m^{c·s} has order m, and its orbit {χᵘ : u in units},
    u the units mod m, is the set of its subgroup's generators."""
    sigma = build_torus(dims) if len(dims) > 1 else build_cyclic(dims[0])
    characters = list(itertools.product(*map(range, dims)))

    def generated(a):
        return frozenset(tuple(k * x % side for x, side in zip(a, dims))
                         for k in range(math.lcm(*dims)))

    subgroups = {}
    for a in characters:
        subgroups.setdefault(generated(a), []).append(a)
    found = set()
    for m, units, c in sigma.galois_orbits():
        # ζ_m^{c·s} = exp(2πi Σ a_i s_i / L_i) with a_i = c_i L_i / m
        assert all(x * side % m == 0 for x, side in zip(c, dims))
        a = tuple(x * side // m % side for x, side in zip(c, dims))
        assert len(generated(a)) == m
        assert units.tolist() == [u for u in range(m) if math.gcd(u, m) == 1]
        assert sorted(tuple(u * x % side for x, side in zip(a, dims)) for u in units.tolist()) \
            == sorted(subgroups[generated(a)])
        found.add(generated(a))
    assert len(found) == len(sigma.galois_orbits()) == len(subgroups)


def test_quotient_map_lattice():
    L2 = lattice(2)
    Z4 = finite_group(cyclic_table(4))
    sigma = build_quotient(L2, Z4, [Z4.element(1), Z4.element(2)])
    window = ball(L2, 2)
    for g in window:
        for h in window:
            lhs = sigma.perm(g)[sigma.perm(h)]
            assert np.array_equal(lhs, sigma.perm(g * h))


def test_lattice_generators_that_do_not_commute_are_refused():
    """σ on Z^k is composed from powers of the generators' permutations, a
    homomorphism only if they commute: two transpositions of S₃ given
    directly, or as the images of a quotient onto S₃, are refused."""
    p, q = np.array([1, 0, 2]), np.array([0, 2, 1])
    assert not np.array_equal(p[q], q[p])
    with pytest.raises(SoficError, match="commuting permutations"):
        SoficMap(lattice(2), [p, q], "x")
    S3 = finite_group(symmetric_table(3))
    a, b = S3.element(1), S3.element(2)
    assert a * b != b * a
    with pytest.raises(SoficError, match="commuting permutations"):
        build_quotient(lattice(2), S3, [a, b])
    assert SoficMap(lattice(2), [p, p[p]], "x").d == 3


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
    for desc, dims in ((Z, (10,)), (F2, (4, 4)), (S3, (6,))):
        with pytest.raises(SoficError, match="only to a lattice"):
            make_sigma(desc, math.prod(dims), dims=dims)


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
        (SoficMap(integer_line(), [build_random_free(2, 25, 11).perm(_F2.element((1, -2)))],
                  "PowersOfG"), integer_line().element(3)),
    ]
    for sigma, g in cases:
        composed = sigma.perm(g)[sigma.perm(g.inverse())]
        assert np.array_equal(composed, np.arange(sigma.d))


@pytest.mark.parametrize("sigma, window", [
    (build_translation(_S3), ball(_S3, 1)),
    (build_random_free(2, 30, 4), ball(_F2, 2)),
    (build_quotient(_F2, _S3, [_S3.element(1), _S3.element(3)]), ball(_F2, 2)),
    (SoficMap(integer_line(), [build_random_free(2, 30, 4).perm(_F2.element((1, -2)))],
              "PowersOfG"), ball(integer_line(), 4)),
], ids=["translation", "random-free", "quotient-free", "restricted"])
def test_every_map_is_a_homomorphism_on_a_ball(sigma, window):
    for g in window:
        for h in window:
            assert np.array_equal(sigma.perm(g)[sigma.perm(h)],
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
    assert sched.ds[-1] == 20


def test_schedule_from_dims():
    sched = SoficSchedule.from_dims([(4, 4), (8, 8)])
    assert sched.ds == (16, 64)
    assert sched.points()[0].dims == (4, 4)
    with pytest.raises(SoficError):
        SoficSchedule((10,), dims=((3, 4),))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_raises_sofic_error(seed):
    F2 = free_group(2)
    s_minus_one = GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((1,)), 1), (F2.identity(), -1)])
    f = GroupRingMatrix(F2, INTEGERS, [[s_minus_one]])
    message = re.escape(f"a seed must lie in [0, 2**64), got {seed}")
    with pytest.raises(SoficError, match=message):
        make_sigma(F2, 10, seed)
    with pytest.raises(SoficError, match=message):
        estimate_vrk_fp(f, SoficSchedule((10,), seeds=(seed,)))
    assert make_sigma(F2, 10, 2**64 - 1).d == 10
