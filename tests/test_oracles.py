"""Tests for the independent ground-truth computations and the comparator."""

import random
from fractions import Fraction

import pytest

from soficlen.groups import ball, finite_group, integer_line, lattice
from soficlen.groupring import (
    INTEGERS,
    RATIONALS,
    GroupRingElement,
    GroupRingMatrix,
    prime_field,
)
from soficlen.meanlength import (
    SeriesPoint,
    assemble_estimate,
    estimate_vrk_fp,
)
from soficlen.oracles import (
    FolnerBox,
    OracleError,
    compare,
    finite_group_vrk,
    folner_mean_length,
    laurent_rank,
)
from soficlen.sofic import SoficSchedule

from group_tables import cyclic_table, symmetric_table

Z = integer_line()
L2 = lattice(2)


def _t_minus_one(desc=Z, ring=INTEGERS, gen=None):
    g = gen if gen is not None else desc.element(1)
    return GroupRingElement.from_terms(desc, ring, [(g, 1), (desc.identity(), -1)])


def _column(*xs):
    """The one-column matrix whose rows are the elements ``xs``."""
    return GroupRingMatrix(xs[0].desc, xs[0].ring, [[x] for x in xs])


def test_folner_translates_of_one():
    a = GroupRingMatrix.identity(Z, INTEGERS, 1)
    series = folner_mean_length(a, [FolnerBox((10,))])
    assert series == [Fraction(1)]


def test_folner_difference_generator():
    a = _column(_t_minus_one())
    series = folner_mean_length(a, [FolnerBox((4,)), FolnerBox((10,))])
    assert series[-1] == 1
    assert all(0 <= v <= 1 for v in series)


def test_folner_scalar_two():
    two = GroupRingElement.from_terms(Z, INTEGERS, [(Z.identity(), 2)])
    series = folner_mean_length(_column(two), [FolnerBox((10,))])
    assert series == [Fraction(1)]


def test_folner_lattice_boxes():
    a = GroupRingMatrix.identity(L2, INTEGERS, 1)
    series = folner_mean_length(a, [FolnerBox((3, 3))])
    assert series == [Fraction(1)]
    diff = _column(_t_minus_one(L2, gen=L2.element((1, 0))))
    series2 = folner_mean_length(diff, [FolnerBox((4, 4)), (FolnerBox((8, 8)))])
    assert series2[-1] == 1


def test_folner_values_bounded_by_span_rank():
    rng = random.Random(9)
    support = ball(Z, 2)
    for _ in range(5):
        vectors = []
        for _ in range(rng.randrange(1, 3)):
            terms = [(rng.choice(support), rng.randrange(-3, 4))
                     for _ in range(rng.randrange(1, 4))]
            comp = GroupRingElement.from_terms(Z, INTEGERS, terms)
            vectors.append(comp)
        series = folner_mean_length(_column(*vectors), [FolnerBox((6,)), FolnerBox((12,))])
        for value in series:
            assert 0 <= value <= len(vectors)


def test_folner_clears_denominators_and_reduces_mod_p():
    rng = random.Random(505)  # criterion 05's random A in (Z[Z])^2
    support = ball(Z, 2)
    boxes = [FolnerBox((20,)), FolnerBox((50,))]
    for _ in range(10):
        over_z, over_q = [], []
        for _ in range(rng.randrange(1, 3)):
            comps = [[(rng.choice(support), rng.randrange(-3, 4))
                      for _ in range(rng.randrange(1, 4))] for _ in range(2)]
            over_z.append([GroupRingElement.from_terms(Z, INTEGERS, t) for t in comps])
            over_q.append([
                GroupRingElement.from_terms(Z, RATIONALS, [(g, Fraction(c, 6)) for g, c in t])
                for t in comps])
        assert (folner_mean_length(GroupRingMatrix(Z, RATIONALS, over_q), boxes)
                == folner_mean_length(GroupRingMatrix(Z, INTEGERS, over_z), boxes))
    # 1 + t and 1 − t: equal over GF(2), so the translates of one span the
    # box; over GF(3) they span all δ_g on its L + 1 window points
    for p, value in ((2, Fraction(1)), (3, Fraction(11, 10))):
        ring = prime_field(p)
        A = _column(*(GroupRingElement.from_terms(
            Z, ring, [(Z.identity(), 1), (Z.element(1), c)]) for c in (1, -1)))
        assert folner_mean_length(A, [FolnerBox((10,))]) == [value]


def test_folner_zero_generator_has_value_zero():
    """A with no terms spans nothing: every box average is 0, over Z and Z²;
    a zero row next to a nonzero one adds nothing."""
    assert folner_mean_length(GroupRingMatrix.zeros(Z, INTEGERS, 1, 2),
                              [FolnerBox((5,)), FolnerBox((8,))]) == [0, 0]
    assert folner_mean_length(GroupRingMatrix.zeros(L2, INTEGERS, 2, 1),
                              [FolnerBox((2, 3))]) == [0]
    A = _column(GroupRingElement.zero(Z, INTEGERS), _t_minus_one())
    assert folner_mean_length(A, [FolnerBox((4,))]) == [Fraction(1)]


def test_folner_lattice_values_are_fixed():
    """Random A in (R[Z²])^{1×2} on boxes 3×3, 4×6 and 7×5, against values
    computed by the earlier oracle, which ordered the window by
    ``GroupElement.sort_key`` and formed each s⁻¹·g as a group product."""
    support = ball(L2, 1)
    boxes = [FolnerBox((3, 3)), FolnerBox((4, 6)), FolnerBox((7, 5))]
    expected = {
        "Z": ["1", "1", "1", "26/9", "8/3", "18/7", "3", "35/12", "101/35",
              "26/9", "8/3", "18/7"],
        "GF(3)": ["1", "1", "1", "26/9", "8/3", "18/7", "3", "35/12", "101/35",
                  "2", "2", "2"],
    }
    for ring in (INTEGERS, prime_field(3)):
        rng = random.Random(2024)
        values = []
        for _ in range(4):
            rows = [[GroupRingElement.from_terms(
                        L2, ring, [(rng.choice(support), rng.randrange(-2, 3))
                                   for _ in range(rng.randrange(1, 4))])
                     for _ in range(2)] for _ in range(rng.randrange(1, 4))]
            values += folner_mean_length(GroupRingMatrix(L2, ring, rows), boxes)
        assert values == [Fraction(v) for v in expected[ring.label()]]


def test_folner_takes_supports_far_from_the_origin():
    """Box coordinates are taken relative to supp(A), so exponents beyond
    int64 work; a support spanning 2**62 or more is refused, not wrapped."""
    far = 10**20
    for desc, g, h in ((Z, Z.element(far), Z.element(far - 1)),
                       (L2, L2.element((far, -far)), L2.element((far, 1 - far)))):
        a = _column(GroupRingElement.from_terms(desc, INTEGERS, [(g, 1), (h, -1)]))
        box = FolnerBox((6,) * desc.rank)
        assert folner_mean_length(a, [box]) == [Fraction(1)]
    wide = _column(GroupRingElement.from_terms(
        Z, INTEGERS, [(Z.element(2**62), 1), (Z.identity(), -1)]))
    with pytest.raises(OracleError, match="2\\*\\*62"):
        folner_mean_length(wide, [FolnerBox((4,))])


def test_folner_rejects_unsupported_groups():
    from soficlen.groups import free_group
    F2 = free_group(2)
    a = GroupRingMatrix.identity(F2, INTEGERS, 1)
    with pytest.raises(OracleError):
        folner_mean_length(a, [FolnerBox((4,))])
    with pytest.raises(OracleError):
        FolnerBox(())
    with pytest.raises(OracleError):
        FolnerBox((0,))


def test_finite_group_vrk_examples():
    Z2 = finite_group(cyclic_table(2))
    one_plus_t = GroupRingElement.from_terms(
        Z2, RATIONALS, [(Z2.element(0), 1), (Z2.element(1), 1)])
    assert finite_group_vrk(GroupRingMatrix(Z2, RATIONALS, [[one_plus_t]])) \
        == Fraction(1, 2)
    assert finite_group_vrk(GroupRingMatrix.identity(Z2, RATIONALS, 1)) == 0
    assert finite_group_vrk(GroupRingMatrix.zeros(Z2, RATIONALS, 1, 1)) == 1


def test_finite_group_vrk_denominator_divides_order():
    S3 = finite_group(symmetric_table(3))
    rng = random.Random(15)
    elements = [S3.element(i) for i in range(6)]
    for _ in range(6):
        terms = [(rng.choice(elements), rng.randrange(-2, 3)) for _ in range(3)]
        entry = GroupRingElement.from_terms(S3, RATIONALS, terms)
        f = GroupRingMatrix(S3, RATIONALS, [[entry]])
        value = finite_group_vrk(f)
        assert 0 <= value <= 1
        assert 6 % value.denominator == 0


def test_laurent_rank_examples():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    result = laurent_rank(f)
    assert result.rank == 1 and result.vrk == 0

    t1 = _t_minus_one(L2, gen=L2.element((1, 0)))
    t2 = _t_minus_one(L2, gen=L2.element((0, 1)))
    wide = GroupRingMatrix(L2, INTEGERS, [[t1, t2]])
    result2 = laurent_rank(wide)
    assert result2.rank == 1 and result2.vrk == 1

    zero = GroupRingMatrix.zeros(Z, INTEGERS, 1, 1)
    result3 = laurent_rank(zero)
    assert result3.rank == 0 and result3.vrk == 1


def test_laurent_rank_unit_invariance():
    rng = random.Random(23)
    support = ball(L2, 1)
    for _ in range(6):
        entries = []
        for _ in range(2):
            row = []
            for _ in range(2):
                terms = [(rng.choice(support), rng.randrange(-3, 4))
                         for _ in range(2)]
                row.append(GroupRingElement.from_terms(L2, INTEGERS, terms))
            entries.append(row)
        f = GroupRingMatrix(L2, INTEGERS, entries)
        base = laurent_rank(f).rank
        g = rng.choice(support)
        unit = GroupRingElement.monomial(L2, INTEGERS, g, rng.choice((1, -1)))
        scaled_rows = [[unit * e for e in row] for row in entries]
        assert laurent_rank(GroupRingMatrix(L2, INTEGERS, scaled_rows)).rank == base
        scaled_cols = [[e * unit for e in row] for row in entries]
        assert laurent_rank(GroupRingMatrix(L2, INTEGERS, scaled_cols)).rank == base


def test_laurent_rank_matches_sofic_vrk_for_integer_line():
    rng = random.Random(41)
    d = 512
    for _ in range(4):
        m = rng.randrange(1, 3)
        n = rng.randrange(1, 3)
        support = ball(Z, 3)
        entries = []
        for _ in range(m):
            row = []
            for _ in range(n):
                terms = [(rng.choice(support), rng.randrange(-3, 4))
                         for _ in range(rng.randrange(1, 4))]
                row.append(GroupRingElement.from_terms(Z, INTEGERS, terms))
            entries.append(row)
        f = GroupRingMatrix(Z, INTEGERS, entries)
        oracle = laurent_rank(f, seed=7)
        est = estimate_vrk_fp(f, SoficSchedule((d,)))
        assert abs(est.headline - oracle.vrk) <= Fraction(2, d)


def test_laurent_rejects_unsupported_inputs():
    from soficlen.groups import free_group
    F2 = free_group(2)
    f = GroupRingMatrix.identity(F2, INTEGERS, 1)
    with pytest.raises(OracleError):
        laurent_rank(f)
    gf = prime_field(3)
    g = GroupRingMatrix.identity(Z, gf, 1)
    with pytest.raises(OracleError):
        laurent_rank(g)


def _estimate_with(headline, spread=Fraction(0)):
    series = [SeriesPoint(100, 0, headline - spread / 2),
              SeriesPoint(100, 1, headline + spread / 2)]
    return assemble_estimate("mrk", series, Z, snap_tol=None)


def test_compare_pass_and_residual():
    est = _estimate_with(Fraction(999, 1000))
    report = compare(est, 1, 0.01)
    assert report.passed
    assert report.residual == Fraction(1, 1000)
    assert not report.unstable


def test_compare_failure():
    est = _estimate_with(Fraction(1, 2))
    report = compare(est, 1, 0.01)
    assert not report.passed
    assert report.residual == Fraction(1, 2)


def test_compare_flags_unstable_spread():
    est = _estimate_with(Fraction(1), spread=Fraction(5, 100))
    report = compare(est, 1, 0.01)
    assert not report.passed
    assert report.unstable
    blob = report.to_json_dict()
    assert blob["unstable"] is True
    assert blob["residual"] == 0.0
    with pytest.raises(OracleError):
        compare(est, 1, -0.5)
