"""Tests for the finite matrix models, relator modules, and the estimators."""

import collections
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from soficlen import meanlength
from soficlen.exactla import (SparseMatrix, dense_rank_mod_p, dense_rank_rational,
                              is_probable_prime, rank_mod_p, rank_over_Q)
from soficlen.groups import (
    GroupElement,
    ball,
    finite_group,
    free_group,
    integer_line,
    lattice,
)
from soficlen.groupring import (
    INTEGERS,
    RATIONALS,
    GroupRingElement,
    GroupRingMatrix,
    parse_matrix,
    prime_field,
)
from soficlen.meanlength import (
    MeanLengthError,
    MeanRankOnlyError,
    RelativePair,
    SeriesPoint,
    assemble_estimate,
    build_sigma_bar,
    check_addition,
    coordinate_window,
    derive_rank_seed,
    estimate_mean_length,
    estimate_vrk_fp,
    principal_rank_point,
    relative_mean_length_at,
    snap_to_H,
)
from soficlen.sofic import (
    SoficError,
    SoficMap,
    SoficSchedule,
    build_cyclic,
    build_quotient,
    build_random_free,
    build_torus,
    build_translation,
    make_sigma,
)

from group_tables import cyclic_table, symmetric_table

Z = integer_line()
F2 = free_group(2)


def _relator_window(B, F):
    """W = supp(B) ∪ F·supp(B), sorted: the coordinates of ``relators``."""
    support = {g for row in B.entries for x in row for g in x.coeffs}
    return sorted(support | {s * g for s in F for g in support}, key=GroupElement.sort_key)


def relators(B, F, sigma):
    """The unquotiented reference, built here entry by entry: the sparse
    matrix whose rows are the relators δ_v b − δ_{σ_s(v)} s·b for v ∈ [d],
    b a row of B, s ∈ F, ordered v, then b, then s, in the coordinates
    (v, w, j) ↦ (v·|W| + w)·n + j of [d] × W × [n]; rational coefficients
    are cleared by one lcm."""
    window = _relator_window(B, F)
    widx = {g: i for i, g in enumerate(window)}
    d, n, nb, nf = sigma.d, B.n, B.m, len(F)
    scale = math.lcm(*(Fraction(c).denominator
                       for row in B.entries for x in row for c in x.coeffs.values()))
    rows, cols, vals = [], [], []
    for v in range(d):
        for bi, b in enumerate(B.entries):
            for si, s in enumerate(F):
                for j, x in enumerate(b):
                    for g, c in x.coeffs.items():
                        for at, h, sign in ((v, g, 1), (int(sigma.perm(s)[v]), s * g, -1)):
                            rows.append((v * nb + bi) * nf + si)
                            cols.append((at * len(window) + widx[h]) * n + j)
                            vals.append(int(sign * c * scale))
    modulus = B.ring.p if B.ring.kind == "GF" else None
    return SparseMatrix(d * nb * nf, d * len(window) * n, rows, cols, vals, modulus)


def _t_minus_one(ring=INTEGERS):
    return GroupRingElement.from_terms(Z, ring, [(Z.element(1), 1),
                                                 (Z.identity(), -1)])


def _column(*xs):
    """The one-column matrix whose rows are the elements ``xs``."""
    return GroupRingMatrix(xs[0].desc, xs[0].ring, [[x] for x in xs])


def _random_matrix(rng, desc, ring, m, n, radius=2, bound=3):
    support = ball(desc, radius)
    entries = []
    for _ in range(m):
        row = []
        for _ in range(n):
            terms = [(rng.choice(support), rng.randrange(-bound, bound + 1))
                     for _ in range(rng.randrange(1, 4))]
            row.append(GroupRingElement.from_terms(desc, ring, terms))
        entries.append(row)
    return GroupRingMatrix(desc, ring, entries)


def test_sigma_bar_of_one_is_identity():
    f = GroupRingMatrix.identity(Z, INTEGERS, 1)
    bar = build_sigma_bar(f, build_cyclic(5))
    assert np.array_equal(np.array(bar.to_dense(), dtype=object),
                          np.eye(5, dtype=object))


def test_sigma_bar_of_monomial_is_permutation_matrix():
    t = GroupRingElement.monomial(Z, INTEGERS, Z.element(1))
    f = GroupRingMatrix(Z, INTEGERS, [[t]])
    sigma = build_cyclic(5)
    bar = build_sigma_bar(f, sigma)
    dense = np.array(bar.to_dense(), dtype=np.int64)
    perm = sigma.perm(Z.element(1))
    expect = np.zeros((5, 5), dtype=np.int64)
    for v in range(5):
        expect[perm[v], v] = 1
    assert np.array_equal(dense, expect)


def test_sigma_bar_circulant_rank():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    bar = build_sigma_bar(f, build_cyclic(4))
    assert rank_over_Q(bar).rank == 3
    assert dense_rank_rational(bar.to_dense()) == 3


def test_sigma_bar_identity_and_zero():
    eye = GroupRingMatrix.identity(Z, INTEGERS, 1)
    bar = build_sigma_bar(eye, build_cyclic(4))
    assert np.array_equal(np.array(bar.to_dense(), dtype=object),
                          np.eye(4, dtype=object))
    zero = GroupRingMatrix.zeros(Z, INTEGERS, 1, 1)
    assert build_sigma_bar(zero, build_cyclic(4)).nnz == 0


def test_sigma_bar_rational_clearing_keeps_rank():
    half = GroupRingElement.from_terms(Z, RATIONALS, [(Z.element(1), Fraction(1, 2)),
                                                      (Z.identity(), -1)])
    f = GroupRingMatrix(Z, RATIONALS, [[half]])
    bar = build_sigma_bar(f, build_cyclic(5))
    # denominators are cleared matrix-wide; entries are integers, rank intact
    assert all(isinstance(v, int) for v in bar.val)
    assert rank_over_Q(bar).rank == 5


def test_duality_on_random_inputs():
    rng = random.Random(13)
    sigma = build_cyclic(5)
    for _ in range(8):
        m = rng.randrange(1, 3)
        n = rng.randrange(1, 4)
        f = _random_matrix(rng, Z, INTEGERS, m, n)
        bar = build_sigma_bar(f, sigma)
        rank = rank_over_Q(bar).rank
        # routes independent of the row elimination of bar: its transpose,
        # and exact rational elimination
        assert rank_over_Q(bar.transpose()).rank == rank
        assert dense_rank_rational(bar.to_dense()) == rank
        assert bar.ncols - rank_over_Q(bar, seed=1).rank == 5 * n - rank


def test_functoriality_of_matrix_models():
    """For homomorphic σ the model of a product is the product of the models."""
    rng = random.Random(29)
    sigma = build_cyclic(6)
    for _ in range(5):
        f = _random_matrix(rng, Z, INTEGERS, 2, 2, radius=1, bound=2)
        g = _random_matrix(rng, Z, INTEGERS, 2, 2, radius=1, bound=2)
        fg = f @ g
        lhs = np.array(build_sigma_bar(fg, sigma).to_dense(), dtype=np.int64)
        mf = np.array(build_sigma_bar(f, sigma).to_dense(), dtype=np.int64)
        mg = np.array(build_sigma_bar(g, sigma).to_dense(), dtype=np.int64)
        assert np.array_equal(lhs, mf @ mg)


def test_relators_with_identity_window_vanish():
    B = GroupRingMatrix.identity(Z, INTEGERS, 1)
    rel = relators(B, [Z.identity()], build_cyclic(4))
    assert rel.nnz == 0
    assert rank_over_Q(rel).rank == 0


def test_relator_structure_for_basis():
    B = GroupRingMatrix.identity(Z, INTEGERS, 2)
    F = [Z.element(1)]
    rel = relators(B, F, build_cyclic(4))
    assert rel.nrows == 4 * 2 * 1
    assert rel.nnz == 2 * rel.nrows
    assert len(set(rel.row)) == rel.nrows


def test_relator_span_rank():
    B = _column(GroupRingElement.one(Z, INTEGERS))
    rel = relators(B, [Z.element(1)], build_cyclic(3))
    assert rank_over_Q(rel).rank == 3
    assert dense_rank_rational(rel.to_dense()) == 3


def test_coordinate_window_contains_all_supports():
    a = _column(_t_minus_one())
    b = _column(GroupRingElement.one(Z, INTEGERS))
    pair = RelativePair(a, b, (Z.element(1), Z.element(2)))
    window = coordinate_window(pair.A, pair.B, pair.F)
    values = [g.value for g in window]
    assert values == sorted(values, key=lambda v: (abs(v), v))
    for g in (Z.element(0), Z.element(1), Z.element(2)):
        assert g in window


def test_relative_pair_refuses_mismatched_data():
    """B must have A's group, ring and column count, and F must be a
    nonempty window in A's group."""
    a = _column(_t_minus_one())
    one = _column(GroupRingElement.one(Z, INTEGERS))
    F = (Z.element(1),)
    cases = [(GroupRingMatrix.identity(Z, INTEGERS, 2), F, "B has 2 columns, A has 1"),
             (GroupRingMatrix.identity(Z, RATIONALS, 1), F, "share one group ring"),
             (GroupRingMatrix.identity(F2, INTEGERS, 1), F, "share one group ring"),
             (one, (), "F must be nonempty"),
             (one, (F2.element((1,)),), "F element from a different group")]
    for B, window, message in cases:
        with pytest.raises(MeanLengthError, match=message):
            RelativePair(a, B, window)
    pair = RelativePair(a, one, [Z.element(1)])
    assert (pair.n, pair.desc, pair.ring, pair.F) == (1, Z, INTEGERS, F)


def test_free_module_exactness_small():
    """With A = B = the standard basis the relative value is the free rank."""
    for n in (1, 2):
        basis = GroupRingMatrix.identity(Z, INTEGERS, n)
        for F in ([Z.element(1)], ball(Z, 1)):
            pair = RelativePair(basis, basis, tuple(F))
            for d in (3, 6):
                assert relative_mean_length_at(pair, build_cyclic(d)) == n


def test_relative_value_for_difference_generator():
    b = _column(GroupRingElement.one(Z, INTEGERS))
    a = _column(_t_minus_one())
    pair = RelativePair(a, b, (Z.element(1),))
    for d in range(2, 9):
        assert relative_mean_length_at(pair, build_cyclic(d)) == Fraction(d - 1, d)


def test_relative_value_for_scalar_two_over_Q():
    two = GroupRingElement.from_terms(Z, RATIONALS, [(Z.identity(), 2)])
    one = GroupRingElement.one(Z, RATIONALS)
    pair = RelativePair(_column(two), _column(one), (Z.element(1),))
    assert relative_mean_length_at(pair, build_cyclic(6)) == 1


def _unquotiented_value(pair, sigma):
    """(rank(R ∪ A) − rank(R)) / d by exact dense elimination, R being
    ``relators(B, F, σ)`` as it is and the rows δ_v a of A built here, both
    in the coordinates (v, g, j)."""
    d, n, ring = sigma.d, pair.n, pair.ring
    rel = relators(pair.B, pair.F, sigma)
    window = _relator_window(pair.B, pair.F)
    rows = [{} for _ in range(rel.nrows)]
    for i, col, x in zip(rel.row, rel.col, rel.val):
        vw, j = divmod(col, n)
        v, w = divmod(vw, len(window))
        rows[i][(v, window[w], j)] = x
    rows += [{(v, g, j): c for j, comp in enumerate(a) for g, c in comp.coeffs.items()}
             for v in range(d) for a in pair.A.entries]
    keys = sorted({key for row in rows for key in row},
                  key=lambda key: (key[0], key[1].sort_key(), key[2]))
    dense = [[row.get(key, 0) for key in keys] for row in rows]
    rank = (dense_rank_rational if ring.kind != "GF"
            else lambda m: dense_rank_mod_p(m, ring.p) if m else 0)
    return Fraction(rank(dense) - rank(dense[:rel.nrows]), d)


def _one_term_rows(desc, ring, n, terms):
    """Rows of B with one term each: ``terms`` lists (column, g, c)."""
    zero = GroupRingElement.from_terms(desc, ring, [])
    return [[GroupRingElement.from_terms(desc, ring, [(g, c)]) if j == k else zero
             for k in range(n)] for j, g, c in terms]


def test_relative_value_beyond_int64_through_a_two_term_b_row(monkeypatch):
    """A's denominator 2**64 + 13 scales the two-term relators beyond int64:
    the one matrix ranked holds Python ints, its relator rows lead it, and
    the value is the unquotiented one."""
    q = 2**64 + 13
    b = _column(GroupRingElement.from_terms(Z, RATIONALS, [(Z.element(1), 1),
                                                           (Z.identity(), 2)]))
    a = _column(GroupRingElement.from_terms(
        Z, RATIONALS, [(Z.element(2), Fraction(1, q)), (Z.identity(), Fraction(-1, q))]))
    pair = RelativePair(a, b, (Z.element(1), Z.element(-1)))
    ranked = _recorded_ranks(monkeypatch)
    for d in (3, 7):
        sigma = build_cyclic(d)
        value = relative_mean_length_at(pair, sigma)
        matrix, kwargs = ranked[-1]
        assert matrix.data.dtype == object
        assert kwargs == {"seed": 0, "cuts": (2 * d,)}
        assert matrix.nrows == 3 * d
        assert value == _unquotiented_value(pair, sigma)
    assert len(ranked) == 2


def _recorded_ranks(monkeypatch):
    """(matrix, keywords) of every call of meanlength's rank functions."""
    calls = []
    for name in ("rank_over_Q", "rank_mod_p"):
        def recorded(m, real=getattr(meanlength, name), **kwargs):
            calls.append((m, kwargs))
            return real(m, **kwargs)

        monkeypatch.setattr(meanlength, name, recorded)
    return calls


def _random_generators(rng, desc, ring, n, radius=1):
    """One or two random rows of length n, supported on the ball of
    ``radius``; over Q each coefficient is divided by 1, 2 or 3."""
    M = _random_matrix(rng, desc, ring, rng.randrange(1, 3), n, radius=radius)
    if ring.kind != "Q":
        return M
    return GroupRingMatrix(desc, ring, [[GroupRingElement.from_terms(
        desc, ring, [(g, Fraction(c, rng.choice((1, 2, 3)))) for g, c in x.coeffs.items()])
        for x in row] for row in M.entries])


def _random_one_term_rows(rng, desc, ring, n):
    """Two one-term rows on the ball of radius 1, coefficients ±2, 3 or 5
    (units only over Q and GF(7))."""
    support = ball(desc, 1)
    return _one_term_rows(desc, ring, n, [
        (rng.randrange(n), rng.choice(support), rng.choice((2, -2, 3, 5)))
        for _ in range(2)])


def _assert_route(ranked, pair, sigma):
    """The ranks one relative point took, recorded by ``_recorded_ranks``: a
    point with relator rows is one elimination of σ̄_M with the relators as
    its leading block.  A relator-free point on a cycle or torus over Z or Q
    is ranked from characters, with no elimination, and elsewhere by one
    elimination of σ̄_M."""
    M, _ = meanlength._quotient_matrix(pair)
    general = sum(sum(len(x.coeffs) for x in b) != 1 for b in pair.B.entries)
    if general:
        assert [(m, kwargs["cuts"]) for m, kwargs in ranked] == [
            (build_sigma_bar(M, sigma), (sigma.d * general * len(pair.F),))]
    elif sigma.dims is not None and pair.ring.kind != "GF":
        assert ranked == []
    else:
        assert [m for m, _ in ranked] == [build_sigma_bar(M, sigma)]


@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS, prime_field(7)], ids=["Z", "Q", "GF7"])
def test_relative_value_is_the_unquotiented_rank_difference(monkeypatch, ring):
    """The value from the quotient matrix equals (rank(R ∪ A) − rank(R)) / d
    of the relators as ``relators`` builds them, by exact dense elimination.
    B is the identity, one-term rows, general rows or both together.  F is
    either ball(1), covering A's support, with a row g − e in A so that
    ranks drop, or a sample of ball(1) with A on ball(2), not covering it.
    Only relators of rows with two or more terms are left as rows; a point
    with none is ranked as ``_assert_route`` says."""
    S3, Z2 = finite_group(symmetric_table(3)), lattice(2)
    models = [(Z, build_cyclic(5)), (Z2, build_torus((3, 3))),
              (F2, build_random_free(2, 5, 4)), (S3, build_translation(S3))]
    rng = random.Random(11)
    ranked = _recorded_ranks(monkeypatch)
    values = set()
    for desc, sigma in models:
        for kind, covered in itertools.product(
                ("identity", "one-term", "general", "mixed"), (True, False)):
            n = rng.randrange(1, 3)
            A = _random_generators(rng, desc, ring, n, radius=2 - covered)
            F = tuple(ball(desc, 1) if covered else
                      rng.sample(ball(desc, 1), rng.randrange(1, 4)))
            if covered:
                diff = _one_term_rows(desc, ring, n, [(0, rng.choice(desc.generators()), 1)])[0]
                diff[0] -= GroupRingElement.one(desc, ring)
                A = GroupRingMatrix(desc, ring, [*A.entries, diff])
            rows = list(GroupRingMatrix.identity(desc, ring, n).entries
                        if kind == "identity" else ())
            if kind in ("one-term", "mixed"):
                rows += _random_one_term_rows(rng, desc, ring, n)
            if kind in ("general", "mixed"):
                rows += _random_generators(rng, desc, ring, n).entries
            B = GroupRingMatrix(desc, ring, rows)
            pair = RelativePair(A, B, F)
            ranked.clear()
            value = relative_mean_length_at(pair, sigma)
            _assert_route(ranked, pair, sigma)
            assert value == _unquotiented_value(pair, sigma)
            values.add(value)
    # one-term rows off e, with non-unit coefficients, beside general rows,
    # and F of one or two elements, so that classes are rooted away from e
    for (desc, sigma), _ in itertools.product(models[1:], range(3)):
        n = rng.randrange(1, 3)
        A = _random_generators(rng, desc, ring, n, radius=2)
        F = tuple(rng.sample(ball(desc, 1), rng.randrange(1, 3)))
        off_e = [g for g in ball(desc, 2) if not g.is_identity()]
        one_term = _one_term_rows(desc, ring, n, [
            (rng.randrange(n), rng.choice(off_e), rng.choice((2, -2, 3, 5))) for _ in range(2)])
        rows = one_term + list(_random_generators(rng, desc, ring, n).entries)
        pair = RelativePair(A, GroupRingMatrix(desc, ring, rows), F)
        ranked.clear()
        value = relative_mean_length_at(pair, sigma)
        _assert_route(ranked, pair, sigma)
        assert value == _unquotiented_value(pair, sigma)
        values.add(value)
    assert any(v.denominator > 1 for v in values)


def test_one_term_relators_closing_cycles_are_contracted():
    """Non-unit one-term rows whose relator graph has cycles: over S₃, rows
    2·δ_e and −3·δ_r with F = {r, r²} for r of order 3 close the triangles
    (v, e), (σ_r(v), r), (σ_r²(v), r²); over Z², rows 2·δ_0, −3·δ_x and
    5·δ_y with F = {x, y} close squares.  No relator row is left, the
    relators have more nonzero rows than rank, the quotient has rank(R)
    columns fewer than the window, and the value is the unquotiented one."""
    S3, Z2 = finite_group(symmetric_table(3)), lattice(2)
    r = next(g for g in S3.generators() if g * g != S3.identity())
    x, y = Z2.generators()
    cases = [(S3, build_translation(S3), [(0, S3.identity(), 2), (0, r, -3)], (r, r * r)),
             (Z2, build_torus((4, 3)), [(0, Z2.identity(), 2), (0, x, -3), (0, y, 5)],
              (x, y))]
    for desc, sigma, terms, F in cases:
        B = GroupRingMatrix(desc, INTEGERS, _one_term_rows(desc, INTEGERS, 1, terms))
        A = _random_generators(random.Random(3), desc, INTEGERS, 1, radius=2)
        pair = RelativePair(A, B, F)
        M, rel_rows = meanlength._quotient_matrix(pair)
        m = build_sigma_bar(M, sigma)
        assert rel_rows == 0 and m.nrows == sigma.d * A.m
        rel = relators(B, F, sigma)
        rank = rank_over_Q(rel).rank
        assert len(set(rel.row)) > rank
        assert m.ncols == sigma.d * len(coordinate_window(A, B, F)) - rank
        assert relative_mean_length_at(pair, sigma) == _unquotiented_value(pair, sigma)


def test_quotient_of_the_addition_pair_is_f():
    """For B the identity and F = supp f ∪ {e}, every node (w, j) joins
    (e, j).  Where e sorts first (F₂, Z², S₃) the quotient is (f, 0); on Z
    the root is the least integer m of F, so each column of the quotient is
    f's column times the unit t^−m."""
    S3, Z2 = finite_group(symmetric_table(3)), lattice(2)
    rng = random.Random(17)
    for desc in (F2, Z2, S3, Z):
        for _ in range(4):
            f = _random_matrix(rng, desc, INTEGERS, rng.randrange(1, 3), rng.randrange(1, 3))
            F = meanlength.support_window(f)
            M, rel_rows = meanlength._quotient_matrix(
                RelativePair(f, GroupRingMatrix.identity(desc, INTEGERS, f.n), F))
            assert rel_rows == 0
            if desc is not Z:
                assert M == f
                continue
            unit = GroupRingElement.monomial(Z, INTEGERS, F[0].inverse())
            assert min(g.value for g in F) == F[0].value
            assert M == GroupRingMatrix(Z, INTEGERS, [[x * unit for x in row] for row in f.entries])


@pytest.mark.parametrize("A, B, F, value", [
    ([[(5, 2)], [(2, -3), (4, 2)]], [[(5, -3)], [(0, -3)], [(3, -1), (5, -3)]], (1, 0), 2),
    ([[(1, -1), (0, -3)]], [[(0, -3)], [(4, -3), (2, -3)]], (1, 4), 1),
], ids=["P1", "P2"])
def test_merge_multiplier_order_decides_these_s3_values(A, B, F, value):
    """Two pairs over S₃ whose value depends on the order of the merge
    multiplier: a term c·g at the node s·g of root r enters the quotient as
    c·(g·r⁻¹).  Each of the orders r⁻¹·w·h, w·r⁻¹·h, h·r⁻¹·w and r⁻¹·h·w
    (w = s·g the node, h = s⁻¹) gives 4/3 on the first or 2/3 on the
    second.  Rows are lists of (element index, c), n = 1."""
    S3 = finite_group(symmetric_table(3))

    def matrix(rows):
        return GroupRingMatrix(S3, INTEGERS, [[GroupRingElement.from_terms(
            S3, INTEGERS, [(S3.element(i), c) for i, c in row])] for row in rows])

    pair = RelativePair(matrix(A), matrix(B), tuple(S3.element(i) for i in F))
    sigma = build_translation(S3)
    assert relative_mean_length_at(pair, sigma) == value == _unquotiented_value(pair, sigma)


def _forest_rank(B, F, sigma):
    """The rank of the relators of one-term rows of B, counted as the
    columns their edges touch minus the components, by a plain union-find
    on (v, g, j) labels."""
    parent = {}

    def find(u):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        return u

    for b in B.entries:
        (j, g), = [(j, g) for j, comp in enumerate(b) for g in comp.coeffs]
        for s in F:
            image = sigma.perm(s).tolist()
            for v in range(sigma.d):
                x, y = (v, g, j), (image[v], s * g, j)
                if x != y:
                    parent.setdefault(x, x)
                    parent.setdefault(y, y)
                    parent[find(x)] = find(y)
    return len(parent) - sum(find(u) == u for u in parent)


@pytest.mark.parametrize("ring", [INTEGERS, prime_field(7)], ids=["Z", "GF7"])
def test_relator_rank_is_the_forest_count(ring):
    """rank(relators(B, F, σ)) by elimination equals the union-find count:
    d·n·|F ∖ {e}| for B the identity, whose relators are stars, and columns
    touched minus components for random one-term rows."""
    S3, Z2 = finite_group(symmetric_table(3)), lattice(2)
    models = [(Z, build_cyclic(6)), (Z2, build_torus((3, 4))),
              (F2, build_random_free(2, 7, 2)), (S3, build_translation(S3))]
    rank = rank_over_Q if ring.kind == "Z" else rank_mod_p
    rng = random.Random(5)
    for desc, sigma in models:
        F = tuple(ball(desc, 1))
        n = rng.randrange(1, 3)
        identity = GroupRingMatrix.identity(desc, ring, n)
        count = sigma.d * n * sum(not s.is_identity() for s in F)
        assert rank(relators(identity, F, sigma)).rank == _forest_rank(identity, F, sigma) == count
        B = GroupRingMatrix(desc, ring, _random_one_term_rows(rng, desc, ring, n))
        assert rank(relators(B, F, sigma)).rank == _forest_rank(B, F, sigma)


def _two_minus_s():
    """2 − s − s⁻¹ over Z[F₂]: its kernel on σ is the number of cycles of
    σ_s, so at d = 500, seed 1 its rank is 495, below the bound 497."""
    s = F2.element((1,))
    return GroupRingMatrix(F2, INTEGERS, [[GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.identity(), 2), (s, -1), (s.inverse(), -1)])]])


def test_addition_route_one_ranks_the_transpose_of_the_quotient(monkeypatch):
    """Criterion 04's pairs have no relator row left, and on F₂, where e
    sorts first, their quotient is f itself.  Route (i) ranks σ̄_fᵀ, with
    σ̄_f's column counts as its row counts; route (ii) ranks σ̄_f.  For the
    self-adjoint 2 − s − s⁻¹ these are one matrix.  Each is ranked once,
    also when σ̄_f's rank misses its bound and its kernel comes from route
    (i)'s rank.  The models are F₂'s, whose ranks take primes."""
    s_minus = GroupRingElement.from_terms(F2, INTEGERS, [(F2.element((1,)), 1),
                                                         (F2.identity(), -1)])
    t_minus = GroupRingElement.from_terms(F2, INTEGERS, [(F2.element((2,)), 1),
                                                         (F2.identity(), -1)])
    cases = [(GroupRingMatrix(F2, INTEGERS, [[s_minus, t_minus]]),
              SoficSchedule((50,), seeds=(1,)), True),
             (GroupRingMatrix(F2, INTEGERS, [[s_minus], [t_minus]]),
              SoficSchedule((60,), seeds=(1,)), True),
             (_two_minus_s(), SoficSchedule((500,), seeds=(1,)), False)]
    for f, schedule, proven in cases:
        ranked = _recorded_ranks(monkeypatch)
        report = check_addition(f, schedule)
        point = schedule.points()[0]
        bar = build_sigma_bar(f, make_sigma(f.desc, point.d, point.seed))
        seed_i, seed_ii = (derive_rank_seed(tag, point.d, point.seed) for tag in ("add-i", "add-ii"))
        assert rank_over_Q(bar, seed=seed_ii).proven is proven
        (route_i, kwargs_i), (route_ii, kwargs_ii) = ranked
        assert (kwargs_i, kwargs_ii) == ({"seed": seed_i, "cuts": ()}, {"seed": seed_ii, "cuts": ()})
        assert route_ii == bar
        assert route_i == bar.transpose()
        assert (route_i.nrows, route_i.ncols) == (bar.ncols, bar.nrows)
        assert (sorted(np.bincount(route_i.key // route_i.ncols, minlength=route_i.nrows))
                == sorted(np.bincount(bar.key % bar.ncols, minlength=bar.ncols)))
        assert report.max_residual_routes == 0


def test_relative_value_over_prime_field():
    gf2 = prime_field(2)
    two = GroupRingElement.from_terms(Z, gf2, [(Z.identity(), 2)])
    assert two.is_zero()
    t1 = GroupRingElement.from_terms(Z, gf2, [(Z.element(1), 1), (Z.identity(), 1)])
    one = GroupRingElement.one(Z, gf2)
    pair = RelativePair(_column(t1), _column(one), (Z.element(1),))
    value = relative_mean_length_at(pair, build_cyclic(6))
    assert value == Fraction(5, 6)


def test_monotonicity_in_window_and_generators():
    sigma = build_cyclic(8)
    one = GroupRingElement.one(Z, INTEGERS)
    b = _column(one)
    a = _column(_t_minus_one())
    base = relative_mean_length_at(
        RelativePair(a, b, (Z.element(1),)), sigma)

    bigger_F = relative_mean_length_at(
        RelativePair(a, b, tuple(ball(Z, 2))), sigma)
    assert bigger_F <= base

    t = GroupRingElement.monomial(Z, INTEGERS, Z.element(1))
    bigger_B = relative_mean_length_at(
        RelativePair(a, _column(one, t), (Z.element(1),)), sigma)
    assert bigger_B <= base

    two = GroupRingElement.from_terms(Z, INTEGERS, [(Z.identity(), 2)])
    bigger_A = relative_mean_length_at(
        RelativePair(_column(_t_minus_one(), two), b, (Z.element(1),)), sigma)
    assert bigger_A >= base


def test_value_bounded_by_generator_span_rank():
    rng = random.Random(37)
    sigma = build_cyclic(7)
    one = GroupRingElement.one(Z, INTEGERS)
    B = _column(one)
    for _ in range(6):
        A = _random_matrix(rng, Z, INTEGERS, rng.randrange(1, 4), 1)
        pair = RelativePair(A, B, (Z.element(1),))
        value = relative_mean_length_at(pair, sigma)
        support = sorted({g for (a,) in A.entries for g in a.coeffs},
                         key=lambda g: g.sort_key())
        index = {g: i for i, g in enumerate(support)}
        coeff_rows = []
        for (a,) in A.entries:
            row = [0] * len(support)
            for g, c in a.coeffs.items():
                row[index[g]] = c
            coeff_rows.append(row)
        assert value <= dense_rank_rational(coeff_rows)
        assert value >= 0


def test_restriction_matches_cyclic_for_full_cycle_seed():
    """A generator whose permutation is one d-cycle reproduces the cyclic model."""
    d = 8
    s = F2.element((1,))
    chosen = None
    for seed in range(100):
        sigma = build_random_free(2, d, seed)
        perm = sigma.perm(s)
        # cycle length of the orbit of 0 equals d iff the permutation is a d-cycle
        v, steps = 0, 0
        while True:
            v, steps = perm[v], steps + 1
            if v == 0:
                break
        if steps == d:
            chosen = sigma
            break
    assert chosen is not None
    restricted = SoficMap(Z, [chosen.perm(s)], "PowersOfS")
    b = _column(GroupRingElement.one(Z, INTEGERS))
    a = _column(_t_minus_one())
    pair = RelativePair(a, b, (Z.element(1),))
    value_restricted = relative_mean_length_at(pair, restricted)
    value_cyclic = relative_mean_length_at(pair, build_cyclic(d))
    assert value_restricted == value_cyclic == Fraction(d - 1, d)


def test_restriction_close_to_cyclic_for_generic_seeds():
    d = 400
    s = F2.element((1,))
    b = _column(GroupRingElement.one(Z, INTEGERS))
    a = _column(_t_minus_one())
    pair = RelativePair(a, b, (Z.element(1),))
    cyclic_value = relative_mean_length_at(pair, build_cyclic(d))
    for seed in (1, 2, 3):
        restricted = SoficMap(Z, [build_random_free(2, d, seed).perm(s)], "PowersOfS")
        value = relative_mean_length_at(pair, restricted)
        assert abs(value - cyclic_value) <= Fraction(5, 100)


def test_snap_examples():
    assert snap_to_H(0.998, Z, 0.01) == 1
    assert snap_to_H(0.47, Z, 0.01) is None
    Z3 = finite_group(cyclic_table(3))
    assert snap_to_H(0.332, Z3, 0.01) == Fraction(1, 3)
    assert snap_to_H(Fraction(1, 1000), Z, 0.05) == 0
    with pytest.raises(MeanLengthError):
        snap_to_H(0.5, Z, 0)


def test_snap_uses_divisors_beyond_exhaustive_range():
    Z30 = finite_group(cyclic_table(30))
    assert snap_to_H(Fraction(1, 30) + Fraction(1, 1000), Z30, 0.01) == Fraction(1, 30)


def _table(elements, mul):
    """Multiplication table of ``elements`` (the identity first) under mul."""
    index = {g: i for i, g in enumerate(elements)}
    return [[index[mul(g, h)] for h in elements] for g in elements]


def _alternating_four():
    def compose(p, q):  # apply q, then p
        return tuple(p[i] for i in q)
    even = [p for p in itertools.permutations(range(4))
            if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0]
    return finite_group(_table(even, compose))


def _special_linear_2_3():
    """SL(2, 3): the 2×2 matrices (a, b, c, d) of determinant 1 over GF(3)."""
    def mul(x, y):
        return ((x[0] * y[0] + x[1] * y[2]) % 3, (x[0] * y[1] + x[1] * y[3]) % 3,
                (x[2] * y[0] + x[3] * y[2]) % 3, (x[2] * y[1] + x[3] * y[3]) % 3)
    mats = [m for m in itertools.product(range(3), repeat=4)
            if (m[0] * m[3] - m[1] * m[2]) % 3 == 1]
    mats.sort(key=lambda m: m != (1, 0, 0, 1))
    return finite_group(_table(mats, mul))


def test_snap_tie_breaks_where_subgroup_orders_miss_a_divisor():
    """A₄ has no subgroup of order 6 and SL(2, 3) none of order 12, so some
    divisors of |Γ| are no subgroup order; the candidates are still
    (1/|Γ|)Z, and equally near ones go to the smallest denominator."""
    A4, SL23 = _alternating_four(), _special_linear_2_3()
    S3, S4 = finite_group(symmetric_table(3)), finite_group(symmetric_table(4))
    assert (A4.order, SL23.order) == (12, 24)
    cases = [(S3, Fraction(5, 12), Fraction(1, 2)),
             (A4, Fraction(5, 24), Fraction(1, 4)),
             (A4, Fraction(1, 8), Fraction(1, 6)),
             (A4, Fraction(7, 8), Fraction(5, 6)),
             (SL23, Fraction(5, 48), Fraction(1, 8)),
             (SL23, Fraction(1, 16), Fraction(1, 12)),
             (S4, Fraction(5, 48), Fraction(1, 8)),
             (S4, Fraction(19, 48), Fraction(3, 8))]
    for G, value, snapped in cases:
        assert snap_to_H(value, G, 0.5) == snapped, (G.order, value)


def test_derive_rank_seed_is_stable():
    a = derive_rank_seed("mrk", 100, 1)
    assert a == derive_rank_seed("mrk", 100, 1)
    assert a != derive_rank_seed("vrk", 100, 1)
    assert a != derive_rank_seed("mrk", 200, 1)


def test_estimate_mean_length_free_template():
    basis = GroupRingMatrix.identity(Z, INTEGERS, 2)
    est = estimate_mean_length(RelativePair(basis, basis, ball(Z, 1)),
                               SoficSchedule((4, 8)))
    assert est.quantity == "mrk"
    assert est.headline == 2
    assert est.spread == 0
    assert est.snapped == 2
    assert est.stabilized
    assert est.defect_summary["min_multiplicativity"] == 1.0


def test_estimate_mean_length_circulant_series():
    a = _column(_t_minus_one())
    b = _column(GroupRingElement.one(Z, INTEGERS))
    est = estimate_mean_length(RelativePair(a, b, [Z.element(1)]),
                               SoficSchedule((100, 1000)))
    assert [p.value for p in est.series] == [Fraction(99, 100), Fraction(999, 1000)]
    assert est.headline == Fraction(999, 1000)
    assert est.snapped == 1
    assert est.stabilized


def test_estimate_vrk_circulant_series():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    est = estimate_vrk_fp(f, SoficSchedule((100, 1000)))
    assert est.quantity == "vrk"
    assert [p.value for p in est.series] == [Fraction(1, 100), Fraction(1, 1000)]
    assert est.snapped == 0


def test_estimate_vrk_zero_and_scalar_matrices():
    zero = GroupRingMatrix.zeros(Z, INTEGERS, 1, 1)
    est_zero = estimate_vrk_fp(zero, SoficSchedule((10, 20)))
    assert all(p.value == 1 for p in est_zero.series)
    two = GroupRingMatrix(
        Z, INTEGERS,
        [[GroupRingElement.from_terms(Z, INTEGERS, [(Z.identity(), 2)])]])
    est_two = estimate_vrk_fp(two, SoficSchedule((10, 20)))
    assert all(p.value == 0 for p in est_two.series)


def test_estimate_vrk_refuses_prime_field_coefficients():
    gf5 = prime_field(5)
    f = GroupRingMatrix(Z, gf5, [[GroupRingElement.one(Z, gf5)]])
    for estimate in (estimate_vrk_fp, check_addition):
        with pytest.raises(MeanRankOnlyError) as info:
            estimate(f, SoficSchedule((10,)))
        assert "mean-rank only" in str(info.value)


def test_several_seeds_are_refused_before_any_sigma_unless_the_group_is_free(monkeypatch):
    built = []

    def counting_make_sigma(desc, d, seed=0, dims=None):
        built.append((d, seed))
        return make_sigma(desc, d, seed, dims)

    monkeypatch.setattr(meanlength, "make_sigma", counting_make_sigma)
    schedule = SoficSchedule((10,), (1, 2))
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    with pytest.raises(SoficError, match="give at most one"):
        estimate_vrk_fp(f, schedule)
    assert built == []
    est = estimate_vrk_fp(parse_matrix("1 1 Z F2\n0 0 1@s1 -1@e\n"), schedule)
    assert [(p.d, p.seed) for p in est.series] == built == [(10, 1), (10, 2)]


def test_principal_rank_point_duality_flag():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    pp = principal_rank_point(f, build_cyclic(12))
    assert pp.rank == 11
    assert pp.kernel == 1
    assert pp.duality
    assert pp.mrk + pp.vrk == 1


def test_principal_rank_point_ranks_a_proven_rank_once_and_an_unproven_one_twice(monkeypatch):
    """A proven rank gives the kernel d·n − rank with no second rank; an
    unproven one takes the kernel from the rank of σ̄_fᵀ, which for the
    self-adjoint 2 − s − s⁻¹ is σ̄_f again.  The models are F₂'s, whose
    ranks take primes."""
    f = GroupRingMatrix(F2, INTEGERS, [[GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((letter,)), 1), (F2.identity(), -1)])] for letter in (1, 2)])
    sigma = build_random_free(2, 60, 1)
    ranked = _recorded_ranks(monkeypatch)
    pp = principal_rank_point(f, sigma, rank_seed=4)
    assert [(m, kwargs["seed"]) for m, kwargs in ranked] == [(build_sigma_bar(f, sigma), 4)]
    assert (pp.rank, pp.kernel, pp.duality) == (59, 1, True)

    f = _two_minus_s()
    sigma = build_random_free(2, 500, 1)
    bar = build_sigma_bar(f, sigma)
    ranked = _recorded_ranks(monkeypatch)
    pp = principal_rank_point(f, sigma, rank_seed=4)
    assert [(m, kwargs["seed"]) for m, kwargs in ranked] == [(bar, 4), (bar.transpose(), 5)]
    assert ranked[1][0] == ranked[0][0]  # f* = f: one matrix, ranked at two seeds' primes
    assert (pp.rank, pp.kernel, pp.duality) == (495, 5, True)


# --- σ̄_f's rank on cycles and tori, from characters -------------------------

ONE_X_Y = "1 1 Z Z^2\n0 0 1@0,0 1@1,0 1@0,1\n"


@pytest.mark.parametrize("text, dims, rank", [
    (ONE_X_Y, (21, 21), 439),
    ("1 1 Z Z^2\n0 0 1@1,0 -1@0,0\n", (40, 40), 1560),
    ("2 2 Z Z^2\n0 0 1@0,0 1@1,0\n0 1 1@0,1\n1 0 1@1,0\n1 1 1@0,0 -1@0,1\n",
     (64, 64), 8192),
    ("1 1 Z Z^2\n0 0 1@0,0 -1@2,0 1@0,2 -1@1,1\n", (24, 24), 572),
], ids=["1+x+y", "x-1", "2x2", "1-x2+y2-xy"])
def test_character_ranks_of_pinned_tori(monkeypatch, text, dims, rank):
    """The rank by characters, with no elimination of σ̄_f, equals the
    eliminator's; three of these miss the all-ones bound."""
    f, sigma = parse_matrix(text), build_torus(dims)
    ranked = _recorded_ranks(monkeypatch)
    pp = principal_rank_point(f, sigma)
    assert ranked == []
    assert (pp.rank, pp.kernel, pp.duality) == (rank, sigma.d * f.n - rank, True)
    assert rank_over_Q(build_sigma_bar(f, sigma)).rank == rank


def test_character_ranks_of_criterion_06s_panel_on_the_20x20_torus():
    """Criterion 06's five 2×2 f have full rank 800 on the 20×20 torus."""
    rng, sigma = random.Random(606), build_torus((20, 20))
    L2 = lattice(2)
    for _ in range(5):
        f = _random_matrix(rng, L2, INTEGERS, 2, 2, radius=1)
        assert principal_rank_point(f, sigma).rank == 800
        assert rank_over_Q(build_sigma_bar(f, sigma)).rank == 800


def test_character_ranks_equal_the_eliminators_on_random_f():
    """Random f of every small shape, over Z and Q, on cycles and tori with a
    side of 1, with many divisors (840) and with unequal sides."""
    rng = random.Random(2029)
    models = [build_cyclic(1), build_cyclic(7), build_cyclic(840), build_torus((1, 6)),
              build_torus((4, 6)), build_torus((12, 18)), build_torus((5, 1))]
    for sigma, ring, (m, n) in itertools.product(
            models, (INTEGERS, RATIONALS), ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2))):
        f = _random_matrix(rng, sigma.desc, ring, m, n, radius=1)
        if ring is RATIONALS:
            f = GroupRingMatrix(f.desc, ring, [[GroupRingElement(f.desc, ring, {
                g: c / rng.randrange(1, 4) for g, c in x.coeffs.items()}) for x in row]
                for row in f.entries])
        pp = principal_rank_point(f, sigma)
        assert pp.rank == rank_over_Q(build_sigma_bar(f, sigma)).rank, (sigma, f)
        assert pp.kernel == sigma.d * n - pp.rank


def test_character_rank_of_the_zero_matrix(monkeypatch):
    ranked = _recorded_ranks(monkeypatch)
    for sigma in (build_cyclic(12), build_torus((3, 4))):
        pp = principal_rank_point(GroupRingMatrix.zeros(sigma.desc, RATIONALS, 2, 3), sigma)
        assert (pp.rank, pp.kernel, pp.vrk) == (0, 3 * sigma.d, 3)
    assert ranked == []


def _cycle_matrix(rows):
    """The matrix over Z[Z] whose entries are given as (exponent,
    coefficient) pairs."""
    return GroupRingMatrix(Z, INTEGERS, [[GroupRingElement.from_terms(
        Z, INTEGERS, [(Z.element(k), c) for k, c in x]) for x in row] for row in rows])


def test_character_rank_sees_an_entry_that_vanishes_only_at_zeta():
    cases = [
        (parse_matrix(ONE_X_Y), build_torus((3, 3)), 7),  # 1 + ζ₃ + ζ₃² = 0 at x ↦ ζ₃, y ↦ ζ₃²
        (_cycle_matrix([[[(0, 1), (1, 2)]]]), build_cyclic(3), 3),  # 1 + 2ζ₃
        (parse_matrix(ONE_X_Y), build_torus((1, 1)), 1),  # the trivial character: 3
        (_cycle_matrix([[[(0, 1), (2, 1), (4, 1)]]]), build_cyclic(6), 2),  # 1 + ζ₃ + ζ₃² at ζ₆
        (parse_matrix(ONE_X_Y), build_torus((6, 6)), 34),  # 1 + ζ₆ + ζ₃ = 2ζ₆ at (1, 2)
        (_cycle_matrix([[[(0, 1), (5, 1), (-2, 1)]]]), build_cyclic(3), 1),  # exponents mod m
        # a second row that is t times the first, and a first column of zeros
        (_cycle_matrix([[[], [(0, 1)], [(1, 3)]], [[], [(1, 1)], [(2, 3)]]]), build_cyclic(3), 3),
    ]
    for f, sigma, rank in cases:
        result = meanlength._sigma_bar_rank(f, sigma, 0)
        assert (result.rank, result.proven) == (rank, True)
        assert dense_rank_rational(build_sigma_bar(f, sigma)) == rank


def test_character_rank_of_zero_rows_and_of_multiples_of_a_vanishing_entry():
    sigma = build_cyclic(840)
    zero = _cycle_matrix([[[], []], [[], []], [[(0, 1), (0, -1)], []]])
    assert meanlength._sigma_bar_rank(zero, sigma, 0).rank == 0
    # every entry a multiple of 1 + t + t², which vanishes at ζ₃ and ζ₃²
    f = _cycle_matrix([[[(0, 1), (1, 1), (2, 1)]], [[(0, -2), (1, -2), (2, -2)]]])
    assert meanlength._sigma_bar_rank(f, build_cyclic(3), 0).rank == 1
    assert dense_rank_rational(build_sigma_bar(f, build_cyclic(3))) == 1
    assert meanlength._sigma_bar_rank(f, sigma, 0).rank == 838
    assert rank_over_Q(build_sigma_bar(f, sigma)).rank == 838


def test_character_ranks_equal_exact_ranks_with_dependent_rows_and_vanishing_factors():
    """Random f on cycles, with a row that is a combination of two others,
    and with entries that carry a factor 1 + t^{d/q} + … vanishing at every
    character of order q, against the rank of σ̄_f by Fraction elimination
    (by rank_over_Q on the longer cycles)."""
    rng = random.Random(29)

    def element(d):
        return [(rng.randrange(d), rng.randrange(-2, 3)) for _ in range(rng.randrange(4))]

    def times(a, b):
        return [(i + j, x * y) for i, x in a for j, y in b]

    short = collections.Counter()
    for d in (1, 2, 3, 4, 5, 6, 8, 12, 30, 105, 840):
        sigma = build_cyclic(d)
        for _ in range(12 if d <= 12 else 4):
            nrows, ncols = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [[element(d) for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 1 and rng.random() < 0.5:  # rows[0] ← a·rows[0] + b·rows[1]
                a, b = element(d), element(d)
                rows[0] = [times(a, x) + times(b, y) for x, y in zip(rows[0], rows[1])]
            q = rng.choice([q for q in (2, 3, 5, 7) if d % q == 0] or [1])
            if q > 1 and rng.random() < 0.5:
                i, j = rng.randrange(nrows), rng.randrange(ncols)
                rows[i][j] = times(rows[i][j], [(k * d // q, 1) for k in range(q)])
            f = _cycle_matrix(rows)
            bar = build_sigma_bar(f, sigma)
            result = meanlength._sigma_bar_rank(f, sigma, 0)
            exact = dense_rank_rational(bar) if d <= 12 else rank_over_Q(bar).rank
            assert (result.rank, result.proven) == (exact, True), (d, rows)
            short[result.rank < d * min(nrows, ncols)] += 1
    assert short[True] >= 20 and short[False] >= 20


def _norm_bound(f):
    """The product of f's min(m, n) largest row bounds, each the ceiling of
    the 2-norm of the row's ℓ¹ coefficient sums, and at least 1."""
    bounds = []
    for row in f.entries:
        square = sum(sum(abs(c) for c in x.coeffs.values()) ** 2 for x in row)
        root = math.isqrt(square)
        bounds.append(max(1, root + (root * root < square)))
    return math.prod(sorted(bounds)[f.m - min(f.m, f.n):])


def test_character_ranks_carry_their_primes():
    """Each character rank is proven and names its primes: the least ones
    ≡ 1 (mod E) above 2**30, E the exponent of the torus, in order, and
    more of them only while an orbit is short and their product is at most
    the norm bound."""
    cases = [(parse_matrix(text), build_torus(dims)) for text, dims in (
        (ONE_X_Y, (21, 21)), ("1 1 Z Z^2\n0 0 1@1,0 -1@0,0\n", (40, 40)),
        ("1 1 Z Z^2\n0 0 1@0,0 -1@2,0 1@0,2 -1@1,1\n", (24, 24)))]
    cases.append((_cycle_matrix([[[(0, 1), (1, 1), (2, 1)]]]), build_cyclic(840)))
    for f, sigma in cases:
        E = math.lcm(*sigma.dims)
        result = meanlength._sigma_bar_rank(f, sigma, 0)
        assert result.proven and result.agreement and result.field == "Q"
        assert result.primes == tuple(p for p in range(2**30 + 1, result.primes[-1] + 1)
                                      if p % E == 1 and is_probable_prime(p))
        assert math.prod(result.primes) > _norm_bound(f)


def test_the_least_character_prime_and_its_omega_are_searched_for_once_per_E(monkeypatch):
    """The first rank at E = 20 searches for the least prime ≡ 1 (mod E)
    above 2**30 and its ω; a second rank at that E, of the same f or of
    x − 1, whose short orbit takes the conjugate round, tests no number for
    primality.  The pair kept is a fresh search's."""
    meanlength._character_prime.cache_clear()
    tested, real = [], meanlength.is_probable_prime
    monkeypatch.setattr(meanlength, "is_probable_prime", lambda n: tested.append(n) or real(n))
    f, sigma = parse_matrix(ONE_X_Y), build_torus((4, 5))
    first = meanlength._sigma_bar_rank(f, sigma, 0)
    assert tested
    tested.clear()
    assert meanlength._sigma_bar_rank(f, sigma, 0) == first
    x_minus_1 = parse_matrix("1 1 Z Z^2\n0 0 1@1,0 -1@0,0\n")
    assert meanlength._sigma_bar_rank(x_minus_1, build_torus((20, 1)), 0).rank == 19
    assert tested == []
    E = 20
    p = next(q for q in range(2**30 + 1, 2**31) if q % E == 1 and is_probable_prime(q))
    assert first.primes == (p,)
    assert meanlength._character_prime(E) == meanlength._character_prime.__wrapped__(E) == (
        p, meanlength._root_of_unity(E, p))


def test_character_rank_takes_every_conjugate_of_a_short_orbit():
    """On the 4-cycle, f = a ± b·t with a² + b² = p, for the route's own p
    and ω = ζ₄ mod p: a + bζ₄ and a − bζ₄ generate the two primes of ℤ[i]
    over p, so f's orbit representative at ζ₄ vanishes mod p, and its
    conjugate at ζ₄³ does not.  f(χ) is nonzero at every χ, so the rank is
    4, with the one prime p."""
    p, omega = meanlength._character_prime(4)
    a = next(a for a in range(1, math.isqrt(p)) if math.isqrt(p - a * a) ** 2 == p - a * a)
    b = math.isqrt(p - a * a)
    b = b if (a + b * omega) % p == 0 else -b
    assert (a + b * omega) % p == 0 and (a - b * omega) % p != 0
    f, sigma = _cycle_matrix([[[(0, a), (1, b)]]]), build_cyclic(4)
    result = meanlength._sigma_bar_rank(f, sigma, 0)
    assert (result.rank, result.primes, result.proven) == (4, (p,), True)
    assert dense_rank_rational(build_sigma_bar(f, sigma)) == 4


def test_a_huge_coefficient_takes_primes_until_their_product_exceeds_the_bound():
    """c(1 − x)(1 − y), c = 2**64 + 13, vanishes at the characters trivial
    on x or on y, so its orbits there are short, and its norm bound 4c is
    beyond one prime and two."""
    c = 2**64 + 13
    f = parse_matrix(f"1 1 Z Z^2\n0 0 {c}@0,0 -{c}@1,0 -{c}@0,1 {c}@1,1\n")
    sigma = build_torus((3, 4))
    result = meanlength._sigma_bar_rank(f, sigma, 0)
    assert len(result.primes) > 2 and all(p % 12 == 1 for p in result.primes)
    assert math.prod(result.primes[:-1]) <= 4 * c < math.prod(result.primes)
    assert (result.rank, result.proven) == (rank_over_Q(build_sigma_bar(f, sigma)).rank, True)
    assert result.rank == 6


def test_character_route_refuses_an_omega_that_is_not_a_primitive_root(monkeypatch):
    E = 12
    p, omega = meanlength._character_prime(E)
    terms = [(0, (0, 0), 1), (0, (1, 0), 1), (0, (0, 1), 1)]  # 1 + x + y
    weights = np.array([[0, 0], [4, 8]])  # the trivial character and x ↦ ζ₃, y ↦ ζ₃²
    assert meanlength._character_ranks(terms, (1, 1), weights, E, p, omega).tolist() == [1, 0]
    # a prime beyond int64 products: Python ints in object arrays, as in the kernel
    big = next(q for q in range(2**61 // E * E + 1, 2**62, E) if is_probable_prime(q))
    big_omega = meanlength._root_of_unity(E, big)
    assert meanlength._character_ranks(terms, (1, 1), weights, E, big, big_omega).tolist() == [1, 0]
    for bad in (1, pow(omega, 2, p), pow(omega, 3, p), 2):  # orders 1, 6, 4, and no root
        with pytest.raises(MeanLengthError, match=f"not a primitive {E}-th root of unity"):
            meanlength._character_ranks(terms, (1, 1), weights, E, p, bad)
    real = meanlength._character_prime

    def squared(E, above=2**30):  # the prime with ω², of order 6 at E = 12
        p, omega = real(E, above)
        return p, pow(omega, 2, p)

    monkeypatch.setattr(meanlength, "_character_prime", squared)
    with pytest.raises(MeanLengthError, match="not a primitive"):
        principal_rank_point(parse_matrix(ONE_X_Y), build_torus((3, 4)))


def test_cycles_and_tori_rank_by_characters_and_other_models_by_elimination(monkeypatch):
    """No rank over Q from principal_rank_point or route (ii) on a cycle or
    torus; route (i) still ranks the transposed quotient there.  σ through a
    quotient onto the cyclic table of order 12 is the cycle's action, but it
    records no dims, so it takes the eliminator, which gives the same rank."""
    f = GroupRingMatrix(Z, INTEGERS, [[GroupRingElement.from_terms(
        Z, INTEGERS, [(Z.identity(), 1), (Z.element(2), 1), (Z.element(4), 1)])]])
    ranked = _recorded_ranks(monkeypatch)
    assert principal_rank_point(f, build_cyclic(12)).rank == 8  # 1 + ζ + ζ² = 0 at ζ₃
    g = parse_matrix(ONE_X_Y)
    assert principal_rank_point(g, build_torus((6, 6))).rank == 34
    assert ranked == []
    report = check_addition(g, SoficSchedule.from_dims([(6, 6)], (3,)))
    assert report.max_residual_routes == 0
    assert [kwargs["seed"] for _, kwargs in ranked] == [derive_rank_seed("add-i", 36, 3)]

    ranked.clear()
    Z12 = finite_group(cyclic_table(12))
    sigma = build_quotient(Z, Z12, [Z12.element(1)])
    assert sigma.dims is None
    assert principal_rank_point(f, sigma, rank_seed=4).rank == 8
    bar = build_sigma_bar(f, sigma)  # rank 8 misses the bound 12: the transpose too
    assert [(m, kwargs["seed"]) for m, kwargs in ranked] == [(bar, 4), (bar.transpose(), 5)]


def _recorded_character_ranks(monkeypatch):
    """The RankResult of every call of ``meanlength._sigma_bar_rank``."""
    results, real = [], meanlength._sigma_bar_rank

    def recorded(f, sigma, seed):
        results.append(real(f, sigma, seed))
        return results[-1]

    monkeypatch.setattr(meanlength, "_sigma_bar_rank", recorded)
    return results


@pytest.mark.parametrize("ring", [INTEGERS, RATIONALS], ids=["Z", "Q"])
def test_relator_free_relative_points_on_cycles_and_tori_rank_from_characters(monkeypatch, ring):
    """A relative point whose rows of B have one term each leaves no relator
    row, so on a cycle or torus over Z or Q it is rank σ̄_M / d from the
    characters, with no elimination: proven, at primes ≡ 1 (mod E).  A is
    x − 1 and y − 1 in one column (t − 1 and t⁻¹ − 1 on Z), whose rank drops
    at the trivial character, or two proportional rows, short at every
    orbit; B is the identity, or one row 2·x, whose coefficient is no unit
    of Z.  Each value is the unquotiented one and rank_over_Q's of σ̄_M."""
    ranked = _recorded_ranks(monkeypatch)
    results = _recorded_character_ranks(monkeypatch)
    scale = Fraction(1, 3) if ring.kind == "Q" else 1
    Z2 = lattice(2)
    models = [(Z, build_cyclic(d)) for d in (1, 7, 12)]
    models += [(Z2, build_torus(dims)) for dims in ((1, 6), (3, 4))]
    for desc, sigma in models:
        x, y = (Z.element(1), Z.element(-1)) if desc == Z else desc.generators()
        e = desc.identity()

        def element(*terms):
            return GroupRingElement.from_terms(desc, ring, [(g, c * scale) for g, c in terms])

        column = GroupRingMatrix(desc, ring, [[element((x, 1), (e, -1))],
                                              [element((y, 1), (e, -1))]])
        proportional = GroupRingMatrix(desc, ring, [
            [element((e, k), (x, k)), element((y, k), (e, -3 * k))] for k in (1, 2)])
        for A in (column, proportional):
            basis = GroupRingMatrix.identity(desc, ring, A.n)
            for B in (basis, GroupRingMatrix(desc, ring, _one_term_rows(desc, ring, A.n, [(0, x, 2)]))):
                pair = RelativePair(A, B, tuple(ball(desc, 1)))
                M, rel_rows = meanlength._quotient_matrix(pair)
                ranked.clear()
                results.clear()
                value = relative_mean_length_at(pair, sigma, rank_seed=5)
                assert rel_rows == 0 and ranked == []
                (result,) = results
                E = math.lcm(*sigma.dims)
                assert result.proven and all((p - 1) % E == 0 for p in result.primes)
                assert value == Fraction(rank_over_Q(build_sigma_bar(M, sigma)).rank, sigma.d)
                assert value == _unquotiented_value(pair, sigma)
                if A is column and B is basis:  # both rows vanish only at the trivial χ
                    assert value == Fraction(sigma.d - 1, sigma.d)


@pytest.mark.parametrize("E", [1, 2, 12, 20, 840, 1000, 3072])
def test_root_of_unity_is_the_first_power_whose_table_has_order_E(E):
    """ω found by its order is the ω of the power table: the first
    x^((p − 1)/E) mod p, x = 2, 3, ..., among whose powers ω^0, ...,
    ω^(E − 1) 1 is met once, at the first four primes ≡ 1 (mod E), which
    ``_character_prime`` finds with their ω."""
    p = 2**30
    for _ in range(4):
        p = next(q for q in range(p + 1, 2**62) if (q - 1) % E == 0 and is_probable_prime(q))
        candidates = (pow(x, (p - 1) // E, p) for x in range(2, p))
        omega = next(w for w in candidates if [pow(w, k, p) for k in range(E)].count(1) == 1)
        assert pow(omega, E, p) == 1
        assert meanlength._root_of_unity(E, p) == omega
        assert meanlength._character_prime(E, p - 1) == (p, omega)


def _orbit_count(d, perms):
    """The orbits of the group the permutations generate on range(d), by a
    plain union-find."""
    parent = list(range(d))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for perm in perms:
        for v in range(d):
            parent[find(v)] = find(int(perm[v]))
    return sum(find(v) == v for v in range(d))


def _character_kernel(f, dims):
    """Σ_χ (n − rank f(χ)) over the characters of the dims torus, f(χ) in
    complex floating point: the kernel of σ̄_f, counted without σ̄_f."""
    total = 0
    for angles in itertools.product(*[range(k) for k in dims]):
        chi = [np.exp(2j * np.pi * a / k) for a, k in zip(angles, dims)]
        value = np.array([[sum(c * np.prod([z ** e for z, e in zip(chi, g.value)])
                               for g, c in x.coeffs.items()) for x in row] for row in f.entries])
        total += f.n - np.linalg.matrix_rank(value, tol=1e-9)
    return total


def test_proven_kernels_match_independent_counts():
    """Criterion 08's kernel + rank = d·n is rank–nullity on a proven rank,
    so its kernels are checked here against counts that share no code with
    the eliminator."""
    s_minus, t_minus = (GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((k,)), 1), (F2.identity(), -1)]) for k in (1, 2))
    f = GroupRingMatrix(F2, INTEGERS, [[s_minus], [t_minus]])
    kernels = []
    for d, seed in [(4, 3), (6, 7), (8, 1), (12, 7), (30, 2)]:
        sigma = build_random_free(2, d, seed)
        assert rank_over_Q(build_sigma_bar(f, sigma)).proven
        pp = principal_rank_point(f, sigma)
        kernels.append(pp.kernel)
        assert pp.kernel == _orbit_count(d, [sigma.perm(F2.element((k,))) for k in (1, 2)])
    assert set(kernels) == {1, 2}

    L2 = lattice(2)
    x, y, e = L2.element((1, 0)), L2.element((0, 1)), L2.identity()
    f = GroupRingMatrix(L2, INTEGERS, [[GroupRingElement.from_terms(L2, INTEGERS, [(x, 1), (e, -1)]),
                                        GroupRingElement.from_terms(L2, INTEGERS, [(y, 1), (e, -1)])]])
    for dims in [(4, 6), (5, 5)]:
        sigma = build_torus(dims)
        assert rank_over_Q(build_sigma_bar(f, sigma)).proven
        pp = principal_rank_point(f, sigma)
        assert pp.kernel == _character_kernel(f, dims) == sigma.d + 1


def test_finite_translation_vrk_exact():
    Z2 = finite_group(cyclic_table(2))
    one_plus_t = GroupRingElement.from_terms(
        Z2, RATIONALS, [(Z2.element(0), 1), (Z2.element(1), 1)])
    f = GroupRingMatrix(Z2, RATIONALS, [[one_plus_t]])
    pp = principal_rank_point(f, build_translation(Z2))
    assert pp.vrk == Fraction(1, 2)


def test_check_addition_integer_case_is_exact():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    report = check_addition(f, SoficSchedule((50, 200)))
    assert report.max_residual_routes == 0
    assert report.max_residual_addition == 0
    for p in report.points:
        assert p.submodule + p.quotient == report.n


def test_check_addition_zero_matrix():
    zero = GroupRingMatrix.zeros(Z, INTEGERS, 1, 2)
    report = check_addition(zero, SoficSchedule((20,)))
    point = report.points[0]
    assert point.submodule == 0
    assert point.quotient == 2
    assert report.max_residual_addition == 0


def test_check_addition_free_group_case():
    s_minus = GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((1,)), 1), (F2.identity(), -1)])
    t_minus = GroupRingElement.from_terms(
        F2, INTEGERS, [(F2.element((2,)), 1), (F2.identity(), -1)])
    f = GroupRingMatrix(F2, INTEGERS, [[s_minus], [t_minus]])
    report = check_addition(f, SoficSchedule((300,), seeds=(1, 2)))
    assert report.max_residual_routes <= Fraction(2, 100)
    assert report.max_residual_addition <= Fraction(2, 100)
    for p in report.points:
        assert abs(p.submodule - 1) <= Fraction(2, 100)


def test_estimate_json_and_csv_shapes():
    f = GroupRingMatrix(Z, INTEGERS, [[_t_minus_one()]])
    est = estimate_vrk_fp(f, SoficSchedule((10, 20)))
    blob = est.to_json_dict()
    assert blob["quantity"] == "vrk"
    assert blob["series"][0] == {"d": 10, "seed": 0, "value_num": 1,
                                 "value_den": 10}
    assert blob["headline_num"] == 1 and blob["headline_den"] == 20
    assert blob["snapped"] == {"num": 0, "den": 1}
    assert len(est.csv_rows()) == 2


def test_assemble_estimate_stabilization_flag():
    series = [SeriesPoint(10, 0, Fraction(1, 2)), SeriesPoint(20, 0, Fraction(1))]
    est = assemble_estimate("mrk", series, Z, snap_tol=0.05)
    assert not est.stabilized
    assert est.headline == 1
    with pytest.raises(MeanLengthError):
        assemble_estimate("mrk", [], Z)
