"""Tests for exact sparse/dense rank computation over GF(p) and over the rationals."""

import collections
import itertools
import operator
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from soficlen import _kernels, exactla
from soficlen.exactla import (
    ExactLAError,
    RankResult,
    SparseMatrix,
    dense_rank_mod_p,
    dense_rank_rational,
    is_probable_prime,
    rank_mod_p,
    rank_over_Q,
    sample_prime,
)
from soficlen.exactla import _MAX_PRIMES, _MIN_PRIMES
from soficlen.groupring import INTEGERS, RATIONALS, GroupRingElement, GroupRingMatrix
from soficlen.groups import lattice
from soficlen.meanlength import blocks_to_sparse, build_sigma_bar
from soficlen.sofic import build_torus


def _matrix(nrows, ncols, triplets, modulus=None):
    rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
    return SparseMatrix(nrows, ncols, rows, cols, vals, modulus)


def _circulant_minus_identity(d, modulus=None):
    triplets = []
    for v in range(d):
        triplets.append((v, v, -1))
        triplets.append(((v + 1) % d, v, 1))
    return _matrix(d, d, triplets, modulus=modulus)


def _random_sparse(rng, nrows, ncols, density=0.2, bound=5):
    triplets = []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                c = rng.randrange(-bound, bound + 1)
                if c:
                    triplets.append((i, j, c))
    return _matrix(nrows, ncols, triplets)


def test_primality_checks():
    assert is_probable_prime(2)
    assert is_probable_prime(2**31 - 1)
    assert not is_probable_prime(1)
    assert not is_probable_prime(561)  # Carmichael number
    assert not is_probable_prime(2**32)


def test_sample_prime_in_range():
    rng = random.Random(0)
    for _ in range(5):
        p = sample_prime(rng)
        assert 2**30 < p < 2**31
        assert is_probable_prime(p)


def test_sparse_matrix_normalization():
    m = _matrix(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, 3)])
    assert m.nnz == 1
    assert m.to_dense()[1][1] == 3
    with pytest.raises(ExactLAError):
        _matrix(2, 2, [(2, 0, 1)])
    with pytest.raises(AttributeError):
        m.row = ()
    for stored in (m.key, m.data, m.transpose().data):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 5


def test_sparse_matrix_refuses_more_positions_than_int64_keys():
    with pytest.raises(ExactLAError, match="no more positions than int64 keys"):
        SparseMatrix(2**32, 2**31)
    m = SparseMatrix(2**32, 2**31 - 1, [2**32 - 1], [2**31 - 2], [1])
    assert (m.row, m.col, m.val) == ((2**32 - 1,), (2**31 - 2,), (1,))


def _reference(triplets, modulus=None):
    """(row, col, val) tuples as the matrix was normalized when it stored
    them: Python-int sums per position, reduced mod the modulus, zeros
    dropped, sorted by (row, col)."""
    acc = {}
    for i, j, v in triplets:
        acc[int(i), int(j)] = acc.get((int(i), int(j)), 0) + int(v)
    entries = [(i, j, v % modulus if modulus else v) for (i, j), v in sorted(acc.items())]
    entries = [e for e in entries if e[2]]
    return tuple(tuple(e[k] for e in entries) for k in range(3))


def _dense(nrows, ncols, triplets):
    out = [[0] * ncols for _ in range(nrows)]
    for i, j, v in triplets:
        out[i][j] += v
    return out


def _fits_int64(values):
    return all(-2**63 <= v < 2**63 for v in values)


T = 2**63
P61 = 2**61 - 1


@pytest.mark.parametrize("triplets, modulus", [
    ([(0, 0, T - 1), (0, 0, T - 1), (1, 1, 1), (1, 0, T - 1)], None),  # a sum past 2**63
    # np.abs(-2**63) is -2**63, so a bound on np.abs(val).max() misses these
    ([(0, 0, -T), (0, 0, -T), (1, 1, 1)], None),
    ([(0, 0, -T), (0, 0, -1), (1, 0, -T), (1, 1, 2)], None),
    ([(0, 0, -T), (0, 1, -T), (1, 0, 1), (1, 1, 1)], None),
    ([(0, 1, 2**70), (1, 0, -3), (0, 1, -2**70 + 5), (1, 1, 2**70)], None),
    ([(0, 0, -5), (0, 1, -T), (1, 1, -1), (1, 1, -1), (1, 0, 7)], 7),
    ([(0, 0, -1), (0, 1, -T), (1, 1, 5)], 2**64 - 59),  # a prime modulus beyond int64
    ([(0, 0, -1), (0, 1, -2), (1, 0, -3), (1, 1, P61 - 6)], P61),
], ids=["sum-past-2**63", "minus-2**63-twice", "minus-2**63-minus-1", "minus-2**63-alone",
        "2**70", "negative-mod-7", "modulus-2**64-59", "negative-mod-2**61-1"])
def test_int64_boundary_against_python_ints(triplets, modulus):
    rows, cols, vals = zip(*triplets)
    ref = _reference(triplets, modulus)
    inputs = [list(vals)] + ([np.array(vals, dtype=np.int64)] if _fits_int64(vals) else [])
    for given in inputs:
        m = SparseMatrix(2, 2, rows, cols, given, modulus)
        assert (m.row, m.col, m.val) == ref and m.nnz == len(ref[2])
        assert all(type(x) is int for x in m.val)
        assert m.data.dtype == (np.int64 if _fits_int64(ref[2]) else object)
        if modulus is None:
            assert rank_over_Q(m).rank == dense_rank_rational(_dense(2, 2, triplets))
        else:
            assert rank_mod_p(m).rank == dense_rank_mod_p(_dense(2, 2, triplets), modulus)


def test_negative_int64_entries_at_a_prime_above_int64_products():
    # det = -(P61 - 6) - 6 = -P61: rank 2 over Q, rank 1 mod 2**61 - 1
    m = SparseMatrix(2, 2, [0, 0, 1, 1], [0, 1, 0, 1],
                     np.array([-1, -2, -3, P61 - 6], dtype=np.int64))
    assert m.data.dtype == np.int64
    assert rank_mod_p(m, P61).rank == 1
    assert rank_over_Q(m).rank == 2


def test_rational_blocks_whose_scaling_leaves_int64():
    q = 2**64 + 13  # odd, so the denominators' lcm is 2q
    blocks = [(np.array([0, 1]), np.array([0, 1]), Fraction(1, q)),
              (np.array([0, 1]), np.array([1, 0]), Fraction(3)),
              (np.array([1]), np.array([1]), Fraction(-1, 2))]
    m = blocks_to_sparse(blocks, 2, 2, RATIONALS)
    triplets = [(i, j, int(c * 2 * q)) for rows, cols, c in blocks
                for i, j in zip(rows.tolist(), cols.tolist())]
    assert (m.row, m.col, m.val) == _reference(triplets)
    assert m.data.dtype == object
    assert rank_over_Q(m).rank == dense_rank_rational(_dense(2, 2, triplets)) == 2


def _random_triplets(rng, nrows, ncols, count):
    scale = rng.choice([3, 2**31, 2**62, 2**63, 2**70])
    return [(rng.randrange(nrows), rng.randrange(ncols), rng.randrange(-scale, scale + 1))
            for _ in range(count)]


def test_arrays_agree_with_the_tuple_normal_form():
    rng = random.Random(2024)
    for trial in range(60):
        nrows, ncols = rng.randrange(0, 12), rng.randrange(0, 12)
        count = rng.randrange(0, nrows * ncols // 4 + 2) if nrows and ncols else 0
        if trial % 10 == 9:  # large and sparse enough to reach the rounds
            nrows, ncols = rng.randrange(100, 140), rng.randrange(100, 140)
            count = rng.randrange(nrows, 3 * nrows)
        triplets = _random_triplets(rng, nrows, ncols, count)
        rows, cols, vals = zip(*triplets) if triplets else ((), (), ())
        m = SparseMatrix(nrows, ncols, rows, cols, vals)
        ref = _reference(triplets)
        assert (m.row, m.col, m.val) == ref and m.nnz == len(ref[2])
        if _fits_int64(vals):
            assert SparseMatrix(nrows, ncols, np.array(rows, dtype=np.int64),
                                np.array(cols, dtype=np.int64),
                                np.array(vals, dtype=np.int64)) == m
        shuffled = rng.sample(triplets, len(triplets))
        assert _matrix(nrows, ncols, shuffled) == m
        t = m.transpose()
        assert (t.nrows, t.ncols) == (ncols, nrows)
        assert (t.row, t.col, t.val) == _reference([(j, i, v) for i, j, v in triplets])
        assert t.transpose() == m
        if ref[2]:
            i, j, v = ref[0][0], ref[1][0], ref[2][0]
            assert _matrix(nrows, ncols, triplets + [(i, j, 1)]) != m
        assert rank_over_Q(m, seed=trial) == _per_prime_block_ranks(m, trial)


def test_sparse_matrix_refuses_non_integral_entries():
    with pytest.raises(ExactLAError, match=r"entry \(0, 0\) is not an integer: 1/2$"):
        SparseMatrix(2, 2, [0, 1], [0, 1], [Fraction(1, 2), 2.7])
    with pytest.raises(ExactLAError, match=r"entry \(1, 1\) is not an integer: 2.7$"):
        SparseMatrix(2, 2, [0, 1], [0, 1], [Fraction(4, 2), 2.7])
    m = SparseMatrix(3, 3, [0, 1, 2], [0, 1, 2], [Fraction(4, 2), np.int64(-3), True])
    assert m.val == (2, -3, 1)
    assert all(type(x) is int for x in m.val)
    assert rank_over_Q(m).rank == 3


@pytest.mark.parametrize("row, col, entry", [
    ([0.5, 1.9], [0, 1.2], "(0.5, 0)"),
    (["1", 0], [0, 1], "('1', 0)"),
    (np.array([0.0, 1.0]), [0, 1], "(0.0, 0)"),
    ([0, 1], [0, Fraction(1, 2)], "(1, Fraction(1, 2))"),
])
def test_sparse_matrix_refuses_non_integer_indices(row, col, entry):
    with pytest.raises(ExactLAError,
                       match=re.escape(f"entry {entry} has an index that is not an integer")):
        SparseMatrix(2, 2, row, col, [1, 1])


def test_sparse_matrix_takes_indices_of_any_integer_type():
    rows = np.array([0, 1], dtype=np.int64)
    assert exactla._indices(rows) is rows  # int64 input is not copied or scanned
    for row, col in ((rows, rows), (rows.astype(np.int32), [np.int64(0), 1]),
                     ([False, True], (0, 1))):
        m = SparseMatrix(2, 2, row, col, [1, 1])
        assert (m.row, m.col, m.val) == ((0, 1), (0, 1), (1, 1))


def test_sparse_matrix_reduction_mod_p():
    r = _matrix(1, 2, [(0, 0, 6), (0, 1, 7)], modulus=3)
    assert r.modulus == 3
    assert r.nnz == 1
    assert r.to_dense()[0][1] == 1


def test_identity_and_zero_rank():
    eye = _matrix(7, 7, [(i, i, 1) for i in range(7)])
    assert rank_mod_p(eye, 5).rank == 7
    zero = SparseMatrix(4, 6)
    assert rank_mod_p(zero, 5).rank == 0
    assert zero.ncols - rank_mod_p(zero, 5).rank == 6
    assert eye.ncols - rank_mod_p(eye, 5).rank == 0


def test_circulant_shift_minus_identity_rank():
    for d in range(2, 9):
        m = _circulant_minus_identity(d)
        assert rank_mod_p(m, 10007).rank == d - 1
        assert dense_rank_rational(m.to_dense()) == d - 1
    big = _circulant_minus_identity(6)
    assert rank_over_Q(big).rank == 5
    assert big.ncols - rank_over_Q(big).rank == 1


def test_rank_depends_on_the_prime():
    two = _matrix(1, 1, [(0, 0, 2)])
    assert rank_mod_p(two, 2).rank == 0
    assert rank_mod_p(two, 3).rank == 1
    result = rank_over_Q(two)
    assert result.rank == 1
    assert result.agreement


def test_diagonal_rank():
    # the last entry is a multiple of seed 0's first prime, whose rank 4
    # misses the bound 5, so that primes 2 and 3 are drawn
    p1 = sample_prime(random.Random(0))
    diag = _matrix(5, 5, [(i, i, i + 1) for i in range(4)] + [(4, 4, 5 * p1)])
    result = rank_over_Q(diag)
    assert result.rank == 5
    assert len(result.primes) >= 3
    assert result.field == "Q"


def test_rank_result_bounds():
    rng = random.Random(8)
    for _ in range(5):
        m = _random_sparse(rng, 12, 9)
        result = rank_mod_p(m, 2**31 - 1)
        assert 0 <= result.rank <= min(m.nrows, m.ncols)


def test_rank_matches_transpose():
    rng = random.Random(21)
    for _ in range(10):
        m = _random_sparse(rng, rng.randrange(1, 15), rng.randrange(1, 15))
        p = 1000003
        assert rank_mod_p(m, p).rank == rank_mod_p(m.transpose(), p).rank
        assert rank_over_Q(m).rank == rank_over_Q(m.transpose()).rank


def test_rank_mod_p_never_exceeds_rational_rank():
    rng = random.Random(31)
    for _ in range(8):
        m = _random_sparse(rng, 10, 10, density=0.3)
        q_rank = rank_over_Q(m).rank
        for p in (2, 3, 5, 7, 1009):
            assert rank_mod_p(m, p).rank <= q_rank


def test_block_diagonal_rank_additivity():
    rng = random.Random(44)
    for _ in range(6):
        a = _random_sparse(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        b = _random_sparse(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        triplets = list(zip(a.row, a.col, a.val))
        triplets += [(i + a.nrows, j + a.ncols, v)
                     for i, j, v in zip(b.row, b.col, b.val)]
        block = _matrix(a.nrows + b.nrows, a.ncols + b.ncols, triplets)
        p = 999983
        assert (rank_mod_p(block, p).rank
                == rank_mod_p(a, p).rank + rank_mod_p(b, p).rank)


def test_sparse_agrees_with_dense_reference():
    """Certified multi-prime sparse rank equals exact rational elimination."""
    rng = random.Random(60)
    for trial in range(8):
        size = rng.randrange(5, 61)
        m = _random_sparse(rng, size, size, density=0.15, bound=9)
        assert rank_over_Q(m).rank == dense_rank_rational(m.to_dense())


def test_dense_rank_rational_fractions():
    dense = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2, 1)]]
    assert dense_rank_rational(dense) == 2
    dense_singular = [[Fraction(1, 2), Fraction(1, 4)], [Fraction(2), Fraction(1)]]
    assert dense_rank_rational(dense_singular) == 1


def test_dense_rank_mod_p_huge_prime():
    # primes above the word-size kernel limit take the arbitrary-precision path
    p = (1 << 61) - 1
    a = [[1, 2], [3, 4]]
    assert dense_rank_mod_p(a, p) == 2
    assert dense_rank_mod_p([[p]], p) == 0
    # entries beyond int64 at a prime below the word-size limit
    assert dense_rank_mod_p([[2**70, 1], [2**71, 2]], 2**31 - 1) == 1


PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


@pytest.mark.parametrize("p", [PSI_12, PSI_13, 2**89 - 1])
def test_moduli_beyond_the_exact_primality_range_are_refused(p):
    # the first two are composite strong pseudoprimes to every witness of
    # the primality test, the third a prime it cannot tell from them
    with pytest.raises(ExactLAError, match=f"modulus {p} is not below {PSI_12}"):
        is_probable_prime(p)
    with pytest.raises(ExactLAError, match=f"modulus {p} is not below {PSI_12}"):
        SparseMatrix(1, 1, [0], [0], [1], modulus=p)
    with pytest.raises(ExactLAError, match=f"modulus {p} is not below {PSI_12}"):
        rank_mod_p(_matrix(1, 1, [(0, 0, 1)]), p)
    for a in ([[399165290221]], _matrix(1, 1, [(0, 0, 1)])):
        with pytest.raises(ExactLAError, match=f"modulus {p} is not below {PSI_12}"):
            dense_rank_mod_p(a, p)
    assert is_probable_prime(2**64 - 59) and 2**64 - 59 < PSI_12


@pytest.mark.parametrize("p", [4, 1, 0, -7])
def test_dense_rank_mod_p_refuses_a_modulus_that_is_not_prime(p):
    # mod 4, diag(3, 3) would be rank 2 and diag(2, 2) would fail in pow
    for a in ([[3, 0], [0, 3]], [[2, 0], [0, 2]], _matrix(2, 2, [(0, 0, 1)])):
        with pytest.raises(ExactLAError, match=f"{p} is not prime"):
            dense_rank_mod_p(a, p)


def test_empty_dense_matrix_has_rank_zero_at_every_prime():
    for p in (7, 2**31 - 1, (1 << 61) - 1):
        assert dense_rank_mod_p([], p) == 0
        assert dense_rank_mod_p(SparseMatrix(0, 3, [], [], []), p) == 0


def test_dense_kernel_agrees_with_rational_rank():
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = rng.integers(-20, 21, size=(rng.integers(1, 40), rng.integers(1, 40)))
        assert _kernels.dense_rank_mod_p(a, 2**31 - 1) == dense_rank_rational(a.tolist())


def test_rank_mod_p_requires_a_modulus():
    m = _matrix(1, 1, [(0, 0, 1)])
    with pytest.raises(ExactLAError):
        rank_mod_p(m)
    reduced = SparseMatrix(1, 1, m.row, m.col, m.val, modulus=7)
    assert rank_mod_p(reduced).rank == 1


def test_rank_over_q_rejects_modular_input():
    m = _matrix(1, 1, [(0, 0, 1)], modulus=7)
    with pytest.raises(ExactLAError):
        rank_over_Q(m)


def test_rank_result_fields():
    r = RankResult(3, "GF(7)", (7,), True)
    assert r.agreement
    assert r.rank == 3


def test_deterministic_rank_over_q_seeding():
    rng = random.Random(3)
    m = _random_sparse(rng, 20, 20, density=0.25)
    a = rank_over_Q(m, seed=5)
    b = rank_over_Q(m, seed=5)
    assert a.rank == b.rank and a.primes == b.primes


# --- the sparse eliminator: rounds of independent pivots, then the dense tail
#
# An active block that is a quarter nonzero or more goes straight to the dense
# tail, so these matrices are sparse enough to reach the rounds.

def _low_rank_products(count, seed):
    """Products of a random sparse nrows x inner and inner x ncols matrix
    with entries in [-2, 2]: rank at most ``inner``, and eliminating them
    cancels entries that are nonzero at the start."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nrows, ncols = (int(x) for x in rng.integers(150, 401, size=2))
        inner = int(rng.integers(20, 141))
        density = np.sqrt(rng.uniform(0.03, 0.2) / inner)
        a = rng.integers(-2, 3, size=(nrows, inner)) * (rng.random((nrows, inner)) < density)
        b = rng.integers(-2, 3, size=(inner, ncols)) * (rng.random((inner, ncols)) < density)
        c = a @ b
        i, j = np.nonzero(c)
        out.append(SparseMatrix(nrows, ncols, i, j, c[i, j].tolist()))
    return out


PRODUCTS = _low_rank_products(100, seed=80)


@pytest.fixture
def rounds(monkeypatch):
    """Calls of the pivot search, one per round of the sparse eliminator."""
    calls = []
    real = exactla._independent_pivots

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(exactla, "_independent_pivots", counted)
    return calls


def _leading(m, k):
    """The first k rows of m, built from its triplets."""
    return _matrix(k, m.ncols, [e for e in zip(m.row, m.col, m.val) if e[0] < k])


def _dense_block_ranks(m, p, cuts):
    """The dense kernel's ranks mod p of the first cuts[k] rows, built from
    triplets, and of the whole matrix."""
    ranks = {k: dense_rank_mod_p(_leading(m, k), p) for k in set(cuts)}
    return [ranks[k] for k in cuts] + [dense_rank_mod_p(m, p)]


def _dense_rank_bounds(m, cuts):
    """min(R - [every column sums to 0], C - [every row sums to 0]) for the
    R nonzero rows and C nonzero columns of the first cuts[k] rows and of
    all rows, summed in Python ints from the dense matrix."""
    dense = m.to_dense()
    bounds = []
    for k in [*cuts, m.nrows]:
        rows = [row for row in dense[:k] if any(row)]
        cols = [col for col in zip(*rows) if any(col)]
        bounds.append(min(len(rows) - all(sum(col) == 0 for col in cols),
                          len(cols) - all(sum(row) == 0 for row in rows)) if rows else 0)
    return bounds


def _per_prime_block_ranks(m, seed=0, cuts=()):
    """rank_over_Q's prime loop with every prime and block prefix ranked by
    the dense kernel: proven if the first prime meets every prefix's bound,
    else certified once two primes reach each prefix's maximum."""
    rng = random.Random(seed)
    primes = [exactla.sample_prime(rng)]
    ranks = [_dense_block_ranks(m, primes[0], cuts)]
    proven = agreement = ranks[0] == _dense_rank_bounds(m, cuts)
    while not agreement and len(primes) < _MAX_PRIMES:
        p = exactla.sample_prime(rng)
        if p in primes:
            continue
        primes.append(p)
        ranks.append(_dense_block_ranks(m, p, cuts))
        agreement = len(primes) >= _MIN_PRIMES and all(
            prefix.count(max(prefix)) >= 2 for prefix in zip(*ranks))
    *leading, rank = (max(prefix) for prefix in zip(*ranks))
    return RankResult(rank, "Q", tuple(primes), agreement, tuple(leading), proven)


def test_rounds_give_the_dense_rank_of_rank_deficient_products(rounds):
    # fill vanishes most often mod 2 and 3
    for p, products in ((2**31 - 1, PRODUCTS), (2, PRODUCTS[::10]), (3, PRODUCTS[::10])):
        for m in products:
            before = len(rounds)
            assert rank_mod_p(m, p).rank == dense_rank_mod_p(m, p) < min(m.nrows, m.ncols)
            assert len(rounds) > before  # the matrix reached the rounds
    small = sorted(PRODUCTS, key=lambda m: m.nrows * m.ncols * m.nnz)[:2]
    for m in small:
        assert rank_over_Q(m).rank == dense_rank_rational(m)


def test_rounds_over_a_prime_above_int64_products(rounds):
    p = 2**61 - 1  # residues are Python ints in an object array
    for m in PRODUCTS[5::10]:
        before = len(rounds)
        assert rank_mod_p(m, p).rank == dense_rank_mod_p(m, p)
        assert len(rounds) > before


def _determinant_p2_blocks(blocks):
    """The first two primes of seed 0, and 2 x 2 blocks [[2, 1], [3, (p2 +
    3) / 2]] down the diagonal.  Each has determinant p2: after the first
    pivot of a block, its Schur complement entry is zero mod p2 alone."""
    rng = random.Random(0)
    p1, p2 = sample_prime(rng), sample_prime(rng)
    triplets = []
    for b in range(blocks):
        i = 2 * b
        triplets += [(i, i, 2), (i, i + 1, 1), (i + 1, i, 3), (i + 1, i + 1, (p2 + 3) // 2)]
    return p1, p2, triplets


def _copy_row_and_column(nrows, ncols, triplets, i, j):
    """The matrix with row i copied into a new last row and column j into a
    new last column: its rank is the same at every prime, and it has one
    more nonempty row and column, so a rank that met min(R, C) misses it."""
    row = [(nrows, c, v) for r, c, v in triplets if r == i]
    col = [(r, ncols, v) for r, c, v in triplets + row if c == j]
    return _matrix(nrows + 1, ncols + 1, triplets + row + col)


def test_pivots_vanishing_mod_the_prime(rounds):
    blocks = 60
    p1, p2, triplets = _determinant_p2_blocks(blocks)
    # and a lone entry that is a multiple of p2, in a column and row of its own
    triplets.append((2 * blocks, 2 * blocks, 3 * p2))
    gen = random.Random(91)
    for i in range(2 * blocks + 1, 2 * blocks + 30):
        for j in range(2 * blocks + 1, 2 * blocks + 30):
            if gen.random() < 0.1:
                triplets.append((i, j, gen.randrange(1, 5)))
    side = 2 * blocks + 30
    # the row and column of the random part's first entry copied, so that
    # the first prime's rank misses the bound and primes 2 and 3 are drawn
    i, j, _ = triplets[4 * blocks + 1]
    m = _copy_row_and_column(side, side, triplets, i, j)
    assert rank_mod_p(m, p2).rank == dense_rank_mod_p(m, p2)
    assert rounds
    assert rank_mod_p(m, p1).rank == dense_rank_mod_p(m, p1) == dense_rank_rational(m)
    assert rank_mod_p(m, p2).rank == rank_mod_p(m, p1).rank - blocks - 1
    result = rank_over_Q(m, seed=0)
    assert result.primes[:2] == (p1, p2)
    assert result == _per_prime_block_ranks(m, 0)
    assert result.rank == dense_rank_rational(m)


def _fill_vanishing_mod_p2(n):
    """The first two primes of seed 0, and [[I, B], [C, CB + p2 M]] with n x
    n blocks.  B and C have entries in [1, 3] on three shifted diagonals
    each, so CB has seven and M, of entries in [-2, 2], has CB's pattern.
    Every entry is nonzero mod the first three primes, and the identity
    block's Markowitz scores (9) are the only ones below 27, so the first
    round pivots on it and leaves p2 M: zero mod p2 alone, and 7/n full."""
    rng = random.Random(0)
    p1, p2 = sample_prime(rng), sample_prime(rng)
    gen = random.Random(8)

    def diagonals(shifts):
        a = np.zeros((n, n), dtype=np.int64)
        for shift in shifts:
            a[np.arange(n), (np.arange(n) + shift) % n] = [gen.randrange(1, 4) for _ in range(n)]
        return a

    b, c = diagonals((0, 2, 5)), diagonals((0, 1, 3))
    cb = c @ b
    m = np.array([[gen.choice([-2, -1, 1, 2]) if x else 0 for x in row] for row in cb])
    a = np.block([[np.eye(n, dtype=np.int64), b], [c, cb + p2 * m]])
    i, j = np.nonzero(a)
    return p1, p2, list(zip(i.tolist(), j.tolist(), a[i, j].tolist()))


def test_primes_part_ways_after_a_shared_round(rounds, monkeypatch):
    blocks = 24
    p1, p2, triplets = _fill_vanishing_mod_p2(blocks)
    # row and column 0 copied: rank 2 * blocks misses the bound 2 * blocks + 1,
    # and the copies' entries at rows and columns 0 and 2 * blocks score 16,
    # so the first round pivots on one of them with the identity block
    m = _copy_row_and_column(2 * blocks, 2 * blocks, triplets, 0, 0)
    calls = []  # (prime, rounds before the call) per call
    real = exactla._sparse_ranks

    def recorded(*args):
        calls.append((args[-1], len(rounds)))
        return real(*args)

    monkeypatch.setattr(exactla, "_sparse_ranks", recorded)
    result = rank_over_Q(m, seed=0)
    assert result.primes[:2] == (p1, p2)
    assert result == _per_prime_block_ranks(m, 0)
    assert result.rank == dense_rank_rational(m) == 2 * blocks
    assert result.agreement and not result.proven
    # one call per drawn prime, in draw order, each taking that round alone:
    # the first misses the bound; mod p2 the round leaves p2 M, zero mod p2
    # alone, so nothing is live; mod the others p2 M goes to the dense
    # kernel with no more rounds, as it is more than a quarter full
    assert calls == [(p1, 0), (p2, 1), (result.primes[2], 2)]
    assert rank_mod_p(m, p2).rank == blocks


def test_a_schur_round_equals_the_complement_in_python_ints():
    # 9 x 10 matrices of residues, 60% nonzero, with four independent pivots
    # whose rows and columns cross in zeros only
    gen = random.Random(12)
    nrows, ncols = 9, 10
    pivots = {1: 6, 4: 2, 5: 0, 8: 9}  # row: column
    other_rows = set(range(nrows)) - set(pivots)
    other_cols = set(range(ncols)) - set(pivots.values())
    for p, dtype in ((2**31 - 1, np.int64), (P61, object)):
        dense = [[gen.randrange(1, p) if gen.random() < 0.6 else 0 for _ in range(ncols)]
                 for _ in range(nrows)]
        for i in pivots:
            for j in pivots.values():
                dense[i][j] = gen.randrange(1, p) if pivots[i] == j else 0
        entries = [(i * ncols + j, x) for i, row in enumerate(dense)
                   for j, x in enumerate(row) if x]
        key = np.array([k for k, _ in entries])
        r, c = np.divmod(key, ncols)
        at = np.flatnonzero(np.isin(key, [i * ncols + j for i, j in pivots.items()]))
        out_key, out_v = exactla._schur_update(
            key, np.array([x for _, x in entries], dtype=dtype), r, c,
            np.bincount(r, minlength=nrows), at, ncols, p)
        assert out_v.dtype == dtype and np.all(np.diff(out_key) > 0)
        assert all(0 <= x < p for x in out_v.tolist())
        expected = {}
        for i in other_rows:
            for j in other_cols:
                x = dense[i][j] - sum(dense[i][pj] * pow(dense[pi][pj], -1, p) * dense[pi][j]
                                      for pi, pj in pivots.items())
                if x % p:
                    expected[i * ncols + j] = x % p
        assert {k: x for k, x in zip(out_key.tolist(), out_v.tolist()) if x} == expected
        # the round fills zeros and updates nonzeros, some from several pivots
        assert set(expected) - set(key.tolist()) and set(expected) & set(key.tolist())
        assert any(sum(1 for pi, pj in pivots.items() if dense[i][pj] and dense[pi][j]) > 1
                   for i in other_rows for j in other_cols)


def test_rank_over_q_equals_the_per_prime_loop():
    for m in PRODUCTS[:12]:
        for seed in (0, 1):
            assert rank_over_Q(m, seed=seed) == _per_prime_block_ranks(m, seed)


def test_reranking_gives_identical_results():
    for m in PRODUCTS[::25]:
        assert rank_over_Q(m, seed=3) == rank_over_Q(m, seed=3)
        assert rank_mod_p(m, 2**61 - 1) == rank_mod_p(m, 2**61 - 1)


# --- nested row blocks: the rank of every leading block from one elimination

def _random_cuts(rng, nrows):
    """One to four nondecreasing row counts; 0, nrows and repeats are likely."""
    picks = [0, nrows, rng.randrange(nrows + 1), rng.randrange(nrows + 1)]
    return tuple(sorted(rng.choice(picks) for _ in range(rng.randrange(1, 5))))


def _random_triplet_matrices(rng, count):
    """Random sparse matrices with entries up to 2**70; every tenth is large
    and sparse enough to reach the rounds."""
    out = []
    for trial in range(count):
        nrows, ncols = rng.randrange(0, 12), rng.randrange(0, 12)
        size = rng.randrange(0, nrows * ncols // 4 + 2) if nrows and ncols else 0
        if trial % 10 == 9:
            nrows, ncols = rng.randrange(100, 140), rng.randrange(100, 140)
            size = rng.randrange(nrows, 3 * nrows)
        triplets = _random_triplets(rng, nrows, ncols, size)
        out.append(_matrix(nrows, ncols, triplets))
    return out


def _thin_matrices():
    """Thin matrices with entries in [-3, 3]: 5000 x 64 at 3%, 64 x 3000 at
    10%, a 3000 x 64 product of rank at most 12, a row and a column."""
    rng = np.random.default_rng(21)

    def sparse(nrows, ncols, density):
        return rng.integers(-3, 4, size=(nrows, ncols)) * (rng.random((nrows, ncols)) < density)

    out = []
    for a in [sparse(5000, 64, 0.03), sparse(64, 3000, 0.1),
              sparse(3000, 12, 0.08) @ sparse(12, 64, 0.08),
              sparse(1, 2000, 0.05), sparse(2000, 1, 0.05)]:
        i, j = np.nonzero(a)
        out.append(SparseMatrix(*a.shape, i, j, a[i, j]))
    return out


def test_block_ranks_equal_the_dense_ranks_of_the_leading_rows(rounds, monkeypatch):
    blocks = []  # every block the dense kernel receives
    real = _kernels.dense_rank_mod_p

    def recorded(a, p):
        blocks.append(np.array(a))
        return real(a, p)

    monkeypatch.setattr(_kernels, "dense_rank_mod_p", recorded)
    rng = random.Random(77)
    matrices = _random_triplet_matrices(rng, 40) + PRODUCTS[::4]
    for k, m in enumerate(matrices + _thin_matrices()):
        cuts = _random_cuts(rng, m.nrows)
        live_area = len(set(m.row)) * len(set(m.col))
        slow = 40 <= k < len(matrices)  # P61 is slow on products
        for p in [2**31 - 1] if slow else [2**31 - 1, P61]:
            result = rank_mod_p(m, p, cuts=cuts)
            assert [*result.leading_ranks, result.rank] == _dense_block_ranks(m, p, cuts)
            before, start = len(rounds), len(blocks)
            assert rank_mod_p(m, p).rank == result.rank
            # with no cuts the live block is handed over whole, and only once
            # it is a quarter nonzero: the rounds run if it is not at the start
            assert all(4 * np.count_nonzero(b) >= b.size for b in blocks[start:])
            assert (len(rounds) > before) == (4 * m.nnz < live_area)
        if k < 40 or k % 20 == 0:
            assert rank_over_Q(m, seed=k, cuts=cuts) == _per_prime_block_ranks(m, k, cuts)


def test_block_ranks_when_the_primes_part_ways_mid_block(rounds, monkeypatch):
    blocks = 60
    p1, p2, triplets = _determinant_p2_blocks(blocks)
    gen = random.Random(5)
    # a band of four rows in the first block, each a combination of the first
    # rows of the 2 x 2 blocks 0..9: it adds no rank at any prime, and it
    # raises those blocks' column counts, so that the first round leaves them
    # live while it pivots the other blocks
    for k in range(4):
        for b in range(10):
            a = gen.randrange(1, 5)
            triplets += [(2 * blocks + k, 2 * b, 2 * a), (2 * blocks + k, 2 * b + 1, a)]
    cut = 2 * blocks + 4
    # a second block under it, on the same columns
    triplets += [(cut + gen.randrange(40), gen.randrange(2 * blocks), gen.randrange(1, 5))
                 for _ in range(100)]
    # the last 2 x 2 block's first row and column copied, the row into the
    # second block: the first block's rank 2 * blocks misses its bound
    # 2 * blocks + 1, so that primes 2 and 3 are drawn
    m = _copy_row_and_column(cut + 40, 2 * blocks, triplets, 2 * blocks - 2, 2 * blocks - 2)
    calls = []  # the prime of each call
    real = exactla._sparse_ranks

    def recorded(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(exactla, "_sparse_ranks", recorded)
    result = rank_over_Q(m, seed=0, cuts=(cut,))
    assert result.primes[:2] == (p1, p2)
    assert result == _per_prime_block_ranks(m, 0, (cut,))
    assert result.leading_ranks == (2 * blocks,)
    assert result.agreement and not result.proven
    # one call per drawn prime, each passed that prime alone, in draw order
    assert calls == list(result.primes)
    at_p2 = rank_mod_p(m, p2, cuts=(cut,))
    assert [*at_p2.leading_ranks, at_p2.rank] == _dense_block_ranks(m, p2, (cut,))
    assert at_p2.leading_ranks == (blocks,)


def test_block_ranks_when_the_dense_tail_comes_before_the_first_block_is_done(
        rounds, monkeypatch):
    m = PRODUCTS[0]
    cut = m.nrows // 2
    shapes = []
    real = _kernels.dense_rank_mod_p

    def recorded(a, p):
        shapes.append(np.shape(a))
        return real(a, p)

    monkeypatch.setattr(_kernels, "dense_rank_mod_p", recorded)
    result = rank_mod_p(m, 2**31 - 1, cuts=(cut,))
    assert rounds
    # one kernel call for the live rows of the first block, one for all of them
    assert len(shapes) == 2 and 0 < shapes[0][0] < shapes[1][0]
    assert [*result.leading_ranks, result.rank] == _dense_block_ranks(m, 2**31 - 1, (cut,))


def test_block_rule_keeps_a_later_row_from_an_earlier_block_column(monkeypatch):
    # block 1: row i meets column i and two more; block 2: row 100 + i is the
    # lone entry 1 in column i, of Markowitz score 0, in a column of block 1
    gen = random.Random(6)
    triplets = [(i, j, gen.randrange(1, 5)) for i in range(100)
                for j in (i, gen.randrange(200), gen.randrange(200))]
    triplets += [(100 + i, i, 1) for i in range(100)]
    m = _matrix(200, 200, triplets)
    seen = []  # the rows passed in each round, and whether block 2 was live
    real = exactla._independent_pivots

    def recorded(r, c, row_nnz, col_nnz, ncols):
        seen.append((r.copy(), row_nnz[100:].any()))
        return real(r, c, row_nnz, col_nnz, ncols)

    monkeypatch.setattr(exactla, "_independent_pivots", recorded)
    result = rank_mod_p(m, 2**31 - 1, cuts=(100,))
    # r is sorted: a row below 100 is live while r[0] is one
    first_block_rounds = [(r, later) for r, later in seen if r[0] < 100]
    assert first_block_rounds and first_block_rounds[0][1]
    assert all(r[-1] < 100 for r, _ in first_block_rounds)
    assert [*result.leading_ranks, result.rank] == _dense_block_ranks(m, 2**31 - 1, (100,))


def test_every_block_prefix_is_certified_by_two_primes():
    rng = random.Random(0)
    p1, p2 = sample_prime(rng), sample_prime(rng)
    # the first row vanishes mod p1 and p2; the whole has rank 1 at every prime
    m = _matrix(2, 2, [(0, 0, p1 * p2), (1, 0, 1)])
    result = rank_over_Q(m, seed=0, cuts=(1,))
    assert result == _per_prime_block_ranks(m, 0, (1,))
    assert (result.leading_ranks, result.rank, len(result.primes)) == ((1,), 1, 4)


@pytest.mark.parametrize("cuts", [(-1,), (3, 2), (6,)])
def test_cuts_must_be_nondecreasing_row_counts(cuts):
    m = _circulant_minus_identity(5)
    with pytest.raises(ExactLAError, match="not nondecreasing row counts"):
        rank_mod_p(m, 7, cuts=cuts)
    with pytest.raises(ExactLAError, match="not nondecreasing row counts"):
        rank_over_Q(m, cuts=cuts)


# --- relaxed rounds: the pivot set of each round

def _lattice_sigma_bar(entries, dims):
    """sigma-bar over Z[Z^2] on the dims torus of the matrix whose entries
    are lists of (group element, coefficient) terms."""
    L2 = lattice(2)
    f = GroupRingMatrix(L2, INTEGERS, [
        [GroupRingElement.from_terms(L2, INTEGERS, [(L2.element(g), c) for g, c in terms])
         for terms in row] for row in entries])
    return build_sigma_bar(f, build_torus(dims))


def _torus_sigma_bar():
    """sigma-bar of f = [[1 + x, y], [x, 1 - y]] over Z[Z^2] on the 20 x 20
    torus: an 800 x 800 grid pattern."""
    return _lattice_sigma_bar([[[((0, 0), 1), ((1, 0), 1)], [((0, 1), 1)]],
                               [[((1, 0), 1)], [((0, 0), 1), ((0, 1), -1)]]], (20, 20))


def _banded(n, width, seed):
    """An n x n band, A[i, j] nonzero for |i - j| <= width."""
    gen = random.Random(seed)
    return _matrix(n, n, [(i, j, gen.randrange(1, 5)) for i in range(n)
                          for j in range(max(0, i - width), min(n, i + width + 1))])


def test_every_round_pivots_an_independent_relaxed_set_of_the_earliest_block(monkeypatch):
    rng = random.Random(19)
    matrices = [*_random_triplet_matrices(rng, 30)[9::10], *PRODUCTS[::20],
                _banded(300, 2, seed=3), _torus_sigma_bar()]
    real = exactla._independent_pivots
    for m in matrices:
        for cuts in ((), _random_cuts(rng, m.nrows), (m.nrows // 3, 2 * m.nrows // 3)):
            bounds = np.array([*cuts, m.nrows])
            seen = []

            def checked(r, c, row_nnz, col_nnz, ncols):
                # r and c are every live entry of the earliest block with a live row
                live = np.flatnonzero(row_nnz)
                end = bounds[np.searchsorted(bounds, live[0], side="right")]
                assert np.array_equal(np.bincount(r, minlength=end), row_nnz[:end])
                pivots = real(r, c, row_nnz, col_nnz, ncols)
                pr, pc = r[pivots], c[pivots]
                assert pivots.size and pr.max() < end
                assert np.unique(pr).size == np.unique(pc).size == pivots.size
                # the entries in pivot rows and pivot columns are the pivots alone
                crossing = np.isin(r, pr) & np.isin(c, pc)
                assert np.array_equal(np.flatnonzero(crossing), np.sort(pivots))
                score = (row_nnz[r] - 1) * (col_nnz[c] - 1)
                least = score.min()
                assert score[pivots].max() <= max(2 * least, least + 2)
                seen.append(pivots.size)
                return pivots

            monkeypatch.setattr(exactla, "_independent_pivots", checked)
            rank_mod_p(m, 2**31 - 1, cuts=cuts)
            assert seen  # the matrix reached the rounds


def test_priorities_of_keys_near_2_63_stay_distinct():
    # the last rows of a matrix with as many positions as int64 keys allow;
    # a full 3 x 4 grid of entries, of equal score, where any two pivots
    # would meet in a row, a column or a crossing entry
    nrows = 2**16
    ncols = (2**63 - 1) // nrows
    r = np.repeat(np.arange(nrows - 3, nrows), 4)
    c = np.tile(np.arange(4), 3)
    keys = [int(i) * ncols + int(j) for i, j in zip(r, c)]
    assert min(keys) > 2**63 - 4 * ncols
    signed = [k * 0x9E3779B97F4A7C15 % 2**64 for k in keys]
    signed = [x - 2**64 if x >= 2**63 else x for x in signed]
    assert len(set(signed)) == len(keys) and min(signed) < 0 < max(signed)
    pivots = exactla._independent_pivots(r, c, np.bincount(r, minlength=nrows),
                                         np.bincount(c, minlength=4), ncols)
    assert pivots.tolist() == [signed.index(min(signed))]


def test_relaxed_rounds_on_a_torus(rounds):
    m = _torus_sigma_bar()
    assert rank_mod_p(m, 2**31 - 1).rank == 800
    # 62 rounds when only the entries of minimal score were candidates
    assert len(rounds) <= 26


# --- proven ranks: the first prime against an exact upper bound

def _with_zero_sums(m, rows, cols):
    """m with a last column of minus each row's sum if ``rows``, then a last
    row of minus each column's sum if ``cols``: every row, or every column,
    then sums to 0."""
    dense = m.to_dense()
    ncols = m.ncols + rows
    if rows:
        dense = [row + [-sum(row)] for row in dense]
    if cols:
        dense.append([-sum(col) for col in zip(*dense)] if dense else [0] * ncols)
    return _matrix(len(dense), ncols, [(i, j, v) for i, row in enumerate(dense)
                                       for j, v in enumerate(row) if v])


def test_rank_bounds_are_at_least_the_rational_ranks():
    rng = random.Random(404)
    matrices = [m for m in _random_triplet_matrices(rng, 40) if m.nrows < 100]
    matrices += [_with_zero_sums(m, rows, cols) for m in matrices[:30]
                 for rows, cols in ((True, False), (False, True), (True, True))]
    # int64 entries whose int64 row and column sums wrap to 0, and a zero matrix
    a = 2**63 - 1
    wrapped = _matrix(3, 3, [(i, (i + k) % 3, v) for i in range(3)
                             for k, v in enumerate((a, a, 2))])
    assert wrapped.data.dtype == np.int64 and int(wrapped.data.sum()) == 0
    matrices += [wrapped, SparseMatrix(3, 4)]
    lowered = 0  # matrices whose zero sums lower their bound below min(R, C)
    for m in matrices:
        cuts = (0, *_random_cuts(rng, m.nrows))
        bounds = exactla._rank_bounds(m, cuts)
        assert bounds == _dense_rank_bounds(m, cuts)
        assert all(bound >= dense_rank_rational(_leading(m, k))
                   for bound, k in zip(bounds, [*cuts, m.nrows]))
        assert bounds[0] == 0
        lowered += bounds[-1] < min(len(set(m.row)), len(set(m.col)))
    assert lowered >= 30
    assert exactla._rank_bounds(wrapped, ()) == [3] == [dense_rank_rational(wrapped)]
    assert exactla._rank_bounds(SparseMatrix(3, 4), (0, 2)) == [0, 0, 0]


def test_a_proven_rank_takes_the_first_prime_alone():
    # full rank, and rank 8 = C - 1 with every row summing to 0
    for m, seed, rank in ((_matrix(5, 5, [(i, i, i + 1) for i in range(5)]), 0, 5),
                          (_torus_sigma_bar(), 7, 800), (_circulant_minus_identity(9), 3, 8)):
        result = rank_over_Q(m, seed=seed, cuts=(m.nrows // 2,))
        assert result.primes == (sample_prime(random.Random(seed)),)
        assert result.proven and result.agreement and result.rank == rank
        assert result == _per_prime_block_ranks(m, seed, (m.nrows // 2,))
        assert rank_mod_p(m, 2**31 - 1).proven


def test_a_rank_below_the_bound_takes_the_agreement_path():
    # f = 1 + x + y on the 21 x 21 torus: 1 + w^a + w^b vanishes at the two
    # characters with {w^a, w^b} = {w3, w3^2}, so the rank is d - 2, while
    # the bound is d
    m = _lattice_sigma_bar([[[((0, 0), 1), ((1, 0), 1), ((0, 1), 1)]]], (21, 21))
    d = 21 * 21
    assert exactla._rank_bounds(m, ()) == [d]
    result = rank_over_Q(m, seed=5)
    assert result.rank == d - 2
    assert len(result.primes) >= 3 and result.agreement and not result.proven


def test_a_first_prime_that_divides_a_minor_falls_back_to_agreement(monkeypatch):
    p1 = 2**31 - 1
    real = exactla.sample_prime
    drawn = []

    def first_p1(rng):
        drawn.append(p1 if not drawn else real(rng))
        return drawn[-1]

    monkeypatch.setattr(exactla, "sample_prime", first_p1)
    m = _matrix(2, 2, [(0, 0, p1), (1, 1, 1)])
    result = rank_over_Q(m, cuts=(1,))
    assert result.primes[0] == p1 and len(result.primes) >= 3
    assert (result.leading_ranks, result.rank) == ((1,), 2)
    assert result.agreement and not result.proven


def test_the_prime_loop_skips_a_repeated_draw_and_stops_after_the_last_prime(monkeypatch):
    gen = random.Random(31)
    distinct = []  # q_1, ..., q_12
    while len(distinct) < _MAX_PRIMES:
        q = sample_prime(gen)
        if q not in distinct:
            distinct.append(q)
    sequence = [distinct[0], *distinct]  # q_1 drawn twice in a row
    draws = collections.Counter()  # per generator

    def drawn(rng):
        draws[rng] += 1
        return sequence[draws[rng] - 1]

    # diag(d_1, ..., d_12) with d_j = q_1 ... q_j: mod q_i the first i - 1
    # entries alone are nonzero, so q_12 alone reaches the maximum 11, below
    # the bound 12, and no two primes agree on it
    m = _matrix(12, 12, [(j, j, d) for j, d in enumerate(itertools.accumulate(
        distinct, operator.mul))])
    assert exactla._rank_bounds(m, ()) == [12]
    monkeypatch.setattr(exactla, "sample_prime", drawn)
    ranked = []  # the primes of each call on the matrix's own arrays
    real = exactla._sparse_ranks

    def recorded(*args):
        if args[2] is m.key:
            ranked.extend(np.ravel(args[-1]).tolist())
        return real(*args)

    monkeypatch.setattr(exactla, "_sparse_ranks", recorded)
    result = rank_over_Q(m)
    assert list(draws.values()) == [_MAX_PRIMES + 1]
    assert ranked == distinct  # each drawn prime ranked once, in draw order
    assert result.primes == tuple(distinct)
    assert (result.rank, result.agreement, result.proven) == (11, False, False)
    assert result == _per_prime_block_ranks(m)
