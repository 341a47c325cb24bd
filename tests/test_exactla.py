"""Tests for exact sparse/dense rank computation over GF(p) and over the rationals."""

import random
from fractions import Fraction

import numpy as np
import pytest

from soficlen import _kernels
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
from soficlen.exactla import _MAX_PRIMES, _MIN_PRIMES, _sparse_rank


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
    diag = _matrix(5, 5, [(i, i, i + 1) for i in range(5)])
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


# --- the sparse driver: pivots chosen at the first prime, replayed at the rest
#
# An active block of area <= 4096 goes straight to the dense tail, so these
# matrices are large and thin enough for the Markowitz search to pick pivots.

def _heap_only_rank_over_q(m, seed=0):
    """rank_over_Q's prime loop with every prime ranked by its own search."""
    rng = random.Random(seed)
    primes, ranks = [], []
    while len(primes) < _MAX_PRIMES:
        p = sample_prime(rng)
        if p in primes:
            continue
        primes.append(p)
        ranks.append(rank_mod_p(m, p).rank)
        if len(primes) >= _MIN_PRIMES and ranks.count(max(ranks)) >= 2:
            return max(ranks), tuple(primes), True
    return max(ranks), tuple(primes), False


def test_replayed_pivots_give_the_heap_only_rank():
    rng = random.Random(90)
    for nrows, ncols in ((200, 200), (260, 200), (200, 240)):
        m = _random_sparse(rng, nrows, ncols, density=0.012, bound=4)
        _, pivots = _sparse_rank(m.nrows, m.ncols, m.row, m.col, m.val, 2**31 - 1)
        assert len(pivots) > 50  # the replay has something to replay
        for seed in (0, 1):
            result = rank_over_Q(m, seed=seed)
            assert result.rank == max(rank_mod_p(m, p).rank for p in result.primes)
            assert (result.rank, result.primes, result.agreement) == \
                _heap_only_rank_over_q(m, seed)


def test_replayed_pivot_vanishing_mod_the_later_prime_falls_back():
    rng = random.Random(0)
    p1, p2 = sample_prime(rng), sample_prime(rng)
    # column 0's only entry is the first Markowitz pivot (score 0, lowest
    # column); it is p2 * 3, so at p2 that pivot is missing from the start
    gen = random.Random(91)
    m = _random_sparse(gen, 90, 90, density=0.02, bound=4)
    triplets = [(i, j, v) for i, j, v in zip(m.row, m.col, m.val) if j != 0]
    triplets.append((0, 0, 3 * p2))
    m = _matrix(90, 90, triplets)
    args = (m.nrows, m.ncols, m.row, m.col, m.val)
    rank1, order = _sparse_rank(*args, p1)
    assert order[0] == (0, 0)
    rank2, fallback = _sparse_rank(*args, p2, order)
    assert fallback  # the heap search took over at the missing pivot
    assert rank2 == rank_mod_p(m, p2).rank == dense_rank_mod_p(m, p2)
    result = rank_over_Q(m, seed=0)
    assert result.primes[:2] == (p1, p2)
    assert result.rank == rank1 == dense_rank_rational(m)
