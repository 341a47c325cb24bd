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
    kernel_dim,
    rank_mod_p,
    rank_over_Q,
    read_matrix_market,
    sample_prime,
    write_matrix_market,
)


def _circulant_minus_identity(d, modulus=None):
    triplets = []
    for v in range(d):
        triplets.append((v, v, -1))
        triplets.append(((v + 1) % d, v, 1))
    return SparseMatrix.from_triplets(d, d, triplets, modulus=modulus)


def _random_sparse(rng, nrows, ncols, density=0.2, bound=5):
    triplets = []
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                c = rng.randrange(-bound, bound + 1)
                if c:
                    triplets.append((i, j, c))
    return SparseMatrix.from_triplets(nrows, ncols, triplets)


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
    m = SparseMatrix.from_triplets(2, 2, [(0, 0, 1), (0, 0, -1), (1, 1, 3)])
    assert m.nnz == 1
    assert m.to_dense()[1][1] == 3
    with pytest.raises(ExactLAError):
        SparseMatrix.from_triplets(2, 2, [(2, 0, 1)])
    with pytest.raises(AttributeError):
        m.row = ()


def test_sparse_matrix_reduction_mod_p():
    m = SparseMatrix.from_triplets(1, 2, [(0, 0, 6), (0, 1, 7)])
    r = m.reduced(3)
    assert r.modulus == 3
    assert r.nnz == 1
    assert r.to_dense()[0][1] == 1


def test_identity_and_zero_rank():
    eye = SparseMatrix.from_triplets(7, 7, [(i, i, 1) for i in range(7)])
    assert rank_mod_p(eye, 5).rank == 7
    zero = SparseMatrix(4, 6)
    assert rank_mod_p(zero, 5).rank == 0
    assert kernel_dim(zero, 5) == 6
    assert kernel_dim(eye, 5) == 0


def test_circulant_shift_minus_identity_rank():
    for d in range(2, 9):
        m = _circulant_minus_identity(d)
        assert rank_mod_p(m, 10007).rank == d - 1
        assert dense_rank_rational(m.to_dense()) == d - 1
    big = _circulant_minus_identity(6)
    assert rank_over_Q(big).rank == 5
    assert kernel_dim(big) == 1


def test_rank_depends_on_the_prime():
    two = SparseMatrix.from_triplets(1, 1, [(0, 0, 2)])
    assert rank_mod_p(two, 2).rank == 0
    assert rank_mod_p(two, 3).rank == 1
    result = rank_over_Q(two)
    assert result.rank == 1
    assert result.certified


def test_diagonal_rank():
    diag = SparseMatrix.from_triplets(5, 5, [(i, i, i + 1) for i in range(5)])
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
        block = SparseMatrix.from_triplets(a.nrows + b.nrows,
                                           a.ncols + b.ncols, triplets)
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
    m = SparseMatrix.from_triplets(1, 1, [(0, 0, 1)])
    with pytest.raises(ExactLAError):
        rank_mod_p(m)
    reduced = m.reduced(7)
    assert rank_mod_p(reduced).rank == 1


def test_rank_over_q_rejects_modular_input():
    m = SparseMatrix.from_triplets(1, 1, [(0, 0, 1)], modulus=7)
    with pytest.raises(ExactLAError):
        rank_over_Q(m)


def test_rank_result_fields():
    r = RankResult(3, "GF(7)", (7,), True)
    assert r.certified
    assert r.rank == 3


def test_matrix_market_round_trip(tmp_path):
    rng = random.Random(77)
    m = _random_sparse(rng, 9, 4)
    path = tmp_path / "dump.mtx"
    write_matrix_market(m, path)
    text = path.read_text()
    assert text.startswith("%%MatrixMarket matrix coordinate integer general")
    back = read_matrix_market(path)
    assert back == m

    reduced = m.reduced(13)
    path2 = tmp_path / "dump_mod.mtx"
    write_matrix_market(reduced, path2)
    back2 = read_matrix_market(path2)
    assert back2.modulus == 13
    assert back2 == reduced


def test_deterministic_rank_over_q_seeding():
    rng = random.Random(3)
    m = _random_sparse(rng, 20, 20, density=0.25)
    a = rank_over_Q(m, seed=5)
    b = rank_over_Q(m, seed=5)
    assert a.rank == b.rank and a.primes == b.primes
