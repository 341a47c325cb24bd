"""Exact sparse rank computation over prime fields and over Q.

The sparse eliminator keeps rows as {col: value} dicts plus a column index,
picks pivots by the Markowitz score (row_nnz - 1) * (col_nnz - 1) with ties
broken by lowest column then lowest row, and finishes on a dense kernel once
the active block is small or dense enough.  Pivot scores live in a lazy
min-heap: an entry is re-pushed whenever its true score may have *decreased*
(its row or column lost entries), so stored keys never exceed true keys and a
popped entry that verifies fresh is a global minimum.  Everything is
deterministic: same input, same rank, same pivot sequence.

Rank over Q is certified-probabilistic: the maximum of ranks modulo several
seeded random primes in (2**30, 2**31), resampling until the top rank is hit
by two distinct primes.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import _kernels


class ExactLAError(ValueError):
    """Malformed sparse data or unsupported field requests."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set; exact for n < 3.3e24, which
    covers every modulus this package accepts (p < 2**62)."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sample_prime(rng: random.Random) -> int:
    """Uniform-ish random prime in (2**30, 2**31) from the given generator."""
    while True:
        candidate = rng.randrange(2**30 + 1, 2**31) | 1
        if is_probable_prime(candidate):
            return candidate


class SparseMatrix:
    """Immutable coordinate-format sparse matrix with exact integer entries.

    ``modulus`` declares the field: None means the entries are plain integers
    (to be ranked over Q or reduced mod a chosen prime); an integer p means
    the entries are already residues in GF(p).  Duplicate coordinates are
    summed on construction and explicit zeros dropped.
    """

    __slots__ = ("nrows", "ncols", "row", "col", "val", "modulus")

    def __init__(self, nrows: int, ncols: int, row=(), col=(), val=(), modulus=None):
        if nrows < 0 or ncols < 0:
            raise ExactLAError("matrix dimensions must be nonnegative")
        if modulus is not None and not is_probable_prime(modulus):
            raise ExactLAError(f"modulus {modulus} is not prime")
        row = [int(x) for x in row]
        col = [int(x) for x in col]
        val = [int(x) for x in val]
        if not (len(row) == len(col) == len(val)):
            raise ExactLAError("triplet arrays must have equal length")
        acc: dict[tuple[int, int], int] = {}
        for i, j, v in zip(row, col, val):
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ExactLAError(f"entry ({i}, {j}) outside {nrows}x{ncols} matrix")
            if modulus is not None:
                v %= modulus
            key = (i, j)
            w = acc.get(key, 0) + v
            if modulus is not None:
                w %= modulus
            if w == 0:
                acc.pop(key, None)
            else:
                acc[key] = w
        items = sorted(acc.items())
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "row", tuple(k[0] for k, _ in items))
        object.__setattr__(self, "col", tuple(k[1] for k, _ in items))
        object.__setattr__(self, "val", tuple(v for _, v in items))
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def nnz(self) -> int:
        return len(self.val)

    @classmethod
    def from_triplets(cls, nrows, ncols, triplets, modulus=None):
        rows, cols, vals = [], [], []
        for i, j, v in triplets:
            rows.append(i)
            cols.append(j)
            vals.append(v)
        return cls(nrows, ncols, rows, cols, vals, modulus)

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.ncols, self.nrows, self.col, self.row,
                            self.val, self.modulus)

    def to_dense(self):
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, v in zip(self.row, self.col, self.val):
            out[i][j] = v
        return out

    def reduced(self, p: int) -> "SparseMatrix":
        """Copy with entries reduced into GF(p)."""
        if self.modulus is not None and self.modulus != p:
            raise ExactLAError(f"matrix is over GF({self.modulus}), not GF({p})")
        return SparseMatrix(self.nrows, self.ncols, self.row, self.col,
                            self.val, p)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self.modulus) ==
                (other.nrows, other.ncols, other.modulus)
                and self.row == other.row and self.col == other.col
                and self.val == other.val)

    def __repr__(self):
        field = "Z" if self.modulus is None else f"GF({self.modulus})"
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {field})"


@dataclass(frozen=True)
class RankResult:
    """Rank plus provenance: which field, which primes, and whether the
    multi-prime agreement certificate was reached (always True mod p)."""

    rank: int
    field: str
    primes: tuple[int, ...]
    agreement: bool

    @property
    def certified(self) -> bool:
        return self.agreement


# --- sparse elimination core ------------------------------------------------

# dense-tail tuning: switch when the active block is tiny, thin, or at least
# this dense, provided the dense copy stays small enough to be worth it
_DENSE_ALWAYS_AREA = 4096
_DENSE_MAX_AREA = 6_000_000
_DENSE_THIN = 64
_DENSE_FILL = 0.25


def _sparse_rank(nrows, ncols, row, col, val, p) -> int:
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, j, v in zip(row, col, val):
        v %= p
        if v == 0:
            continue
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    nnz = sum(len(r) for r in rows.values())
    heap = [((len(rows[i]) - 1) * (len(cols[j]) - 1), j, i)
            for i, r in rows.items() for j in r]
    heapq.heapify(heap)
    rank = 0
    while rows:
        ra = len(rows)
        ca = len(cols)
        area = ra * ca
        if p < 2**31 and (area <= _DENSE_ALWAYS_AREA or
                          (area <= _DENSE_MAX_AREA and
                           (min(ra, ca) <= _DENSE_THIN or nnz >= _DENSE_FILL * area))):
            return rank + _dense_tail(rows, cols, p)
        # pop until an entry verifies fresh; stale entries re-enter at their
        # true score, so the first fresh pop is a true Markowitz minimum
        while True:
            score, j, i = heapq.heappop(heap)
            rdict = rows.get(i)
            if rdict is None or j not in rdict:
                continue
            true = (len(rdict) - 1) * (len(cols[j]) - 1)
            if true != score:
                heapq.heappush(heap, (true, j, i))
                continue
            break
        pr = rows.pop(i)
        nnz -= len(pr)
        inv = pow(pr[j], -1, p)
        cols_touched = set()
        for jj in pr:
            s = cols[jj]
            s.discard(i)
            if s:
                cols_touched.add(jj)
            else:
                del cols[jj]
        targets = cols.pop(j, set())
        cols_touched.discard(j)
        rows_touched = []
        for k in targets:
            rk = rows[k]
            f = rk.pop(j) * inv % p
            nnz -= 1
            for jj, v in pr.items():
                if jj == j:
                    continue
                w = rk.get(jj)
                if w is None:
                    rk[jj] = (-f * v) % p  # nonzero: product of units
                    cols.setdefault(jj, set()).add(k)
                    nnz += 1
                else:
                    w = (w - f * v) % p
                    if w == 0:
                        del rk[jj]
                        cols[jj].discard(k)
                        if cols[jj]:
                            cols_touched.add(jj)
                        else:
                            del cols[jj]
                            cols_touched.discard(jj)
                        nnz -= 1
                    else:
                        rk[jj] = w
            if rk:
                rows_touched.append(k)
            else:
                del rows[k]
        # re-seed the heap where scores may have moved (and for fill-ins)
        for k in rows_touched:
            rk = rows[k]
            rlen = len(rk) - 1
            for jj in rk:
                heapq.heappush(heap, (rlen * (len(cols[jj]) - 1), jj, k))
        retouched = set(rows_touched)
        for jj in cols_touched:
            live = cols.get(jj)
            if not live:
                continue
            clen = len(live) - 1
            for k in live:
                if k in retouched:
                    continue
                heapq.heappush(heap, ((len(rows[k]) - 1) * clen, jj, k))
        rank += 1
    return rank


def _dense_tail(rows, cols, p) -> int:
    row_ids = sorted(rows)
    col_ids = sorted(cols)
    col_pos = {j: idx for idx, j in enumerate(col_ids)}
    block = np.zeros((len(row_ids), len(col_ids)), dtype=np.int64)
    for r, i in enumerate(row_ids):
        for j, v in rows[i].items():
            block[r, col_pos[j]] = v
    return _kernels.dense_rank_mod_p(block, p)


def _rank_mod_p_value(m: SparseMatrix, p: int) -> int:
    if m.modulus is not None and m.modulus != p:
        raise ExactLAError(f"matrix is over GF({m.modulus}), not GF({p})")
    return _sparse_rank(m.nrows, m.ncols, m.row, m.col, m.val, p)


def rank_mod_p(m: SparseMatrix, p: int | None = None) -> RankResult:
    """Exact rank over GF(p).  p defaults to the matrix's own modulus."""
    if p is None:
        p = m.modulus
        if p is None:
            raise ExactLAError("rank_mod_p needs a modulus (matrix has none)")
    if not is_probable_prime(p):
        raise ExactLAError(f"{p} is not prime")
    return RankResult(_rank_mod_p_value(m, p), f"GF({p})", (p,), True)


def rank_over_Q(m: SparseMatrix, *, seed: int = 0, min_primes: int = 3,
                max_primes: int = 12) -> RankResult:
    """Certified-probabilistic rank over Q for an integer matrix.

    Ranks the matrix modulo seeded random primes; rank mod p never exceeds
    the rational rank and equals it away from finitely many primes, so the
    running maximum is a lower bound that is almost surely exact.  Sampling
    continues (at least ``min_primes`` draws) until two primes agree on the
    maximum; ``agreement`` records whether that certificate was reached
    before ``max_primes``.
    """
    if m.modulus is not None:
        raise ExactLAError("rank_over_Q needs integer entries, not GF residues")
    if min_primes < 2 or max_primes < min_primes:
        raise ExactLAError("need max_primes >= min_primes >= 2")
    rng = random.Random(seed)
    primes: list[int] = []
    ranks: list[int] = []
    agreement = False
    while len(primes) < max_primes:
        p = sample_prime(rng)
        if p in primes:
            continue
        primes.append(p)
        ranks.append(_rank_mod_p_value(m, p))
        if len(primes) >= min_primes and ranks.count(max(ranks)) >= 2:
            agreement = True
            break
    return RankResult(max(ranks), "Q", tuple(primes), agreement)


def kernel_dim(m: SparseMatrix, p: int | None = None, *, seed: int = 0) -> int:
    """Dimension of the right kernel: ncols - rank (mod p if a modulus is
    in play, otherwise over Q)."""
    if p is not None or m.modulus is not None:
        return m.ncols - rank_mod_p(m, p).rank
    return m.ncols - rank_over_Q(m, seed=seed).rank


# --- dense exact fallbacks --------------------------------------------------

def dense_rank_rational(a) -> int:
    """Exact rank over Q by Fraction elimination on a dense matrix.

    Accepts a SparseMatrix or any nested sequence of ints/Fractions.  This is
    the independent oracle for property tests; fine up to dimension ~64,
    increasingly slow beyond.
    """
    if isinstance(a, SparseMatrix):
        a = a.to_dense()
    mat = [[Fraction(x) for x in drow] for drow in a]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            if f:
                prow = mat[rank]
                mat[r] = [x - f * y for x, y in zip(mat[r], prow)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def dense_rank_mod_p(a, p: int) -> int:
    """Exact rank mod p of a dense matrix or a SparseMatrix, for any prime p."""
    if isinstance(a, SparseMatrix):
        a = a.to_dense()
    return _kernels.dense_rank_mod_p(a, p)


# --- Matrix Market debug IO -------------------------------------------------

def write_matrix_market(m: SparseMatrix, path) -> None:
    """Dump in Matrix Market coordinate format (1-based), for inspection in
    external tools.  The modulus, if any, rides along in a comment."""
    lines = ["%%MatrixMarket matrix coordinate integer general"]
    if m.modulus is not None:
        lines.append(f"% modulus {m.modulus}")
    lines.append(f"{m.nrows} {m.ncols} {m.nnz}")
    lines.extend(f"{i + 1} {j + 1} {v}" for i, j, v in zip(m.row, m.col, m.val))
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix_market(path) -> SparseMatrix:
    text = Path(path).read_text()
    modulus = None
    dims = None
    rows, cols, vals = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("%"):
            toks = line.lstrip("%").split()
            if toks[:1] == ["modulus"]:
                modulus = int(toks[1])
            continue
        toks = line.split()
        try:
            if dims is None:
                nrows, ncols, nnz = (int(t) for t in toks)
                dims = (nrows, ncols, nnz)
            else:
                i, j, v = int(toks[0]), int(toks[1]), int(toks[2])
                rows.append(i - 1)
                cols.append(j - 1)
                vals.append(v)
        except (ValueError, IndexError):
            raise ExactLAError(f"{path}: bad Matrix Market line {lineno}: {raw!r}") from None
    if dims is None:
        raise ExactLAError(f"{path}: no size line")
    if len(vals) != dims[2]:
        raise ExactLAError(f"{path}: expected {dims[2]} entries, found {len(vals)}")
    return SparseMatrix(dims[0], dims[1], rows, cols, vals, modulus)
