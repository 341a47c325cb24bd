"""Exact sparse rank computation over prime fields and over Q.

A SparseMatrix keeps its entries as one sorted int64 key array, row * ncols
+ col, and one value array: int64 when every value fits, Python ints in an
object array otherwise (duplicates are summed in Python ints unless no int64
sum can overflow).  The sparse eliminator takes both arrays as they are and
ranks the matrix modulo one prime.  It keeps the active entries as one key
array and one residue array, and eliminates in rounds, dropping the entries
that vanish at the start of each.  Each round takes the entries of Markowitz
score (row_nnz - 1) * (col_nnz - 1) at most max(2 * min, min + 2), min the
least score, as candidates (Davis and Yew's parallel pivot sets), gives each
the int64 view of (i * ncols + j) * 0x9E3779B97F4A7C15 mod 2**64 as its
priority (distinct, since the multiplier is odd) and keeps those whose
priority is the lowest among the candidates two hops away in the row/column
graph, as in Luby's maximal independent set algorithm.  The kept pivots
share no row or column and A[i, j'] = A[i', j] = 0 for any two of them, so
their block is diagonal and one Schur update applies them all at once, with
one pow per pivot for its inverse, as in the dense kernel.  Before each
round, an active block that is at least a quarter nonzero, and not too
large, goes to the dense kernel instead.
Residues are int64 below 2**31 and Python ints in object arrays above.
Everything is deterministic: same input, same rounds, same rank.

One pass also ranks nested leading row blocks, the first ``cuts[0]``,
``cuts[1]``, ... rows: the candidates of a round are the entries of the
earliest block with a live row, which are a prefix of the sorted keys.  A
pivot row of block b is subtracted only from rows of block b or later, so the
rank of the first k blocks is the number of pivots taken in them plus the
rank of their live rows, which the dense tail ranks for each such prefix.
With no cuts the prefix is every entry.

Rank over Q comes from seeded random primes in (2**30, 2**31); elimination
at any nonzero pivots gives the exact rank mod p, which never exceeds the
rank over Q.  If the first prime's ranks meet an exact upper bound on every
block prefix, min(R - [every column sums to 0], C - [every row sums to 0])
for the prefix's R nonempty rows and C nonempty columns, the rank is proven
with that one prime.  Otherwise it is certified-probabilistic: the maximum
of ranks modulo ``_MIN_PRIMES`` to ``_MAX_PRIMES`` primes, each eliminated
in a pass of its own, resampling until the top rank of every block prefix is
hit by two distinct primes.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels


class ExactLAError(ValueError):
    """Malformed sparse data or unsupported field requests."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _MR_BASES: 399165290221 * 798330580441
_MR_EXACT_BELOW = 318665857834031151167461


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set, exact for n < _MR_EXACT_BELOW
    (about 3.2e23); n at or above it raises ExactLAError."""
    if n >= _MR_EXACT_BELOW:
        raise ExactLAError(f"modulus {n} is not below {_MR_EXACT_BELOW}, "
                           "where the primality test is exact")
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


_INT64_MAX = np.iinfo(np.int64).max


def _int_array(x) -> np.ndarray:
    """Integers as an int64 array if every one fits, else as an object array."""
    try:
        return np.array(x, dtype=np.int64)
    except OverflowError:
        return np.array(x, dtype=object)


def _summable(val) -> np.ndarray:
    """val as it is, unless it is int64 and a sum of its entries might leave
    int64: then as an object array of Python ints."""
    if val.dtype == np.int64 and val.size * max(-int(val.min(initial=0)),
                                                 int(val.max(initial=0))) > _INT64_MAX:
        return val.astype(object)
    return val


def _indices(x) -> np.ndarray:
    """An int64 array as it is; other input as int64, or as an object array
    of the indices given if one is no integer or is beyond int64."""
    if isinstance(x, np.ndarray) and x.dtype == np.int64:
        return x
    given = np.array(x, dtype=object)
    return _int_array(given) if all(isinstance(i, numbers.Integral) for i in given) else given


class SparseMatrix:
    """Immutable coordinate-format sparse matrix with exact integer entries.

    ``key`` holds the int64 keys row * ncols + col in increasing order and
    ``data`` the nonzero value at each, int64 when every value fits and
    Python ints in an object array otherwise; both are read-only.  ``row``,
    ``col`` and ``val`` are tuples of ints made on access.  ``modulus``
    declares the field: None means the entries are plain integers (to be
    ranked over Q or reduced mod a chosen prime); an integer p means the
    entries are already residues in GF(p).  Duplicate coordinates are summed
    on construction and explicit zeros dropped; an int64 value array is
    taken as it is, other values are checked to be integers one by one.
    """

    __slots__ = ("nrows", "ncols", "key", "data", "modulus")

    def __init__(self, nrows: int, ncols: int, row=(), col=(), val=(), modulus=None):
        if nrows < 0 or ncols < 0 or nrows * ncols > _INT64_MAX:
            raise ExactLAError(f"a {nrows}x{ncols} matrix needs nonnegative dimensions "
                               "and no more positions than int64 keys")
        if modulus is not None and not is_probable_prime(modulus):
            raise ExactLAError(f"modulus {modulus} is not prime")
        row, col, given = _indices(row), _indices(col), val
        if not (isinstance(val, np.ndarray) and val.dtype == np.int64):
            given = np.array(list(val), dtype=object)
            val = _int_array([int(x) for x in given])
        if not (len(row) == len(col) == len(val)):
            raise ExactLAError("triplet arrays must have equal length")
        if object in (row.dtype, col.dtype):
            for entry in zip(row.tolist(), col.tolist()):
                if not all(isinstance(i, numbers.Integral) for i in entry):
                    raise ExactLAError(f"entry {entry!r} has an index that is not an integer")
        wrong = np.flatnonzero(val != given)
        if wrong.size:
            k = wrong[0]
            raise ExactLAError(f"entry ({row[k]}, {col[k]}) is not an integer: {given[k]}")
        outside = np.flatnonzero((row < 0) | (row >= nrows) | (col < 0) | (col >= ncols))
        if outside.size:
            k = outside[0]
            raise ExactLAError(f"entry ({row[k]}, {col[k]}) outside {nrows}x{ncols} matrix")
        key, val = _merge(row * ncols + col, _summable(val))
        if modulus is not None:
            val = (val if modulus <= _INT64_MAX else val.astype(object)) % modulus
        live = val != 0
        key, data = key[live], val[live]
        data = _int_array(data) if data.dtype == object else data
        key.flags.writeable = data.flags.writeable = False
        for name, value in zip(self.__slots__, (nrows, ncols, key, data, modulus)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("SparseMatrix is immutable")

    @property
    def row(self) -> tuple[int, ...]:
        return tuple((self.key // self.ncols).tolist())

    @property
    def col(self) -> tuple[int, ...]:
        return tuple((self.key % self.ncols).tolist())

    @property
    def val(self) -> tuple[int, ...]:
        return tuple(self.data.tolist())

    @property
    def nnz(self) -> int:
        return self.key.size

    def transpose(self) -> "SparseMatrix":
        row, col = np.divmod(self.key, self.ncols)
        return SparseMatrix(self.ncols, self.nrows, col, row, self.data, self.modulus)

    def to_dense(self):
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for i, j, v in zip(self.row, self.col, self.val):
            out[i][j] = v
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self.modulus) ==
                (other.nrows, other.ncols, other.modulus)
                and np.array_equal(self.key, other.key)
                and np.array_equal(self.data, other.data))

    def __repr__(self):
        field = "Z" if self.modulus is None else f"GF({self.modulus})"
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz}, {field})"


@dataclass(frozen=True)
class RankResult:
    """Rank plus provenance: which field, which primes, and which proof.
    ``agreement`` says that the rank is certified, by either proof (always
    True mod p).  ``proven`` says that it is exact with no probability left:
    always mod p, and over Q when the first prime's ranks meet an exact
    upper bound on every block prefix; a rank over Q certified with
    ``proven`` False is one on which two primes agree.
    ``leading_ranks[k]`` is the rank of the first ``cuts[k]`` rows, for the
    ``cuts`` the matrix was ranked with."""

    rank: int
    field: str
    primes: tuple[int, ...]
    agreement: bool
    leading_ranks: tuple[int, ...] = ()
    proven: bool = False


# --- sparse elimination core ------------------------------------------------

# dense-tail tuning: switch when the active block is at least this dense,
# provided the dense copy stays small enough to be worth it
_DENSE_MAX_AREA = 6_000_000
_DENSE_FILL = 0.25

# odd, so (i * ncols + j) -> priority is a bijection mod 2**64; its int64 view
# is one too, and np.minimum.at has a fast path for int64
_PRIORITY_MIX = np.uint64(0x9E3779B97F4A7C15)
_NO_PRIORITY = _INT64_MAX


def _merge(key, val):
    """Sort entries by key and sum the values that share a key."""
    order = np.argsort(key)
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    return key[first], np.add.reduceat(val[order], first)


def _sparse_ranks(nrows, ncols, key, val, cuts, p) -> list[int]:
    """Ranks mod p of the first ``cuts[0]``, ``cuts[1]``, ... rows and of all
    rows of a SparseMatrix's ``key`` and ``data`` arrays, which it does not
    write to: rounds of independent pivots, then the dense kernel on what is
    left (see the module docstring)."""
    dtype = np.int64 if p < _kernels._INT64_MODULUS_LIMIT else object
    v = val % p if val.dtype == dtype else (val.astype(object) % p).astype(dtype)
    bounds = np.array([*cuts, nrows])
    rank = np.zeros(bounds.size, dtype=np.int64)
    while True:
        live = v != 0
        key, v = key[live], v[live]
        if not key.size:
            return rank.tolist()
        r, c = np.divmod(key, ncols)
        row_nnz = np.bincount(r, minlength=nrows)
        col_nnz = np.bincount(c, minlength=ncols)
        ra, ca = np.count_nonzero(row_nnz), np.count_nonzero(col_nnz)
        area = ra * ca
        if area <= _DENSE_MAX_AREA and key.size >= _DENSE_FILL * area:
            ends = np.searchsorted(r, bounds)  # the live entries above each bound
            return (rank + _dense_tails(r, c, v, p, ends)).tolist()
        end = bounds[np.searchsorted(bounds, r[0], side="right")]
        k = np.searchsorted(r, end)  # the entries of the earliest live block
        pivots = _independent_pivots(r[:k], c[:k], row_nnz, col_nnz, ncols)
        rank += np.searchsorted(r[pivots], bounds)
        key, v = _schur_update(key, v, r, c, row_nnz, pivots, ncols, p)


def _independent_pivots(r, c, row_nnz, col_nnz, ncols):
    """Indices of the entries of Markowitz score (row_nnz - 1) * (col_nnz -
    1) at most max(2 * min, min + 2) whose priority is the lowest among these
    candidates two hops away in the row/column graph: no two share a row or a
    column, and the entries that cross two of them, A[i, j'] and A[i', j],
    are zero.  r and c hold every entry of the rows they meet: with cuts,
    the rows of the earliest live block, as a pivot row of block b is
    subtracted only from rows of block b or later."""
    score = (row_nnz[r] - 1) * (col_nnz[c] - 1)
    least = score.min()
    cand = np.flatnonzero(score <= max(2 * least, least + 2))
    cr, cc = r[cand], c[cand]
    prio = ((cr * ncols + cc).astype(np.uint64) * _PRIORITY_MIX).view(np.int64)
    row_min = np.full(row_nnz.size, _NO_PRIORITY)
    col_min = np.full(col_nnz.size, _NO_PRIORITY)
    np.minimum.at(row_min, cr, prio)
    np.minimum.at(col_min, cc, prio)
    row_reach = np.full(row_nnz.size, _NO_PRIORITY)
    col_reach = np.full(col_nnz.size, _NO_PRIORITY)
    np.minimum.at(row_reach, r, col_min[c])
    np.minimum.at(col_reach, c, row_min[r])
    return cand[(prio == row_reach[cr]) & (prio == col_reach[cc])]


def _schur_update(key, v, r, c, row_nnz, pivots, ncols, p):
    """Entries of the Schur complement A[I', J'] - A[I', J] D^-1 A[I, J'] mod
    p, sorted by key, for independent pivots at (I, J), whose block D =
    A[I, J] is diagonal; I' and J' are the other rows and columns.  Each
    row's entries are contiguous in the sorted arrays.  Each pivot's inverse
    is one pow, as in the dense kernel; the values that come out may be
    zero."""
    pr, pc = r[pivots], c[pivots]
    inv = np.array([pow(a, -1, p) for a in v[pivots].tolist()], dtype=v.dtype)
    pivot_of_col = np.full(ncols, -1)
    pivot_of_col[pc] = np.arange(pivots.size)
    in_pivot_row = np.zeros(row_nnz.size, dtype=bool)
    in_pivot_row[pr] = True
    tr, tc = in_pivot_row[r], pivot_of_col[c]
    lower = np.flatnonzero((tc >= 0) & ~tr)
    rest = (tc < 0) & ~tr
    # pair each entry of A[I', J] with every entry of its pivot's row
    t = tc[lower]
    reps = row_nnz[pr[t]]
    ends = np.cumsum(reps)
    row_start = (np.cumsum(row_nnz) - row_nnz)[pr[t]]
    source = np.repeat(row_start - ends + reps, reps) + np.arange(reps.sum())
    target = np.repeat(lower, reps)
    factor = np.repeat(v[lower] * inv[t] % p, reps)
    # the pivot row meets J in its pivot alone, whose column is eliminated
    off = pivot_of_col[c[source]] < 0
    source, target, factor = source[off], target[off], factor[off]
    fill_key, fill = _merge(r[target] * ncols + c[source], -factor * v[source] % p)
    key, v = key[rest], v[rest]
    pos = np.searchsorted(key, fill_key)
    hit = np.zeros(pos.size, dtype=bool)
    inside = pos < key.size
    hit[inside] = key[pos[inside]] == fill_key[inside]
    v[pos[hit]] += fill[hit]
    at = pos[~hit]
    return np.insert(key, at, fill_key[~hit]), np.insert(v, at, fill[~hit]) % p


def _dense_tails(r, c, v, p, ends) -> list[int]:
    """Ranks mod p of the live entries before each of ``ends``: one kernel
    call per distinct nonempty prefix."""
    ranks = {0: 0}
    for end in ends:
        if end not in ranks:
            rows, ri = np.unique(r[:end], return_inverse=True)
            cols, ci = np.unique(c[:end], return_inverse=True)
            block = np.zeros((rows.size, cols.size), dtype=v.dtype)
            block[ri, ci] = v[:end]
            ranks[end] = _kernels.dense_rank_mod_p(block, p)
    return [ranks[end] for end in ends]


def _checked_cuts(m: SparseMatrix, cuts) -> tuple[int, ...]:
    cuts = tuple(cuts)
    if any(not 0 <= a <= b for a, b in zip((0, *cuts), (*cuts, m.nrows))):
        raise ExactLAError(f"cuts {cuts} are not nondecreasing row counts of a "
                           f"{m.nrows}-row matrix")
    return cuts


def rank_mod_p(m: SparseMatrix, p: int | None = None, *, cuts=()) -> RankResult:
    """Exact rank over GF(p), and of the first ``cuts[k]`` rows for each k.
    p defaults to the matrix's own modulus."""
    if p is None:
        p = m.modulus
        if p is None:
            raise ExactLAError("rank_mod_p needs a modulus (matrix has none)")
    if not is_probable_prime(p):
        raise ExactLAError(f"{p} is not prime")
    if m.modulus is not None and m.modulus != p:
        raise ExactLAError(f"matrix is over GF({m.modulus}), not GF({p})")
    *leading, rank = _sparse_ranks(m.nrows, m.ncols, m.key, m.data, _checked_cuts(m, cuts), p)
    return RankResult(rank, f"GF({p})", (p,), True, tuple(leading), proven=True)


_MIN_PRIMES = 3
_MAX_PRIMES = 12


def _lines(index, size, v) -> tuple[int, bool]:
    """For entries v on lines ``index`` of ``size`` lines: how many lines
    hold an entry, and whether v sums to 0 along every line."""
    sums = np.zeros(size, dtype=v.dtype)
    np.add.at(sums, index, v)
    return np.count_nonzero(np.bincount(index, minlength=size)), not sums.any()


def _rank_bounds(m: SparseMatrix, cuts) -> list[int]:
    """Exact upper bounds on the rank over Q of the first ``cuts[0]``,
    ``cuts[1]``, ... rows and of all rows.  A prefix with R nonempty rows
    and C nonempty columns has rank at most min(R - [every column sums to
    0], C - [every row sums to 0]): zero column sums put the all-ones vector
    in the left kernel of its nonzero part, zero row sums put it in the
    kernel.  The sums are exact, in Python ints where int64 might overflow."""
    data = _summable(m.data)
    bounds = []
    for end in np.searchsorted(m.key, np.array([*cuts, m.nrows]) * m.ncols):
        r, c = np.divmod(m.key[:end], m.ncols)
        rows, zero_row_sums = _lines(r, m.nrows, data[:end])
        cols, zero_col_sums = _lines(c, m.ncols, data[:end])
        bounds.append(min(rows - zero_col_sums, cols - zero_row_sums) if rows else 0)
    return bounds


def rank_over_Q(m: SparseMatrix, *, seed: int = 0, cuts=()) -> RankResult:
    """Certified rank over Q for an integer matrix, and of the first
    ``cuts[k]`` rows for each k.

    Ranks the matrix modulo seeded random primes; rank mod p never exceeds
    the rational rank and equals it away from finitely many primes.  The
    first prime's ranks are checked against ``_rank_bounds``: if they meet
    the bound on every block prefix, the rank is proven and no other prime is
    drawn.  Otherwise the running maximum is a lower bound that is almost
    surely exact: further primes are drawn and ranked one at a time, and
    from the ``_MIN_PRIMES``-th on, the loop stops once two primes agree on
    the maximum of every block prefix.  ``agreement`` records whether either certificate was
    reached within ``_MAX_PRIMES`` draws, and ``proven`` whether the first
    one was.
    """
    if m.modulus is not None:
        raise ExactLAError("rank_over_Q needs integer entries, not GF residues")
    cuts = _checked_cuts(m, cuts)
    rng = random.Random(seed)
    primes = [sample_prime(rng)]
    ranks = [_sparse_ranks(m.nrows, m.ncols, m.key, m.data, cuts, primes[0])]  # [prime][prefix]
    proven = agreement = ranks[0] == _rank_bounds(m, cuts)
    while not agreement and len(primes) < _MAX_PRIMES:
        p = sample_prime(rng)
        if p in primes:
            continue
        primes.append(p)
        ranks.append(_sparse_ranks(m.nrows, m.ncols, m.key, m.data, cuts, p))
        agreement = len(primes) >= _MIN_PRIMES and all(
            prefix.count(max(prefix)) >= 2 for prefix in zip(*ranks))
    *leading, rank = (max(prefix) for prefix in zip(*ranks))
    return RankResult(rank, "Q", tuple(primes), agreement, tuple(leading), proven)


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
    """Exact rank mod p of a dense matrix or a SparseMatrix, for any prime p
    below _MR_EXACT_BELOW and any integer entries."""
    if not is_probable_prime(p):
        raise ExactLAError(f"{p} is not prime")
    a = a.to_dense() if isinstance(a, SparseMatrix) else a
    return _kernels.dense_rank_mod_p(np.array(a, dtype=object) % p, p)
