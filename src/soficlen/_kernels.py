"""Dense mod-p elimination kernel, vectorized with numpy.

It ranks a stack of blocks at once, in place, on residue arrays that its
callers prepare, entries in [0, p): int64 for p < 2**31, so that the product
of two fits, and Python ints in an object array for larger moduli.
"""

from __future__ import annotations

import numpy as np


def dense_rank_mod_p(a, p) -> int:
    """Rank mod p of the 2-D residue array a, overwritten as by ``dense_ranks_mod_p``."""
    return int(dense_ranks_mod_p(a[None], p)[0])


def dense_ranks_mod_p(a, p) -> np.ndarray:
    """Ranks mod p (p prime) of the blocks a[0], a[1], ... of the 3-D residue
    array a, which it overwrites.  In each block, each column pivots on its
    earliest live row (not yet a pivot row), and entry * pivot^-1 times that
    row is subtracted from each later live row that is nonzero in the column,
    over the trailing columns; no other (block, row) pair is touched, and no
    row is swapped or scaled.  A row is reduced only by earlier rows, as in
    the sparse rounds, so the rows left nonzero are the pivot rows (the row
    rank profile)."""
    k, m, n = a.shape
    rows = a.reshape(k * m, n)  # block b holds rows b·m to b·m + m − 1
    live = np.ones(k * m, dtype=bool)
    left = k * m
    for col in range(n):
        if not left:
            break
        hit = np.flatnonzero(live & (rows[:, col] != 0))  # by block, then by row
        block = hit // m
        first = np.ones(hit.size, dtype=bool)
        first[1:] = block[1:] != block[:-1]  # the earliest hit of each block: its pivot
        piv, below = hit[first], hit[~first]
        live[piv] = False
        left -= piv.size
        if below.size:  # each row's pivot, by its index in piv, or the one pivot broadcast
            owner = np.searchsorted(piv, below) - 1 if piv.size > 1 else slice(None)
            inv = np.array([pow(x, -1, p) for x in rows[piv, col].tolist()], a.dtype)
            f = rows[below, col] * inv[owner] % p
            rows[below, col:] = (rows[below, col:] - f[:, None] * rows[piv, col:][owner]) % p
    a[...] = rows.reshape(k, m, n)  # back into a, in case the reshape copied it
    return (~live).reshape(k, m).sum(axis=1)
