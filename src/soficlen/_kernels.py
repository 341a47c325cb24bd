"""Dense mod-p elimination kernel, vectorized with numpy.

It works in place on the 2-D residue arrays that ``exactla`` prepares,
entries in [0, p): int64 for p < 2**31, so that the product of two fits,
and Python ints in an object array for larger moduli.
"""

from __future__ import annotations

import numpy as np


def dense_rank_mod_p(a, p) -> int:
    """Rank mod p (p prime) of the 2-D residue array a, which it overwrites.

    Each column pivots on its earliest live row (not yet a pivot row), and
    entry * pivot^-1 times that row is subtracted from each later live row;
    no row is swapped or scaled.  As in the sparse rounds, a row is reduced
    only by earlier rows, so the rows left nonzero are the pivot rows (the
    row rank profile), and the rank of the first k rows is how many of them
    are nonzero."""
    m, n = a.shape
    live = np.ones(m, dtype=bool)
    rank = 0
    for col in range(n):
        if rank == m:
            break
        rows = np.flatnonzero(live & (a[:, col] != 0))
        if rows.size == 0:
            continue
        piv, below = rows[0], rows[1:]
        live[piv] = False
        if below.size:
            f = a[below, col] * pow(int(a[piv, col]), -1, p) % p
            a[below, col:] = (a[below, col:] - f[:, None] * a[piv, col:][None, :]) % p
        rank += 1
    return rank
