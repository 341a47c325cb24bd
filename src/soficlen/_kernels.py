"""Dense mod-p elimination kernel, vectorized with numpy.

It works in place on the 2-D residue arrays that ``exactla`` prepares,
entries in [0, p): int64 for p < 2**31, so that the product of two fits,
and Python ints in an object array for larger moduli.
"""

from __future__ import annotations

import numpy as np


def dense_rank_mod_p(a, p) -> int:
    """Rank mod p (p prime) of the 2-D residue array a, which it overwrites."""
    m, n = a.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        nz = np.nonzero(a[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            a[[rank, piv]] = a[[piv, rank]]
        inv = pow(int(a[rank, col]), -1, p)
        a[rank, col:] = a[rank, col:] * inv % p
        below = rank + 1 + np.nonzero(a[rank + 1:, col])[0]
        if below.size:
            f = a[below, col][:, None]
            a[below, col:] = (a[below, col:] - f * a[rank, col:][None, :]) % p
        rank += 1
    return rank
