"""Dense mod-p elimination kernel, vectorized with numpy.

Moduli must stay below 2**31 so products of two residues fit in int64.
"""

from __future__ import annotations

import numpy as np

_INT64_MODULUS_LIMIT = 2**31


def dense_rank_mod_p(a, p) -> int:
    """Rank of an integer matrix mod p (p prime, p < 2**31)."""
    if p >= _INT64_MODULUS_LIMIT:
        raise ValueError(f"modulus {p} too large for the int64 kernel")
    a = np.array(a, dtype=np.int64, copy=True)
    if a.ndim != 2:
        raise ValueError("dense kernel expects a 2-d array")
    np.mod(a, p, out=a)
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
