"""Exact reference values, computed by routes that share no code with the
sparse eliminator they check.

* Orbit count: for f = [[s - 1], [t - 1]] the kernel of σ̄_f is the space of
  functions constant on the orbits of <σ_s, σ_t>, so rank = d - #orbits.
* Character sum: for the regular representation of a finite abelian group
  (cyclic or torus σ) the model matrix is block-diagonalised by characters,
  so rank(σ̄_f) = Σ_χ rank f(χ).  Over GF(p) with p ≡ 1 (mod lcm(dims)) this
  gives a lower bound on the rational rank that is exact for all but finitely
  many p; the maximum over a few seeded primes is taken.
"""

from __future__ import annotations

import math
import random

import numpy as np

from soficlen.exactla import is_probable_prime

_PRIMES_PER_SUM = 2


def orbit_count(perms) -> int:
    """Number of orbits of the group generated by the given permutations.

    Also the benchmark's yardstick (run.py): a change here changes
    ``solve_rel`` and needs a new baseline."""
    d = len(perms[0])
    parent = list(range(d))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = d
    for perm in perms:
        for v, w in enumerate(perm.tolist()):
            a, b = find(v), find(w)
            if a != b:
                parent[a] = b
                count -= 1
    return count


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _root_of_unity(order: int, p: int) -> int:
    """An element of exact multiplicative order ``order`` in GF(p)."""
    factors = _prime_factors(order)
    for g in range(2, p):
        w = pow(g, (p - 1) // order, p)
        if all(pow(w, order // q, p) != 1 for q in factors):
            return w
    raise ValueError(f"GF({p}) has no root of unity of order {order}")


def _small_rank(rows, p: int) -> int:
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _character_ranks_mod(entries, dims, p: int) -> tuple[int, int]:
    tables = []
    for size in dims:
        w = _root_of_unity(size, p)
        powers = [1] * size
        for k in range(1, size):
            powers[k] = powers[k - 1] * w % p
        tables.append(np.array(powers, dtype=np.int64))
    values = []
    for row in entries:
        vrow = []
        for terms in row:
            acc = np.zeros(dims, dtype=np.int64)
            for exps, c in terms.items():
                term = np.full(dims, c % p, dtype=np.int64)
                for axis, (size, e) in enumerate(zip(dims, exps)):
                    shape = [1] * len(dims)
                    shape[axis] = size
                    factor = tables[axis][(np.arange(size) * e) % size]
                    term = term * factor.reshape(shape) % p
                acc = (acc + term) % p
            vrow.append(acc.ravel().tolist())
        values.append(vrow)
    ranks = [_small_rank([[v[chi] for v in vrow] for vrow in values], p)
             for chi in range(math.prod(dims))]
    return sum(ranks), max(ranks)


def character_ranks(entries, dims, seed: int = 0) -> tuple[int, int]:
    """(rank over Q of the model matrix, largest rank of f(χ)) for a Laurent
    polynomial matrix f on the torus Z/dims[0] × … × Z/dims[k-1].

    ``entries`` is an m × n nested list of {exponent tuple: integer} dicts.
    The largest f(χ) rank is the generic rank of f whenever the degrees of
    its minors are below min(dims).
    """
    dims = tuple(int(x) for x in dims)
    modulus = math.lcm(*dims)
    rng = random.Random(seed)
    best = (0, 0)
    found = 0
    while found < _PRIMES_PER_SUM:
        k = rng.randrange((2**30) // modulus + 1, (2**31 - 1) // modulus)
        p = k * modulus + 1
        if not is_probable_prime(p):
            continue
        found += 1
        best = max(best, _character_ranks_mod(entries, dims, p))
    return best
