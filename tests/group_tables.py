"""Multiplication tables of small finite groups, for building test groups
with ``soficlen.groups.finite_group``."""

import itertools


def cyclic_table(n: int) -> list[list[int]]:
    """Multiplication table of Z/n with identity at index 0."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(n: int) -> list[list[int]]:
    """Multiplication table of the symmetric group S_n.

    Elements are the permutations of range(n) in lexicographic order, so the
    identity permutation sits at index 0.  Product g*h is "apply h, then g".
    """
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for g in perms:
        table.append([index[tuple(g[h[k]] for k in range(n))] for h in perms])
    return table
