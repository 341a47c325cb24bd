"""Finite-scale mean-length and rank estimation for modules over group rings.

Given a matrix f over R[Γ] and a sofic approximation σ at size d, the free
module (R[Γ])^{1×n} transports to (R^d)^{1×n} by scattering each group
element s along the permutation σ_s.  Two finite models are built here:

* ``build_sigma_bar``: the dm × dn matrix whose rank/d estimates the mean
  rank of the submodule generated by the rows of f;
* ``relative_mean_length_at``: the relator-quotient model, whose
  normalized rank difference estimates the mean length of a finite piece A
  relative to the relators of (B, F).  A and B are matrices over
  R[Γ] with n columns, and their rows are the generators.  The model is
  σ̄_M of one small matrix M over R[Γ] (``_quotient_matrix``), in which the
  relators of each one-term row of B merge columns of the window and leave
  no row, so only relators of rows with two or more terms are ranked.

``estimate_vrk_fp`` turns 1 - rank/d (per ambient column) into the von
Neumann rank of the presented quotient module, checking the duality
rank(σ̄_f) + ker(σ̄_f) = d·n on every evaluation: a proven rank's kernel is
d·n − rank, an unproven one's from a rank of σ̄_fᵀ with other primes (at
an addition-check point, route (i)'s), which is σ̄_f again if f* = f.
On a cycle or torus (``build_cyclic``, ``build_torus``) over Z or Q, σ̄_f's
rank, or σ̄_M's with no relator rows, is a sum over characters: one rank over
ℚ(ζ_m) per Galois orbit, by the stacked dense kernel mod primes p ≡ 1 (mod E),
proven by a norm bound (``_sigma_bar_rank``).  Other ranks are eliminations.
All reported values are exact rationals at each finite size; limits are
replaced by a schedule of sizes with spread/stabilization reporting.

Each schedule point is evaluated by one function per quantity
(``mrk_point``, ``vrk_point``, ``addition_point``).  ``run_schedule`` is the
one loop over a schedule: it builds σ once per point and evaluates the point
there, through the ``mapper`` that each estimator takes (builtin ``map``, or
a process pool's).  The command-line runner calls the three estimators, and
``run_schedule`` itself only for defect jobs.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

import numpy as np

from . import _kernels, groups
from .exactla import (RankResult, SparseMatrix, _field_dtype, _int_array, is_probable_prime,
                      rank_mod_p, rank_over_Q)
from .groupring import CoefficientRing, GroupRingElement, GroupRingError, GroupRingMatrix
from .groups import GroupDescriptor, GroupElement
from .sofic import SoficMap, SoficSchedule, check_seeds, defect, make_sigma


class MeanLengthError(ValueError):
    pass


class MeanRankOnlyError(MeanLengthError):
    """Raised when a vrk quantity is requested over GF(p)."""


@dataclass(frozen=True)
class RelativePair:
    """A finite instance of the relative mean-length data in (R[Γ])^{1×n}:
    the rows of the matrix A generate the measured piece, the rows of the
    matrix B the relator side, and F is the group window.  B has A's group
    ring and column count n."""

    A: GroupRingMatrix
    B: GroupRingMatrix
    F: tuple[GroupElement, ...]

    def __post_init__(self):
        A, B, F = self.A, self.B, tuple(self.F)
        if (B.desc, B.ring) != (A.desc, A.ring):
            raise MeanLengthError("A and B must share one group ring")
        if B.n != A.n:
            raise MeanLengthError(f"B has {B.n} columns, A has {A.n}")
        if not F:
            raise MeanLengthError("F must be nonempty")
        if any(s.desc != A.desc for s in F):
            raise MeanLengthError("F element from a different group")
        object.__setattr__(self, "F", F)

    @property
    def n(self) -> int:
        return self.A.n

    @property
    def desc(self) -> GroupDescriptor:
        return self.A.desc

    @property
    def ring(self) -> CoefficientRing:
        return self.A.ring


# ---------------------------------------------------------------------------
# coefficient mapping into the elimination field

def _rank(m: SparseMatrix, ring: CoefficientRing, seed: int, d: int, cuts=()) -> RankResult:
    """The rank of m, and of its first ``cuts[k]`` rows, over the ring's
    field; raises MeanLengthError if they are uncertified."""
    result = (rank_mod_p(m, cuts=cuts) if ring.kind == "GF"
              else rank_over_Q(m, seed=seed, cuts=cuts))
    if not result.agreement:
        raise MeanLengthError(
            f"uncertified rank at d={d}, rank seed={seed}: no two of the "
            f"{len(result.primes)} primes {result.primes} agree on the top rank")
    return result


def derive_rank_seed(tag: str, d: int, seed: int) -> int:
    return zlib.crc32(f"{tag}|{d}|{seed}".encode())


# ---------------------------------------------------------------------------
# matrix models

def blocks_to_sparse(blocks, nrows, ncols, ring: CoefficientRing) -> SparseMatrix:
    """Flatten (row-array, col-array, ring-coefficient) blocks into a
    SparseMatrix, clearing rational denominators by one global lcm (global
    scaling leaves rank invariant); GF(p) coefficients become residues mod p.
    The values go in as one array, int64 where they fit."""
    modulus = ring.p if ring.kind == "GF" else None
    denom = math.lcm(*(c.denominator for _, _, c in blocks)) if ring.kind == "Q" else 1
    scalars = [int(c * denom) for _, _, c in blocks]
    if not blocks:
        return SparseMatrix(nrows, ncols, modulus=modulus)
    row_idx = np.concatenate([rows for rows, _, _ in blocks])
    col_idx = np.concatenate([cols for _, cols, _ in blocks])
    vals = np.repeat(_int_array(scalars), [len(rows) for rows, _, _ in blocks])
    return SparseMatrix(nrows, ncols, row_idx, col_idx, vals, modulus)


def build_sigma_bar(f: GroupRingMatrix, sigma: SoficMap) -> SparseMatrix:
    """The dm × dn matrix model of right multiplication by f.

    Entry ((k, v'), (j, v)) accumulates the coefficient of f_{k,j} at every
    s with σ_s(v) = v'.  Over GF(p) entries are residues; over Z/Q they are
    integers (rational coefficients cleared by a global lcm).
    """
    if f.desc != sigma.desc:
        raise GroupRingError("matrix and sofic map live over different groups")
    d, base = sigma.d, np.arange(sigma.d, dtype=np.int64)
    blocks = [(k * d + sigma.perm(g), j * d + base, c) for k, row in enumerate(f.entries)
              for j, x in enumerate(row) for g, c in x.coeffs.items()]
    return blocks_to_sparse(blocks, d * f.m, d * f.n, f.ring)


@cache
def _character_prime(E: int, above: int = 2**30) -> tuple[int, int]:
    """The least prime p ≡ 1 (mod E) above ``above`` and its ω =
    ``_root_of_unity(E, p)``, searched for once per (E, above)."""
    p = next(p for p in range(-(-above // E) * E + 1, 2**64, E) if is_probable_prime(p))
    return p, _root_of_unity(E, p)


def _powers(omega: int, E: int, p: int):
    """ω^0, ..., ω^(E − 1) mod p, by doubling, in the residue dtype of p;
    None unless ω is a primitive E-th root of unity mod p."""
    power = np.ones(1, dtype=_field_dtype(p))
    while power.size < E:
        power = np.concatenate([power, power * pow(omega, power.size, p) % p])
    return power[:E] if pow(omega, E, p) == 1 and np.count_nonzero(power[:E] == 1) == 1 else None


def _root_of_unity(E: int, p: int) -> int:
    """The first w = x^((p − 1)/E) mod p, x = 2, 3, ..., of order E (p ≡ 1
    (mod E)): w^E = 1, so w has order E iff w^(E/q) ≠ 1 at each prime q | E."""
    primes, rest = set(), E
    for q in range(2, math.isqrt(E) + 1):
        while rest % q == 0:
            primes, rest = primes | {q}, rest // q
    primes |= {rest} - {1}
    return next(w for w in (pow(x, (p - 1) // E, p) for x in range(2, p))
                if all(pow(w, E // q, p) != 1 for q in primes))


def _character_ranks(terms, shape, weights, E: int, p: int, omega: int) -> np.ndarray:
    """The ranks mod p of f(χ) at ζ_E ↦ ω, for each χ(s) = ζ_E^{w·s}, w a
    row of ``weights``, in one stacked kernel call; ``terms`` holds f's
    (entry k·n + j, exponents, integer coefficient), reduced mod p in Python
    ints.  Raises MeanLengthError unless ω is a primitive E-th root mod p."""
    power = _powers(omega, E, p)
    if power is None:
        raise MeanLengthError(f"{omega} is not a primitive {E}-th root of unity mod {p}")
    entry, exps, coeffs = zip(*terms) if terms else ((), (), ())
    exps = np.array([[e % E for e in s] for s in exps], dtype=np.int64).reshape(-1, len(weights.T))
    values = power[weights @ exps.T % E]
    values = values * np.array([c % p for c in coeffs], dtype=power.dtype) % p
    onehot = np.eye(shape[0] * shape[1], dtype=power.dtype)[list(entry)]
    return _kernels.dense_ranks_mod_p((values @ onehot % p).reshape(-1, *shape), p)


def _sigma_bar_rank(f: GroupRingMatrix, sigma: SoficMap, seed: int) -> RankResult:
    """The rank of σ̄_f over f's field, f also a relative point's M with no
    relator rows: by ``_rank`` with the primes of ``seed``, but on a cycle or
    torus σ over Z or Q, where no σ̄_f is built.

    There the characters χ diagonalise every σ_s, and f(χ), f(χᵘ) are Galois
    conjugates, so rank σ̄_f = Σ φ(m) · rank over ℚ(ζ_m) of f(χ), one χ per
    orbit (``SoficMap.galois_orbits``).  Let E = lcm(dims).  A rank mod a
    prime p ≡ 1 (mod E) at ζ_E ↦ ω is a lower bound, so one stacked kernel
    call at the first p proves every f(χ) of full rank; a short orbit takes
    the max over its conjugates, one call per p, until the primes' product P
    exceeds H, the product of f's min(f.m, f.n) largest row bounds ⌈‖ℓ¹ sums‖₂⌉
    ≥ 1.  p splits into the φ(m) primes ζ_m ↦ ω^{uE/m}, so a minor that all
    kill lies in Pℤ[ζ_m], and is 0, as |N| ≤ H^{φ(m)} < P^{φ(m)}.
    """
    if sigma.dims is None or f.ring.kind == "GF":
        return _rank(build_sigma_bar(f, sigma), f.ring, seed, sigma.d)
    if f.desc != sigma.desc:
        raise GroupRingError("matrix and sofic map live over different groups")
    scale = math.lcm(*(c.denominator for row in f.entries for x in row for c in x.coeffs.values()))
    terms = [(k * f.n + j, g.exponents, int(c * scale))
             for k, row in enumerate(f.entries) for j, x in enumerate(row)
             for g, c in x.coeffs.items()]
    full, E, orbits = min(f.m, f.n), math.lcm(*sigma.dims), sigma.galois_orbits()
    squares = sorted(sum(sum(abs(int(c * scale)) for c in x.coeffs.values()) ** 2 for x in row)
                     for row in f.entries)
    bound = math.prod(math.isqrt(s - 1) + 1 if s else 1 for s in squares[-full:])
    reps = np.array([[x * (E // m) for x in char] for m, _, char in orbits], dtype=np.int64)
    p, omega = _character_prime(E)
    used = [p]
    best = _character_ranks(terms, (f.m, f.n), reps, E, p, omega)
    short = np.flatnonzero(best < full)
    while short.size:  # every conjugate of every short orbit, at the last prime
        weights = np.concatenate([np.outer(orbits[o][1], reps[o]) % E for o in short])
        ranks = _character_ranks(terms, (f.m, f.n), weights, E, p, omega)
        np.maximum.at(best, np.repeat(short, [orbits[o][1].size for o in short]), ranks)
        short = short[best[short] < full]
        if not short.size or math.prod(used) > bound:
            break
        p, omega = _character_prime(E, p)
        used.append(p)
    rank = sum(units.size * int(r) for (_, units, _), r in zip(orbits, best))
    return RankResult(rank, "Q", tuple(used), True, proven=True)


def _support(f: GroupRingMatrix) -> set[GroupElement]:
    """The group elements in the support of some entry of ``f``."""
    return {g for row in f.entries for x in row for g in x.coeffs}


def coordinate_window(A: GroupRingMatrix, B: GroupRingMatrix, F) -> tuple[GroupElement, ...]:
    """W = supp(A) ∪ supp(B) ∪ F·supp(B), sorted deterministically."""
    sup = _support(B)
    w = _support(A) | sup | {s * g for s in F for g in sup}
    return tuple(sorted(w, key=GroupElement.sort_key))


def _quotient_matrix(pair: RelativePair) -> tuple[GroupRingMatrix, int]:
    """The relator quotient of ``pair``: one matrix M over R[Γ] whose σ̄_M
    is a relative point's matrix at every homomorphism σ, and the number r
    of its leading relator rows.  Its columns are the classes of the
    window's nodes (w, j) that each one-term row c·g of B in column j joins,
    (g, j) ~ (s·g, j) for s ∈ F, each named by its first node r; a term c·g
    placed at a node of root r enters M as c·(g·r⁻¹), since σ_{hs} =
    σ_h∘σ_s moves the column (v, w, j) to (σ_{r·w⁻¹}(v), r, j).  Each other
    row b of B and s ∈ F give the relator row b − s·b (b, then s); A's
    rows follow."""
    desc, n = pair.desc, pair.n
    window = coordinate_window(pair.A, pair.B, pair.F)
    widx = {g: i for i, g in enumerate(window)}
    parent = list(range(len(window) * n))  # the node (w, j) is widx[w]·n + j

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    general = []
    for b in pair.B.entries:
        terms = [(j, g) for j, x in enumerate(b) for g in x.coeffs]
        if len(terms) != 1:
            general.append(b)
            continue
        (j, g), = terms
        for s in pair.F:
            lo, hi = sorted((find(widx[g] * n + j), find(widx[s * g] * n + j)))
            parent[hi] = lo  # so each root is its class's first node
    column = {root: k for k, root in enumerate(x for x in range(len(parent)) if find(x) == x)}

    def row(*parts):  # sign·c·g placed at the node (s·g, j), for each part (b, s, sign)
        cols = [[] for _ in column]
        for b, s, sign in parts:
            for j, x in enumerate(b):
                for g, c in x.coeffs.items():
                    r = find(widx[s * g] * n + j)
                    cols[column[r]].append((g * window[r // n].inverse(), sign * c))
        return [GroupRingElement.from_terms(desc, pair.ring, terms) for terms in cols]

    e = desc.identity()
    rows = [row((b, e, 1), (b, s, -1)) for b in general for s in pair.F]
    rows += [row((a, e, 1)) for a in pair.A.entries]
    return GroupRingMatrix(desc, pair.ring, rows), len(general) * len(pair.F)


def relative_mean_length_at(pair: RelativePair, sigma: SoficMap, *,
                            rank_seed: int = 0) -> Fraction:
    """(rank(R ∪ A) − rank(R)) / d on σ̄_M, M the relator quotient of
    ``_quotient_matrix``: rank σ̄_M / d by ``_sigma_bar_rank`` if M has no
    relator rows R, else one rank over the pair's field (GF(p) exactly, Q via
    the certified multi-prime route) with R left in σ̄_M as a leading block,
    in M's row order.  A pivot row is subtracted only from rows of its own
    block or later, so rank(R) is the pivots taken in R plus the rank of what
    is left of it.  Raises MeanLengthError if the ranks are uncertified.
    """
    M, rel_rows = _quotient_matrix(pair)
    if not rel_rows:
        return Fraction(_sigma_bar_rank(M, sigma, rank_seed).rank, sigma.d)
    ranks = _rank(build_sigma_bar(M, sigma), pair.ring, rank_seed, sigma.d,
                  cuts=(rel_rows * sigma.d,))
    return Fraction(ranks.rank - ranks.leading_ranks[0], sigma.d)


# ---------------------------------------------------------------------------
# value snapping

def snap_to_H(value, desc: GroupDescriptor, tol: float) -> Fraction | None:
    """Nearest candidate invariant value within tol, else None.

    The candidate set is the additive subgroup of Q generated by reciprocals
    of finite-subgroup orders: Z for the torsion-free families here.  For a
    finite group it is (1/|Γ|)Z, since Γ is a subgroup of itself and every
    subgroup order divides |Γ|.  Each divisor q of |Γ| proposes its nearest
    multiple of 1/q (``round``, so an exact half goes to the even
    numerator); the nearest proposal wins, and among equally near ones the
    proposal of the smallest q.  In S₃ at tol 0.5, 5/12 is 1/12 from both
    1/2 (q = 2) and 1/3 (q = 3), and snaps to 1/2.
    """
    if tol <= 0:
        raise MeanLengthError("snap tolerance must be positive")
    v = Fraction(value)
    o = desc.order if desc.family == groups.FINITE else 1
    nearest = {q: Fraction(round(v * q), q) for q in range(1, o + 1) if o % q == 0}
    dist, q = min((abs(v - cand), q) for q, cand in nearest.items())
    return nearest[q] if dist <= Fraction(tol) else None


# ---------------------------------------------------------------------------
# estimates over schedules

@dataclass(frozen=True)
class SeriesPoint:
    d: int
    seed: int
    value: Fraction


_STABILIZE_TOL = Fraction(1, 100)


@dataclass(frozen=True, eq=False)
class MeanLengthEstimate:
    """Schedule series plus the derived summary values.

    headline = mean over seeds at the largest size; spread = max − min over
    those seeds; snapped = nearest candidate invariant value (or None);
    stabilized = whether the last two per-size means agree within
    ``_STABILIZE_TOL`` (single-size schedules count as stabilized).
    """

    quantity: str
    series: tuple[SeriesPoint, ...]
    headline: Fraction
    spread: Fraction
    snapped: Fraction | None
    defect_summary: dict | None
    stabilized: bool

    def to_json_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "series": [{"d": p.d, "seed": p.seed,
                        "value_num": p.value.numerator,
                        "value_den": p.value.denominator} for p in self.series],
            "headline": float(self.headline),
            "headline_num": self.headline.numerator,
            "headline_den": self.headline.denominator,
            "spread": float(self.spread),
            "spread_num": self.spread.numerator,
            "spread_den": self.spread.denominator,
            "snapped": None if self.snapped is None else
                       {"num": self.snapped.numerator, "den": self.snapped.denominator},
            "defect_summary": self.defect_summary,
            "stabilized": self.stabilized,
        }

    def csv_rows(self) -> list[list]:
        return [[p.d, p.seed, p.value.numerator, p.value.denominator,
                 float(p.value)] for p in self.series]


def assemble_estimate(quantity: str, series, desc: GroupDescriptor, *,
                      snap_tol: float = 0.05,
                      defect_summary=None) -> MeanLengthEstimate:
    pts = tuple(series)
    if not pts:
        raise MeanLengthError("empty series")
    dmax = max(p.d for p in pts)
    per_d: dict[int, list[Fraction]] = {}
    for p in pts:
        per_d.setdefault(p.d, []).append(p.value)
    last = per_d[dmax]
    headline = sum(last, Fraction(0)) / len(last)
    spread = max(last) - min(last)
    ds = sorted(per_d)
    stabilized = True
    if len(ds) >= 2:
        prev = per_d[ds[-2]]
        prev_mean = sum(prev, Fraction(0)) / len(prev)
        stabilized = abs(headline - prev_mean) <= _STABILIZE_TOL
    snapped = snap_to_H(headline, desc, snap_tol) if snap_tol is not None else None
    return MeanLengthEstimate(quantity, pts, headline, spread, snapped,
                              defect_summary, stabilized)


@dataclass(frozen=True)
class PrincipalPoint:
    """One schedule evaluation of the presented module (R[Γ]^{1×n}) / rows(f):
    the rank of σ̄_f (from characters on a cycle or torus, else by
    elimination), the kernel dimension (d·n − rank when the rank is proven,
    as every character rank is, else d·n minus the rank of σ̄_fᵀ), and the
    derived mean-rank/vrk values.  duality = (kernel + rank == d·n)."""

    d: int
    seed: int
    rank: int
    kernel: int
    mrk: Fraction
    vrk: Fraction
    duality: bool


def check_vrk_ring(ring: CoefficientRing) -> None:
    """Raise MeanRankOnlyError unless vrk can be taken over ``ring``."""
    if ring.kind == "GF":
        raise MeanRankOnlyError(
            "vrk needs coefficients embeddable in the algebraic numbers "
            "(use ring Z or Q); over GF(p) this tool offers mean-rank only")


def principal_rank_point(f: GroupRingMatrix, sigma: SoficMap, *, seed: int = 0,
                         rank_seed: int = 0) -> PrincipalPoint:
    """Rank σ̄_f and kernel σ_f at one σ.

    On a cycle or torus the rank is ``_sigma_bar_rank``'s character sum,
    proven at fixed primes ≡ 1 (mod E), and the kernel is d·n − rank.  Else
    σ̄_f is assembled once and ranked over Q with the primes of
    ``rank_seed``.  A rank that its first prime proves (it meets the exact
    upper bound of ``exactla.rank_over_Q``) gives the kernel d·n − rank by
    rank–nullity.  An unproven rank, settled by two agreeing primes, is
    checked on the transpose σ̄_{f*} = σ̄_fᵀ: the kernel is d·n minus its
    rank with the primes of ``rank_seed + 1``: for f* = f, as for
    2 − s − s⁻¹, σ̄_f again, so the duality flag then checks only that two
    prime sets agree.  Raises MeanLengthError if a rank is uncertified.
    """
    check_vrk_ring(f.ring)
    d, n = sigma.d, f.n
    result = _sigma_bar_rank(f, sigma, rank_seed)
    rank = result.rank
    kernel = d * n - (rank if result.proven else _rank(
        build_sigma_bar(f, sigma).transpose(), f.ring, rank_seed + 1, d).rank)
    mrk = Fraction(rank, d)
    return PrincipalPoint(d, seed, rank, kernel, mrk, n - mrk,
                          duality=(kernel + rank == d * n))


# ---------------------------------------------------------------------------
# one schedule point of each quantity

def support_window(f: GroupRingMatrix) -> tuple[GroupElement, ...]:
    """supp(f) ∪ {e}, sorted: the defect window of a vrk estimate and the
    window F of the addition check.  (An mrk estimate reports the defect on
    its pair's F.)"""
    window = _support(f) | {f.desc.identity()}
    return tuple(sorted(window, key=GroupElement.sort_key))


def mrk_point(pair: RelativePair, sigma: SoficMap, point) -> SeriesPoint:
    """Relative mean length of ``pair`` at one schedule point."""
    value = relative_mean_length_at(
        pair, sigma, rank_seed=derive_rank_seed("mrk", point.d, point.seed))
    return SeriesPoint(sigma.d, point.seed, value)


def _check_duality(d: int, seed: int, rank: int, kernel: int, n: int) -> None:
    if kernel + rank != d * n:
        raise MeanLengthError(f"duality violation at d={d}, seed={seed}: "
                              f"kernel {kernel} + rank {rank} != {d * n}")


def vrk_point(f: GroupRingMatrix, sigma: SoficMap, point) -> SeriesPoint:
    """n − rank(σ̄_f)/d at one schedule point; raises MeanLengthError if
    the duality check fails."""
    pp = principal_rank_point(f, sigma, seed=point.seed,
                              rank_seed=derive_rank_seed("vrk", point.d, point.seed))
    _check_duality(pp.d, pp.seed, pp.rank, pp.kernel, f.n)
    return SeriesPoint(pp.d, point.seed, pp.vrk)


def addition_point(f: GroupRingMatrix, sigma: SoficMap, point) -> AdditionPoint:
    """Both routes of the addition check at one schedule point, one rank
    each: route (i)'s σ̄_Mᵀ, M the quotient of (f, I, supp f ∪ {e}) (see
    ``check_addition``), by elimination, and route (ii)'s σ̄_f, by
    ``_sigma_bar_rank`` (from characters on a cycle or torus).  An unproven
    rank of σ̄_f takes its kernel from route (i)'s rank; raises
    MeanLengthError if the duality check fails."""
    check_vrk_ring(f.ring)
    d, n = sigma.d, f.n
    pair = RelativePair(f, GroupRingMatrix.identity(f.desc, f.ring, n), support_window(f))
    M, _ = _quotient_matrix(pair)
    route_i = _rank(build_sigma_bar(M, sigma).transpose(), f.ring,
                    derive_rank_seed("add-i", point.d, point.seed), d)
    route_ii = _sigma_bar_rank(f, sigma, derive_rank_seed("add-ii", point.d, point.seed))
    rank = route_ii.rank
    _check_duality(d, point.seed, rank, d * n - (rank if route_ii.proven else route_i.rank), n)
    sub, mrk = Fraction(route_i.rank, d), Fraction(rank, d)
    quot = n - mrk
    return AdditionPoint(d, point.seed, sub, mrk, quot, abs(sub - mrk), abs(sub + quot - n))


# ---------------------------------------------------------------------------
# the schedule runner of the estimators below and of the command line

def _run_point(desc: GroupDescriptor, evaluate, point, window):
    """``evaluate(σ, point)`` on σ built by ``make_sigma``, and the defect
    summary of that σ on ``window`` (None without a window)."""
    sigma = make_sigma(desc, point.d, point.seed, point.dims)
    value = evaluate(sigma, point)
    return value, None if window is None else defect(sigma, window).summary()


def run_schedule(desc: GroupDescriptor, schedule: SoficSchedule, evaluate, window,
                 mapper):
    """Evaluate every point of ``schedule`` through ``mapper`` (builtin
    ``map``, or a process pool's), σ built once per point where it is
    evaluated.  Yields ``(point, value, summary)`` in order as each arrives;
    ``summary`` is None but at the last point, where it is the defect on
    ``window`` (if given) of the σ that point was evaluated on.  Several
    seeds over a group that is not free are refused (``check_seeds``)."""
    check_seeds(schedule.seeds, desc)
    points = schedule.points()
    windows = [None] * (len(points) - 1) + [window]
    results = mapper(partial(_run_point, desc, evaluate), points, windows)
    for point, (value, summary) in zip(points, results):
        yield point, value, summary


def _estimate(quantity: str, desc: GroupDescriptor, results, snap_tol) -> MeanLengthEstimate:
    """The estimate from the ``(point, value, summary)`` results of
    ``run_schedule``, with the defect summary of the last point."""
    results = list(results)
    return assemble_estimate(quantity, [value for _, value, _ in results], desc,
                             snap_tol=snap_tol, defect_summary=results[-1][2])


def estimate_mean_length(pair: RelativePair, schedule: SoficSchedule, *,
                         snap_tol: float = 0.05, mapper=map) -> MeanLengthEstimate:
    """Relative mean length of the span of ``pair.A`` against the relators
    of (``pair.B``, ``pair.F``) across the schedule, with the defect on F.
    Monotonicity in B and F makes the largest affordable pair the best
    finite surrogate for the infimum."""
    run = run_schedule(pair.desc, schedule, partial(mrk_point, pair), pair.F, mapper)
    return _estimate("mrk", pair.desc, run, snap_tol)


def estimate_vrk_fp(f: GroupRingMatrix, schedule: SoficSchedule, *,
                    snap_tol: float = 0.05, mapper=map) -> MeanLengthEstimate:
    """vrk of (R[Γ])^{1×n} / (R[Γ])^{1×m} f across the schedule: series of
    n − rank(σ̄_f)/d, the duality check asserted at every point, with the
    defect on supp(f) ∪ {e}."""
    run = run_schedule(f.desc, schedule, partial(vrk_point, f), support_window(f), mapper)
    return _estimate("vrk", f.desc, run, snap_tol)


# ---------------------------------------------------------------------------
# addition formula report

@dataclass(frozen=True)
class AdditionPoint:
    d: int
    seed: int
    submodule: Fraction      # relative route: mean length of rows(f) in the ambient
    submodule_rank: Fraction  # direct route: rank(σ̄_f)/d
    quotient: Fraction       # n − submodule_rank
    residual_routes: Fraction
    residual_addition: Fraction


@dataclass(frozen=True, eq=False)
class AdditionReport:
    n: int
    points: tuple[AdditionPoint, ...]
    max_residual_routes: Fraction
    max_residual_addition: Fraction

    def to_json_dict(self) -> dict:
        return {
            "quantity": "addition-check",
            "n": self.n,
            "series": [{
                "d": p.d, "seed": p.seed,
                "submodule_num": p.submodule.numerator,
                "submodule_den": p.submodule.denominator,
                "submodule_rank_num": p.submodule_rank.numerator,
                "submodule_rank_den": p.submodule_rank.denominator,
                "quotient_num": p.quotient.numerator,
                "quotient_den": p.quotient.denominator,
                "residual_routes": float(p.residual_routes),
                "residual_addition": float(p.residual_addition),
            } for p in self.points],
            "max_residual_routes": float(self.max_residual_routes),
            "max_residual_addition": float(self.max_residual_addition),
        }

    def csv_rows(self) -> list[list]:
        return [[p.d, p.seed, p.submodule.numerator, p.submodule.denominator,
                 float(p.residual_routes)] for p in self.points]


def check_addition(f: GroupRingMatrix, schedule: SoficSchedule, *,
                   mapper=map) -> AdditionReport:
    """Check that submodule and quotient values add up to the ambient rank.

    Route (i): mean length of A = rows(f) relative to (B = basis,
    F = supp(f) ∪ {e}) by the relator quotient M, which is f itself where
    e sorts first (F_k, Z^k, finite groups; on Z, f with each column times
    a unit t^k).  Route (i) ranks σ̄_Mᵀ = σ̄_fᵀ by elimination, the kernel
    check of a route (ii) rank that is not proven (σ̄_f again if f* = f).
    Route (ii): rank(σ̄_f)/d, from characters on a cycle or torus, so there
    route (i) is a second algorithm on a second matrix.  Route (iii):
    quotient value n − (ii).  Reports |(i) − (ii)| and |(i) + (iii) − n|.
    """
    run = run_schedule(f.desc, schedule, partial(addition_point, f), None, mapper)
    points = tuple(value for _, value, _ in run)
    return AdditionReport(f.n, points, max(p.residual_routes for p in points),
                          max(p.residual_addition for p in points))
