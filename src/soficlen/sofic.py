"""Sofic approximations σ: Γ → Sym(d) and their quality reports.

Every map is a homomorphism given by the permutations of Γ's standard
generators: cyclic shifts, torus axis shifts, multiplication-table rows
(translation and quotient maps), or independent seeded random permutations
of F_k's generators.  σ_g is composed from them along g's normal form.
Permutations are numpy int64 arrays of length d (σ_g as the map v ↦ arr[v]),
computed lazily per group element and cached.  Every builder is
deterministic given (source, d, seed); the random free-group map has no
multiplicativity defect, so its approximation error shows up in separation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups
from .groups import GroupDescriptor, GroupElement


class SoficError(ValueError):
    """Bad construction parameters or group/descriptor mismatches."""


def perm_inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p), dtype=p.dtype)
    return out


def perm_power(p: np.ndarray, n: int) -> np.ndarray:
    """n-fold composition of p (binary exponentiation; n may be negative)."""
    if n < 0:
        return perm_power(perm_inverse(p), -n)
    acc = np.arange(len(p), dtype=p.dtype)
    base = p
    while n:
        if n & 1:
            acc = base[acc]
        base = base[base]
        n >>= 1
    return acc


class SoficMap:
    """A homomorphism σ: Γ → Sym(d), given by the permutations ``gens`` of
    Γ's standard generators (for a finite group: its multiplication-table
    rows, indexed by element).  σ_g is composed along g's normal form on
    first use and cached; on Z^k that is a homomorphism only if the
    generators' permutations commute, so others are refused.  ``dims`` are
    the sides L_i of the torus ∏ ℤ/L_i that σ translates, ``(d,)`` for a
    cycle, and None for every other map; ``galois_orbits`` enumerates that
    torus's characters."""

    def __init__(self, desc: GroupDescriptor, gens, source: str, seed=None, dims=None):
        self.desc = desc
        self.gens = gens
        self.d = len(gens[0])
        if self.d < 1:
            raise SoficError("d must be >= 1")
        if desc.family == groups.LATTICE and any(  # else σ composed along g is no homomorphism
                not np.array_equal(p[q], q[p]) for i, p in enumerate(gens) for q in gens[:i]):
            raise SoficError("the generators of a lattice must have commuting permutations")
        self.source = source
        self.seed = seed
        self.dims = dims
        self._cache: dict = {}
        self._orbits = None

    def perm(self, g: GroupElement) -> np.ndarray:
        """The permutation array of σ_g.  Treat as read-only."""
        if g.desc != self.desc:
            raise SoficError("element from a different group")
        arr = self._cache.get(g.value)
        if arr is None:
            arr = self._compose(g)
            arr.setflags(write=False)
            self._cache[g.value] = arr
        return arr

    def _compose(self, g: GroupElement) -> np.ndarray:
        family = self.desc.family
        if family == groups.FINITE:
            return np.array(self.gens[g.value], dtype=np.int64)
        acc = np.arange(self.d, dtype=np.int64)
        if family == groups.FREE:
            # left-to-right fold: σ_{x1 x2 …} = σ_{x1} ∘ σ_{x2} ∘ …
            for letter in g.value:
                p = self.gens[abs(letter) - 1]
                acc = acc[p if letter > 0 else perm_inverse(p)]
            return acc
        for p, a in zip(self.gens, g.exponents):
            acc = acc[perm_power(p, a)]
        return acc

    def galois_orbits(self) -> list[tuple[int, np.ndarray, tuple[int, ...]]]:
        """One character of each Galois orbit of the torus σ translates, as
        (m, units, c): χ(s) = ζ_m^{c·s} with ζ_m = exp(2πi/m) has order m, and
        its orbit is {χᵘ : u in units}, the φ(m) units mod m.  Enumerated once
        per σ, by marking each orbit when its first member is met."""
        if self._orbits is None:
            dims, orbits, units = self.dims, [], {}
            strides = [math.prod(dims[i + 1:]) for i in range(len(dims))]
            seen = bytearray(self.d)
            mark = np.frombuffer(seen, dtype=np.uint8)
            for flat in range(self.d):
                if seen[flat]:
                    continue
                a = [flat // s % side for s, side in zip(strides, dims)]  # χ_a(s) = Π ζ_L^{a s}
                m = math.lcm(*(side // math.gcd(x, side) for x, side in zip(a, dims)))
                if m not in units:
                    units[m] = np.flatnonzero(np.gcd(np.arange(m), m) == 1)
                mark[np.outer(units[m], a) % dims @ strides] = 1  # the orbit: χ_{u·a}
                orbits.append((m, units[m], tuple(x * m // side for x, side in zip(a, dims))))
            self._orbits = orbits
        return self._orbits

    def __repr__(self):
        extra = "" if self.seed is None else f", seed={self.seed}"
        return f"SoficMap({self.source}, d={self.d}{extra})"


# ---------------------------------------------------------------------------
# builders

def build_cyclic(d: int) -> SoficMap:
    """ℤ acting on ℤ/d by the shift v ↦ v + 1."""
    return SoficMap(groups.integer_line(), [np.arange(1, d + 1, dtype=np.int64) % d],
                    "Cyclic", dims=(d,))


def build_torus(dims) -> SoficMap:
    """ℤ^k acting on the torus ∏ ℤ/dims_i, one axis shift per coordinate."""
    dims = tuple(int(x) for x in dims)
    if not dims or any(x < 1 for x in dims):
        raise SoficError("torus dims must be positive")
    index = np.arange(math.prod(dims), dtype=np.int64).reshape(dims)
    gens = [np.roll(index, -1, axis=i).ravel() for i in range(len(dims))]
    return SoficMap(groups.lattice(len(dims)), gens, "Torus", dims=dims)


def build_translation(desc: GroupDescriptor) -> SoficMap:
    """Left regular action of a finite group on itself: σ_s(v) = s·v."""
    if desc.family != groups.FINITE:
        raise SoficError("translation map needs a finite group")
    return SoficMap(desc, desc.table, "Translation")


def check_seed(seed: int) -> None:
    """Raise SoficError unless ``seed`` fits the random free maps' 64-bit key."""
    if not 0 <= seed < 2**64:
        raise SoficError(f"a seed must lie in [0, 2**64), got {seed}")


def build_random_free(rank: int, d: int, seed: int) -> SoficMap:
    """Independent uniform permutations per generator of F_rank.  Each draws
    from a counter-based PRNG keyed by (seed, generator index)."""
    check_size(groups.free_group(rank), d, None)
    check_seed(seed)
    gens = []
    for letter in range(1, rank + 1):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, letter], dtype=np.uint64)))
        gens.append(rng.permutation(d).astype(np.int64))
    return SoficMap(groups.free_group(rank), gens, "RandomFree", seed=seed)


def build_quotient(desc, target, images) -> SoficMap:
    """σ through a homomorphism onto a finite group: φ: Γ → Q given by
    generator images, then the left regular action of Q."""
    if target.family != groups.FINITE:
        raise SoficError("quotient target must be a finite group")
    if desc.family not in (groups.INTEGER_LINE, groups.LATTICE, groups.FREE):
        raise SoficError("quotient source must be Z, Z^k, or free")
    n_gens = len(desc.generators())
    if len(images) != n_gens:
        raise SoficError(f"need {n_gens} generator images, got {len(images)}")
    for q in images:
        if q.desc != target:
            raise SoficError("generator image outside the target group")
    gens = [np.array(target.table[q.value], dtype=np.int64) for q in images]
    return SoficMap(desc, gens, "QuotientHom")


def check_size(desc: GroupDescriptor, d: int, dims) -> None:
    """Raise SoficError unless ``make_sigma`` can build a map of ``desc``
    at size d; ``dims`` are the torus sizes of a lattice, None otherwise."""
    if d < 1:
        raise SoficError("d must be >= 1")
    if desc.family == groups.LATTICE:
        if dims is None:
            raise SoficError("lattice approximations need torus dims")
        if len(dims) != desc.rank:
            raise SoficError(f"dims rank {len(dims)} != lattice rank {desc.rank}")
        if any(x < 1 for x in dims):
            raise SoficError("torus dims must be positive")
        if math.prod(dims) != d:
            raise SoficError(f"dims {dims} give d={math.prod(dims)}, schedule says {d}")
    elif dims is not None:
        raise SoficError("torus dims apply only to a lattice group Z^k")
    elif desc.family == groups.FREE and d < 2:
        raise SoficError("random free map needs d >= 2")
    elif desc.family == groups.FINITE and desc.order != d:
        raise SoficError(f"finite group has order {desc.order}, schedule says {d}")


def make_sigma(desc: GroupDescriptor, d: int, seed: int = 0, dims=None) -> SoficMap:
    """Default approximation for a group family at size d; only F_k's reads ``seed``."""
    check_size(desc, d, dims)
    if desc.family == groups.INTEGER_LINE:
        return build_cyclic(d)
    if desc.family == groups.LATTICE:
        return build_torus(dims)
    if desc.family == groups.FREE:
        return build_random_free(desc.rank, d, seed)
    return build_translation(desc)


# a schedule evaluates every size at every seed, so this many seeds is far
# beyond any run; a seed range is checked against it before it is expanded
MAX_SEEDS = 10_000


def check_seeds(seeds, desc: GroupDescriptor | None = None) -> None:
    """Raise SoficError unless a schedule can take ``seeds``: at least one, at
    most MAX_SEEDS, all distinct, and just one over a ``desc`` other than F_k,
    whose models use no seed: a second would re-rank the identical matrices."""
    if not seeds:
        raise SoficError("schedule needs at least one seed")
    if len(seeds) > MAX_SEEDS:
        raise SoficError(f"a schedule takes at most {MAX_SEEDS} seeds, got {len(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise SoficError("seeds must be distinct")
    if len(seeds) > 1 and desc is not None and desc.family != groups.FREE:
        raise SoficError("only F_k's random model uses a seed; give at most one")


# ---------------------------------------------------------------------------
# quality reports

@dataclass(frozen=True, eq=False)
class DefectReport:
    """Exact per-pair quality fractions of a sofic map on a window F.

    multiplicativity[(s, t)] = |{v : σ_s(σ_t(v)) = σ_{st}(v)}| / d over all
    ordered pairs; separation[(s, t)] = |{v : σ_s(v) ≠ σ_t(v)}| / d over
    distinct pairs.
    """

    d: int
    multiplicativity: dict
    separation: dict

    def min_multiplicativity(self) -> Fraction:
        return min(self.multiplicativity.values(), default=Fraction(1))

    def mean_multiplicativity(self) -> Fraction:
        vals = list(self.multiplicativity.values())
        return sum(vals, Fraction(0)) / len(vals) if vals else Fraction(1)

    def min_separation(self) -> Fraction:
        return min(self.separation.values(), default=Fraction(1))

    def mean_separation(self) -> Fraction:
        vals = list(self.separation.values())
        return sum(vals, Fraction(0)) / len(vals) if vals else Fraction(1)

    def summary(self) -> dict:
        return {
            "d": self.d,
            "pairs": len(self.multiplicativity),
            "min_multiplicativity": float(self.min_multiplicativity()),
            "mean_multiplicativity": float(self.mean_multiplicativity()),
            "min_separation": float(self.min_separation()),
            "mean_separation": float(self.mean_separation()),
        }


def defect(sigma: SoficMap, F) -> DefectReport:
    """Exact multiplicativity/separation fractions for all pairs from F."""
    elems = list(F)
    for s in elems:
        if s.desc != sigma.desc:
            raise SoficError("window element from a different group")
    d = sigma.d
    mult = {}
    sep = {}
    for s in elems:
        ps = sigma.perm(s)
        for t in elems:
            pt = sigma.perm(t)
            pst = sigma.perm(s * t)
            agree = int(np.count_nonzero(ps[pt] == pst))
            mult[(s, t)] = Fraction(agree, d)
            if s != t:
                differ = int(np.count_nonzero(ps != pt))
                sep[(s, t)] = Fraction(differ, d)
    return DefectReport(d, mult, sep)


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class SchedulePoint:
    d: int
    seed: int
    dims: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SoficSchedule:
    """Evaluation grid: strictly increasing sizes × seed list.

    ``dims`` (optional) gives torus dimensions per size, with prod(dims_i)
    = ds[i].  Only F_k's random model reads the seed (``check_seeds``).
    """

    ds: tuple[int, ...]
    seeds: tuple[int, ...] = (0,)
    dims: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        ds = tuple(int(x) for x in self.ds)
        seeds = tuple(int(x) for x in self.seeds)
        object.__setattr__(self, "ds", ds)
        object.__setattr__(self, "seeds", seeds)
        if not ds:
            raise SoficError("schedule needs at least one size")
        if any(b <= a for a, b in zip(ds, ds[1:])):
            raise SoficError(f"sizes must be strictly increasing, got {ds}")
        check_seeds(seeds)
        if self.dims is not None:
            dims = tuple(tuple(int(x) for x in block) for block in self.dims)
            object.__setattr__(self, "dims", dims)
            if len(dims) != len(ds):
                raise SoficError("need one dims tuple per schedule size")
            for block, d in zip(dims, ds):
                if math.prod(block) != d:
                    raise SoficError(f"dims {block} give d={math.prod(block)}, "
                                     f"schedule says {d}")

    @classmethod
    def from_dims(cls, dims_list, seeds=(0,)) -> "SoficSchedule":
        dims = tuple(tuple(int(x) for x in block) for block in dims_list)
        return cls(tuple(math.prod(block) for block in dims), tuple(seeds), dims)

    def points(self) -> list[SchedulePoint]:
        out = []
        for idx, d in enumerate(self.ds):
            block = self.dims[idx] if self.dims is not None else None
            for seed in self.seeds:
                out.append(SchedulePoint(d, seed, block))
        return out
