"""Independent ground-truth routes for certifying the sofic estimators.

Three oracles, none of which touch the permutation-model code paths they
check: Følner box averages for Z^k (amenable mean length), the exact regular
representation for finite groups, and generic-point evaluation for Laurent
polynomial matrices.  The finite-group and Laurent routes run on the dense
exact-rational eliminator, not the sparse mod-p one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups
from .exactla import dense_rank_rational, rank_mod_p, rank_over_Q
from .groupring import GroupRingMatrix, group_token
from .groups import GroupDescriptor
from .meanlength import MeanLengthEstimate, blocks_to_sparse


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class FolnerBox:
    """Box [0, L₁) × … × [0, L_k) inside Z^k (plain interval for Z)."""

    sides: tuple[int, ...]

    def __post_init__(self):
        sides = tuple(int(x) for x in self.sides)
        if not sides or any(x < 1 for x in sides):
            raise OracleError("box sides must be positive")
        object.__setattr__(self, "sides", sides)

    @property
    def size(self) -> int:
        return math.prod(self.sides)


def check_oracle_group(desc: GroupDescriptor, what: str) -> None:
    """Raise OracleError unless ``desc`` is Z or Z^k, the only groups of
    the Følner and Laurent oracles; ``what`` names the caller."""
    if desc.family not in (groups.INTEGER_LINE, groups.LATTICE):
        raise OracleError(f"{what} needs group Z or Z^k, not {group_token(desc)}")


def check_box(box: FolnerBox, desc: GroupDescriptor) -> None:
    """Raise OracleError unless ``box`` is a box of the group ``desc``."""
    check_oracle_group(desc, "a Følner box")
    if len(box.sides) != desc.rank:
        raise OracleError(f"box rank {len(box.sides)} does not match the group "
                          f"{group_token(desc)}")


def folner_mean_length(A: GroupRingMatrix, boxes) -> list[Fraction]:
    """rank(span{s⁻¹ a : s ∈ F, a a row of A}) / |F| along the given boxes.

    The span is taken inside the coordinate window F⁻¹·supp(A) × [n]; the
    series is the Følner average whose limit is the amenable mean length,
    and the last entry is the oracle value.  In box coordinates s⁻¹·g is
    the difference g − s, and the window is ordered lexicographically.
    Raises OracleError if a rank is uncertified.
    """
    desc, ring, n = A.desc, A.ring, A.n
    check_oracle_group(desc, "Følner averaging")
    # (row of A, component, coefficient, g) per term of A
    terms = [(ai, j, c, g.value)
             for ai, row in enumerate(A.entries) for j, comp in enumerate(row)
             for g, c in comp.coeffs.items()]
    # coordinates relative to supp(A), exact in Python ints, so that they fit
    # int64 wherever supp(A) itself does; a shift leaves the window order alone
    offsets = np.array([t[3] for t in terms], dtype=object).reshape(-1, desc.rank)
    if terms:
        offsets = offsets - offsets.min(axis=0)
        if offsets.max() >= 2**62:
            raise OracleError("Følner averaging needs supp(A) to span less than "
                              "2**62 in each coordinate")
    offsets = offsets.astype(np.int64)
    values = []
    for box in boxes:
        check_box(box, desc)
        coords = np.indices(box.sides).reshape(desc.rank, -1).T
        diffs = (offsets[:, None, :] - coords[None, :, :]).reshape(-1, desc.rank)
        window, inverse = np.unique(diffs, axis=0, return_inverse=True)
        inverse = inverse.reshape(len(terms), box.size)
        # row (index of s in the box) · m + (row of A) holds s⁻¹·a
        rows = np.arange(box.size, dtype=np.int64) * A.m
        blocks = [(rows + ai, inverse[t] * n + j, c)
                  for t, (ai, j, c, _) in enumerate(terms)]
        m = blocks_to_sparse(blocks, box.size * A.m, len(window) * n, ring)
        result = rank_mod_p(m) if ring.kind == "GF" else rank_over_Q(m, seed=box.size)
        if not result.agreement:
            raise OracleError(
                f"uncertified Følner rank at box {'x'.join(map(str, box.sides))}: no two "
                f"of the {len(result.primes)} primes {result.primes} agree on the top rank")
        values.append(Fraction(result.rank, box.size))
    return values


def finite_group_vrk(f: GroupRingMatrix) -> Fraction:
    """Exact vrk of (QΓ)^{1×n}/(QΓ)^{1×m}f for a finite group Γ.

    Builds the |Γ|m × |Γ|n rational matrix of w ↦ f·w on column vectors
    over the regular representation and returns kernel dimension / |Γ|,
    computed by dense rational elimination (independent of the sparse
    permutation-model ranks it certifies).
    """
    desc = f.desc
    if desc.family != groups.FINITE:
        raise OracleError("finite-group oracle needs a finite group")
    if f.ring.kind == "GF":
        raise OracleError("finite-group vrk is a rational quantity; use ring Z or Q")
    o = desc.order
    dense = [[Fraction(0)] * (f.n * o) for _ in range(f.m * o)]
    for k in range(f.m):
        for j in range(f.n):
            entry = f.entries[k][j]
            for s, c in entry.coeffs.items():
                # block (k, j): column basis vector g contributes c at row s·g
                for g in range(o):
                    h = desc.table[s.value][g]
                    dense[k * o + h][j * o + g] += Fraction(c)
    rank = dense_rank_rational(dense)
    return Fraction(f.n * o - rank, o)


@dataclass(frozen=True)
class LaurentRank:
    rank: int
    vrk: Fraction
    evaluations: tuple[int, ...]  # ranks seen at the sample points


def laurent_rank(f: GroupRingMatrix, *, seed: int = 0) -> LaurentRank:
    """Generic rank of a Laurent polynomial matrix over Z or Z^k, and the
    vrk = n − rank of the presented quotient.

    Each variable is evaluated at a random rational with numerator strictly
    greater than denominator (both below 2³¹), keeping the point off the
    unit circle; the generic rank is attained off a proper subvariety, so
    the max over three points is correct except on a measure-zero miss.
    """
    desc = f.desc
    check_oracle_group(desc, "the Laurent oracle")
    if f.ring.kind == "GF":
        raise OracleError("Laurent oracle works over Z or Q coefficients")
    k = 1 if desc.family == groups.INTEGER_LINE else desc.rank
    rng = random.Random(seed)
    seen = []
    for _ in range(3):
        point = []
        for _ in range(k):
            den = rng.randrange(1, 2**31)
            num = rng.randrange(den + 1, 2**31 + 1)
            point.append(Fraction(num, den))
        dense = []
        for i in range(f.m):
            row = []
            for j in range(f.n):
                val = Fraction(0)
                for g, c in f.entries[i][j].coeffs.items():
                    exps = (g.value,) if desc.family == groups.INTEGER_LINE else g.value
                    term = Fraction(c)
                    for q, a in zip(point, exps):
                        term *= q ** a
                    val += term
                row.append(val)
            dense.append(row)
        seen.append(dense_rank_rational(dense))
    rank = max(seen)
    return LaurentRank(rank, Fraction(f.n - rank), tuple(seen))


@dataclass(frozen=True)
class CompareReport:
    """Estimator-vs-oracle verdict: residual |headline − oracle|, with the
    spread>tol case failed and flagged unstable regardless of residual."""

    passed: bool
    residual: Fraction
    headline: Fraction
    oracle: Fraction
    spread: Fraction
    tol: float
    unstable: bool

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "residual": float(self.residual),
            "residual_num": self.residual.numerator,
            "residual_den": self.residual.denominator,
            "headline": float(self.headline),
            "oracle": float(self.oracle),
            "oracle_num": self.oracle.numerator,
            "oracle_den": self.oracle.denominator,
            "spread": float(self.spread),
            "tol": self.tol,
            "unstable": self.unstable,
        }


def compare(estimate: MeanLengthEstimate, oracle_value, tol: float) -> CompareReport:
    if tol < 0:
        raise OracleError("tolerance must be nonnegative")
    oracle_value = Fraction(oracle_value)
    residual = abs(estimate.headline - oracle_value)
    unstable = estimate.spread > Fraction(tol)
    passed = residual <= Fraction(tol) and not unstable
    return CompareReport(passed, residual, estimate.headline, oracle_value,
                         estimate.spread, tol, unstable)
