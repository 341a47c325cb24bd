"""Group rings R[Γ] and matrices over them.

Coefficient rings are Z, Q, or a prime field GF(p) with p < 2**62.  Elements
are finitely supported coefficient dictionaries keyed by normal-form group
elements.  Arithmetic works on plain ints and Fractions; the constructor
brings each coefficient into the ring with ``CoefficientRing.normalize`` (an
int over Z and GF(p), a Fraction over Q) and drops zeros.  Operands must
carry identical group descriptors and rings — there is no coercion.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupDescriptor, GroupElement, GroupError, format_word, parse_word
from . import exactla, groups


class GroupRingError(ValueError):
    """Ring/group mismatches and malformed group-ring data."""


@dataclass(frozen=True)
class CoefficientRing:
    kind: str  # "Z" | "Q" | "GF"
    p: int | None = None

    def label(self) -> str:
        return f"GF({self.p})" if self.kind == "GF" else self.kind

    def normalize(self, x):
        """x in the ring: a Python int over Z and GF(p), a Fraction over Q.
        Integers of any type (numpy's too) are taken through operator.index,
        so that products stay exact."""
        if isinstance(x, Fraction):
            if self.kind == "Q":
                return x
            if self.kind == "Z":
                if x.denominator != 1:
                    raise GroupRingError(f"{x} is not an integer coefficient")
                return int(x)
            den = x.denominator % self.p
            if den == 0:
                raise GroupRingError(f"{x} has a denominator divisible by {self.p}, "
                                     f"not invertible in GF({self.p})")
            return x.numerator * pow(den, -1, self.p) % self.p
        try:
            x = operator.index(x)
        except TypeError:
            noun = {"Z": "integer", "Q": "rational"}.get(self.kind, self.label())
            raise GroupRingError(f"bad {noun} coefficient {x!r}") from None
        return Fraction(x) if self.kind == "Q" else x if self.kind == "Z" else x % self.p


INTEGERS = CoefficientRing("Z")
RATIONALS = CoefficientRing("Q")


def prime_field(p: int) -> CoefficientRing:
    """GF(p) for a prime p below 2**62, of any integer type: ``exactla``
    decides what is a prime modulus, and gives p as a Python int."""
    try:
        p = exactla._prime(p)
    except exactla.ExactLAError as exc:
        raise GroupRingError(str(exc)) from None
    if p >= 2**62:
        raise GroupRingError(f"prime field modulus must be a prime below 2**62, got {p}")
    return CoefficientRing("GF", p)


def parse_ring(token: str) -> CoefficientRing:
    token = token.strip()
    if token == "Z":
        return INTEGERS
    if token == "Q":
        return RATIONALS
    if token.startswith("GF(") and token.endswith(")"):
        try:
            return prime_field(int(token[3:-1]))
        except ValueError as exc:
            raise GroupRingError(f"bad ring token {token!r}: {exc}") from None
    raise GroupRingError(f"unknown ring token {token!r}")


class GroupRingElement:
    """A finitely supported element of R[Γ].  Treated as immutable."""

    __slots__ = ("desc", "ring", "coeffs")

    def __init__(self, desc: GroupDescriptor, ring: CoefficientRing, coeffs=None):
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "ring", ring)
        clean = {}
        for g, c in (coeffs or {}).items():
            if g.desc != desc:
                raise GroupRingError("support element from a different group")
            c = ring.normalize(c)
            if c != 0:
                clean[g] = c
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def zero(cls, desc, ring):
        return cls(desc, ring)

    @classmethod
    def one(cls, desc, ring):
        return cls(desc, ring, {desc.identity(): 1})

    @classmethod
    def monomial(cls, desc, ring, g: GroupElement, coef=None):
        return cls(desc, ring, {g: 1 if coef is None else coef})

    @classmethod
    def from_terms(cls, desc, ring, terms):
        """Sum of (element, coefficient) pairs; repeats accumulate."""
        acc = {}
        for g, c in terms:
            acc[g] = acc.get(g, 0) + ring.normalize(c)
        return cls(desc, ring, acc)

    def support(self) -> list[GroupElement]:
        return sorted(self.coeffs, key=GroupElement.sort_key)

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_mate(self, other: "GroupRingElement"):
        if not isinstance(other, GroupRingElement):
            raise GroupRingError(f"cannot combine group ring element with {other!r}")
        if other.desc != self.desc or other.ring != self.ring:
            raise GroupRingError("group ring mismatch (different group or coefficient ring)")

    def __add__(self, other):
        self._check_mate(other)
        acc = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc[g] = acc.get(g, 0) + c
        return GroupRingElement(self.desc, self.ring, acc)

    def __neg__(self):
        return GroupRingElement(self.desc, self.ring,
                                {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Convolution product: (sum c_g g)(sum d_h h) = sum c_g d_h (gh)."""
        self._check_mate(other)
        acc = {}
        for g, c in self.coeffs.items():
            for h, d in other.coeffs.items():
                gh = g * h
                acc[gh] = acc.get(gh, 0) + c * d
        return GroupRingElement(self.desc, self.ring, acc)

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return (self.desc == other.desc and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ring, frozenset(self.coeffs.items())))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = [f"{c}@{format_word(g)}" for g, c in
                 sorted(self.coeffs.items(), key=lambda kv: kv[0].sort_key())]
        return " + ".join(parts)


class GroupRingMatrix:
    """A rectangular matrix over R[Γ].  Treated as immutable."""

    __slots__ = ("desc", "ring", "m", "n", "entries")

    def __init__(self, desc, ring, entries):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise GroupRingError("matrix must have at least one row and column")
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise GroupRingError("ragged matrix rows")
            for x in row:
                if not isinstance(x, GroupRingElement):
                    raise GroupRingError(f"matrix entry {x!r} is not a group ring element")
                if x.desc != desc or x.ring != ring:
                    raise GroupRingError("matrix entry from a different group ring")
        object.__setattr__(self, "desc", desc)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "m", len(rows))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, desc, ring, k: int):
        one = GroupRingElement.one(desc, ring)
        zero = GroupRingElement.zero(desc, ring)
        return cls(desc, ring,
                   [[one if i == j else zero for j in range(k)] for i in range(k)])

    @classmethod
    def zeros(cls, desc, ring, m: int, n: int):
        zero = GroupRingElement.zero(desc, ring)
        return cls(desc, ring, [[zero] * n for _ in range(m)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return (self.desc == other.desc and self.ring == other.ring
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.ring, self.entries))

    def is_identity(self) -> bool:
        if self.m != self.n:
            return False
        one = GroupRingElement.one(self.desc, self.ring)
        zero = GroupRingElement.zero(self.desc, self.ring)
        return all(self.entries[i][j] == (one if i == j else zero)
                   for i in range(self.m) for j in range(self.n))

    def __matmul__(self, other):
        return mat_mul(self, other)

    def __repr__(self):
        return f"GroupRingMatrix({self.m}x{self.n} over {self.ring.label()})"


def mat_mul(a: GroupRingMatrix, b: GroupRingMatrix) -> GroupRingMatrix:
    if not isinstance(a, GroupRingMatrix) or not isinstance(b, GroupRingMatrix):
        raise GroupRingError("mat_mul needs two group ring matrices")
    if a.desc != b.desc or a.ring != b.ring:
        raise GroupRingError("matrix product across different group rings")
    if a.n != b.m:
        raise GroupRingError(f"shape mismatch: {a.m}x{a.n} times {b.m}x{b.n}")
    out = []
    for i in range(a.m):
        row = []
        for j in range(b.n):
            acc = GroupRingElement.zero(a.desc, a.ring)
            for k in range(a.n):
                acc = acc + a.entries[i][k] * b.entries[k][j]
            row.append(acc)
        out.append(row)
    return GroupRingMatrix(a.desc, a.ring, out)


NOT_LEFT_INVERSE = "not_left_inverse"
CONFIRMED_TWO_SIDED = "confirmed_two_sided"
COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class DirectFinitenessVerdict:
    """Outcome of the one-sided-inverse check.

    kind is "not_left_inverse" when ab != 1, "confirmed_two_sided" when
    ab = ba = 1, and "counterexample" when ab = 1 but ba != 1 (in which case
    ``ba`` holds the offending product).
    """

    kind: str
    ba: GroupRingMatrix | None = None


def check_square(mat: GroupRingMatrix, n: int) -> None:
    """Raise GroupRingError unless ``mat`` is n × n."""
    if (mat.m, mat.n) != (n, n):
        raise GroupRingError("direct finiteness check needs square matrices of equal size")


def check_direct_finite(a: GroupRingMatrix, b: GroupRingMatrix) -> DirectFinitenessVerdict:
    """Exact two-sided check of whether b inverts a over the group ring."""
    if a.desc != b.desc or a.ring != b.ring:
        raise GroupRingError("direct finiteness check across different group rings")
    check_square(a, a.m)
    check_square(b, a.m)
    if not mat_mul(a, b).is_identity():
        return DirectFinitenessVerdict(NOT_LEFT_INVERSE)
    ba = mat_mul(b, a)
    if ba.is_identity():
        return DirectFinitenessVerdict(CONFIRMED_TWO_SIDED)
    return DirectFinitenessVerdict(COUNTEREXAMPLE, ba=ba)


# ---------------------------------------------------------------------------
# matrix text format
#
# Header line:   m n ring group     (ring: Z | Q | GF(p); group: Z | Z^k | Fk | finite)
# Entry lines:   i j coef@word ...  (0-based indices; missing entries are zero)
# Coefficients are integers or a/b; words use the syntax of groups.format_word.
# '#' starts a comment; blank lines are ignored.

def group_token(desc: GroupDescriptor) -> str:
    if desc.family == groups.INTEGER_LINE:
        return "Z"
    if desc.family == groups.LATTICE:
        return f"Z^{desc.rank}"
    if desc.family == groups.FREE:
        return f"F{desc.rank}"
    return "finite"


def parse_group_token(token: str, finite_desc: GroupDescriptor | None = None) -> GroupDescriptor:
    token = token.strip()
    if token == "Z":
        return groups.integer_line()
    if token.startswith("Z^"):
        try:
            return groups.lattice(int(token[2:]))
        except ValueError:
            raise GroupRingError(f"bad group token {token!r}") from None
    if token.startswith("F"):
        try:
            return groups.free_group(int(token[1:]))
        except ValueError:
            raise GroupRingError(f"bad group token {token!r}") from None
    if token == "finite":
        if finite_desc is None:
            raise GroupRingError("matrix over a finite group needs its table supplied")
        return finite_desc
    raise GroupRingError(f"unknown group token {token!r}")


def _parse_coef(token: str, ring: CoefficientRing):
    try:
        if "/" in token:
            num, _, den = token.partition("/")
            return ring.normalize(Fraction(int(num), int(den)))
        return ring.normalize(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise GroupRingError(f"bad coefficient {token!r}: {exc}") from None


def _format_coef(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def parse_element(desc: GroupDescriptor, ring: CoefficientRing,
                  text: str) -> GroupRingElement:
    """Parse whitespace-separated coef@word terms; '0' (or empty) is zero."""
    text = text.strip()
    if text in ("", "0"):
        return GroupRingElement.zero(desc, ring)
    terms = []
    for tok in text.split():
        coef_s, sep, word_s = tok.partition("@")
        if not sep:
            raise GroupRingError(f"term {tok!r} is missing '@'")
        try:
            g = parse_word(desc, word_s)
        except GroupError as exc:
            raise GroupRingError(str(exc)) from None
        terms.append((g, _parse_coef(coef_s, ring)))
    return GroupRingElement.from_terms(desc, ring, terms)


def format_matrix(mat: GroupRingMatrix) -> str:
    lines = [f"{mat.m} {mat.n} {mat.ring.label()} {group_token(mat.desc)}"]
    for i in range(mat.m):
        for j in range(mat.n):
            x = mat.entries[i][j]
            if x.is_zero():
                continue
            terms = " ".join(
                f"{_format_coef(c)}@{format_word(g)}"
                for g, c in sorted(x.coeffs.items(), key=lambda kv: kv[0].sort_key()))
            lines.append(f"{i} {j} {terms}")
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, finite_desc: GroupDescriptor | None = None) -> GroupRingMatrix:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise GroupRingError("empty matrix text")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 4:
        raise GroupRingError(f"line {lineno}: header must be 'm n ring group', got {header!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError:
        raise GroupRingError(f"line {lineno}: bad matrix shape in header {header!r}") from None
    if m < 1 or n < 1:
        raise GroupRingError(f"line {lineno}: matrix shape must be positive")
    ring = parse_ring(parts[2])
    desc = parse_group_token(parts[3], finite_desc)
    zero = GroupRingElement.zero(desc, ring)
    entries = [[zero] * n for _ in range(m)]
    seen = set()
    for lineno, line in lines[1:]:
        toks = line.split()
        if len(toks) < 3:
            raise GroupRingError(f"line {lineno}: entry needs 'i j coef@word ...', got {line!r}")
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise GroupRingError(f"line {lineno}: bad entry indices in {line!r}") from None
        if not (0 <= i < m and 0 <= j < n):
            raise GroupRingError(f"line {lineno}: entry ({i}, {j}) outside {m}x{n} matrix")
        if (i, j) in seen:
            raise GroupRingError(f"line {lineno}: duplicate entry ({i}, {j})")
        seen.add((i, j))
        try:
            entries[i][j] = parse_element(desc, ring, " ".join(toks[2:]))
        except GroupRingError as exc:
            raise GroupRingError(f"line {lineno}: {exc}") from None
    return GroupRingMatrix(desc, ring, entries)
