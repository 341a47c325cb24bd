"""Normal-form group arithmetic for the supported group families.

Four families are supported: the integer line Z, lattices Z^k, free groups
F_k, and finite groups given by an explicit multiplication table.  Elements
are immutable, kept in a unique normal form (so structural equality is group
equality), and hashable so they can key coefficient dictionaries.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from pathlib import Path

INTEGER_LINE = "integer_line"
LATTICE = "lattice"
FREE = "free"
FINITE = "finite"


class GroupError(ValueError):
    """Malformed group data, or operands from different groups."""


@dataclass(frozen=True)
class GroupDescriptor:
    """Identity of a group: family plus the data needed to multiply.

    ``rank`` is the lattice/free rank (1 for the integer line, ignored for
    finite groups).  Finite groups carry their full multiplication table as
    a tuple of rows (``table[i][j]`` = index of g_i * g_j), the index of the
    identity, and a precomputed inverse table.  The tables take part in
    equality but not in the hash, which every element hash computes.
    """

    family: str
    rank: int = 1
    table: tuple[tuple[int, ...], ...] | None = field(default=None, hash=False)
    identity_index: int = 0
    inverse_table: tuple[int, ...] | None = field(default=None, hash=False)

    @property
    def order(self) -> int:
        if self.family != FINITE:
            raise GroupError("order is only defined for finite groups")
        return len(self.table)

    def identity(self) -> "GroupElement":
        if self.family == INTEGER_LINE:
            return GroupElement(self, 0)
        if self.family == LATTICE:
            return GroupElement(self, (0,) * self.rank)
        if self.family == FREE:
            return GroupElement(self, ())
        return GroupElement(self, self.identity_index)

    def generators(self) -> list["GroupElement"]:
        """Standard generating set (one generator per rank; every
        non-identity element for a finite group)."""
        if self.family == INTEGER_LINE:
            return [GroupElement(self, 1)]
        if self.family == LATTICE:
            gens = []
            for i in range(self.rank):
                v = [0] * self.rank
                v[i] = 1
                gens.append(GroupElement(self, tuple(v)))
            return gens
        if self.family == FREE:
            return [GroupElement(self, (i,)) for i in range(1, self.rank + 1)]
        return [GroupElement(self, i) for i in range(self.order)
                if i != self.identity_index]

    def element(self, value) -> "GroupElement":
        """Build an element from raw data, normalizing and validating;
        integers of any type (numpy's too) are kept as Python ints."""
        scalar = self.family in (INTEGER_LINE, FINITE)
        try:
            v = operator.index(value) if scalar else tuple(map(operator.index, value))
        except TypeError:
            raise GroupError(f"{self.family} element {value!r} is not made of ints") from None
        if self.family == LATTICE and len(v) != self.rank:
            raise GroupError(f"lattice element must be a {self.rank}-tuple of ints")
        if self.family == FREE:
            v = _reduce_word(v)
            for letter in v:
                if letter == 0 or abs(letter) > self.rank:
                    raise GroupError(f"letter {letter} out of range for free rank {self.rank}")
        if self.family == FINITE and not 0 <= v < self.order:
            raise GroupError(f"finite element index {value!r} out of range")
        return GroupElement(self, v)


@dataclass(frozen=True)
class GroupElement:
    """A group element in normal form.

    ``value`` is an int for the integer line and finite groups, an int tuple
    for lattices, and a reduced word for free groups (tuple of nonzero signed
    generator indices, 1-based; (1, -2) means s1 * s2^-1).
    """

    desc: GroupDescriptor
    value: int | tuple[int, ...]

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        return inverse(self)

    def is_identity(self) -> bool:
        return self == self.desc.identity()

    def sort_key(self):
        """Deterministic total order within one group (used to fix the
        enumeration order of balls and support windows)."""
        if self.desc.family == FREE:
            return (len(self.value), self.value)
        if self.desc.family == LATTICE:
            return (sum(abs(x) for x in self.value), self.value)
        return self.value

    def __repr__(self):
        return f"<{format_word(self)}>"


def _reduce_word(word: tuple[int, ...]) -> tuple[int, ...]:
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _same_group(g: GroupElement, h: GroupElement):
    if g.desc != h.desc:
        raise GroupError("operands belong to different groups")


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    _same_group(g, h)
    d = g.desc
    if d.family == INTEGER_LINE:
        return GroupElement(d, g.value + h.value)
    if d.family == LATTICE:
        return GroupElement(d, tuple(a + b for a, b in zip(g.value, h.value)))
    if d.family == FREE:
        return GroupElement(d, _reduce_word(g.value + h.value))
    return GroupElement(d, d.table[g.value][h.value])


def inverse(g: GroupElement) -> GroupElement:
    d = g.desc
    if d.family == INTEGER_LINE:
        return GroupElement(d, -g.value)
    if d.family == LATTICE:
        return GroupElement(d, tuple(-x for x in g.value))
    if d.family == FREE:
        return GroupElement(d, tuple(-x for x in reversed(g.value)))
    return GroupElement(d, d.inverse_table[g.value])


# ---------------------------------------------------------------------------
# descriptor factories

def integer_line() -> GroupDescriptor:
    return GroupDescriptor(INTEGER_LINE, rank=1)


def lattice(rank: int) -> GroupDescriptor:
    if rank < 1:
        raise GroupError("lattice rank must be >= 1")
    return GroupDescriptor(LATTICE, rank=rank)


def free_group(rank: int) -> GroupDescriptor:
    if rank < 1:
        raise GroupError("free rank must be >= 1")
    return GroupDescriptor(FREE, rank=rank)


def finite_group(table) -> GroupDescriptor:
    """Finite group from a multiplication table (rows of element indices).

    Validates shape, locates the (unique) two-sided identity, builds the
    inverse table, and checks associativity — exhaustively for order <= 64,
    on a fixed pseudorandom sample of triples beyond that.
    """
    rows = tuple(tuple(r) for r in table)
    n = len(rows)
    if n == 0:
        raise GroupError("empty multiplication table")
    for r in rows:
        if len(r) != n:
            raise GroupError("multiplication table must be square")
        for x in r:
            if not isinstance(x, numbers.Integral) or not 0 <= x < n:
                raise GroupError(f"table entry {x!r} out of range 0..{n - 1}")
    rows = tuple(tuple(map(operator.index, r)) for r in rows)
    ident = None
    for e in range(n):
        if all(rows[e][j] == j for j in range(n)) and all(rows[j][e] == j for j in range(n)):
            if ident is not None:
                raise GroupError("multiplication table has two identities")
            ident = e
    if ident is None:
        raise GroupError("multiplication table has no two-sided identity")
    inv = [None] * n
    for g in range(n):
        for h in range(n):
            if rows[g][h] == ident and rows[h][g] == ident:
                inv[g] = h
                break
        if inv[g] is None:
            raise GroupError(f"element {g} has no two-sided inverse")
    if n <= 64:
        for a, b, c in itertools.product(range(n), repeat=3):
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise GroupError(f"associativity fails at ({a}, {b}, {c})")
    else:
        # too big to exhaust; fixed LCG sample keeps validation deterministic
        state = 0x9E3779B9
        for _ in range(20000):
            state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
            a = state % n
            b = (state >> 20) % n
            c = (state >> 40) % n
            if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                raise GroupError(f"associativity fails at ({a}, {b}, {c})")
    return GroupDescriptor(FINITE, rank=1, table=rows, identity_index=ident,
                           inverse_table=tuple(inv))


# ---------------------------------------------------------------------------
# balls and word formatting

# a window F costs |F|² defect pairs and d·|B|·|F| relator rows per point,
# so no run uses a ball this large; a radius is checked before enumeration
MAX_BALL = 10_000


def _ball_size(desc: GroupDescriptor, radius: int) -> int:
    """|ball(desc, radius)|, or some number above MAX_BALL, in time bounded
    whatever the radius."""
    if desc.family == FINITE:
        return desc.order
    if desc.family != FREE:  # Σ_i 2^i C(k, i) C(r, i) points of Z^k
        k = desc.rank
        return sum(2**i * math.comb(k, i) * math.comb(radius, i)
                   for i in range(min(k, radius) + 1))
    size, sphere = 1, 2 * desc.rank  # spheres of 2k(2k − 1)^(i−1) words
    for _ in range(radius):
        size, sphere = size + sphere, sphere * (2 * desc.rank - 1)
        if size > MAX_BALL:
            break
    return size


def ball(desc: GroupDescriptor, radius: int) -> list[GroupElement]:
    """Closed word-metric ball of the given radius, in a deterministic order.

    Uses the standard generators; for finite groups the radius is ignored and
    the whole group is returned.  Always contains the identity and is closed
    under inversion.  A ball of more than MAX_BALL elements is refused before
    it is enumerated.
    """
    if radius < 0:
        raise GroupError("radius must be >= 0")
    if _ball_size(desc, radius) > MAX_BALL:
        raise GroupError(f"the ball of radius {radius} has more than {MAX_BALL} elements")
    if desc.family == FINITE:
        return [GroupElement(desc, i) for i in range(desc.order)]
    if desc.family == INTEGER_LINE:
        return [GroupElement(desc, v) for v in range(-radius, radius + 1)]
    if desc.family == LATTICE:
        k = desc.rank
        pts = [v for v in itertools.product(range(-radius, radius + 1), repeat=k)
               if sum(abs(x) for x in v) <= radius]
        pts.sort(key=lambda v: (sum(abs(x) for x in v), v))
        return [GroupElement(desc, v) for v in pts]
    # free group: breadth-first over reduced words
    letters = []
    for i in range(1, desc.rank + 1):
        letters.extend([i, -i])
    words: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
    words.sort(key=lambda w: (len(w), w))
    return [GroupElement(desc, w) for w in words]


def format_word(g: GroupElement) -> str:
    """Render an element in the word syntax used by the matrix text format."""
    d = g.desc
    if d.family == INTEGER_LINE:
        return str(g.value)
    if d.family == LATTICE:
        return ",".join(str(x) for x in g.value)
    if d.family == FINITE:
        return str(g.value)
    if not g.value:
        return "e"
    parts = []
    for letter, run in itertools.groupby(g.value):
        exp = len(list(run)) * (1 if letter > 0 else -1)
        parts.append(f"s{abs(letter)}" if exp == 1 else f"s{abs(letter)}^{exp}")
    return "*".join(parts)


def parse_word(desc: GroupDescriptor, text: str) -> GroupElement:
    """Parse the word syntax back into a normal-form element."""
    text = text.strip()
    if not text:
        raise GroupError("empty word")
    if text == "e":
        return desc.identity()
    try:
        if desc.family == INTEGER_LINE:
            return desc.element(int(text))
        if desc.family == LATTICE:
            return desc.element(tuple(int(x) for x in text.split(",")))
        if desc.family == FINITE:
            return desc.element(int(text))
    except GroupError:
        raise
    except ValueError as exc:
        raise GroupError(f"bad word {text!r}: {exc}") from None
    word: list[int] = []
    for part in text.split("*"):
        if "^" in part:
            base, _, exp_s = part.partition("^")
        else:
            base, exp_s = part, "1"
        if not base.startswith("s"):
            raise GroupError(f"bad generator {part!r} in word {text!r}")
        try:
            gen = int(base[1:])
            exp = int(exp_s)
        except ValueError:
            raise GroupError(f"bad generator {part!r} in word {text!r}") from None
        if not 1 <= gen <= desc.rank:
            raise GroupError(f"generator s{gen} out of range for free rank {desc.rank}")
        letter = gen if exp > 0 else -gen
        word.extend([letter] * abs(exp))
    return desc.element(tuple(word))


# ---------------------------------------------------------------------------
# finite-table file IO

def load_table_file(path) -> GroupDescriptor:
    """Read a finite group table file: first line the order N, then N lines
    of N whitespace-separated element indices; the identity must be index 0."""
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith("#")]
    if not lines:
        raise GroupError(f"{path}: empty table file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GroupError(f"{path}: first line must be the group order") from None
    if len(lines) - 1 != n:
        raise GroupError(f"{path}: expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError:
            raise GroupError(f"{path}: non-integer table entry in row {ln!r}") from None
        table.append(row)
    desc = finite_group(table)
    if desc.identity_index != 0:
        raise GroupError(f"{path}: identity must be element 0, found {desc.identity_index}")
    return desc
