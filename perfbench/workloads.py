"""The benchmark's workloads: inputs generated from a seed, an exact reference
computed by an independent route, and one pass that drives the inputs through
soficlen's public API or CLI and checks every exact value it produces.

Calls into soficlen go through module attributes (``meanlength.x``,
``cli.main``) so that a ``Tracer`` installed around a pass sees them.
"""

from __future__ import annotations

import csv
import json
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from soficlen import cli, groups, meanlength, oracles, sofic
from soficlen.groupring import INTEGERS, GroupRingElement, GroupRingMatrix

import reference

# The matrices f and A are drawn once, with the generator seeds of criteria 06
# and 05: between draws the cost of one f or A spreads over two orders of
# magnitude, so freshly drawn inputs would make a pass's time a property of
# the seed.  The workload seed picks the rank primes (through the rank seed),
# the random σ of f2-vrk and the Laurent oracle's evaluation points.
TORUS_PANEL_SEED = 606
Z_PANEL_SEED = 505


@dataclass(frozen=True)
class Point:
    """Outcome of one schedule point: its exact values and whether every
    check on them passed."""

    key: str
    values: tuple
    ok: bool


def _evaluate(key, fn) -> Point:
    """Run one point; an exception counts the point as failed, not the run."""
    try:
        values, ok = fn()
    except Exception:
        traceback.print_exc()
        return Point(key, (), False)
    return Point(key, tuple(values), bool(ok))


def _random_element(rng, desc, support):
    """Criteria 05/06's generator: 1-3 terms from the support, coefficients
    in [-3, 3]."""
    terms = [(rng.choice(support), rng.randrange(-3, 4))
             for _ in range(rng.randrange(1, 4))]
    return GroupRingElement.from_terms(desc, INTEGERS, terms)


def _exponents(element) -> dict:
    """{exponent tuple: coefficient} of an element of Z[Z] or Z[Z^k]."""
    out = {}
    for g, c in element.coeffs.items():
        out[(g.value,) if isinstance(g.value, int) else tuple(g.value)] = int(c)
    return out


class F2Vrk:
    """One vrk point of f = [[s-1], [t-1]] over Z[F_2] with a random σ.

    Large, expander-like pattern with little fill and a negligible dense
    tail: it isolates the sparse driver, the multi-prime certificate and the
    second (action-matrix) rank.
    """

    name = "f2-vrk"

    def __init__(self, d: int = 5000):
        self.d = d
        self.desc = groups.free_group(2)

    def _f(self):
        one = self.desc.identity()
        rows = []
        for letter in (1, 2):
            g = self.desc.element((letter,))
            rows.append([GroupRingElement.from_terms(
                self.desc, INTEGERS, [(g, 1), (one, -1)])])
        return GroupRingMatrix(self.desc, INTEGERS, rows)

    def setup(self, seed: int, workdir: Path):
        return self._f(), sofic.make_sigma(self.desc, self.d, seed)

    def reference(self, seed: int, inputs):
        # a σ of its own, so the timed pass still materialises its permutations
        sigma = sofic.make_sigma(self.desc, self.d, seed)
        perms = [sigma.perm(self.desc.element((letter,))) for letter in (1, 2)]
        return self.d - reference.orbit_count(perms)

    def solve(self, seed: int, inputs, rank, out: Path) -> list[Point]:
        f, sigma = inputs
        d = self.d

        def point():
            pp = meanlength.principal_rank_point(
                f, sigma, seed=seed,
                rank_seed=meanlength.derive_rank_seed("vrk", d, seed))
            ok = pp.duality and pp.rank == rank and pp.vrk == 1 - Fraction(rank, d)
            return (pp.rank, pp.kernel, pp.vrk.numerator, pp.vrk.denominator), ok

        return [_evaluate(f"d={d}", point)]


class TorusVrk:
    """Criterion 06's five 2x2 f over Z[Z^2] on a torus σ, each checked
    against the Laurent oracle.

    The elimination pattern is a 2-D grid with heavy fill and real dense
    tails: the workload for the dense kernel and for a character route.
    """

    name = "torus-vrk"

    def __init__(self, dims=(20, 20), count: int = 5):
        self.dims = tuple(dims)
        self.d = self.dims[0] * self.dims[1]
        self.count = count
        self.desc = groups.lattice(2)

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(TORUS_PANEL_SEED)
        support = groups.ball(self.desc, 1)
        fs = [GroupRingMatrix(self.desc, INTEGERS,
                              [[_random_element(rng, self.desc, support)
                                for _ in range(2)] for _ in range(2)])
              for _ in range(self.count)]
        return fs, sofic.make_sigma(self.desc, self.d, seed, self.dims)

    def reference(self, seed: int, inputs):
        fs, _ = inputs
        return [reference.character_ranks(
            [[_exponents(e) for e in row] for row in f.entries], self.dims, seed)
            for f in fs]

    def solve(self, seed: int, inputs, refs, out: Path) -> list[Point]:
        fs, sigma = inputs
        d = self.d

        def point(trial, f, ref):
            rank_sum, generic = ref
            pp = meanlength.principal_rank_point(
                f, sigma, seed=seed,
                rank_seed=meanlength.derive_rank_seed("vrk", d, seed))
            lr = oracles.laurent_rank(f, seed=seed + trial)
            # oracle gate: the Laurent rank is the generic character rank, and
            # the finite value can only exceed n - rank by rank drops
            ok = (pp.duality and pp.rank == rank_sum and lr.rank == generic
                  and pp.vrk >= lr.vrk)
            return (pp.rank, pp.kernel, pp.vrk.numerator, pp.vrk.denominator,
                    lr.rank), ok

        return [_evaluate(f"f{trial}", lambda t=trial, f=f, r=ref: point(t, f, r))
                for trial, (f, ref) in enumerate(zip(fs, refs))]


class ZMrkCli:
    """``folner`` jobs over Z with criterion 05's A, each run in-process
    through ``soficlen run`` with its JSON/CSV read back.

    Tall banded relator matrices, each ranked alone and stacked; the only
    workload that measures the CLI and the Følner oracle.
    """

    name = "z-mrk-cli"

    def __init__(self, d: int = 1000, box: int = 200, jobs: int = 5):
        self.d = d
        self.box = box
        self.jobs = jobs
        self.desc = groups.integer_line()

    def _vectors(self, rng):
        support = groups.ball(self.desc, 2)
        return [[_random_element(rng, self.desc, support) for _ in range(2)]
                for _ in range(rng.randrange(1, 3))]

    @staticmethod
    def _text(element) -> str:
        return " ".join(f"{int(c)}@{g.value}" for g, c in
                        sorted(element.coeffs.items(), key=lambda kv: kv[0].value)) or "0"

    def setup(self, seed: int, workdir: Path):
        rng = random.Random(Z_PANEL_SEED)
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = []
        for k in range(self.jobs):
            vectors = self._vectors(rng)
            gens = "\n".join(f"a{i + 1} = " + " | ".join(self._text(c) for c in v)
                             for i, v in enumerate(vectors))
            path = workdir / f"job{k}.ini"
            path.write_text(
                "[job]\nquantity = folner\ngroup = Z\nring = Z\n"
                f"schedule = {self.d}\nseeds = {seed}\nradius = 2\n"
                f"boxes = {self.box}\ntolerance = 0.02\n\n"
                f"[generators]\nn = 2\n{gens}\n")
            jobs.append((path, vectors))
        return jobs, workdir

    def reference(self, seed: int, inputs):
        # with supp(A) inside F = ball(2) the relators identify (v, w) with
        # (v - w, 0), so the relator quotient is the circulant model of A
        jobs, _ = inputs
        return [Fraction(reference.character_ranks(
            [[_exponents(c) for c in v] for v in vectors], (self.d,), seed)[0], self.d)
            for _, vectors in jobs]

    def solve(self, seed: int, inputs, refs, out: Path) -> list[Point]:
        jobs, _ = inputs

        def point(path, mrk):
            code = cli.main(["run", str(path), "--out", str(out)])
            report = json.loads((out / f"{path.stem}.json").read_text())
            with open(out / f"{path.stem}.csv", newline="") as fh:
                row = list(csv.reader(fh))[1]
            entry = report["series"][0]
            value = Fraction(entry["value_num"], entry["value_den"])
            ok = (code == 0 and value == mrk and report["compare"]["passed"]
                  and Fraction(int(row[2]), int(row[3])) == mrk)
            oracle = report["compare"]
            return (code, value.numerator, value.denominator,
                    oracle["oracle_num"], oracle["oracle_den"]), ok

        return [_evaluate(path.stem, lambda p=path, m=mrk: point(p, m))
                for (path, _), mrk in zip(jobs, refs)]


WORKLOADS = {w.name: w for w in (F2Vrk, TorusVrk, ZMrkCli)}
