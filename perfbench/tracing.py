"""Per-layer tracing from outside the program.

A ``Tracer`` replaces the public functions each soficlen layer exposes, at the
module attributes its callers look up, with wrappers that record one span per
call (name, start, end, parent) plus a few counters taken from the arguments
and results.  Nothing under ``src/`` changes; ``install()`` puts the original
attributes back when the traced pass ends.

Layer self time is a span's duration minus the time covered by its child
spans, so the self times of all spans plus the unattributed remainder add up
to the traced pass's wall time.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from soficlen import _kernels, cli, exactla, meanlength, oracles, sofic

# span name -> layer
LAYER = {
    "sofic.make_sigma": "sofic",
    "sofic.perm": "sofic",
    "meanlength.principal_rank_point": "meanlength",
    "meanlength.relative_mean_length_at": "meanlength",
    "exactla.init": "exactla",
    "exactla.rank": "exactla",
    "kernels.dense": "kernels",
    "oracles.laurent_rank": "oracles",
    "oracles.folner_mean_length": "oracles",
    "cli.main": "cli",
    "cli.load_job": "cli",
    "cli.run_job": "cli",
}


# per-layer metric -> unit
UNITS = {
    "sofic.build_s": "s", "sofic.perms": "count",
    "meanlength.self_s": "s", "meanlength.matrices_ranked": "count",
    "meanlength.nnz_ranked": "count", "meanlength.distinct_matrix_ratio": "ratio",
    "exactla.init_s": "s", "exactla.rank_s": "s", "exactla.primes": "count",
    "exactla.per_prime_s": "s", "exactla.driver_s": "s", "exactla.uncertified": "count",
    "kernels.dense_s": "s", "kernels.dense_calls": "count", "kernels.dense_cells": "count",
    "kernels.dense_max_dim": "count", "kernels.ops_computed": "count",
    "kernels.dense_share": "ratio",
    "oracles.laurent_s": "s", "oracles.folner_s": "s",
    "cli.load_s": "s", "cli.run_s": "s", "cli.self_s": "s", "cli.jobs": "count",
    "trace.untraced_s": "s", "trace.solve_s": "s", "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.primes = 0
        self.uncertified = 0
        self.matrices_ranked = 0
        self.nnz_ranked = 0
        self.matrix_keys: set[int] = set()
        self.dense_cells = 0
        self.dense_max_dim = 0
        self.ops_computed = 0

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = Span(name, 0.0, parent=self._open[-1] if self._open else -1)
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._open.pop()
                if span.parent >= 0:
                    self.spans[span.parent].child_s += span.duration
            if after is not None:
                after(result)
            return result
        return traced

    # -- counters taken at the boundaries -------------------------------------

    def _rank_result(self, result):
        self.primes += len(result.primes)
        self.uncertified += not result.agreement

    def _ranked_by_meanlength(self, m, *args, **kwargs):
        self.matrices_ranked += 1
        self.nnz_ranked += m.nnz
        # equal matrices give equal keys; a collision would need equal hashes
        # of two different triplet lists
        self.matrix_keys.add(hash((m.nrows, m.ncols, m.modulus, m.row, m.col, m.val)))

    def _dense_block(self, a, p):
        rows, cols = np.shape(a)
        self.dense_cells += rows * cols
        self.dense_max_dim = max(self.dense_max_dim, rows, cols)
        self.ops_computed += rows * cols * min(rows, cols)

    # -- installation ----------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Patch every traced attribute for the duration of the block."""
        rank_q, rank_p = exactla.rank_over_Q, exactla.rank_mod_p
        patches = [
            (sofic.SoficMap, "perm", self._wrap("sofic.perm", sofic.SoficMap.perm)),
            (exactla.SparseMatrix, "__init__",
             self._wrap("exactla.init", exactla.SparseMatrix.__init__)),
            (_kernels, "dense_rank_mod_p",
             self._wrap("kernels.dense", _kernels.dense_rank_mod_p, before=self._dense_block)),
        ]
        for module in (meanlength, cli):
            patches.append((module, "make_sigma",
                            self._wrap("sofic.make_sigma", sofic.make_sigma)))
            for attr in ("principal_rank_point", "relative_mean_length_at"):
                patches.append((module, attr, self._wrap(
                    f"meanlength.{attr}", getattr(meanlength, attr))))
        for module, before in ((meanlength, self._ranked_by_meanlength), (oracles, None)):
            for attr, fn in (("rank_over_Q", rank_q), ("rank_mod_p", rank_p)):
                patches.append((module, attr, self._wrap(
                    "exactla.rank", fn, before=before, after=self._rank_result)))
        for module in (oracles, cli):
            for attr in ("laurent_rank", "folner_mean_length"):
                patches.append((module, attr, self._wrap(
                    f"oracles.{attr}", getattr(oracles, attr))))
        for attr in ("main", "load_job", "run_job"):
            patches.append((cli, attr, self._wrap(f"cli.{attr}", getattr(cli, attr))))

        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- metrics ---------------------------------------------------------------

    def _total(self, *names) -> float:
        return sum(s.duration for s in self.spans if s.name in names)

    def _self(self, *names) -> float:
        return sum(s.self_s for s in self.spans if s.name in names)

    def _calls(self, *names) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def span_table(self):
        """(span name, "calls, total s, self s") rows, then layer self times."""
        rows = []
        for name in LAYER:
            if self._calls(name):
                rows.append((name, f"{self._calls(name)} calls, "
                             f"{self._total(name):.4f} s total, {self._self(name):.4f} s self"))
        for layer, value in self.layer_self_s().items():
            rows.append((f"layer {layer}", f"{value:.4f} s self"))
        return rows

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(sorted(set(LAYER.values())), 0.0)
        for s in self.spans:
            out[LAYER[s.name]] += s.self_s
        return out

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took ``traced_s`` wall
        seconds, next to an untraced pass of the same inputs."""
        rank_s = self._total("exactla.rank")
        dense_s = self._total("kernels.dense")
        ranked = self.matrices_ranked
        return {
            "sofic.build_s": self._self("sofic.make_sigma", "sofic.perm"),
            "sofic.perms": self._calls("sofic.perm"),
            "meanlength.self_s": self._self("meanlength.principal_rank_point",
                                            "meanlength.relative_mean_length_at"),
            "meanlength.matrices_ranked": ranked,
            "meanlength.nnz_ranked": self.nnz_ranked,
            "meanlength.distinct_matrix_ratio":
                len(self.matrix_keys) / ranked if ranked else 0.0,
            "exactla.init_s": self._self("exactla.init"),
            "exactla.rank_s": rank_s,
            "exactla.primes": self.primes,
            "exactla.per_prime_s": rank_s / self.primes if self.primes else 0.0,
            "exactla.driver_s": self._self("exactla.rank"),
            "exactla.uncertified": self.uncertified,
            "kernels.dense_s": dense_s,
            "kernels.dense_calls": self._calls("kernels.dense"),
            "kernels.dense_cells": self.dense_cells,
            "kernels.dense_max_dim": self.dense_max_dim,
            "kernels.ops_computed": self.ops_computed,
            "kernels.dense_share": dense_s / rank_s if rank_s else 0.0,
            "oracles.laurent_s": self._total("oracles.laurent_rank"),
            "oracles.folner_s": self._total("oracles.folner_mean_length"),
            "cli.load_s": self._total("cli.load_job"),
            "cli.run_s": self._total("cli.run_job"),
            "cli.self_s": self._self("cli.main", "cli.load_job", "cli.run_job"),
            "cli.jobs": self._calls("cli.main"),
            "trace.untraced_s": untraced_s,
            "trace.solve_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.unattributed_s": traced_s - sum(self.layer_self_s().values()),
        }
