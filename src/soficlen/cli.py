"""Batch front-end: job files in, JSON/CSV convergence reports out.

A job is a small INI-style file (``key = value`` under bracketed sections)
selecting a quantity and its payload; flags only pick the job file, output
directory, verbosity, and worker count.  All randomness flows from the seeds
in the file, so re-running a job reproduces its JSON byte-for-byte (modulo
the ``generated_at`` stamp).

``load_job`` parses and builds the whole file, payloads included, before any
point is computed; an input error, or a key or section that the quantity does
not read, exits 1 with its file, section and key.
``--jobs N`` starts at most one worker process per schedule point.

Exit codes: 0 success, 1 malformed input or unsupported combination,
2 a comparison/tolerance gate failed (the report is still written).

Job file shape::

    [job]
    quantity = vrk-fp            ; mrk-relative | vrk-fp | addition-check |
                                 ; folner | finite-oracle | laurent-oracle |
                                 ; defect | direct-finite
    group = Z                    ; Z | Z^k | Fk | finite:<table file>
    ring = Z                     ; Z | Q | GF(p)
    schedule = 100,1000,5000     ; sizes d (strictly increasing)
    seeds = 1..5                 ; or comma list; default 0
    dims = 8x8,64x64             ; torus sizes (lattice groups)
    radius = 1                   ; ball radius for the window F
    include_identity = true      ; keep e in F
    boxes = 10,50,200            ; Folner boxes (or 4x4,8x8 for Z^k)
    tolerance = 0.02             ; compare/addition gate, finite and >= 0
    snap_tol = 0.05              ; finite and > 0

    [matrix]                     ; for matrix quantities; group and ring,
    file = f.txt                 ; when given, must agree with its header
                                 ; or inline: text = <matrix text format>

    [matrix_b]                   ; second operand of direct-finite, over
                                 ; the same group ring as [matrix]

    [generators]                 ; for mrk-relative / folner
    n = 2
    a1 = 1@e -1@1 | 0            ; components separated by |
    b1 = ...                     ; optional; default the identity matrix
                                 ; (standard basis)
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import datetime
import io
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path

from . import groups
from .groupring import (INTEGERS, CoefficientRing, GroupRingError,
                        GroupRingMatrix, check_direct_finite, check_square,
                        format_matrix, group_token, parse_element,
                        parse_group_token, parse_matrix, parse_ring)
from .groups import GroupDescriptor, GroupError
from .meanlength import (MeanLengthError, RelativePair, check_addition,
                         check_vrk_ring, estimate_mean_length, estimate_vrk_fp,
                         run_schedule)
# not called here: perfbench/tracing.py patches these names on this module
from .meanlength import (make_sigma, principal_rank_point,  # noqa: F401
                         relative_mean_length_at)
from .oracles import (FolnerBox, OracleError, check_box, check_oracle_group,
                      compare, finite_group_vrk, folner_mean_length,
                      laurent_rank)
from .sofic import (MAX_SEEDS, SoficError, SoficSchedule, check_seed, check_seeds,
                    check_size, defect)


@dataclass(frozen=True)
class Quantity:
    """What a job of one quantity must give and what it computes."""

    needs: tuple[str, ...]           # required parts of the job file, in check order
    point: str | None                # per schedule point: mrk | vrk | addition | defect
    oracle: str | None = None        # folner | finite-group | laurent
    tolerance: float | None = None   # default gate


_QUANTITY = {
    "mrk-relative": Quantity(("[generators] a1", "[job] schedule"), "mrk"),
    "vrk-fp": Quantity(("[matrix]", "[job] schedule"), "vrk"),
    "addition-check": Quantity(("[matrix]", "[job] schedule"), "addition", tolerance=0.02),
    "folner": Quantity(("[generators] a1", "[job] boxes", "[job] schedule"), "mrk",
                       "folner", 0.02),
    # one point at d = |G|: the regular representation, where vrk is exact
    "finite-oracle": Quantity(("[matrix]",), "vrk", "finite-group", 0.0),
    "laurent-oracle": Quantity(("[matrix]", "[job] schedule"), "vrk", "laurent", 0.01),
    "defect": Quantity(("[job] group", "[job] schedule"), "defect"),
    "direct-finite": Quantity(("[matrix]", "[matrix_b]"), None),
}
QUANTITIES = tuple(_QUANTITY)


def _reads(facts: Quantity) -> set[str]:
    """The sections and [job] keys that a job of this quantity reads."""
    reads = {"[job]", "[job] quantity", "[job] group"}
    reads.update(part if part.startswith("[job]") else part.split()[0]
                 for part in facts.needs)
    optional = {"dims": "[job] schedule" in reads,
                "ring": bool(reads & {"[matrix]", "[generators]"}),
                "seeds": facts.point is not None,
                "radius": facts.point in ("mrk", "defect"),  # they use the window F
                "include_identity": facts.point in ("mrk", "defect"),
                "snap_tol": facts.point in ("mrk", "vrk"),  # they report an estimate
                "tolerance": facts.tolerance is not None}
    reads.update(f"[job] {key}" for key, read in optional.items() if read)
    return reads


_INPUT_ERRORS = (GroupError, GroupRingError, SoficError, MeanLengthError,
                 OracleError)


class JobError(ValueError):
    """Bad input, raised with its file, section and key."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


@dataclass
class Job:
    """A job file, parsed and built.  Pool workers never receive it, only
    ``partial(point function, pair or matrix)`` and a schedule point."""

    name: str
    quantity: str
    ring: CoefficientRing
    desc: GroupDescriptor | None = None
    matrix: GroupRingMatrix | None = None
    matrix_b: GroupRingMatrix | None = None
    pair: RelativePair | None = None
    F: tuple = ()
    schedule: SoficSchedule | None = None
    boxes: tuple[FolnerBox, ...] = ()
    tolerance: float | None = None
    snap_tol: float = 0.05

    @property
    def facts(self) -> Quantity:
        return _QUANTITY[self.quantity]


# ---------------------------------------------------------------------------
# job file parsing: a parser raises ValueError, and _value adds its location

@contextlib.contextmanager
def _at(where: str, errors=_INPUT_ERRORS):
    """Report an input error raised in the block at ``where``."""
    try:
        yield
    except errors as exc:
        raise JobError(where, str(exc)) from None


def _value(sec, key: str, where: str, parse, default=None):
    if key not in sec:
        return default
    with _at(f"{where} {key}", ValueError):
        return parse(sec[key])


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


def _seeds(text: str) -> tuple[int, ...]:
    lo, sep, hi = text.partition("..")
    if sep:
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty seed range {text.strip()!r}")
        check_seed(lo)
        check_seed(hi)
        if hi - lo >= MAX_SEEDS:
            raise ValueError(f"seed range {text.strip()!r} names {hi - lo + 1} seeds, "
                             f"more than {MAX_SEEDS}")
    seeds = tuple(range(lo, hi + 1)) if sep else _int_list(text)
    for seed in seeds:
        check_seed(seed)
    check_seeds(seeds)
    return seeds


def _sides_list(text: str) -> tuple[tuple[int, ...], ...]:
    """Sizes such as ``64x64,128x128``."""
    sides = tuple(tuple(int(x) for x in c.split("x")) for c in text.split(",") if c.strip())
    if not sides:
        raise ValueError("empty size list")
    return sides


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text.strip()!r}") from None


def _number(text: str, positive: bool) -> float:
    x = float(text)
    if not math.isfinite(x) or x < 0 or (positive and x == 0):
        raise ValueError(f"expected a finite number {'>' if positive else '>='} 0, "
                         f"got {text.strip()!r}")
    return x


def _group(text: str, base: Path) -> GroupDescriptor:
    if text.startswith("finite:"):
        try:
            return groups.load_table_file((base / text[len("finite:"):]).resolve())
        except OSError as exc:
            raise ValueError(str(exc)) from None
    return parse_group_token(text)


def _matrix(cp, path: Path, section: str, finite_desc) -> GroupRingMatrix | None:
    if section not in cp:
        return None
    sec = cp[section]
    if "file" in sec and "text" in sec:
        raise JobError(f"{path} [{section}]", "give 'file' or 'text', not both")
    if "file" in sec:
        try:
            text = (path.parent / sec["file"]).resolve().read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise JobError(f"{path} [{section}] file", str(exc)) from None
    elif "text" in sec:
        text = sec["text"]
    else:
        raise JobError(f"{path} [{section}]", "needs 'file' or 'text'")
    with _at(f"{path} [{section}]"):
        return parse_matrix(text, finite_desc)


def _numbered(sec, letter: str) -> list[str]:
    keys = [k for k in sec if k[:1] == letter and k[1:].isdigit()]
    return [sec[k] for k in sorted(keys, key=lambda k: int(k[1:]))]


def _rows(desc, ring, texts, n: int) -> GroupRingMatrix:
    """The matrix whose rows are the vectors ``texts``, each of n components
    separated by '|'."""
    rows = []
    for text in texts:
        chunks = [c.strip() for c in text.split("|")]
        if len(chunks) != n:
            raise GroupRingError(
                f"vector {text!r} has {len(chunks)} components, ambient n = {n}")
        rows.append([parse_element(desc, ring, c) for c in chunks])
    return GroupRingMatrix(desc, ring, rows)


def load_job(path) -> Job:
    """Parse and build the job at ``path``; raise JobError naming the
    file, section and key of the first bad input."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cp.read_file(fh, source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise JobError(str(path), f"cannot read job file: {exc}") from None
    except configparser.Error as exc:
        one_line = " ".join(line.strip() for line in str(exc).splitlines())
        raise JobError(str(path), f"syntax error: {one_line}") from None
    if "job" not in cp:
        raise JobError(f"{path}", "missing [job] section")
    jobsec = cp["job"]
    where = f"{path} [job]"
    quantity = jobsec.get("quantity", "").strip()
    if quantity not in QUANTITIES:
        raise JobError(f"{where} quantity",
                           f"unknown quantity {quantity!r}; pick one of {', '.join(QUANTITIES)}")
    facts = _QUANTITY[quantity]
    reads = _reads(facts)
    for part in [f"[job] {key}" for key in jobsec] + [f"[{s}]" for s in cp.sections()]:
        if part not in reads:
            raise JobError(f"{path} {part}", f"not read by quantity {quantity}")
    gens = cp["generators"] if "generators" in cp else {}
    a_texts = _numbered(gens, "a")
    group = jobsec.get("group", "").strip()
    given = {"[matrix]": "matrix" in cp, "[matrix_b]": "matrix_b" in cp,
             "[generators] a1": bool(a_texts), "[job] boxes": "boxes" in jobsec,
             "[job] group": bool(group),
             "[job] schedule": "schedule" in jobsec or "dims" in jobsec}
    for part in facts.needs:
        if not given[part]:
            raise JobError(f"{path} {part}", f"required by quantity {quantity}")

    desc = _value(jobsec, "group", where, lambda t: _group(t.strip(), path.parent)) \
        if group else None
    ring = _value(jobsec, "ring", where, parse_ring, INTEGERS)
    job = Job(path.stem, quantity, ring, desc,
              tolerance=_value(jobsec, "tolerance", where,
                               lambda t: _number(t, positive=False), facts.tolerance),
              snap_tol=_value(jobsec, "snap_tol", where,
                              lambda t: _number(t, positive=True), 0.05),
              boxes=_value(jobsec, "boxes", where,
                           lambda t: tuple(map(FolnerBox, _sides_list(t))), ()))
    finite_desc = desc if desc is not None and desc.family == groups.FINITE else None
    job.matrix = _matrix(cp, path, "matrix", finite_desc)
    job.matrix_b = _matrix(cp, path, "matrix_b", finite_desc)
    m = job.matrix
    if m is not None:
        header = f"ring {m.ring.label()}, group {group_token(m.desc)}"
        for key, value, in_header in (("group", desc, m.desc), ("ring", ring, m.ring)):
            if jobsec.get(key, "").strip() and value != in_header:
                raise JobError(f"{where} {key}", f"{jobsec[key].strip()!r} disagrees "
                                   f"with the [matrix] header ({header})")
        job.desc, job.ring = m.desc, m.ring
        if job.matrix_b is not None:  # read by direct-finite only
            if (job.matrix_b.desc, job.matrix_b.ring) != (m.desc, m.ring):
                raise JobError(f"{path} [matrix_b]", "not over the group ring of [matrix]")
            with _at(f"{path} [matrix]"):
                check_square(m, m.m)
            with _at(f"{path} [matrix_b]"):
                check_square(job.matrix_b, m.m)
        if facts.point in ("vrk", "addition"):
            with _at(f"{where} ring" if jobsec.get("ring", "").strip() else f"{path} [matrix]"):
                check_vrk_ring(m.ring)
    if facts.oracle in ("folner", "laurent") and job.desc is not None:
        with _at(f"{where} group" if group else f"{path} [matrix]"):
            check_oracle_group(job.desc, f"quantity {quantity}")
        with _at(f"{where} boxes"):
            for box in job.boxes:
                check_box(box, job.desc)

    radius = _value(jobsec, "radius", where, int, 1)
    include_identity = _value(jobsec, "include_identity", where, _boolean, True)
    if job.desc is not None:
        with _at(f"{where} radius"):
            job.F = tuple(g for g in groups.ball(job.desc, radius)
                          if include_identity or not g.is_identity())
        if facts.point == "mrk" and not job.F:
            raise JobError(f"{where} radius", "the window F is empty: the ball "
                           "has no element but e, and include_identity = false")
    if a_texts:
        gwhere = f"{path} [generators]"
        n = _value(gens, "n", gwhere, int)
        if n is None:
            raise JobError(f"{gwhere} n", "ambient rank n is required")
        if job.desc is None:
            raise JobError(gwhere, "needs a group")
        with _at(gwhere):
            A = _rows(job.desc, job.ring, a_texts, n)
            b_texts = _numbered(gens, "b")
            B = (_rows(job.desc, job.ring, b_texts, n) if b_texts
                 else GroupRingMatrix.identity(job.desc, job.ring, n))
            job.pair = RelativePair(A, B, job.F)

    seeds = _value(jobsec, "seeds", where, _seeds, (0,))
    ds = _value(jobsec, "schedule", where, _int_list)
    dims = _value(jobsec, "dims", where, _sides_list)
    with _at(f"{where} schedule"):
        if facts.oracle == "finite-group":
            if job.desc.family != groups.FINITE:
                raise JobError(f"{where} group" if group else f"{path} [matrix]",
                               "finite-oracle needs group = finite:<table>")
            if len(seeds) > 1:
                raise JobError(f"{where} seeds",
                               "finite-oracle's translation model uses no seed; give at most one")
            job.schedule = SoficSchedule((job.desc.order,), seeds)
        elif ds is not None:
            job.schedule = SoficSchedule(ds, seeds, dims)
        elif dims is not None:
            job.schedule = SoficSchedule.from_dims(dims, seeds)
        if job.schedule is not None:
            for point in job.schedule.points():
                check_size(job.desc, point.d, point.dims)
    return job


# ---------------------------------------------------------------------------
# schedule points, evaluated by meanlength.run_schedule

def _defect_point(F, sigma, point) -> dict:
    """The defect of σ on the window F at one point of a defect job."""
    report = defect(sigma, F)
    pairs = []
    for (s, t), v in sorted(report.multiplicativity.items(),
                            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key())):
        sep = None if s == t else report.separation.get((s, t), Fraction(1))
        pairs.append({"s": groups.format_word(s), "t": groups.format_word(t),
                      "mult_num": v.numerator, "mult_den": v.denominator,
                      "sep_num": None if sep is None else sep.numerator,
                      "sep_den": None if sep is None else sep.denominator})
    return {"d": point.d, "seed": point.seed, "summary": report.summary(),
            "pairs": pairs}


def _echo(mapper, fn, points, *rest):
    """``mapper(fn, points, *rest)``, printing each point's -v line as it arrives."""
    for point, (value, summary) in zip(points, mapper(fn, points, *rest)):
        shown = getattr(value, "value", None)
        shown = "done" if shown is None else f"{shown.numerator}/{shown.denominator}"
        print(f"  d={point.d} seed={point.seed}: {shown}", file=sys.stderr)
        yield value, summary


# ---------------------------------------------------------------------------
# quantity runners

_ESTIMATE_CSV = ["d", "seed", "value_num", "value_den", "value"]
_DEFECT_CSV = ["d", "seed", "min_multiplicativity", "mean_multiplicativity",
               "min_separation", "mean_separation"]


@dataclass
class RunResult:
    exit_code: int
    report: dict
    csv_header: list = field(default_factory=lambda: list(_ESTIMATE_CSV))
    csv_rows: list = field(default_factory=list)


def _fraction(v: Fraction) -> dict:
    return {"num": v.numerator, "den": v.denominator, "value": float(v)}


def _compare_with_oracle(job: Job, est, report: dict) -> int:
    """Add the oracle and the comparison to ``report``; return the exit code."""
    kind = job.facts.oracle
    if kind == "folner":
        series = folner_mean_length(job.pair.A, job.boxes)
        value = series[-1]
        report["oracle"] = {"kind": kind, "boxes": [list(b.sides) for b in job.boxes],
                            "series": [_fraction(v) for v in series]}
    elif kind == "finite-group":
        value = finite_group_vrk(job.matrix)
        report["oracle"] = {"kind": kind, **_fraction(value)}
    else:
        lr = laurent_rank(job.matrix, seed=job.schedule.seeds[0])
        value = lr.vrk
        report["oracle"] = {"kind": kind, "rank": lr.rank, **_fraction(value),
                            "evaluations": list(lr.evaluations)}
    verdict = compare(est, value, job.tolerance)
    report["compare"] = verdict.to_json_dict()
    return 0 if verdict.passed else 2


def run_job(job: Job, jobs: int, verbose: bool) -> RunResult:
    kind = job.facts.point
    if kind is None:
        verdict = check_direct_finite(job.matrix, job.matrix_b)
        report = {
            "quantity": "direct-finite",
            "verdict": verdict.kind,
            "ba": None if verdict.ba is None else format_matrix(verdict.ba),
        }
        return RunResult(0, report, ["verdict"], [[verdict.kind]])
    workers = min(jobs, len(job.schedule.points()))
    with contextlib.ExitStack() as stack:
        mapper = map if workers < 2 else stack.enter_context(
            ProcessPoolExecutor(max_workers=workers)).map
        mapper = partial(_echo, mapper) if verbose else mapper
        if kind == "mrk":
            est = estimate_mean_length(job.pair, job.schedule, snap_tol=job.snap_tol,
                                       mapper=mapper)
        elif kind == "vrk":
            est = estimate_vrk_fp(job.matrix, job.schedule, snap_tol=job.snap_tol, mapper=mapper)
        elif kind == "addition":
            rep = check_addition(job.matrix, job.schedule, mapper=mapper)
        else:
            run = run_schedule(job.desc, job.schedule, partial(_defect_point, job.F), None, mapper)
            results = [value for _, value, _ in run]
    if kind == "addition":
        code = 0 if rep.max_residual_routes <= Fraction(job.tolerance) else 2
        return RunResult(code, rep.to_json_dict(),
                         ["d", "seed", "submodule_num", "submodule_den",
                          "residual_routes"], rep.csv_rows())
    if kind == "defect":
        report = {
            "quantity": "defect",
            "window": [groups.format_word(g) for g in job.F],
            "series": results,
        }
        rows = [[r["d"], r["seed"], *(r["summary"][k] for k in _DEFECT_CSV[2:])]
                for r in results]
        return RunResult(0, report, list(_DEFECT_CSV), rows)
    report = est.to_json_dict()
    code = 0 if job.facts.oracle is None else _compare_with_oracle(job, est, report)
    return RunResult(code, report, csv_rows=est.csv_rows())


# ---------------------------------------------------------------------------
# entry point

def _write_artifacts(job: Job, result: RunResult, out_dir: Path) -> tuple[Path, Path]:
    """Write ``<job>.json`` and ``<job>.csv``; if a write fails, remove the
    files this call opened and raise."""
    report = {"job": job.name,
              "generated_at": datetime.datetime.now(datetime.timezone.utc)
                              .isoformat(timespec="seconds")}
    report.update(result.report)
    table = io.StringIO()
    csv.writer(table).writerows([result.csv_header, *result.csv_rows])
    texts = {out_dir / f"{job.name}.json": json.dumps(report, indent=2) + "\n",
             out_dir / f"{job.name}.csv": table.getvalue()}
    opened = []
    try:
        for path, text in texts.items():
            with open(path, "w", newline="") as fh:
                opened.append(path)
                fh.write(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise
    return tuple(texts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="soficlen",
        description="Finite-scale mean length / von Neumann rank estimation "
                    "over group rings.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a job file and write JSON/CSV reports")
    run_p.add_argument("spec", help="job file path")
    run_p.add_argument("--out", default=".", help="output directory (default: .)")
    run_p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for schedule points (default 1)")
    run_p.add_argument("-v", "--verbose", action="store_true")
    val_p = sub.add_parser("validate", help="parse and check a job file")
    val_p.add_argument("spec")
    args = parser.parse_args(argv)
    if args.command == "run" and args.jobs < 1:
        print(f"error: --jobs must be at least 1, got {args.jobs}", file=sys.stderr)
        return 1

    verbose = getattr(args, "verbose", False)
    try:
        job = load_job(args.spec)
        if args.command == "run":
            out_dir = Path(args.out)
            with _at(f"--out {out_dir}", OSError):
                out_dir.mkdir(parents=True, exist_ok=True)
            result = run_job(job, args.jobs, verbose)
            with _at(f"--out {out_dir}", OSError):
                json_path, csv_path = _write_artifacts(job, result, out_dir)
    except (JobError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            print(f"{args.spec}: ok")
            print(f"  quantity: {job.quantity}")
            if job.desc is not None:
                print(f"  group: {job.desc.family}" +
                      (f" (order {job.desc.order})" if job.desc.family == groups.FINITE else ""))
            print(f"  ring: {job.ring.label()}")
            if job.schedule is not None:
                print(f"  points: {len(job.schedule.points())}")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout: Python's last flush of it goes to
            # devnull, not to a second BrokenPipeError (Python's SIGPIPE note)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 0
    if verbose or result.exit_code != 0:
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    if result.exit_code == 0 and result.report.get("stabilized") is False:
        print("warning: series has not stabilized "
              "(|last − previous| above tolerance)", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
