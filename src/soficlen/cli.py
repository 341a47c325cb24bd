"""Batch front-end: job files in, JSON/CSV convergence reports out.

A job is a small INI-style file (``key = value`` under bracketed sections)
selecting a quantity and its payload; flags only pick the job file, output
directory, verbosity, and worker count.  All randomness flows from the seeds
in the file, so re-running a job reproduces its JSON byte-for-byte (modulo
the ``generated_at`` stamp).

``load_job`` parses and builds the whole file, payloads included, before any
point is computed; an input error exits 1 with its file, section and key.
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
    b1 = ...                     ; optional; default standard basis
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import datetime
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from . import groups
from .groupring import (INTEGERS, CoefficientRing, GroupRingError,
                        GroupRingMatrix, check_direct_finite, format_matrix,
                        group_token, parse_element, parse_group_token,
                        parse_matrix, parse_ring)
from .groups import GroupDescriptor, GroupError
from .meanlength import (AdditionReport, FreeModuleVector, MeanLengthError,
                         RelativePair, addition_pair, addition_point,
                         assemble_estimate, mrk_point, relative_pair,
                         support_window, vrk_point)
# not called here: perfbench/tracing.py patches these names on this module
from .meanlength import principal_rank_point, relative_mean_length_at  # noqa: F401
from .oracles import (FolnerBox, OracleError, compare, finite_group_vrk,
                      folner_mean_length, laurent_rank)
from .sofic import SoficError, SoficSchedule, defect, make_sigma


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

_INPUT_ERRORS = (GroupError, GroupRingError, SoficError, MeanLengthError,
                 OracleError)


class JobError(ValueError):
    """Bad input, raised with its file, section and key."""

    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


@dataclass
class Job:
    """A job file, parsed and built; pool workers receive it pickled."""

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
    verbose: bool = False

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
    if not sep:
        return _int_list(text)
    seeds = tuple(range(int(lo), int(hi) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text.strip()!r}")
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
    if "file" in sec:
        try:
            text = (path.parent / sec["file"]).resolve().read_text()
        except OSError as exc:
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


def _parse_vector(desc, ring, text: str, n: int) -> FreeModuleVector:
    chunks = [c.strip() for c in text.split("|")]
    if len(chunks) != n:
        raise GroupRingError(
            f"vector {text!r} has {len(chunks)} components, ambient n = {n}")
    return FreeModuleVector(tuple(parse_element(desc, ring, c) for c in chunks))


def load_job(path, verbose: bool = False) -> Job:
    """Parse and build the job at ``path``; raise JobError naming the
    file, section and key of the first bad input."""
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise JobError(str(path), f"cannot read job file: {exc}") from None
    except configparser.Error as exc:
        raise JobError(str(path), f"syntax error: {exc}") from None
    if "job" not in cp:
        raise JobError(f"{path}", "missing [job] section")
    jobsec = cp["job"]
    where = f"{path} [job]"
    quantity = jobsec.get("quantity", "").strip()
    if quantity not in QUANTITIES:
        raise JobError(f"{where} quantity",
                           f"unknown quantity {quantity!r}; pick one of {', '.join(QUANTITIES)}")
    facts = _QUANTITY[quantity]
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
    job = Job(path.stem, quantity, ring, desc, verbose=verbose,
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
        if job.matrix_b is not None and (job.matrix_b.desc, job.matrix_b.ring) != (m.desc, m.ring):
            raise JobError(f"{path} [matrix_b]", "not over the group ring of [matrix]")

    radius = _value(jobsec, "radius", where, int, 1)
    include_identity = _value(jobsec, "include_identity", where, _boolean, True)
    if job.desc is not None:
        with _at(f"{where} radius"):
            job.F = tuple(g for g in groups.ball(job.desc, radius)
                          if include_identity or not g.is_identity())
        if facts.point == "mrk" and not job.F:
            raise JobError(f"{where} radius", "the window F is empty: the ball "
                           "has no element but e, and include_identity = false")
    if quantity == "addition-check":
        with _at(f"{path} [matrix]"):
            job.pair = addition_pair(job.matrix)
    elif a_texts:
        gwhere = f"{path} [generators]"
        n = _value(gens, "n", gwhere, int)
        if n is None:
            raise JobError(f"{gwhere} n", "ambient rank n is required")
        if job.desc is None:
            raise JobError(gwhere, "needs a group")
        with _at(gwhere):
            A = [_parse_vector(job.desc, job.ring, t, n) for t in a_texts]
            B = [_parse_vector(job.desc, job.ring, t, n) for t in _numbered(gens, "b")]
            job.pair = relative_pair(n, A, job.F, B or None)

    seeds = _value(jobsec, "seeds", where, _seeds, (0,))
    ds = _value(jobsec, "schedule", where, _int_list)
    dims = _value(jobsec, "dims", where, _sides_list)
    with _at(f"{where} schedule"):
        if facts.oracle == "finite-group":
            if job.desc.family != groups.FINITE:
                raise JobError(f"{where} group",
                                   "finite-oracle needs group = finite:<table>")
            job.schedule = SoficSchedule((job.desc.order,), seeds[:1])
        elif ds is not None:
            job.schedule = SoficSchedule(ds, seeds, dims)
        elif dims is not None:
            job.schedule = SoficSchedule.from_dims(dims, seeds)
    return job


# ---------------------------------------------------------------------------
# point evaluation (one code path for serial and pooled runs)

def _eval_point(job: Job, point):
    """One schedule point of a job; pooled workers receive the pickled job."""
    sigma = make_sigma(job.desc, point.d, point.seed, point.dims)
    kind = job.facts.point
    if kind == "mrk":
        return mrk_point(job.pair, sigma, point)
    if kind == "vrk":
        return vrk_point(job.matrix, sigma, point)
    if kind == "addition":
        return addition_point(job.matrix, job.pair, sigma, point)
    report = defect(sigma, job.F)
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


def _run_points(job: Job, jobs: int) -> list:
    """Results of every schedule point in order, from at most one worker
    process per point; under -v each is printed as it arrives."""
    points = job.schedule.points()
    workers = min(jobs, len(points))
    results = []
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            mapper = stack.enter_context(ProcessPoolExecutor(max_workers=workers)).map
        for point, result in zip(points, mapper(_eval_point, repeat(job), points)):
            results.append(result)
            if job.verbose:
                value = getattr(result, "value", None)
                print(f"  d={point.d} seed={point.seed}: "
                      + ("done" if value is None else
                         f"{value.numerator}/{value.denominator}"),
                      file=sys.stderr)
    return results


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


def _estimate(job: Job, series):
    last = job.schedule.points()[-1]
    sigma = make_sigma(job.desc, last.d, last.seed, last.dims)
    label = job.facts.point
    window = job.pair.F if label == "mrk" else support_window(job.matrix)
    return assemble_estimate(label, series, job.desc, snap_tol=job.snap_tol,
                             defect_summary=defect(sigma, window).summary())


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


def run_job(job: Job, jobs: int = 1) -> RunResult:
    kind = job.facts.point
    if kind in ("mrk", "vrk"):
        est = _estimate(job, _run_points(job, jobs))
        report = est.to_json_dict()
        code = 0 if job.facts.oracle is None else _compare_with_oracle(job, est, report)
        return RunResult(code, report, csv_rows=est.csv_rows())
    if kind == "addition":
        rep = AdditionReport.from_points(job.matrix.n, _run_points(job, jobs))
        code = 0 if rep.max_residual_routes <= Fraction(job.tolerance) else 2
        return RunResult(code, rep.to_json_dict(),
                         ["d", "seed", "submodule_num", "submodule_den",
                          "residual_routes"], rep.csv_rows())
    if kind == "defect":
        results = _run_points(job, jobs)
        report = {
            "quantity": "defect",
            "window": [groups.format_word(g) for g in job.F],
            "series": results,
        }
        rows = [[r["d"], r["seed"], *(r["summary"][k] for k in _DEFECT_CSV[2:])]
                for r in results]
        return RunResult(0, report, list(_DEFECT_CSV), rows)
    verdict = check_direct_finite(job.matrix, job.matrix_b)
    report = {
        "quantity": "direct-finite",
        "verdict": verdict.kind,
        "ba": None if verdict.ba is None else format_matrix(verdict.ba),
    }
    return RunResult(0, report, ["verdict"], [[verdict.kind]])


# ---------------------------------------------------------------------------
# entry point

def _write_artifacts(job: Job, result: RunResult, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"job": job.name,
              "generated_at": datetime.datetime.now(datetime.timezone.utc)
                              .isoformat(timespec="seconds")}
    report.update(result.report)
    json_path = out_dir / f"{job.name}.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    csv_path = out_dir / f"{job.name}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows)
    return json_path, csv_path


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
        job = load_job(args.spec, verbose=verbose)
        result = run_job(job, jobs=args.jobs) if args.command == "run" else None
    except (JobError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if result is None:
        print(f"{args.spec}: ok")
        print(f"  quantity: {job.quantity}")
        if job.desc is not None:
            print(f"  group: {job.desc.family}" +
                  (f" (order {job.desc.order})" if job.desc.family == groups.FINITE else ""))
        print(f"  ring: {job.ring.label()}")
        if job.schedule is not None:
            print(f"  points: {len(job.schedule.points())}")
        return 0
    json_path, csv_path = _write_artifacts(job, result, Path(args.out))
    if verbose or result.exit_code != 0:
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    if result.exit_code == 0 and result.report.get("stabilized") is False:
        print("warning: series has not stabilized "
              "(|last − previous| above tolerance)", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
