"""Batch front-end: job files in, JSON/CSV convergence reports out.

A job is a small INI-style file (``key = value`` under bracketed sections)
selecting a quantity and its payload; flags only pick the job file, output
directory, verbosity, and worker count.  All randomness flows from the seeds
in the file, so re-running a job reproduces its JSON byte-for-byte (modulo
the ``generated_at`` stamp).

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
    tolerance = 0.02             ; compare/addition gate
    snap_tol = 0.05

    [matrix]                     ; for matrix quantities
    file = f.txt                 ; or inline: text = <matrix text format>

    [matrix_b]                   ; second operand of direct-finite

    [generators]                 ; for mrk-relative / folner
    n = 2
    a1 = 1@e -1@1 | 0            ; components separated by |
    b1 = ...                     ; optional; default standard basis
"""

from __future__ import annotations

import argparse
import configparser
import csv
import datetime
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from pathlib import Path

from . import groups
from .groupring import (GroupRingError, GroupRingMatrix, parse_element,
                        parse_group_token, parse_matrix, parse_ring)
from .groups import GroupError
from .meanlength import (AdditionReport, FreeModuleVector, MeanLengthError,
                         RelativePair, addition_pair, addition_point,
                         assemble_estimate, mrk_point, relative_pair,
                         support_window, vrk_point)
# not called here: perfbench/tracing.py patches these names on this module
from .meanlength import principal_rank_point, relative_mean_length_at  # noqa: F401
from .oracles import (FolnerBox, OracleError, compare, finite_group_vrk,
                      folner_mean_length, laurent_rank)
from .sofic import SoficError, SoficSchedule, defect, make_sigma

QUANTITIES = ("mrk-relative", "vrk-fp", "addition-check", "folner",
              "finite-oracle", "laurent-oracle", "defect", "direct-finite")

_INPUT_ERRORS = (GroupError, GroupRingError, SoficError, MeanLengthError,
                 OracleError)


class JobSpecError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")


@dataclass
class JobSpec:
    name: str
    quantity: str
    base_dir: Path
    group_token: str | None = None
    finite_table: tuple | None = None
    ring_token: str = "Z"
    ds: tuple[int, ...] | None = None
    seeds: tuple[int, ...] = (0,)
    dims: tuple[tuple[int, ...], ...] | None = None
    radius: int = 1
    include_identity: bool = True
    box_sides: tuple[tuple[int, ...], ...] | None = None
    tolerance: float | None = None
    snap_tol: float = 0.05
    matrix_text: str | None = None
    matrix_b_text: str | None = None
    n: int | None = None
    a_texts: tuple[str, ...] = ()
    b_texts: tuple[str, ...] = ()
    verbose: bool = False

    def descriptor(self):
        if self.finite_table is not None:
            return groups.finite_group(self.finite_table, check=False)
        if self.group_token is None:
            return None
        return parse_group_token(self.group_token)


# ---------------------------------------------------------------------------
# job file parsing

def _parse_int_list(text: str, where: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError:
        raise JobSpecError(where, f"expected a comma list of integers, got {text!r}") from None


def _parse_seeds(text: str, where: str) -> tuple[int, ...]:
    text = text.strip()
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise JobSpecError(where, f"bad seed range {text!r}") from None
        if hi < lo:
            raise JobSpecError(where, f"empty seed range {text!r}")
        return tuple(range(lo, hi + 1))
    return _parse_int_list(text, where)


def _parse_sides_list(text: str, where: str) -> tuple[tuple[int, ...], ...]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            out.append(tuple(int(x) for x in chunk.split("x")))
        except ValueError:
            raise JobSpecError(where, f"bad size entry {chunk!r} (want e.g. 64x64)") from None
    if not out:
        raise JobSpecError(where, "empty size list")
    return tuple(out)


def load_job(path, verbose: bool = False) -> JobSpec:
    path = Path(path)
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        with open(path) as fh:
            cp.read_file(fh, source=str(path))
    except OSError as exc:
        raise JobSpecError(str(path), f"cannot read job file: {exc}") from None
    except configparser.Error as exc:
        raise JobSpecError(str(path), f"syntax error: {exc}") from None
    if "job" not in cp:
        raise JobSpecError(f"{path}", "missing [job] section")
    jobsec = cp["job"]
    where = f"{path} [job]"
    quantity = jobsec.get("quantity", "").strip()
    if quantity not in QUANTITIES:
        raise JobSpecError(f"{where} quantity",
                           f"unknown quantity {quantity!r}; pick one of {', '.join(QUANTITIES)}")
    spec = JobSpec(name=path.stem, quantity=quantity, base_dir=path.parent,
                   verbose=verbose)

    group_token = jobsec.get("group", "").strip() or None
    if group_token is not None:
        if group_token.startswith("finite:"):
            table_path = (path.parent / group_token[len("finite:"):]).resolve()
            try:
                desc = groups.load_table_file(table_path)
            except (OSError, GroupError) as exc:
                raise JobSpecError(f"{where} group", str(exc)) from None
            spec.finite_table = desc.table
            spec.group_token = "finite"
        else:
            try:
                parse_group_token(group_token)
            except GroupRingError as exc:
                raise JobSpecError(f"{where} group", str(exc)) from None
            spec.group_token = group_token

    spec.ring_token = jobsec.get("ring", "Z").strip()
    try:
        parse_ring(spec.ring_token)
    except GroupRingError as exc:
        raise JobSpecError(f"{where} ring", str(exc)) from None

    if "schedule" in jobsec:
        spec.ds = _parse_int_list(jobsec["schedule"], f"{where} schedule")
    if "seeds" in jobsec:
        spec.seeds = _parse_seeds(jobsec["seeds"], f"{where} seeds")
    if "dims" in jobsec:
        spec.dims = _parse_sides_list(jobsec["dims"], f"{where} dims")
    if "radius" in jobsec:
        try:
            spec.radius = int(jobsec["radius"])
        except ValueError:
            raise JobSpecError(f"{where} radius", "expected an integer") from None
    if "include_identity" in jobsec:
        try:
            spec.include_identity = jobsec.getboolean("include_identity")
        except ValueError:
            raise JobSpecError(f"{where} include_identity", "expected a boolean") from None
    if "boxes" in jobsec:
        spec.box_sides = _parse_sides_list(jobsec["boxes"], f"{where} boxes")
    if "tolerance" in jobsec:
        try:
            spec.tolerance = float(jobsec["tolerance"])
        except ValueError:
            raise JobSpecError(f"{where} tolerance", "expected a number") from None
    if "snap_tol" in jobsec:
        try:
            spec.snap_tol = float(jobsec["snap_tol"])
        except ValueError:
            raise JobSpecError(f"{where} snap_tol", "expected a number") from None

    for section, attr in (("matrix", "matrix_text"), ("matrix_b", "matrix_b_text")):
        if section in cp:
            sec = cp[section]
            if "file" in sec:
                mpath = (path.parent / sec["file"]).resolve()
                try:
                    setattr(spec, attr, Path(mpath).read_text())
                except OSError as exc:
                    raise JobSpecError(f"{path} [{section}] file", str(exc)) from None
            elif "text" in sec:
                setattr(spec, attr, sec["text"])
            else:
                raise JobSpecError(f"{path} [{section}]", "needs 'file' or 'text'")

    if "generators" in cp:
        sec = cp["generators"]
        if "n" not in sec:
            raise JobSpecError(f"{path} [generators] n", "ambient rank n is required")
        try:
            spec.n = int(sec["n"])
        except ValueError:
            raise JobSpecError(f"{path} [generators] n", "expected an integer") from None
        a_keys = sorted((k for k in sec if k.startswith("a") and k[1:].isdigit()),
                        key=lambda k: int(k[1:]))
        b_keys = sorted((k for k in sec if k.startswith("b") and k[1:].isdigit()),
                        key=lambda k: int(k[1:]))
        spec.a_texts = tuple(sec[k] for k in a_keys)
        spec.b_texts = tuple(sec[k] for k in b_keys)

    _validate_job(spec, path)
    return spec


def _validate_job(spec: JobSpec, path) -> None:
    q = spec.quantity
    where = f"{path} [job]"
    needs_matrix = q in ("vrk-fp", "addition-check", "finite-oracle",
                         "laurent-oracle", "direct-finite")
    if needs_matrix and spec.matrix_text is None:
        raise JobSpecError(f"{path}", f"quantity {q} needs a [matrix] section")
    if q == "direct-finite" and spec.matrix_b_text is None:
        raise JobSpecError(f"{path}", "direct-finite needs a [matrix_b] section")
    if q in ("mrk-relative", "folner") and not spec.a_texts:
        raise JobSpecError(f"{path}", f"quantity {q} needs [generators] with a1, a2, ...")
    if q == "folner" and spec.box_sides is None:
        raise JobSpecError(f"{where} boxes", "folner needs a box list")
    if q == "defect" and spec.group_token is None:
        raise JobSpecError(f"{where} group", "defect needs a group")
    needs_schedule = q in ("mrk-relative", "vrk-fp", "addition-check", "folner",
                           "laurent-oracle", "defect")
    if needs_schedule and spec.ds is None and spec.dims is None:
        raise JobSpecError(f"{where} schedule", f"quantity {q} needs a schedule")
    # build objects once to surface payload errors with their section names
    try:
        _materialize(spec)
    except JobSpecError:
        raise
    except _INPUT_ERRORS as exc:
        raise JobSpecError(f"{path}", str(exc)) from None


# ---------------------------------------------------------------------------
# payload materialization (also used by the worker processes)

@dataclass
class Materialized:
    desc: object = None
    ring: object = None
    matrix: GroupRingMatrix | None = None
    matrix_b: GroupRingMatrix | None = None
    pair: RelativePair | None = None
    F: tuple = ()
    schedule: SoficSchedule | None = None
    boxes: tuple[FolnerBox, ...] = ()


def _materialize(spec: JobSpec) -> Materialized:
    out = Materialized()
    finite_desc = (groups.finite_group(spec.finite_table, check=False)
                   if spec.finite_table is not None else None)
    if spec.matrix_text is not None:
        out.matrix = parse_matrix(spec.matrix_text, finite_desc)
        out.desc = out.matrix.desc
        out.ring = out.matrix.ring
    if spec.matrix_b_text is not None:
        out.matrix_b = parse_matrix(spec.matrix_b_text, finite_desc)
    if out.desc is None and spec.group_token is not None:
        out.desc = finite_desc if spec.group_token == "finite" else \
            parse_group_token(spec.group_token)
    if out.ring is None:
        out.ring = parse_ring(spec.ring_token)
    if out.desc is not None:
        out.F = tuple(g for g in groups.ball(out.desc, spec.radius)
                      if spec.include_identity or not g.is_identity())
    if spec.quantity == "addition-check":
        out.pair = addition_pair(out.matrix)
    elif spec.a_texts:
        if out.desc is None:
            raise JobSpecError(spec.name, "[generators] needs a group")
        n = spec.n
        A = [_parse_vector(out.desc, out.ring, t, n) for t in spec.a_texts]
        B = [_parse_vector(out.desc, out.ring, t, n) for t in spec.b_texts]
        out.pair = relative_pair(n, A, out.F, B or None)
    if spec.quantity == "finite-oracle":
        if out.desc is None or out.desc.family != groups.FINITE:
            raise JobSpecError(spec.name, "finite-oracle needs group = finite:<table>")
        out.schedule = SoficSchedule((out.desc.order,), (spec.seeds[0],))
    elif spec.dims is not None:
        sched = SoficSchedule.from_dims(spec.dims, spec.seeds)
        if spec.ds is not None and tuple(spec.ds) != sched.ds:
            raise JobSpecError(spec.name,
                               f"schedule {spec.ds} disagrees with dims products {sched.ds}")
        out.schedule = sched
    elif spec.ds is not None:
        out.schedule = SoficSchedule(spec.ds, spec.seeds)
    if spec.box_sides is not None:
        out.boxes = tuple(FolnerBox(s) for s in spec.box_sides)
    return out


def _parse_vector(desc, ring, text: str, n: int) -> FreeModuleVector:
    chunks = [c.strip() for c in text.split("|")]
    if len(chunks) != n:
        raise GroupRingError(
            f"vector {text!r} has {len(chunks)} components, ambient n = {n}")
    return FreeModuleVector(tuple(parse_element(desc, ring, c) for c in chunks))


# ---------------------------------------------------------------------------
# point evaluation (one code path for serial and pooled runs)

def _eval_point(quantity: str, mat: Materialized, point):
    """One schedule point of a job; pooled workers receive the pickled
    arguments."""
    sigma = make_sigma(mat.desc, point.d, point.seed, point.dims)
    if quantity in ("mrk-relative", "folner"):
        return mrk_point(mat.pair, sigma, point)
    if quantity in ("vrk-fp", "finite-oracle", "laurent-oracle"):
        return vrk_point(mat.matrix, sigma, point)
    if quantity == "addition-check":
        return addition_point(mat.matrix, mat.pair, sigma, point)
    if quantity == "defect":
        report = defect(sigma, mat.F)
        pairs = [{
            "s": groups.format_word(s), "t": groups.format_word(t),
            "mult_num": v.numerator, "mult_den": v.denominator,
            "sep_num": report.separation.get((s, t), Fraction(1)).numerator
            if s != t else None,
            "sep_den": report.separation.get((s, t), Fraction(1)).denominator
            if s != t else None,
        } for (s, t), v in sorted(
            report.multiplicativity.items(),
            key=lambda kv: (kv[0][0].sort_key(), kv[0][1].sort_key()))]
        return {"d": point.d, "seed": point.seed, "summary": report.summary(),
                "pairs": pairs}
    raise JobSpecError(quantity, "quantity is not schedule-driven")


def _run_points(spec: JobSpec, mat: Materialized, jobs: int) -> list:
    points = mat.schedule.points()
    if jobs > 1 and len(points) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            return list(ex.map(_eval_point, repeat(spec.quantity), repeat(mat),
                               points))
    results = []
    for point in points:
        results.append(_eval_point(spec.quantity, mat, point))
        if spec.verbose:
            value = getattr(results[-1], "value", None)
            print(f"  d={point.d} seed={point.seed}: "
                  + ("done" if value is None else
                     f"{value.numerator}/{value.denominator}"),
                  file=sys.stderr)
    return results


# ---------------------------------------------------------------------------
# quantity runners

_ESTIMATE_CSV = ["d", "seed", "value_num", "value_den", "value"]


@dataclass
class RunResult:
    exit_code: int
    report: dict
    csv_header: list = field(default_factory=lambda: list(_ESTIMATE_CSV))
    csv_rows: list = field(default_factory=list)


def _estimate_from_results(spec, mat, series, quantity_label):
    last = mat.schedule.points()[-1]
    sigma = make_sigma(mat.desc, last.d, last.seed, last.dims)
    window = mat.pair.F if quantity_label == "mrk" else support_window(mat.matrix)
    return assemble_estimate(quantity_label, series, mat.desc,
                             snap_tol=spec.snap_tol,
                             defect_summary=defect(sigma, window).summary())


def run_job(spec: JobSpec, jobs: int = 1) -> RunResult:
    mat = _materialize(spec)
    q = spec.quantity
    if q == "mrk-relative":
        est = _estimate_from_results(spec, mat, _run_points(spec, mat, jobs), "mrk")
        report = est.to_json_dict()
        return RunResult(0, report, list(_ESTIMATE_CSV), est.csv_rows())
    if q == "vrk-fp":
        est = _estimate_from_results(spec, mat, _run_points(spec, mat, jobs), "vrk")
        return RunResult(0, est.to_json_dict(), list(_ESTIMATE_CSV), est.csv_rows())
    if q == "addition-check":
        rep = AdditionReport.from_points(mat.matrix.n, _run_points(spec, mat, jobs))
        tol = spec.tolerance if spec.tolerance is not None else 0.02
        code = 0 if rep.max_residual_routes <= Fraction(tol) else 2
        return RunResult(code, rep.to_json_dict(),
                         ["d", "seed", "submodule_num", "submodule_den",
                          "residual_routes"], rep.csv_rows())
    if q == "folner":
        est = _estimate_from_results(spec, mat, _run_points(spec, mat, jobs), "mrk")
        series = folner_mean_length(mat.pair.A, mat.boxes)
        oracle_value = series[-1]
        tol = spec.tolerance if spec.tolerance is not None else 0.02
        cmp_report = compare(est, oracle_value, tol)
        report = est.to_json_dict()
        report["oracle"] = {
            "kind": "folner",
            "boxes": [list(b.sides) for b in mat.boxes],
            "series": [{"num": v.numerator, "den": v.denominator,
                        "value": float(v)} for v in series],
        }
        report["compare"] = cmp_report.to_json_dict()
        return RunResult(0 if cmp_report.passed else 2, report,
                         list(_ESTIMATE_CSV), est.csv_rows())
    if q == "finite-oracle":
        est = _estimate_from_results(spec, mat, _run_points(spec, mat, jobs), "vrk")
        oracle_value = finite_group_vrk(mat.matrix)
        tol = spec.tolerance if spec.tolerance is not None else 0.0
        cmp_report = compare(est, oracle_value, tol)
        report = est.to_json_dict()
        report["oracle"] = {"kind": "finite-group",
                            "num": oracle_value.numerator,
                            "den": oracle_value.denominator,
                            "value": float(oracle_value)}
        report["compare"] = cmp_report.to_json_dict()
        return RunResult(0 if cmp_report.passed else 2, report,
                         list(_ESTIMATE_CSV), est.csv_rows())
    if q == "laurent-oracle":
        est = _estimate_from_results(spec, mat, _run_points(spec, mat, jobs), "vrk")
        lr = laurent_rank(mat.matrix, seed=spec.seeds[0])
        tol = spec.tolerance if spec.tolerance is not None else 0.01
        cmp_report = compare(est, lr.vrk, tol)
        report = est.to_json_dict()
        report["oracle"] = {"kind": "laurent", "rank": lr.rank,
                            "num": lr.vrk.numerator, "den": lr.vrk.denominator,
                            "value": float(lr.vrk),
                            "evaluations": list(lr.evaluations)}
        report["compare"] = cmp_report.to_json_dict()
        return RunResult(0 if cmp_report.passed else 2, report,
                         list(_ESTIMATE_CSV), est.csv_rows())
    if q == "defect":
        results = _run_points(spec, mat, jobs)
        report = {
            "quantity": "defect",
            "window": [groups.format_word(g) for g in mat.F],
            "series": results,
        }
        rows = [[r["d"], r["seed"],
                 r["summary"]["min_multiplicativity"],
                 r["summary"]["mean_multiplicativity"],
                 r["summary"]["min_separation"],
                 r["summary"]["mean_separation"]] for r in results]
        return RunResult(0, report,
                         ["d", "seed", "min_multiplicativity",
                          "mean_multiplicativity", "min_separation",
                          "mean_separation"], rows)
    if q == "direct-finite":
        from .groupring import check_direct_finite, format_matrix
        verdict = check_direct_finite(mat.matrix, mat.matrix_b)
        report = {
            "quantity": "direct-finite",
            "verdict": verdict.kind,
            "ba": None if verdict.ba is None else format_matrix(verdict.ba),
        }
        return RunResult(0, report, ["verdict"], [[verdict.kind]])
    raise JobSpecError(spec.name, f"unhandled quantity {q}")


# ---------------------------------------------------------------------------
# entry point

def _write_artifacts(spec: JobSpec, result: RunResult, out_dir: Path) -> tuple[Path, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    report = {"job": spec.name,
              "generated_at": datetime.datetime.now(datetime.timezone.utc)
                              .isoformat(timespec="seconds")}
    report.update(result.report)
    json_path = out_dir / f"{spec.name}.json"
    json_path.write_text(json.dumps(report, indent=2) + "\n")
    csv_path = out_dir / f"{spec.name}.csv"
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

    try:
        spec = load_job(args.spec, verbose=getattr(args, "verbose", False))
    except (JobSpecError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        mat = _materialize(spec)
        print(f"{args.spec}: ok")
        print(f"  quantity: {spec.quantity}")
        if mat.desc is not None:
            print(f"  group: {mat.desc.family}" +
                  (f" (order {mat.desc.order})" if mat.desc.family == groups.FINITE else ""))
        print(f"  ring: {mat.ring.label() if mat.ring else spec.ring_token}")
        if mat.schedule is not None:
            print(f"  points: {len(mat.schedule.points())}")
        return 0

    try:
        result = run_job(spec, jobs=args.jobs)
    except (JobSpecError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    json_path, csv_path = _write_artifacts(spec, result, Path(args.out))
    if getattr(args, "verbose", False) or result.exit_code != 0:
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    if result.exit_code == 0 and result.report.get("stabilized") is False:
        print("warning: series has not stabilized "
              "(|last − previous| above tolerance)", file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
