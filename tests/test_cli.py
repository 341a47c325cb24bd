"""End-to-end tests of the job-file front end: exit codes, JSON/CSV artifacts."""

import csv
import dataclasses
import json
import re

import pytest

from soficlen import cli, meanlength
from soficlen.cli import main
from soficlen.groupring import INTEGERS, parse_element, parse_matrix
from soficlen.groups import ball, integer_line
from soficlen.meanlength import (FreeModuleVector, MeanLengthError,
                                 check_addition, derive_rank_seed,
                                 estimate_mean_length, estimate_vrk_fp)
from soficlen.sofic import SoficSchedule

T_MINUS_ONE_Z = "1 1 Z Z\n0 0 1@1 -1@0\n"


def _run(tmp_path, job_text, files=(), name="job", argv_extra=()):
    job = tmp_path / f"{name}.ini"
    job.write_text(job_text)
    for fname, content in files:
        (tmp_path / fname).write_text(content)
    out = tmp_path / "out"
    code = main(["run", str(job), "--out", str(out), *argv_extra])
    json_path = out / f"{name}.json"
    csv_path = out / f"{name}.csv"
    report = json.loads(json_path.read_text()) if json_path.exists() else None
    rows = None
    if csv_path.exists():
        with open(csv_path) as fh:
            rows = list(csv.reader(fh))
    return code, report, rows


def test_vrk_job_circulant(tmp_path):
    job = """
[job]
quantity = vrk-fp
schedule = 100,1000

[matrix]
file = f.txt
"""
    code, report, rows = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)])
    assert code == 0
    assert report["quantity"] == "vrk"
    assert report["headline"] == 0.001
    assert report["headline_num"] == 1 and report["headline_den"] == 1000
    assert report["series"] == [
        {"d": 100, "seed": 0, "value_num": 1, "value_den": 100},
        {"d": 1000, "seed": 0, "value_num": 1, "value_den": 1000},
    ]
    assert report["snapped"] == {"num": 0, "den": 1}
    assert rows[0] == ["d", "seed", "value_num", "value_den", "value"]
    assert len(rows) == 3


def test_mrk_relative_job(tmp_path):
    job = """
[job]
quantity = mrk-relative
group = Z
ring = Z
schedule = 100
radius = 1

[generators]
n = 1
a1 = 1@1 -1@0
b1 = 1@0
"""
    code, report, rows = _run(tmp_path, job)
    assert code == 0
    assert report["quantity"] == "mrk"
    assert 0.97 <= report["headline"] <= 1.0
    assert report["snapped"] == {"num": 1, "den": 1}
    assert len(rows) == 2


def test_addition_check_job(tmp_path):
    job = """
[job]
quantity = addition-check
schedule = 64,128

[matrix]
file = f.txt
"""
    code, report, rows = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)])
    assert code == 0
    assert report["quantity"] == "addition-check"
    assert report["max_residual_routes"] == 0.0
    assert report["max_residual_addition"] == 0.0
    assert len(rows) == 3


def test_folner_compare_job(tmp_path):
    job = """
[job]
quantity = folner
group = Z
ring = Z
schedule = 200
boxes = 20,100
tolerance = 0.02

[generators]
n = 1
a1 = 1@1 -1@0
"""
    code, report, rows = _run(tmp_path, job)
    assert code == 0
    assert report["oracle"]["kind"] == "folner"
    assert report["oracle"]["series"][-1]["value"] == 1.0
    assert report["compare"]["passed"] is True
    assert report["compare"]["residual"] <= 0.02


def test_folner_compare_failing_tolerance(tmp_path):
    job = """
[job]
quantity = folner
group = Z
ring = Z
schedule = 100
boxes = 100
tolerance = 0.000001

[generators]
n = 1
a1 = 1@1 -1@0
"""
    code, report, rows = _run(tmp_path, job)
    assert code == 2
    assert report["compare"]["passed"] is False


def test_finite_oracle_job(tmp_path):
    table = "2\n0 1\n1 0\n"
    job = """
[job]
quantity = finite-oracle
group = finite:z2.table
ring = Q

[matrix]
file = f.txt
"""
    matrix = "1 1 Q finite\n0 0 1@0 1@1\n"
    code, report, rows = _run(tmp_path, job,
                              files=[("z2.table", table), ("f.txt", matrix)])
    assert code == 0
    assert report["headline"] == 0.5
    assert report["oracle"] == {"kind": "finite-group", "num": 1, "den": 2,
                                "value": 0.5}
    assert report["compare"]["residual"] == 0.0
    assert report["compare"]["passed"] is True


def test_laurent_oracle_job(tmp_path):
    job = """
[job]
quantity = laurent-oracle
dims = 8x8

[matrix]
file = f.txt
"""
    matrix = "1 1 Z Z^2\n0 0 1@1,0 -2@0,0\n"
    code, report, rows = _run(tmp_path, job, files=[("f.txt", matrix)])
    assert code == 0
    assert report["headline"] == 0.0
    assert report["oracle"]["kind"] == "laurent"
    assert report["oracle"]["rank"] == 1
    assert report["compare"]["passed"] is True


def test_defect_job(tmp_path):
    job = """
[job]
quantity = defect
group = F2
schedule = 100
seeds = 1
radius = 1
"""
    code, report, rows = _run(tmp_path, job)
    assert code == 0
    assert report["quantity"] == "defect"
    assert len(report["window"]) == 5
    point = report["series"][0]
    assert point["summary"]["min_multiplicativity"] == 1.0
    assert 0.9 <= point["summary"]["min_separation"] <= 1.0
    assert rows[0][0] == "d"


def test_finite_group_defect_job_can_drop_the_identity(tmp_path):
    job = """
[job]
quantity = defect
group = finite:z3.table
schedule = 3
radius = 1
include_identity = false
"""
    table = "3\n0 1 2\n1 2 0\n2 0 1\n"
    code, report, rows = _run(tmp_path, job, files=[("z3.table", table)])
    assert code == 0
    assert report["window"] == ["1", "2"]
    assert report["series"][0]["summary"]["pairs"] == 4


def test_direct_finite_job(tmp_path):
    job = """
[job]
quantity = direct-finite

[matrix]
file = a.txt

[matrix_b]
file = b.txt
"""
    a = "1 1 Z F2\n0 0 1@s1\n"
    b = "1 1 Z F2\n0 0 1@s1^-1\n"
    code, report, rows = _run(tmp_path, job, files=[("a.txt", a), ("b.txt", b)])
    assert code == 0
    assert report["verdict"] == "confirmed_two_sided"
    assert report["ba"] is None


def test_unknown_quantity_exits_one(tmp_path, capsys):
    job = "[job]\nquantity = eigenvalues\n"
    path = tmp_path / "bad.ini"
    path.write_text(job)
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "eigenvalues" in err


def test_missing_matrix_section_exits_one(tmp_path, capsys):
    job = "[job]\nquantity = vrk-fp\nschedule = 10\n"
    path = tmp_path / "bad.ini"
    path.write_text(job)
    assert main(["run", str(path)]) == 1
    assert "[matrix]" in capsys.readouterr().err


def test_vrk_over_prime_field_refused(tmp_path, capsys):
    job = """
[job]
quantity = vrk-fp
schedule = 10

[matrix]
file = f.txt
"""
    matrix = "1 1 GF(5) Z\n0 0 1@1 -1@0\n"
    code, report, rows = _run(tmp_path, job, files=[("f.txt", matrix)])
    assert code == 1
    assert report is None
    assert "mean-rank only" in capsys.readouterr().err


def test_malformed_matrix_reports_position(tmp_path, capsys):
    job = """
[job]
quantity = vrk-fp
schedule = 10

[matrix]
file = f.txt
"""
    matrix = "1 1 Z Z\n0 0 1@1\n0 0 2@0\n"
    code, report, rows = _run(tmp_path, job, files=[("f.txt", matrix)])
    assert code == 1
    assert "line 3" in capsys.readouterr().err


def test_validate_subcommand(tmp_path, capsys):
    job = """
[job]
quantity = vrk-fp
schedule = 10,20

[matrix]
file = f.txt
"""
    path = tmp_path / "check.ini"
    path.write_text(job)
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "points: 2" in out
    assert main(["validate", str(tmp_path / "missing.ini")]) == 1


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_one(tmp_path, capsys, jobs):
    job = "[job]\nquantity = vrk-fp\nschedule = 10\n\n[matrix]\nfile = f.txt\n"
    code, report, rows = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)],
                              argv_extra=("--jobs", jobs))
    assert code == 1
    assert report is None
    assert capsys.readouterr().err.startswith(f"error: --jobs must be at least 1, got {jobs}")


def test_inline_comments_and_seed_ranges(tmp_path):
    job = """
[job]
quantity = vrk-fp       ; quantity under test
schedule = 10,20
seeds = 1..3

[matrix]
file = f.txt
"""
    code, report, rows = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)])
    assert code == 0
    assert len(rows) == 1 + 2 * 3  # header + |ds| x |seeds|
    seeds = {p["seed"] for p in report["series"]}
    assert seeds == {1, 2, 3}


def _strip_timestamp(text):
    return re.sub(r'"generated_at": "[^"]*"', '"generated_at": ""', text)


def test_reruns_are_byte_identical(tmp_path):
    job = """
[job]
quantity = vrk-fp
schedule = 20,40
seeds = 1,2

[matrix]
file = f.txt
"""
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    path = tmp_path / "again.ini"
    path.write_text(job)
    outs = []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["run", str(path), "--out", str(out)]) == 0
        outs.append(_strip_timestamp((out / "again.json").read_text()))
    assert outs[0] == outs[1]


def test_parallel_run_matches_serial(tmp_path):
    job = """
[job]
quantity = vrk-fp
group = F2
schedule = 30,60
seeds = 1,2

[matrix]
file = f.txt
"""
    matrix = "1 1 Z F2\n0 0 1@s1 -1@e\n"
    (tmp_path / "f.txt").write_text(matrix)
    path = tmp_path / "par.ini"
    path.write_text(job)
    serial_out = tmp_path / "serial"
    parallel_out = tmp_path / "parallel"
    assert main(["run", str(path), "--out", str(serial_out)]) == 0
    assert main(["run", str(path), "--out", str(parallel_out), "--jobs", "2"]) == 0
    a = _strip_timestamp((serial_out / "par.json").read_text())
    b = _strip_timestamp((parallel_out / "par.json").read_text())
    assert a == b


# --- the CLI and the library evaluate points through the same functions ----

F2_MATRIX = "2 1 Z F2\n0 0 1@s1 -1@e\n1 0 1@s2 -1@e\n"


def _report_body(report):
    return {k: v for k, v in report.items() if k not in ("job", "generated_at")}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_vrk_job_matches_library_estimator(tmp_path, jobs):
    job = """
[job]
quantity = vrk-fp
group = F2
schedule = 30,60
seeds = 1,2

[matrix]
file = f.txt
"""
    code, report, _ = _run(tmp_path, job, files=[("f.txt", F2_MATRIX)],
                           argv_extra=("--jobs", jobs))
    est = estimate_vrk_fp(parse_matrix(F2_MATRIX), SoficSchedule((30, 60), (1, 2)))
    assert code == 0
    assert _report_body(report) == est.to_json_dict()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_mrk_relative_job_matches_library_estimator(tmp_path, jobs):
    job = """
[job]
quantity = mrk-relative
group = Z
schedule = 50,100
seeds = 1,2
radius = 1

[generators]
n = 2
a1 = 1@1 -1@0 | 2@0
a2 = 1@-1 | 1@1 1@0
"""
    code, report, _ = _run(tmp_path, job, argv_extra=("--jobs", jobs))
    Z = integer_line()
    A = [FreeModuleVector(tuple(parse_element(Z, INTEGERS, c) for c in v))
         for v in (("1@1 -1@0", "2@0"), ("1@-1", "1@1 1@0"))]
    B = FreeModuleVector.basis(Z, INTEGERS, 2)
    est = estimate_mean_length(2, A, [B], [ball(Z, 1)],
                               SoficSchedule((50, 100), (1, 2)))
    assert code == 0
    assert _report_body(report) == est.to_json_dict()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_addition_check_job_matches_library_check(tmp_path, jobs):
    job = """
[job]
quantity = addition-check
group = F2
schedule = 40,80
seeds = 1,2

[matrix]
file = f.txt
"""
    code, report, _ = _run(tmp_path, job, files=[("f.txt", F2_MATRIX)],
                           argv_extra=("--jobs", jobs))
    rep = check_addition(parse_matrix(F2_MATRIX), SoficSchedule((40, 80), (1, 2)))
    assert code == (0 if rep.max_residual_routes <= 0.02 else 2)
    assert _report_body(report) == rep.to_json_dict()


def test_duality_failure_stops_library_and_cli_alike(tmp_path, monkeypatch, capsys):
    real = meanlength.rank_over_Q
    second_seed = derive_rank_seed("vrk", 20, 3) + 1

    def second_rank_short(m, *, seed=0, **kwargs):
        # principal_rank_point takes the kernel from a rank at rank_seed + 1
        result = real(m, seed=seed, **kwargs)
        if seed == second_seed:
            return dataclasses.replace(result, rank=result.rank - 1)
        return result

    monkeypatch.setattr(meanlength, "rank_over_Q", second_rank_short)
    with pytest.raises(MeanLengthError) as info:
        estimate_vrk_fp(parse_matrix(T_MINUS_ONE_Z), SoficSchedule((20,), (3,)))
    assert "duality violation at d=20, seed=3" in str(info.value)
    job = "[job]\nquantity = vrk-fp\nschedule = 20\nseeds = 3\n\n[matrix]\nfile = f.txt\n"
    code, report, _ = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)])
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == f"error: {info.value}\n"


# --- a job is parsed and built once, and bad input stops it at load --------

VRK_JOB = "[job]\nquantity = vrk-fp\nschedule = 10\n{extra}\n[matrix]\nfile = f.txt\n"


@pytest.mark.parametrize("command", ["run", "validate"])
def test_job_matrix_is_parsed_once(tmp_path, monkeypatch, capsys, command):
    calls = []

    def counting_parse_matrix(*args, **kwargs):
        calls.append(args)
        return parse_matrix(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_matrix", counting_parse_matrix)
    path = tmp_path / "once.ini"
    path.write_text(VRK_JOB.format(extra=""))
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "run" else [])
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.fixture
def serial_pool(monkeypatch):
    """Swap the CLI's process pool for an in-process one that starts no
    process; return the max_workers of every pool started."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return started


def test_jobs_start_at_most_one_worker_per_point(tmp_path, serial_pool):
    started = serial_pool
    job = "[job]\nquantity = vrk-fp\nschedule = 10,20\n\n[matrix]\nfile = f.txt\n"
    serial = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)], name="serial")
    pooled = _run(tmp_path, job, name="pooled", argv_extra=("--jobs", "64"))
    assert started == [2]
    assert pooled[0] == serial[0] == 0
    assert _report_body(pooled[1]) == _report_body(serial[1])
    assert pooled[2] == serial[2]


def test_verbose_pooled_run_prints_every_point(tmp_path, serial_pool, capsys):
    job = ("[job]\nquantity = vrk-fp\nschedule = 10,20\nseeds = 1,2\n\n"
           "[matrix]\nfile = f.txt\n")
    _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)], name="serial", argv_extra=("-v",))
    serial = capsys.readouterr().err
    _run(tmp_path, job, name="pooled", argv_extra=("-v", "--jobs", "2"))
    pooled = capsys.readouterr().err
    assert serial_pool == [2]
    lines = [ln for ln in serial.splitlines() if ln.startswith("  d=")]
    assert len(lines) == 4
    assert [ln for ln in pooled.splitlines() if ln.startswith("  d=")] == lines


def _exits_one_at(tmp_path, capsys, job_text, files, where):
    """Both validate and run exit 1, name ``where`` and write no report."""
    for fname, content in files:
        (tmp_path / fname).write_text(content)
    path = tmp_path / "bad.ini"
    path.write_text(job_text)
    out = tmp_path / "out"
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} {where}: ")
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("snap_tol", "0"), ("tolerance", "-1"), ("tolerance", "nan"),
    ("tolerance", "inf"), ("snap_tol", "nan")])
def test_bad_tolerances_exit_one_at_load(tmp_path, capsys, key, value):
    _exits_one_at(tmp_path, capsys, VRK_JOB.format(extra=f"{key} = {value}\n"),
                  [("f.txt", T_MINUS_ONE_Z)], f"[job] {key}")


@pytest.mark.parametrize("job, where", [
    (VRK_JOB.format(extra="group = F2\n"), "[job] group"),
    (VRK_JOB.format(extra="ring = Q\n"), "[job] ring"),
    ("[job]\nquantity = direct-finite\n\n[matrix]\nfile = f.txt\n\n"
     "[matrix_b]\nfile = g.txt\n", "[matrix_b]"),
], ids=["group", "ring", "matrix_b"])
def test_group_ring_disagreeing_with_matrix_exits_one(tmp_path, capsys, job, where):
    files = [("f.txt", T_MINUS_ONE_Z), ("g.txt", "1 1 Q Z\n0 0 1@1\n")]
    _exits_one_at(tmp_path, capsys, job, files, where)


@pytest.mark.parametrize("quantity, extra", [
    ("mrk-relative", ""), ("folner", "boxes = 10,20\n")], ids=["mrk-relative", "folner"])
def test_empty_window_exits_one_at_radius(tmp_path, capsys, quantity, extra):
    job = (f"[job]\nquantity = {quantity}\ngroup = Z\nschedule = 10\n{extra}"
           "radius = 0\ninclude_identity = false\n\n[generators]\nn = 1\na1 = 1@1 -1@0\n")
    _exits_one_at(tmp_path, capsys, job, [], "[job] radius")
