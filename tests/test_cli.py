"""End-to-end tests of the job-file front end: exit codes, JSON/CSV artifacts."""

import csv
import dataclasses
import io
import json
import os
import re
import sys

import pytest

from soficlen import cli, meanlength, oracles
from soficlen.cli import main
from soficlen.groupring import INTEGERS, GroupRingMatrix, parse_element, parse_matrix
from soficlen.groups import ball, integer_line
from soficlen.meanlength import (MeanLengthError, RelativePair,
                                 check_addition, derive_rank_seed,
                                 estimate_mean_length, estimate_vrk_fp)
from soficlen.oracles import FolnerBox, OracleError, folner_mean_length
from soficlen.sofic import SoficSchedule, make_sigma

T_MINUS_ONE_Z = "1 1 Z Z\n0 0 1@1 -1@0\n"
T_PLUS_ONE_Z = "1 1 Z Z\n0 0 1@1 1@0\n"


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


def test_validate_exits_one_when_stdout_is_closed(tmp_path, monkeypatch):
    """``soficlen validate job.ini | head -1``: once the reader has closed
    stdout, validate exits 1 without a traceback, and stdout's file
    descriptor then writes to devnull."""
    path = tmp_path / "check.ini"
    path.write_text("[job]\nquantity = vrk-fp\nschedule = 10\n\n[matrix]\nfile = f.txt\n")
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe(io.TextIOBase):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        assert main(["validate", str(path)]) == 1
        os.write(fd, b"late output")
    finally:
        os.close(fd)
    assert (tmp_path / "stdout").read_bytes() == b""


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
    A = GroupRingMatrix(Z, INTEGERS, [[parse_element(Z, INTEGERS, c) for c in v]
                                      for v in (("1@1 -1@0", "2@0"), ("1@-1", "1@1 1@0"))])
    B = GroupRingMatrix.identity(Z, INTEGERS, 2)
    est = estimate_mean_length(RelativePair(A, B, ball(Z, 1)),
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


# f = 2 - s - s^-1 over F2: its kernel is the number of cycles of sigma_s, so
# at d = 500, seed 1 its rank is 495, below the bound 497, and not proven
TWO_MINUS_S_F2 = "1 1 Z F2\n0 0 2@e -1@s1 -1@s1^-1\n"


def test_duality_failure_stops_library_and_cli_alike(tmp_path, monkeypatch, capsys):
    # the rank of 2 - s - s^-1 is not proven, so principal_rank_point takes
    # the kernel from the rank of the transpose at rank_seed + 1
    real = meanlength.rank_over_Q
    second_seed = derive_rank_seed("vrk", 500, 1) + 1

    def transpose_rank_short(m, *, seed=0, **kwargs):
        result = real(m, seed=seed, **kwargs)
        if seed == second_seed:
            return dataclasses.replace(result, rank=result.rank - 1)
        return result

    monkeypatch.setattr(meanlength, "rank_over_Q", transpose_rank_short)
    with pytest.raises(MeanLengthError) as info:
        estimate_vrk_fp(parse_matrix(TWO_MINUS_S_F2), SoficSchedule((500,), (1,)))
    assert "duality violation at d=500, seed=1" in str(info.value)
    job = "[job]\nquantity = vrk-fp\nschedule = 500\nseeds = 1\n\n[matrix]\nfile = f.txt\n"
    code, report, _ = _run(tmp_path, job, files=[("f.txt", TWO_MINUS_S_F2)])
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_addition_duality_failure_stops_library_and_cli_alike(tmp_path, monkeypatch, capsys):
    # the rank of 2 - s - s^-1 is not proven, so route (ii)'s kernel comes
    # from route (i)'s rank, the rank of the transposed quotient
    real = meanlength.rank_over_Q
    route_i_seed = derive_rank_seed("add-i", 500, 1)

    def route_i_rank_short(m, *, seed=0, **kwargs):
        result = real(m, seed=seed, **kwargs)
        if seed == route_i_seed:
            return dataclasses.replace(result, rank=result.rank - 1)
        return result

    monkeypatch.setattr(meanlength, "rank_over_Q", route_i_rank_short)
    with pytest.raises(MeanLengthError) as info:
        check_addition(parse_matrix(TWO_MINUS_S_F2), SoficSchedule((500,), (1,)))
    assert "duality violation at d=500, seed=1" in str(info.value)
    job = "[job]\nquantity = addition-check\nschedule = 500\nseeds = 1\n\n[matrix]\nfile = f.txt\n"
    code, report, _ = _run(tmp_path, job, files=[("f.txt", TWO_MINUS_S_F2)])
    assert code == 1
    assert report is None
    assert capsys.readouterr().err == f"error: {info.value}\n"


MRK_JOB = "[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10\nseeds = 3\n\n" \
    "[generators]\nn = 1\na1 = 1@1 -1@0\n"
FOLNER_JOB = MRK_JOB.replace("mrk-relative", "folner").replace("seeds = 3", "seeds = 3\nboxes = 10")


@pytest.mark.parametrize("quantity", ["mrk", "vrk", "folner"])
def test_uncertified_rank_stops_library_and_cli_alike(tmp_path, monkeypatch, capsys, quantity):
    module = oracles if quantity == "folner" else meanlength  # the Følner oracle's own ranks
    real = module.rank_over_Q

    def uncertified(m, **kwargs):
        return dataclasses.replace(real(m, **kwargs), agreement=False)

    monkeypatch.setattr(module, "rank_over_Q", uncertified)
    # a vrk point on a cycle takes its rank from characters, with no
    # rank_over_Q, so the vrk case runs on F2, whose ranks take the primes;
    # so does a relator-free mrk point, so the mrk case has the two-term
    # b row t + 1, whose relators leave rows to eliminate
    text = F2_MATRIX if quantity == "vrk" else T_MINUS_ONE_Z
    f = parse_matrix(text)
    schedule = SoficSchedule((10,), (3,))
    with pytest.raises(OracleError if quantity == "folner" else MeanLengthError) as info:
        if quantity == "mrk":
            pair = RelativePair(f, parse_matrix(T_PLUS_ONE_Z), ball(integer_line(), 1))
            estimate_mean_length(pair, schedule)
        elif quantity == "vrk":
            estimate_vrk_fp(f, schedule)
        else:
            folner_mean_length(f, [FolnerBox((10,))])
    if quantity == "folner":
        assert str(info.value).startswith("uncertified Følner rank at box 10: ")
    else:
        rank_seed = derive_rank_seed(quantity, 10, 3)
        assert str(info.value).startswith(f"uncertified rank at d=10, rank seed={rank_seed}: ")
    job = {"mrk": MRK_JOB + "b1 = 1@1 1@0\n", "vrk": VRK_JOB.format(extra="seeds = 3\n"),
           "folner": FOLNER_JOB}
    code, report, _ = _run(tmp_path, job[quantity], files=[("f.txt", text)])
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


# one job of each kind of schedule point, over the points (10, 1), (10, 2),
# (20, 1) and (20, 2)
VERBOSE_JOBS = [
    "[job]\nquantity = vrk-fp\nschedule = 10,20\nseeds = 1,2\n\n[matrix]\nfile = f.txt\n",
    "[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10,20\nseeds = 1,2\n\n"
    "[generators]\nn = 1\na1 = 1@1 -1@0\n",
    "[job]\nquantity = addition-check\nschedule = 10,20\nseeds = 1,2\n\n"
    "[matrix]\nfile = f.txt\n",
    "[job]\nquantity = defect\ngroup = F2\nschedule = 10,20\nseeds = 1,2\n",
]


def test_verbose_pooled_run_prints_every_point(tmp_path, monkeypatch, serial_pool, capsys):
    def announced_make_sigma(desc, d, seed=0, dims=None):
        print(f"sigma d={d} seed={seed}", file=sys.stderr)
        return make_sigma(desc, d, seed, dims)

    monkeypatch.setattr(meanlength, "make_sigma", announced_make_sigma)
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    for k, job in enumerate(VERBOSE_JOBS):
        _, report, _ = _run(tmp_path, job, name=f"serial{k}", argv_extra=("-v",))
        serial = capsys.readouterr().err.splitlines()
        _run(tmp_path, job, name=f"pooled{k}", argv_extra=("-v", "--jobs", "2"))
        pooled = capsys.readouterr().err
        lines = [ln for ln in serial if ln.startswith("  d=")]
        assert lines == [f"  d={p['d']} seed={p['seed']}: " +
                         (f"{p['value_num']}/{p['value_den']}" if "value_num" in p else "done")
                         for p in report["series"]]
        assert len(lines) == 4
        assert [ln for ln in pooled.splitlines() if ln.startswith("  d=")] == lines
        # serially each line is printed as its point's result arrives
        shown = [ln.strip().partition(":")[0] for ln in serial if ln.startswith(("sigma", "  d="))]
        points = [f"d={d} seed={seed}" for d in (10, 20) for seed in (1, 2)]
        assert shown == [line for point in points for line in (f"sigma {point}", point)]
    assert serial_pool == [2] * len(VERBOSE_JOBS)


@pytest.mark.parametrize("argv_extra", [(), ("--jobs", "2")])
def test_every_point_builds_its_sigma_once(tmp_path, monkeypatch, serial_pool, argv_extra):
    built = []

    def counting_make_sigma(desc, d, seed=0, dims=None):
        built.append((d, seed))
        return make_sigma(desc, d, seed, dims)

    for module in (meanlength, cli):
        monkeypatch.setattr(module, "make_sigma", counting_make_sigma)
    schedule = SoficSchedule((10, 20), (1, 2))
    points = [(p.d, p.seed) for p in schedule.points()]
    estimate_vrk_fp(parse_matrix(T_MINUS_ONE_Z), schedule)
    assert built == points
    built.clear()
    job = ("[job]\nquantity = vrk-fp\nschedule = 10,20\nseeds = 1,2\n\n"
           "[matrix]\nfile = f.txt\n")
    code, _, _ = _run(tmp_path, job, files=[("f.txt", T_MINUS_ONE_Z)], argv_extra=argv_extra)
    assert code == 0
    assert built == points
    assert serial_pool == ([2] if argv_extra else [])


def _exits_one_at(tmp_path, capsys, job_text, files, where):
    """Both validate and run exit 1, name ``where`` and write no report;
    returns run's stderr."""
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
    return err


@pytest.mark.parametrize("key, value", [
    ("snap_tol", "0"), ("tolerance", "-1"), ("tolerance", "nan"),
    ("tolerance", "inf"), ("snap_tol", "nan")])
def test_bad_tolerances_exit_one_at_load(tmp_path, capsys, key, value):
    _exits_one_at(tmp_path, capsys, VRK_JOB.format(extra=f"{key} = {value}\n"),
                  [("f.txt", T_MINUS_ONE_Z)], f"[job] {key}")


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_tolerance_of_addition_check_exits_one_at_load(tmp_path, capsys, value):
    job = f"[job]\nquantity = addition-check\nschedule = 10\ntolerance = {value}\n\n" \
          "[matrix]\nfile = f.txt\n"
    err = _exits_one_at(tmp_path, capsys, job, [("f.txt", T_MINUS_ONE_Z)], "[job] tolerance")
    assert "expected a finite number >= 0" in err


FINITE_ORACLE_JOB = "[job]\nquantity = finite-oracle\ngroup = finite:z2.table\n{extra}\n" \
                    "[matrix]\ntext = 1 1 Z finite\n  0 0 1@0 1@1\n"
DEFECT_JOB = "[job]\nquantity = defect\ngroup = F2\nschedule = 10\n{extra}"
DIRECT_JOB = "[job]\nquantity = direct-finite\n{extra}\n[matrix]\nfile = f.txt\n\n" \
             "[matrix_b]\nfile = f.txt\n"


@pytest.mark.parametrize("job, where", [
    (VRK_JOB.format(extra="tolerance = 3\n"), "[job] tolerance"),
    (VRK_JOB.format(extra="boxes = 7\n"), "[job] boxes"),
    (VRK_JOB.format(extra="radius = 4\n"), "[job] radius"),
    (VRK_JOB.format(extra="\n[generators]\nn = 1\na1 = 1@0\n"), "[generators]"),
    (VRK_JOB.format(extra="schedul = 10\n"), "[job] schedul"),
    (VRK_JOB.format(extra="\n[matrx]\nfile = f.txt\n"), "[matrx]"),
    (VRK_JOB.format(extra="\n[matrix_b]\nfile = f.txt\n"), "[matrix_b]"),
    (FINITE_ORACLE_JOB.format(extra="schedule = 2\n"), "[job] schedule"),
    (FINITE_ORACLE_JOB.format(extra="dims = 2\n"), "[job] dims"),
    (DEFECT_JOB.format(extra="ring = Q\n"), "[job] ring"),
    (DEFECT_JOB.format(extra="snap_tol = 0.1\n"), "[job] snap_tol"),
    (DEFECT_JOB.format(extra="\n[matrix]\nfile = f.txt\n"), "[matrix]"),
    (DIRECT_JOB.format(extra="seeds = 1\n"), "[job] seeds"),
    (DIRECT_JOB.format(extra="include_identity = false\n"), "[job] include_identity"),
    ("[job]\nquantity = addition-check\nschedule = 10\nsnap_tol = 0.1\n\n[matrix]\n"
     "file = f.txt\n", "[job] snap_tol"),
    ("[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10\ntolerance = 0.1\n\n"
     "[generators]\nn = 1\na1 = 1@0\n", "[job] tolerance"),
], ids=["vrk-fp-tolerance", "vrk-fp-boxes", "vrk-fp-radius", "vrk-fp-generators",
        "vrk-fp-unknown-key", "vrk-fp-unknown-section", "vrk-fp-matrix_b",
        "finite-oracle-schedule", "finite-oracle-dims", "defect-ring", "defect-snap_tol",
        "defect-matrix", "direct-finite-seeds", "direct-finite-include_identity",
        "addition-check-snap_tol", "mrk-relative-tolerance"])
def test_keys_and_sections_the_quantity_does_not_read_exit_one(tmp_path, capsys, job, where):
    files = [("f.txt", T_MINUS_ONE_Z), ("z2.table", "2\n0 1\n1 0\n")]
    err = _exits_one_at(tmp_path, capsys, job, files, where)
    assert "not read by quantity" in err


def test_jobs_load_with_the_keys_their_quantity_reads(tmp_path, capsys):
    files = [("f.txt", T_MINUS_ONE_Z), ("z2.table", "2\n0 1\n1 0\n")]
    for fname, content in files:
        (tmp_path / fname).write_text(content)
    estimate = "ring = Z\nseeds = 1,2\nsnap_tol = 0.1\n"
    window = "radius = 2\ninclude_identity = false\n"
    gens = "\n[generators]\nn = 1\na1 = 1@1 -1@0\nb1 = 1@0\n"
    jobs = [
        f"[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10\n{estimate}{window}{gens}",
        f"[job]\nquantity = folner\ngroup = Z\nschedule = 10\n{estimate}{window}"
        f"boxes = 10\ntolerance = 0.1\n{gens}",
        VRK_JOB.format(extra=f"group = Z\n{estimate}"),
        f"[job]\nquantity = laurent-oracle\ngroup = Z^2\ndims = 4x4\n{estimate}"
        "tolerance = 0.1\n\n[matrix]\ntext = 1 1 Z Z^2\n  0 0 1@1,0 -1@0,0\n",
        "[job]\nquantity = addition-check\ngroup = Z\nring = Z\nschedule = 10\nseeds = 1\n"
        "tolerance = 0.1\n\n[matrix]\nfile = f.txt\n",
        FINITE_ORACLE_JOB.format(extra="ring = Z\nseeds = 3\nsnap_tol = 0.1\ntolerance = 0\n"),
        DEFECT_JOB.format(extra=window + "seeds = 1..2\n"),
        DIRECT_JOB.format(extra="group = Z\nring = Z\n"),
    ]
    for k, job in enumerate(jobs):
        path = tmp_path / f"job{k}.ini"
        path.write_text(job)
        assert main(["validate", str(path)]) == 0, capsys.readouterr().err


@pytest.mark.parametrize("seeds", ["1,2", "0..2"])
def test_finite_oracle_with_several_seeds_exits_one_at_seeds(tmp_path, capsys, seeds):
    # the translation model of a finite group uses no seed, so a second one
    # would be dropped, not evaluated
    job = FINITE_ORACLE_JOB.format(extra=f"seeds = {seeds}\n")
    err = _exits_one_at(tmp_path, capsys, job, [("z2.table", "2\n0 1\n1 0\n")],
                        "[job] seeds")
    assert "give at most one" in err


@pytest.mark.parametrize("job, where", [
    (VRK_JOB.format(extra="") + "text = 1 1 Z Z\n  0 0 1@0\n", "[matrix]"),
    (DIRECT_JOB.format(extra="") + "text = 1 1 Z Z\n  0 0 1@0\n", "[matrix_b]"),
], ids=["matrix", "matrix_b"])
def test_matrix_section_with_file_and_text_exits_one(tmp_path, capsys, job, where):
    err = _exits_one_at(tmp_path, capsys, job, [("f.txt", T_MINUS_ONE_Z)], where)
    assert "give 'file' or 'text', not both" in err


@pytest.mark.parametrize("a, b, where", [
    ("1 2 Z Z\n0 0 1@0\n", "1 1 Z Z\n0 0 1@0\n", "[matrix]"),
    ("1 1 Z Z\n0 0 1@0\n", "2 2 Z Z\n0 0 1@0\n", "[matrix_b]"),
    ("1 1 Z Z\n0 0 1@0\n", "2 1 Z Z\n0 0 1@0\n", "[matrix_b]")],
    ids=["matrix-not-square", "matrix_b-larger", "matrix_b-not-square"])
def test_direct_finite_shape_mismatch_exits_one_at_load(tmp_path, capsys, a, b, where):
    job = "[job]\nquantity = direct-finite\n\n[matrix]\nfile = a.txt\n\n" \
          "[matrix_b]\nfile = b.txt\n"
    err = _exits_one_at(tmp_path, capsys, job, [("a.txt", a), ("b.txt", b)], where)
    assert "square matrices of equal size" in err


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


@pytest.mark.parametrize("group, radius", [("F2", 100), ("Z^2", 10**6), ("Z", 10**9)])
def test_oversized_window_exits_one_at_radius(tmp_path, capsys, group, radius):
    # refused from its size alone: enumerating any of these balls would not end
    job = f"[job]\nquantity = defect\ngroup = {group}\nschedule = 10\nradius = {radius}\n"
    if group == "Z^2":
        job = job.replace("schedule = 10", "dims = 2x5")
    err = _exits_one_at(tmp_path, capsys, job, [], "[job] radius")
    assert f"radius {radius} has more than 10000 elements" in err


@pytest.mark.parametrize("seeds", ["-1", "-2..1", "0,18446744073709551616"])
def test_out_of_range_seed_exits_one_at_seeds(tmp_path, capsys, seeds):
    job = f"[job]\nquantity = defect\ngroup = F2\nschedule = 10\nseeds = {seeds}\n"
    _exits_one_at(tmp_path, capsys, job, [], "[job] seeds")


@pytest.mark.parametrize("quantity", ["vrk-fp", "addition-check", "laurent-oracle"])
@pytest.mark.parametrize("ring_key, where", [
    ("ring = GF(5)\n", "[job] ring"), ("", "[matrix]")], ids=["ring-key", "header"])
def test_prime_field_vrk_quantities_exit_one_at_load(tmp_path, capsys, quantity,
                                                     ring_key, where):
    job = f"[job]\nquantity = {quantity}\nschedule = 10\n{ring_key}\n[matrix]\nfile = f.txt\n"
    _exits_one_at(tmp_path, capsys, job, [("f.txt", "1 1 GF(5) Z\n0 0 1@1 -1@0\n")], where)


Z3_TABLE = ("z3.table", "3\n0 1 2\n1 2 0\n2 0 1\n")


@pytest.mark.parametrize("job, where, message", [
    ("[job]\nquantity = folner\ngroup = F2\nschedule = 10\nboxes = 10\n\n"
     "[generators]\nn = 1\na1 = 1@s1 -1@e\n", "[job] group", "needs group Z or Z^k"),
    ("[job]\nquantity = folner\ngroup = Z^2\ndims = 4x4\nboxes = 10\n\n"
     "[generators]\nn = 1\na1 = 1@1,0 -1@0,0\n", "[job] boxes", "box rank 1"),
    ("[job]\nquantity = laurent-oracle\nschedule = 10\n\n[matrix]\ntext = 1 1 Z F2\n"
     "  0 0 1@s1 -1@e\n", "[matrix]", "needs group Z or Z^k"),
    ("[job]\nquantity = laurent-oracle\ngroup = F2\nschedule = 10\n\n[matrix]\n"
     "text = 1 1 Z F2\n  0 0 1@s1 -1@e\n", "[job] group", "needs group Z or Z^k"),
    ("[job]\nquantity = finite-oracle\n\n[matrix]\ntext = 1 1 Z F2\n  0 0 1@s1 -1@e\n",
     "[matrix]", "finite-oracle needs group = finite:<table>"),
    ("[job]\nquantity = finite-oracle\ngroup = F2\n\n[matrix]\ntext = 1 1 Z F2\n"
     "  0 0 1@s1 -1@e\n", "[job] group", "finite-oracle needs group = finite:<table>"),
], ids=["folner-F2", "folner-box-rank", "laurent-header-F2", "laurent-group-F2",
        "finite-oracle-header-F2", "finite-oracle-group-F2"])
def test_jobs_an_oracle_cannot_take_exit_one_at_load(tmp_path, capsys, job, where, message):
    assert message in _exits_one_at(tmp_path, capsys, job, [], where)


@pytest.mark.parametrize("job, message", [
    (VRK_JOB.replace("schedule = 10", "schedule = 0,10").format(extra=""),
     "d must be >= 1"),
    ("[job]\nquantity = defect\ngroup = F2\nschedule = 1\n", "random free map needs d >= 2"),
    (VRK_JOB.format(extra="").replace("file = f.txt", "text = 1 1 Z Z^2\n  0 0 1@1,0"),
     "lattice approximations need torus dims"),
    ("[job]\nquantity = defect\ngroup = Z^2\nschedule = 9\n",
     "lattice approximations need torus dims"),
    ("[job]\nquantity = defect\ngroup = Z^2\ndims = 3x3x1\n", "dims rank 3 != lattice rank 2"),
    ("[job]\nquantity = vrk-fp\ngroup = finite:z3.table\nschedule = 7\n\n"
     "[matrix]\ntext = 1 1 Z finite\n  0 0 1@0 1@1\n", "finite group has order 3"),
    ("[job]\nquantity = defect\ngroup = F2\ndims = 2x8\n", "only to a lattice"),
    ("[job]\nquantity = defect\ngroup = Z\nschedule = 16\ndims = 4x4\n",
     "only to a lattice"),
    ("[job]\nquantity = defect\ngroup = finite:z3.table\ndims = 3\n",
     "only to a lattice"),
], ids=["Z-zero", "F2-one", "Z2-vrk-no-dims", "Z2-defect-no-dims", "Z2-dims-rank",
        "finite-order", "F2-dims", "Z-dims", "finite-dims"])
def test_sizes_no_sofic_map_has_exit_one_at_schedule(tmp_path, capsys, job, message):
    files = [("f.txt", T_MINUS_ONE_Z), Z3_TABLE]
    assert message in _exits_one_at(tmp_path, capsys, job, files, "[job] schedule")


@pytest.mark.parametrize("seeds, message", [
    ("", "at least one seed"), ("1,1", "seeds must be distinct"),
    ("5..1", "empty seed range '5..1'"),
    # refused before the range is expanded, which would not fit in memory
    ("1..100000000000", "seed range '1..100000000000' names 100000000000 seeds, "
     "more than 10000"),
    ("0..10000", "names 10001 seeds, more than 10000"),
    ("1..18446744073709551616", "a seed must lie in [0, 2**64), got 18446744073709551616"),
    ("-1..5", "a seed must lie in [0, 2**64), got -1")],
    ids=["empty", "repeated", "backwards", "huge-range", "one-too-many", "beyond-2**64",
         "negative"])
def test_bad_seed_lists_exit_one_at_seeds(tmp_path, capsys, seeds, message):
    job = DEFECT_JOB.format(extra=f"seeds = {seeds}\n")
    assert message in _exits_one_at(tmp_path, capsys, job, [], "[job] seeds")


@pytest.mark.parametrize("job, files, where", [
    (b"[job]\nquantity = defect\ngroup = F2\xff\nschedule = 10\n", [],
     ": cannot read job file: "),
    (VRK_JOB.format(extra="").encode(), [("f.txt", b"1 1 Z Z\n0 0 1@1 -1@0 \xff\n")],
     " [matrix] file: "),
    (FINITE_ORACLE_JOB.format(extra="").encode(), [("z2.table", b"2\n0 1\n1 0 \xff\n")],
     " [job] group: "),
    (FINITE_ORACLE_JOB.format(extra="").encode(), [], " [job] group: [Errno 2] "),
], ids=["job-file", "matrix-file", "table-file", "table-file-missing"])
def test_input_files_that_are_not_utf8_exit_one_at_their_path(tmp_path, capsys, job, files,
                                                              where):
    for fname, content in files:
        (tmp_path / fname).write_bytes(content)
    path = tmp_path / "bad.ini"
    path.write_bytes(job)
    out = tmp_path / "out"
    for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}{where}")
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_a_directory_exits_one_before_running(tmp_path, monkeypatch,
                                                                 capsys, out):
    (tmp_path / "afile").write_text("")
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    path = tmp_path / "job.ini"
    path.write_text(VRK_JOB.format(extra=""))
    monkeypatch.setattr(cli, "run_job", lambda *args: pytest.fail("run_job was called"))
    assert main(["run", str(path), "--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {tmp_path / out}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("blocked", ["job.json", "job.csv"])
def test_report_that_cannot_be_written_exits_one(tmp_path, capsys, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (tmp_path / "f.txt").write_text(T_MINUS_ONE_Z)
    path = tmp_path / "job.ini"
    path.write_text(VRK_JOB.format(extra=""))
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and f"{out / blocked}" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in out.iterdir()] == [blocked]  # no report file left


BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("job, files", [
    (BOM + VRK_JOB.format(extra="").encode(), [("f.txt", T_MINUS_ONE_Z.encode())]),
    (VRK_JOB.format(extra="").encode(), [("f.txt", BOM + T_MINUS_ONE_Z.encode())]),
    (FINITE_ORACLE_JOB.format(extra="").encode(), [("z2.table", BOM + b"2\n0 1\n1 0\n")]),
], ids=["job-file", "matrix-file", "table-file"])
def test_input_files_with_a_utf8_byte_order_mark_are_read(tmp_path, capsys, job, files):
    for fname, content in files:
        (tmp_path / fname).write_bytes(content)
    path = tmp_path / "job.ini"
    path.write_bytes(job)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().err == ""


GENERATORS = "\n[generators]\nn = 1\na1 = 1@1 -1@0\n"


# job files that are not ini text, and the load errors no other test reaches:
# each names its file, section and key on one line
@pytest.mark.parametrize("job, where", [
    ("quantity = defect\ngroup = F2\n", ": syntax error: File contains no section headers. file: "),
    ("[job]\nquantity defect\n", ": syntax error: Source contains parsing errors: "),
    ("[generators]\nn = 1\n", ": missing [job] section"),
    (DEFECT_JOB.format(extra="dims = ,\n"), " [job] dims: empty size list"),
    (DEFECT_JOB.format(extra="include_identity = maybe\n"),
     " [job] include_identity: expected a boolean, got 'maybe'"),
    ("[job]\nquantity = vrk-fp\nschedule = 10\n\n[matrix]\n", " [matrix]: needs 'file' or 'text'"),
    ("[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10\n"
     + GENERATORS.replace("n = 1", "n = 2"), " [generators]: vector '1@1 -1@0' has 1 components"),
    ("[job]\nquantity = mrk-relative\ngroup = Z\nschedule = 10\n"
     + GENERATORS.replace("n = 1\n", ""), " [generators] n: ambient rank n is required"),
    ("[job]\nquantity = mrk-relative\nschedule = 10\n" + GENERATORS,
     " [generators]: needs a group"),
], ids=["no-section", "no-delimiter", "no-job-section", "empty-dims", "include_identity",
        "matrix-neither-file-nor-text", "vector-components", "no-n", "generators-no-group"])
def test_job_file_syntax_errors_exit_one_on_one_line(tmp_path, capsys, job, where):
    path = tmp_path / "bad.ini"
    path.write_text(job)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}{where}")
    assert err.count("\n") == 1
