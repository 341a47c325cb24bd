"""Tests of the benchmark itself, on shrunken copies of its workloads.

    python -m pytest perfbench
"""

import json
from pathlib import Path

import pytest

import run

run._import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from soficlen import _kernels, exactla, meanlength  # noqa: E402

SMALL = {
    "f2-vrk": lambda: workloads.F2Vrk(d=1000),
    "torus-vrk": lambda: workloads.TorusVrk(dims=(12, 12), count=3),
    "z-mrk-cli": lambda: workloads.ZMrkCli(d=300, box=100, jobs=3),
}

# per-layer metrics that depend only on the inputs, never on the clock
DETERMINISTIC = (
    "sofic.perms", "meanlength.matrices_ranked", "meanlength.nnz_ranked",
    "meanlength.distinct_matrix_ratio", "exactla.primes", "exactla.uncertified",
    "kernels.dense_calls", "kernels.dense_cells", "kernels.dense_max_dim",
    "kernels.ops_computed", "cli.jobs",
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_shrunken_workload_repeats_exactly(name, tmp_path):
    runs = [run.run(SMALL[name](), 5, 0, True, tmp_path / str(k), 0.0) for k in range(2)]
    (points, metrics, _), (again, metrics_again, _) = runs
    assert points and all(p.ok for p in points + again)
    assert [p.values for p in points] == [p.values for p in again]
    assert ({k: metrics[k] for k in DETERMINISTIC}
            == {k: metrics_again[k] for k in DETERMINISTIC})
    assert set(metrics) == set(tracing.UNITS)
    if name.endswith("-vrk"):
        # σ̄_f and the action matrix are the same matrix today
        assert metrics["meanlength.distinct_matrix_ratio"] == 0.5
    assert meanlength.rank_over_Q is exactla.rank_over_Q


def test_wrong_value_counts_as_failed_point(tmp_path):
    wl = workloads.F2Vrk(d=200)
    inputs = wl.setup(3, tmp_path)
    rank = wl.reference(3, inputs)
    assert [p.ok for p in wl.solve(3, inputs, rank + 1, tmp_path)] == [False]


def test_refuses_result_with_jit_enabled(monkeypatch, capsys):
    # keep the soficlen modules imported above, whose flag is patched
    monkeypatch.setattr(run, "_import_program", lambda: 0.0)
    monkeypatch.setattr(_kernels, "JIT_ENABLED", True, raising=False)
    code = run.main(["--workload", "f2-vrk", "--seed", "1", "--seconds", "1",
                     "--trace", "0"])
    assert code != 0
    assert "correct" not in capsys.readouterr().out


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS
    assert all(Path(run.ROOT, p).is_dir() for p in spec["paths"])
