"""Self-test of the benchmark at tiny sizes: python3 -m pytest perfbench

Checks the machinery, not the physics: at these sizes the study's rate band
and the wave's path are not expected to hold, so output checks may fail.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from workloads import WORKLOADS  # noqa: E402

#: every code path, a few seconds per workload
TINY = {
    "study": dict(T0=4 * 8e-8, n_samples=4),
    "wave": dict(N=16, dt=8e-8, stride=2),
    "snapshots": dict(N=16, dt=8e-8, steps=6, every=3),
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    wl = WORKLOADS[request.param](0, **TINY[request.param])
    return wl, run.bench(wl, seconds=0, trace=True, setup_rounds=2)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(name):
    wl = WORKLOADS[name](1, **TINY[name])
    result, report, _ = run.bench(wl, seconds=0, trace=False, setup_rounds=2)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert report["checks_failed"] == result["failed"] / result["attempted"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: u for n, u, *_ in run.END_TO_END}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    json.dumps(result)


def test_traced_run_prints_every_per_layer_metric(traced):
    _, (result, _, _) = traced
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        n: u for n, u, *_ in run.PER_LAYER}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for metric in run.STAGES:
        assert values[metric] > 0, metric
    assert values["simulation.steps"] > 0 and values["coupling.nodes"] > 0
    json.dumps(result)


def test_self_times_partition_each_step(traced):
    # per step, the self times of the stage spans plus the step's own self
    # time add up to the step span; 1e-9 allows for float rounding only
    _, (_, report, tracer) = traced
    assert report["detail"]["trace.partition_gap"] < 1e-9
    selfs = tracer.self_seconds()
    assert min(selfs) >= -1e-9
    assert abs(sum(selfs) - sum(s.seconds for s in tracer.spans
                                if s.parent < 0)) < 1e-6


def test_decompose_under_omega_is_kept_apart(traced):
    wl, (_, _, tracer) = traced
    spans = tracer.spans
    parents = {spans[s.parent].name for s in spans
               if s.name == "shell.decompose" and s.parent >= 0}
    assert "simulation.step" in parents
    if wl.name == "wave":
        assert "simulation.omega" in parents


def test_patches_are_removed():
    import ibshell.coupling
    import ibshell.simulation

    assert ibshell.simulation.spread_force is ibshell.coupling.spread_force
    assert not hasattr(ibshell.simulation.Simulation.step, "__wrapped__")


def test_seed_moves_only_the_impulse():
    from workloads import F_IMP, impulse_for

    values = [impulse_for(seed) for seed in range(200)]
    assert all(0.9 * F_IMP <= v <= 1.1 * F_IMP for v in values)
    assert impulse_for(7) == impulse_for(7) and len(set(values)) == 200
