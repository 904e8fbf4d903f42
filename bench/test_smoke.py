"""Smoke test of the benchmark at a tiny input size.

    python3 -m pytest bench/test_smoke.py

For every workload it checks that both modes print every metric
BENCHMARK.json declares, with its unit; that the tracer patches every
binding of a traced function and restores them all; and that a traced
operation leaves the same artifacts as an untraced one, so tracing does not
perturb the random streams.
"""

import json
import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAMES = ("train_awgn_perfect", "train_nlpn_q1_bsc", "eval_mc")
DESK_WORKLOADS = workloads.desk_workloads


def tiny_workloads():
    catalogue = DESK_WORKLOADS()
    for workload in catalogue.values():
        if isinstance(workload, workloads.TrainWorkload):
            workload.iterations = 2
        else:
            workload.snapshot_iterations = 2
            workload.num_samples = 20_000
            workload.ser_symbols = 2_000
            workload.ml_draws = 500
            workload.ml_symbols = 2_000
    return catalogue


def test_benchmark_json_names_the_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    assert tuple(w["name"] for w in declared["workloads"]) == NAMES
    assert set(NAMES) == set(workloads.desk_workloads())


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", NAMES)
def test_every_declared_metric_is_emitted_with_its_unit(name, trace, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "desk_workloads", tiny_workloads)
    # main() changes the directory, sys.path and the BLAS settings; undo them.
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, run.BLAS_THREADS)
    before = tracer.package_bindings()
    code = run.main(["--workload", name, "--seconds", "0.001", "--trace", str(trace)])
    after = tracer.package_bindings()
    assert code == 0
    assert all(after.get(key) is value for key, value in before.items())

    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


def test_tracer_patches_every_binding_and_restores_it():
    import qflearn.channels
    import qflearn.evaluation
    import qflearn.training

    original = qflearn.channels.propagate
    fit = vars(qflearn.evaluation.SampledNlpnDetector)["fit"]
    before = tracer.package_bindings()
    with tracer.Tracer():
        wrapped = qflearn.channels.propagate
        assert wrapped is not original
        assert qflearn.training.propagate is wrapped
        assert qflearn.evaluation.propagate is wrapped
        assert vars(qflearn.evaluation.SampledNlpnDetector)["fit"] is not fit
        inside = tracer.package_bindings()
        assert not any(value is original for value in inside.values())
    after = tracer.package_bindings()
    assert all(after.get(key) is value for key, value in before.items())


@pytest.mark.parametrize("name", NAMES)
def test_traced_operation_leaves_identical_artifacts(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = tiny_workloads()[name]
    state = workload.setup(workload.default_seed)
    untraced = workload.op(state)
    with tracer.Tracer() as spans:
        traced = workload.op(state)
    assert untraced.digests and traced.digests == untraced.digests
    if "symbols" in untraced.work and isinstance(workload, workloads.TrainWorkload):
        assert spans.counts["channels.propagate.symbols"] == untraced.work["symbols"][0]
