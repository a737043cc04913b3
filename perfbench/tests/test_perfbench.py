"""The benchmark's own tests, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import gc
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import common  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_RUNS", 1)
    monkeypatch.setattr(workloads.AlgoCompare, "nodes", 400)
    monkeypatch.setattr(workloads.UploadChurn, "nodes", 300)


def _wrapped_attributes():
    """Identity of every class- and module-level attribute the tracer wraps."""
    from repro.algorithms.base import Algorithm
    from repro.platform.jobs import JobRecord
    from repro.platform.resilience import AdmissionController
    from repro.ranking.result import Ranking

    return {
        "run_batch": vars(Algorithm)["run_batch"],
        "to_dict": vars(Ranking)["to_dict"],
        "append": vars(JobRecord)["append"],
        "try_admit": vars(AdmissionController)["try_admit"],
        "graph_summary": vars(sys.modules["repro.platform.gateway"])["graph_summary"],
        "read_graph": vars(sys.modules["repro.datasets.catalog"])["read_graph"],
        "gc.callbacks": list(gc.callbacks),
    }


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    before = _wrapped_attributes()
    outcome = workloads.run(name, 3, 1.0, trace, tmp_path)
    assert _wrapped_attributes() == before
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        metric: value["unit"] for metric, value in outcome["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in expected}
    assert all(isinstance(value["value"], float) for value in outcome["metrics"].values())
    assert outcome["correct"] and outcome["failed"] == 0 and outcome["attempted"] >= 8
    if not trace:
        assert outcome["metrics"]["success_ratio"]["value"] == 1.0
        assert all(outcome["metrics"][metric]["value"] > 0 for metric in outcome["metrics"])


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == sorted(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_classifier_never_files_a_repeated_key_as_fresh(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, 40, tmp_path)
    workload.make_inputs()
    workload.build_plan()
    ledger = workloads.KeyLedger()
    issued = set()
    for request in workload.plan:
        if request.kind == "upload":
            continue
        keys = set(workloads.query_keys(request))
        kind = ledger.issue(request)
        assert kind == request.kind
        if keys & issued:
            assert kind == "repeat"
        issued |= keys
    assert {r.kind for r in workload.plan} >= {"fresh", "repeat"}


def test_classifier_rejects_a_half_issued_comparison():
    ledger = workloads.KeyLedger()
    first = workloads.Request("fresh", workloads.comparison(["d"], ["cyclerank"], "a"))
    mixed = workloads.Request(
        "fresh", workloads.comparison(["d", "e"], ["cyclerank"], "a")
    )
    assert ledger.issue(first) == "fresh"
    assert ledger.classify(first) == "repeat"
    with pytest.raises(ValueError):
        ledger.classify(mixed)


def test_no_wrapper_outlives_the_traced_run(tmp_path):
    workload = workloads.UploadChurn(2, 8, tmp_path)
    workload.make_inputs()
    try:
        workload.setup()
        gateway = workload.gateway
        owners = [gateway, gateway.datastore, gateway.datastore.result_cache,
                  gateway.executor_pool, gateway.catalog]
        instance_before = [set(vars(owner)) for owner in owners]
        before = _wrapped_attributes()
        recorder, patcher = layers.Recorder(), layers.Patcher()
        layers.install(gateway, recorder, patcher)
        assert patcher.active > 0 and _wrapped_attributes() != before
        workload.build_plan()
        workloads.run_phase(workload, workload.client, range(4), set(), float("inf"),
                            common.HostSpeed())
        assert recorder.spans
        patcher.restore()
        assert patcher.active == 0
        assert _wrapped_attributes() == before
        assert [set(vars(owner)) for owner in owners] == instance_before
    finally:
        workload.close()


def test_the_output_check_catches_a_wrong_answer(tmp_path):
    import checks

    workload = workloads.AlgoCompare(4, 10, tmp_path)
    workload.make_inputs()
    try:
        workload.setup()
        workload.build_plan()
        indices = list(range(len(workload.plan)))
        result = workloads.run_phase(workload, workload.client, indices, set(indices),
                                     float("inf"), common.HostSpeed())
        assert checks.verify(workload, indices, result.answers) == []
        fresh = next(i for i in indices if workload.plan[i].kind == "fresh")
        table = result.answers[fresh][1]
        table["scores"][0][0] = table["scores"][0][0] * (1 + 1e-12)
        assert checks.verify(workload, [fresh], result.answers) != []
    finally:
        workload.close()


def test_requests_cut_by_the_deadline_count_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "DEADLINE_FACTOR", 0.0)
    outcome = workloads.run("upload_churn", 3, 1.0, False, tmp_path)
    planned = outcome["record"]["requests_planned"]
    assert outcome["attempted"] == planned and outcome["failed"] == planned
    assert outcome["metrics"]["success_ratio"]["value"] == 0.0
    assert not outcome["correct"]
    assert len(outcome["record"]["mismatches"]) == len(outcome["record"]["checked"]) > 0


def test_host_speed_scale_maps_the_reference_reading_to_one():
    assert common.HostSpeed.scale([common.CALIBRATION_REFERENCE_MS]) == 1.0
    assert common.HostSpeed.scale([1.0, 4.0, 4.0]) == common.CALIBRATION_REFERENCE_MS / 4.0
    speed = common.HostSpeed()
    assert speed.measure() > 0 and speed.cpu_ms > 0
    # 40 busy ticks and 10 stolen: a fifth of the busy time was stolen;
    # idle ticks do not count.
    start, end = [0] * 10, [30, 0, 10, 500, 0, 0, 0, 10, 0, 0]
    assert common.stolen_share(start, end) == 0.2
    assert common.HostSpeed.wall_scale([4.0], start, end) == common.HostSpeed.scale([4.0]) * 0.8
