"""Self-checks of the benchmark, run at a tiny size: ``python3 -m pytest -q bench``."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracer

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
harness.import_qfidet()


@pytest.fixture
def tiny(monkeypatch):
    """Every workload at one instance per cell."""
    small = {
        name: dataclasses.replace(w, config={**w.config, "instances_per_cell": 1})
        for name, w in harness.WORKLOADS.items()
    }
    monkeypatch.setattr(harness, "WORKLOADS", small)
    return small


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.per_layer_units()


def test_tracer_patches_every_importing_module_and_restores():
    import qfidet.campaign
    import qfidet.inequalities
    import qfidet.linalg
    import qfidet.states

    original = qfidet.linalg.hermitian_eigen
    with tracer.Tracer() as trace:
        assert qfidet.states.hermitian_eigen is qfidet.linalg.hermitian_eigen is not original
    assert {
        "campaign.check_firey",
        "inequalities.det_real_symmetric",
        "inequalities.dominates",
        "states.hermitian_eigen",
        "linalg.hermitian_eigen",
    } <= trace.sites
    assert qfidet.states.hermitian_eigen is qfidet.linalg.hermitian_eigen is original
    assert qfidet.campaign.check_firey is qfidet.inequalities.check_firey
    assert not hasattr(qfidet.campaign.check_firey, "__wrapped__")


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, None, None),
        ("b", 1.0, 4.0, 0, 7, "n2"),
        ("b", 5.0, 6.0, 0, 7, "n3"),
    ]
    stats = tracer.self_times(spans)
    assert stats["a"] == {"calls": 1, "self_s": 6.0}
    assert stats["b"] == {"calls": 2, "self_s": 4.0}
    assert stats["b.n2"]["calls"] == 1
    assert tracer.instance_ms(spans) == []  # no prepare_random span opened an instance


@pytest.mark.parametrize("workload", ["default-1w", "jacobi-heavy"])
def test_traced_counts_match_the_config(tiny, workload):
    result = harness.run(workload, seed=11, seconds=0.01, trace=True)
    assert result.correct and result.failed == 0, result.notes
    values = {k: m["value"] for k, m in result.metrics.items()}
    config = harness.make_config(workload, 11)
    instances = harness.instances_of(config)
    assert values["inequalities.prepare_random.calls"] == instances
    if workload == "default-1w":
        assert instances == 27
        assert values["inequalities.check_firey.calls"] == instances * 11 * (4 + 3)
        assert values["monotone.dominates.calls"] == 36 * instances
        assert values["monotone.dominates.useful_ratio"] == 3 / (36 * instances)
        assert values["inequalities.check_firey.useful_ratio"] == pytest.approx(9 / 11)
    else:
        assert values["inequalities.check_firey.calls"] == 0
        assert values["monotone.dominates.calls"] == 0
        assert values["linalg.det_real_symmetric.N4.calls"] > 0
        assert values["linalg.hermitian_eigen.n8.calls"] > 0
    assert values["campaign.run_campaign.calls"] == 1


def test_worker_counts_give_one_digest(tiny):
    config = harness.make_config("default-2w", 5)
    one = harness.run_one(config, 1)
    two = harness.run_one(config, 2)
    assert not one.problems and not two.problems
    assert one.digest == two.digest
    assert one.outcomes == harness.instances_of(config) * 96


def test_gate_counts_failures(tiny, monkeypatch):
    config = harness.make_config("default-1w", 5)
    good = harness.run_one(config, 1)
    other = dataclasses.replace(good, digest="0" * 64, problems=[])
    harness.gate_digests([good, other], good.digest)
    assert good.failed == 0 and other.failed == other.instances

    import qfidet.campaign

    def aborts(config, workers=1):
        raise ArithmeticError("positivity invariant failed")

    monkeypatch.setattr(qfidet.campaign, "run_campaign", aborts)
    broken = harness.run_one(config, 1)
    assert broken.failed == broken.instances and broken.problems


def test_every_metric_is_printed_with_its_unit(tiny, capsys):
    expected = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for trace, units in expected.items():
        assert run.main(["--workload", "default-2w", "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        assert {k: m["unit"] for k, m in last["metrics"].items()} == units
        for name, unit in units.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines[:-1]), name


def test_fails_without_the_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(harness.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", "default-1w", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not (Path(tmp_path) / ".bench_out").exists()
