from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from qfidet.cli import main

from conftest import FIXTURES

TINY_ARGS = [
    "verify",
    "--dims", "2",
    "--num-obs", "1,2",
    "--instances", "2",
    "--functions", "sld,wy",
    "--pairs", "sld/wy",
    "--t-grid", "0,0.5,1",
    "--kinds", "generic",
    "--seed", "7",
]


def test_verify_stdout_json(capsys):
    code = main(TINY_ARGS)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == "qfi-report/3"
    assert payload["totals"]["fail"] == 0


def test_verify_out_file_and_workers(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(TINY_ARGS + ["--out", str(a)]) == 0
    assert main(TINY_ARGS + ["--workers", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    one, two = json.loads(a.read_text()), json.loads(b.read_text())
    one.pop("runtime")
    two.pop("runtime")
    assert one == two


def test_verify_csv(tmp_path, capsys):
    path = tmp_path / "r.csv"
    assert main(TINY_ARGS + ["--format", "csv", "--out", str(path)]) == 0
    capsys.readouterr()
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "check,n,N,f,g,t,pass,fail,worst_margin,clamps"
    assert len(lines) > 1


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--dims", "1"],
        ["verify", "--checks", "nope"],
        ["verify", "--tol", "0"],
        ["verify", "--instances", "-3"],
        ["verify", "--t-grid", "0,2"],
        ["verify", "--pairs", "sld"],
        ["verify", "--functions", "wyd:7"],
        ["verify", "--kinds", "weird"],
        ["verify", "--t-grid", "", "--checks", "firey"],
        ["verify", "--pairs", "", "--checks", "conj2"],
    ],
)
def test_verify_config_errors_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_compute_fixture(capsys):
    code = main(["compute", str(FIXTURES / "qubit_tight.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "conj1" in out and "margin" in out and "pass" in out
    assert "verdict=none" in out
    assert "\n  firey: " in out and "\n  contraction: " in out


def test_compute_missing_file(capsys):
    assert main(["compute", "/nonexistent/inst.json"]) == 2


def test_compute_invalid_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["state"][0][0][0] = 0.5  # trace now 0.75
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    assert "state" in capsys.readouterr().err
    for functions in ("sld", []):  # a bare string, and nothing to evaluate
        payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
        payload["functions"] = functions
        path.write_text(json.dumps(payload))
        assert main(["compute", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: functions: expected a non-empty list")


def test_compute_rejects_non_finite_entries(tmp_path, capsys):
    path = tmp_path / "nan.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"][0][0][1] = [math.nan, 0.0]  # written as a JSON NaN literal
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    err = capsys.readouterr().err
    assert "observables[0]" in err and "non-finite entry" in err


def test_catalog_lists_families(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "sld" in out and "f(0) = 1/2" in out
    assert "sqrt(x)" in out  # the wy transform
    kubo_line = next(line for line in out.splitlines() if line.startswith("kubo-mori"))
    assert "nonregular" in kubo_line and "ftilde" not in kubo_line
    assert len(out.strip().splitlines()) == 8


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("ok ") for line in lines)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "qfidet", "selftest"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "tight-witness-conj1" in proc.stdout

    bad = subprocess.run(
        [sys.executable, "-m", "qfidet", "verify", "--dims", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert bad.returncode == 2

    unknown = subprocess.run(
        [sys.executable, "-m", "qfidet", "--bogus"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert unknown.returncode == 2


@pytest.mark.parametrize("exc", [ArithmeticError("det below the clamp window"), np.linalg.LinAlgError("Eigenvalues did not converge")])
def test_verify_numerical_failure_exits_3(exc, monkeypatch, capsys):
    import qfidet.campaign as campaign_module

    def fail(inst, f, tol):
        raise exc

    monkeypatch.setattr(campaign_module, "check_main", fail)
    args = ["verify", "--dims", "2", "--num-obs", "1", "--instances", "1", "--kinds", "generic"]
    assert main(args + ["--checks", "main", "--functions", "sld", "--pairs", ""]) == 3
    assert capsys.readouterr().err == f"error: {exc}\n"
