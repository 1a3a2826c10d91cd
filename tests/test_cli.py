from __future__ import annotations

import json
import math
import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qfidet.cli import entry, main
from qfidet.io import save_instance
from qfidet.states import density, random_observable

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
    assert payload["version"] == "qfi-report/5"
    assert payload["totals"]["fail"] == 0


def test_verify_out_file_and_workers(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(TINY_ARGS + ["--out", str(a)]) == 0
    assert main(TINY_ARGS + ["--workers", "2", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


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
        [],
        ["verify", "--bogus"],
        ["verify", "--workers", "0"],
        ["verify", "--workers", "-3"],
    ],
)
def test_verify_config_errors_exit_2(args, capsys):
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args, message",
    [
        (["verify", "--tol", "abc"], "argument --tol: not a number: 'abc'"),
        (["compute", str(FIXTURES / "qubit_tight.json"), "--tol", "1e-9x"], "argument --tol: not a number: '1e-9x'"),
        (["selftest", "--tol", ""], "argument --tol: not a number: ''"),
        (["verify", "--workers", "1.5"], "argument --workers: not an integer: '1.5'"),
        (["verify", "--dims", "2,x"], "argument --dims: not an integer: 'x'"),
        (["verify", "--num-obs", "1,2.5"], "argument --num-obs: not an integer: '2.5'"),
        (["verify", "--t-grid", "0.5,x"], "argument --t-grid: not a number: 'x'"),
        (["verify", "--instances", "abc"], "argument --instances: not an integer: 'abc'"),
        (["verify", "--seed", "1.5"], "argument --seed: not an integer: '1.5'"),
    ],
)
def test_numeric_option_errors_name_the_option_and_the_text(args, message, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


def test_compute_rejects_observables_that_are_not_a_list(tmp_path, capsys):
    path = tmp_path / "five.json"
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"] = 5
    path.write_text(json.dumps(payload))
    assert main(["compute", str(path)]) == 2
    assert capsys.readouterr().err == "error: observables: expected a non-empty list of matrices, got 5\n"


@pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
@pytest.mark.parametrize(
    "command",
    [["verify", "--instances", "0"], ["compute", str(FIXTURES / "qubit_tight.json")], ["selftest"]],
    ids=["verify", "compute", "selftest"],
)
def test_tol_must_be_finite_and_positive(command, tol, capsys):
    assert main(command + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: argument --tol") and captured.out == ""


def test_compute_fixture(capsys):
    code = main(["compute", str(FIXTURES / "qubit_tight.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "conj1" in out and "margin" in out and "pass" in out
    assert "verdict=none" in out
    assert "\n  firey: " in out and "\n  contraction: " in out


def test_compute_skips_a_pair_without_dominance(tmp_path, capsys):
    # N = 1: det(Qov_f - Qov_g) is Qov_wyd:0.7 - Qov_sld itself, a negative number
    d = density(np.diag([0.7, 0.2, 0.1]).astype(complex))
    path = tmp_path / "pair.json"
    save_instance(path, d, [random_observable(3, 5)], functions=("sld",), pairs=(("wyd:0.7", "sld"),))
    assert main(["compute", str(path)]) == 0
    out = capsys.readouterr().out
    pair = out[out.index("pair (wyd:0.7, sld):") :]
    assert "\n  conj2: " in pair and "\n  firey: " in pair
    assert all(line.endswith("[skipped (dominance hypothesis not met)]") for line in pair.splitlines() if "margin=" in line)


def test_compute_missing_file(capsys):
    assert main(["compute", "/nonexistent/inst.json"]) == 2


def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys):
    # a directory where a file is expected: read by compute, written by verify
    expected = f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert main(["compute", str(tmp_path)]) == 2
    assert capsys.readouterr().err == expected
    args = ["verify", "--instances", "1", "--dims", "2", "--num-obs", "1", "--out", str(tmp_path)]
    assert main(args) == 2
    assert capsys.readouterr().err == expected


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


def test_catalog_output_matches_the_golden_file(capsys):
    assert main(["catalog"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "catalog.txt").read_bytes()


def _compute_matches_its_golden_file(monkeypatch, capsys, name: str) -> None:
    # run from the repository root: the first line echoes the path as given
    monkeypatch.chdir(FIXTURES.parent.parent)
    assert main(["compute", f"tests/fixtures/{name}.json"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / f"{name}_compute.txt").read_bytes()


def test_compute_output_matches_the_golden_file(monkeypatch, capsys):
    _compute_matches_its_golden_file(monkeypatch, capsys, "qubit_tight")


def test_compute_output_at_n4_matches_the_golden_file(monkeypatch, capsys):
    # n = 4, N = 4, four functions and the pair sld/wy: the LU determinants, the Firey grid,
    # conj2, equality and contraction at a size past the cofactor formulas
    _compute_matches_its_golden_file(monkeypatch, capsys, "n4_pair")


def test_compute_fills_the_pencils_once_per_plan(monkeypatch, capsys):
    from qfidet.inequalities import InstanceBlock

    fill, calls = InstanceBlock.fill_pencils, []

    def counted(self, pencils, ts, sides):
        calls.append((len(pencils), len(ts)))
        return fill(self, pencils, ts, sides)

    monkeypatch.setattr(InstanceBlock, "fill_pencils", counted)
    assert main(["compute", str(FIXTURES / "n4_pair.json")]) == 0
    capsys.readouterr()
    # a plan per function, one for robertson and one for the pair, each filling every row of
    # its pencils (the unit row and the 11 Firey rows) in one call
    assert calls == [(1, 12)] * 4 + [(0, 1), (1, 12)]


def _scaled_fixture(tmp_path, factor: float) -> str:
    payload = json.loads((FIXTURES / "qubit_tight.json").read_text())
    payload["observables"] = [[[[factor * v for v in entry] for entry in row] for row in m] for m in payload["observables"]]
    path = tmp_path / f"scaled_{factor:g}.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize(
    "factor, code, message",
    [
        # Cov entries near 1e160: det Cov overflows, a numerical failure
        (1e80, 3, "error: determinant of finite entries up to 1.000e+160 overflows the float range\n"),
        # squared observable norms near 1e320: the input itself is out of range
        (1e160, 2, "error: observables: the sum of squared Frobenius norms overflows "),
    ],
)
def test_compute_on_overflowing_observables_reports_an_error_not_a_violation(tmp_path, capsys, factor, code, message):
    # the suite turns RuntimeWarning into errors, as CI runs the command line
    assert main(["compute", _scaled_fixture(tmp_path, factor)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(message) and captured.err.count("\n") == 1
    assert "FAIL" not in captured.out and "lhs=" not in captured.out


def test_selftest_output_matches_the_golden_file(capsys):
    assert main(["selftest"]) == 0
    assert capsys.readouterr().out.encode() == (FIXTURES / "selftest.txt").read_bytes()


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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="a started process sees the stand-in only when forked")
def test_verify_exits_3_when_a_started_process_dies_without_a_reply(monkeypatch, capsys):
    import qfidet.campaign as campaign_module

    parent, real = os.getpid(), campaign_module.prepare_random

    def prepare(n, n_obs, seed, kind):
        if os.getpid() != parent:
            os._exit(1)
        # the campaign's own process waits in its first block until the started one has died in its own
        deadline = time.monotonic() + 30.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.01)
        return real(n, n_obs, seed, kind)

    monkeypatch.setattr(campaign_module, "prepare_random", prepare)
    monkeypatch.setattr(sys, "argv", ["qfidet", "verify", "--instances", "1", "--workers", "2"])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    with pytest.raises(SystemExit) as exited:
        entry()
    assert exited.value.code == 3
    assert capsys.readouterr().err == "error: a campaign process exited with code 1 without a reply\n"
    assert multiprocessing.active_children() == []
