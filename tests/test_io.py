from __future__ import annotations

import json
import re

import numpy as np
import pytest

from qfidet.campaign import CampaignConfig, ConfigError
from qfidet.inequalities import PreparedInstance, check_conj1
from qfidet.io import InstanceFormatError, load_instance, save_instance
from qfidet.monotone import make_function
from qfidet.states import density, random_density, random_observable

from conftest import FIXTURES, PAULI_X, PAULI_Y


def test_fixture_loads_and_is_tight():
    loaded = load_instance(FIXTURES / "qubit_tight.json")
    assert loaded.state.dim == 2
    assert np.abs(loaded.state.matrix - np.diag([0.75, 0.25])).max() <= 1e-15
    assert len(loaded.observables) == 2
    assert np.abs(loaded.observables[0] - PAULI_X).max() <= 1e-15
    assert np.abs(loaded.observables[1] - PAULI_Y).max() <= 1e-15
    assert loaded.functions == ("sld",)
    assert loaded.pairs == (("sld", "wy"),)

    inst = PreparedInstance(loaded.state, list(loaded.observables))
    rep = check_conj1(inst, make_function(loaded.functions[0]))
    assert abs(rep.margin) <= 1e-12


def test_round_trip_exact(tmp_path):
    d = random_density(3, 17)
    obs = [random_observable(3, 18), random_observable(3, 19)]
    path = tmp_path / "inst.json"
    save_instance(path, d, obs, functions=["wyd:0.3", "kubo-mori"], pairs=[("sld", "wyd:0.3")])
    back = load_instance(path)
    assert np.array_equal(back.state.matrix, d.matrix)
    for a, b in zip(back.observables, obs):
        assert np.array_equal(a, b)
    assert back.functions == ("wyd:0.3", "kubo-mori")
    assert back.pairs == (("sld", "wyd:0.3"),)


def _write(tmp_path, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    return path


def _encode(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


GOOD = {
    "dim": 2,
    "state": _encode(np.diag([0.75, 0.25])),
    "observables": [_encode(PAULI_X)],
    "functions": ["sld"],
    "pairs": [],
}


def test_rejects_wrong_trace(tmp_path):
    payload = dict(GOOD, state=_encode(np.diag([0.7, 0.2])))
    with pytest.raises(InstanceFormatError, match="state.*trace"):
        load_instance(_write(tmp_path, payload))


def test_rejects_non_hermitian_observable(tmp_path):
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    payload = dict(GOOD, observables=[_encode(PAULI_X), _encode(bad)])
    with pytest.raises(InstanceFormatError, match=r"observables\[1\]"):
        load_instance(_write(tmp_path, payload))


def test_rejects_shape_mismatch(tmp_path):
    payload = dict(GOOD, state=_encode(np.eye(3) / 3))
    with pytest.raises(InstanceFormatError, match="state.*shape"):
        load_instance(_write(tmp_path, payload))


def test_rejects_missing_and_bad_fields(tmp_path):
    with pytest.raises(InstanceFormatError, match="dim: missing"):
        load_instance(_write(tmp_path, {k: v for k, v in GOOD.items() if k != "dim"}))
    with pytest.raises(InstanceFormatError, match="state: missing"):
        load_instance(_write(tmp_path, {k: v for k, v in GOOD.items() if k != "state"}))
    with pytest.raises(InstanceFormatError, match="dim"):
        load_instance(_write(tmp_path, dict(GOOD, dim=1)))
    with pytest.raises(InstanceFormatError, match="observables"):
        load_instance(_write(tmp_path, dict(GOOD, observables=[])))
    with pytest.raises(InstanceFormatError, match=r"^functions: unknown function name 'nope'"):
        load_instance(_write(tmp_path, dict(GOOD, functions=["nope"])))
    with pytest.raises(InstanceFormatError, match=r"^pairs: expected a pair of function specs, got \['sld'\]$"):
        load_instance(_write(tmp_path, dict(GOOD, pairs=[["sld"]])))
    with pytest.raises(InstanceFormatError, match=r"^pairs: unknown function name 'nope'"):
        load_instance(_write(tmp_path, dict(GOOD, pairs=[["sld", "nope"]])))
    for value in ("sld", {"f": "sld"}):
        with pytest.raises(InstanceFormatError, match=f"^functions: expected a sequence, got {re.escape(repr(value))}$"):
            load_instance(_write(tmp_path, dict(GOOD, functions=value)))
    with pytest.raises(InstanceFormatError, match=r"^functions: need at least one function spec$"):
        load_instance(_write(tmp_path, dict(GOOD, functions=[])))
    for value in ("sld/wy", {"sld": "wy"}):
        with pytest.raises(InstanceFormatError, match=f"^pairs: expected a sequence, got {re.escape(repr(value))}$"):
            load_instance(_write(tmp_path, dict(GOOD, pairs=value)))
    with pytest.raises(InstanceFormatError, match="top level"):
        load_instance(_write(tmp_path, [1, 2]))


# (rule, functions, pairs, the message with {F} and {P} for the caller's names of the two fields): a campaign config
# and an instance file refuse the same function specs and pairs with the same text
SPEC_RULES = [
    ("empty", [], [], "{F}: need at least one function spec"),
    ("functions-string", "sld", [], "{F}: expected a sequence, got 'sld'"),
    ("functions-mapping", {"f": "sld"}, [], "{F}: expected a sequence, got {{'f': 'sld'}}"),
    ("pairs-string", ["sld"], "sld/wy", "{P}: expected a sequence, got 'sld/wy'"),
    ("pairs-mapping", ["sld"], {"sld": "wy"}, "{P}: expected a sequence, got {{'sld': 'wy'}}"),
    ("pairs-number", ["sld"], 7, "{P}: expected a sequence, got 7"),
    ("function-unparsed", ["sld", "wyd:x"], [], "{F}: 'wyd:x': parameter 'x' is not a number"),
    ("pair-unparsed", ["sld"], [["sld", "alpha:0.7"]], "{P}: alpha: parameter must lie in [0, 1/2], got 0.7"),
    ("pair-of-one", ["sld"], [["sld"]], "{P}: expected a pair of function specs, got ['sld']"),
    ("pair-of-three", ["sld"], [["sld", "wy", "wyd:0.3"]], "{P}: expected a pair of function specs, got ['sld', 'wy', 'wyd:0.3']"),
    ("pair-string", ["sld"], ["sw"], "{P}: expected a pair of function specs, got 'sw'"),
    ("pair-mapping", ["sld"], [{"f": "sld", "g": "wy"}], "{P}: expected a pair of function specs, got {{'f': 'sld', 'g': 'wy'}}"),
    ("one-function-twice", ["wy", "wyd:0.5"], [], "{F}: 'wy' and 'wyd:0.5' both read as 'wy'"),
    ("one-pair-twice", ["sld"], [["sld", "wy"], ["sld", "wy"]], "{P}: ('sld', 'wy') and ('sld', 'wy') both read as ('sld', 'wy')"),
    ("self-pair", ["sld"], [["sld", "sld"]], "{P}: ('sld', 'sld') pairs 'sld' with itself"),
    ("self-pair-two-labels", ["sld"], [["wyd:0.5", "wy"]], "{P}: ('wyd:0.5', 'wy') pairs 'wyd:0.5' with itself"),
]


@pytest.mark.parametrize("rule, functions, pairs, message", SPEC_RULES, ids=[row[0] for row in SPEC_RULES])
def test_configs_and_instance_files_refuse_the_same_specs(tmp_path, rule, functions, pairs, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message.format(F='functions', P='function_pairs'))}$"):
        CampaignConfig(functions=functions, function_pairs=pairs)
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message.format(F='functions', P='pairs'))}$"):
        load_instance(_write(tmp_path, dict(GOOD, functions=functions, pairs=pairs)))


@pytest.mark.parametrize("field", ["state", "observables"])
def test_matrix_entries_must_be_numbers(tmp_path, field):
    entries = [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]
    payload = dict(GOOD, **{field: entries if field == "state" else [entries]})
    with pytest.raises(InstanceFormatError, match=rf"^{field}(\[0\])?: entries must be numeric \[re, im\] pairs$"):
        load_instance(_write(tmp_path, payload))


@pytest.mark.parametrize("value", [2.7, True, False, "2", None, [2]])
def test_dim_must_be_a_json_integer(tmp_path, value):
    with pytest.raises(InstanceFormatError, match=r"^dim: not an integer"):
        load_instance(_write(tmp_path, dict(GOOD, dim=value)))


def test_dim_may_be_written_as_a_whole_float(tmp_path):
    assert load_instance(_write(tmp_path, dict(GOOD, dim=2.0))).state.dim == 2


@pytest.mark.parametrize("value", [5, {"a": 1}, "x", [], None])
def test_observables_must_be_a_non_empty_list(tmp_path, value):
    with pytest.raises(InstanceFormatError, match=r"^observables: expected a non-empty list of matrices"):
        load_instance(_write(tmp_path, dict(GOOD, observables=value)))
    with pytest.raises(InstanceFormatError, match=r"^observables: expected a non-empty list of matrices"):
        load_instance(_write(tmp_path, {k: v for k, v in GOOD.items() if k != "observables"}))


def test_rejects_garbage_file(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="JSON"):
        load_instance(path)


def test_rejects_positivity_violation(tmp_path):
    m = np.array([[1.2, 0.0], [0.0, -0.2]])
    payload = dict(GOOD, state=_encode(m))
    with pytest.raises(InstanceFormatError, match="state"):
        load_instance(_write(tmp_path, payload))


# (fault, the file's state, its second observable, the text): an instance file names each matrix fault once, as
# its field; every text of ``density`` names the state, and each observable is judged as observables[k]
MATRIX_FAULTS = [
    ("state-not-hermitian", [[0.75, 0.1], [0.0, 0.25]], PAULI_Y,
     "state: not Hermitian, entry (0,1) = (0.1+0j) vs conjugate of (1,0) = -0j"),
    ("state-non-finite", [[0.75, np.nan], [np.nan, 0.25]], PAULI_Y, "state: non-finite entry (0, 1) = (nan+0j)"),
    ("state-trace", np.diag([0.7, 0.2]), PAULI_Y, "state trace is 0.8999999999999999, expected 1 within 1e-12"),
    ("state-not-positive", np.diag([1.2, -0.2]), PAULI_Y,
     "state is not strictly positive: min eigenvalue -2.000e-01 is below the floor 1e-10"),
    ("observable-not-hermitian", np.diag([0.75, 0.25]), [[0.0, 1.0], [0.0, 0.0]],
     "observables[1]: not Hermitian, entry (0,1) = (1+0j) vs conjugate of (1,0) = -0j"),
    ("observable-non-finite", np.diag([0.75, 0.25]), [[np.nan, 0.0], [0.0, 1.0]],
     "observables[1]: non-finite entry (0, 0) = (nan+0j)"),
]


@pytest.mark.parametrize("fault, state, second, message", MATRIX_FAULTS, ids=[row[0] for row in MATRIX_FAULTS])
def test_an_instance_file_names_each_matrix_fault_once(tmp_path, fault, state, second, message):
    payload = dict(GOOD, state=_encode(state), observables=[_encode(PAULI_X), _encode(second)])
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        load_instance(_write(tmp_path, payload))


def test_save_accepts_custom_state(tmp_path):
    d = density(np.eye(2, dtype=complex) / 2)
    path = tmp_path / "mixed.json"
    save_instance(path, d, [PAULI_X])
    back = load_instance(path)
    assert back.functions == ("sld",)
    assert back.pairs == ()
