from __future__ import annotations

import json

import numpy as np
import pytest

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
    with pytest.raises(InstanceFormatError, match=r"functions\[0\]"):
        load_instance(_write(tmp_path, dict(GOOD, functions=["nope"])))
    with pytest.raises(InstanceFormatError, match=r"pairs\[0\]"):
        load_instance(_write(tmp_path, dict(GOOD, pairs=[["sld"]])))
    with pytest.raises(InstanceFormatError, match=r"pairs\[0\]"):
        load_instance(_write(tmp_path, dict(GOOD, pairs=[["sld", "nope"]])))
    for value in ("sld", [], {"f": "sld"}):
        with pytest.raises(InstanceFormatError, match=r"functions: expected a non-empty list of function specs"):
            load_instance(_write(tmp_path, dict(GOOD, functions=value)))
    for value in ("sld/wy", {"sld": "wy"}):
        with pytest.raises(InstanceFormatError, match=r"pairs: expected a list of \[f, g\] lists"):
            load_instance(_write(tmp_path, dict(GOOD, pairs=value)))
    with pytest.raises(InstanceFormatError, match="top level"):
        load_instance(_write(tmp_path, [1, 2]))


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


def test_save_accepts_custom_state(tmp_path):
    d = density(np.eye(2, dtype=complex) / 2)
    path = tmp_path / "mixed.json"
    save_instance(path, d, [PAULI_X])
    back = load_instance(path)
    assert back.functions == ("sld",)
    assert back.pairs == ()
