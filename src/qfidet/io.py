"""Instance files: a small JSON schema for states, observables and functions.

Schema: {"dim": n, "state": [[[re, im], ...], ...], "observables": [matrix, ...],
"functions": ["sld", "wyd:0.3"], "pairs": [["sld", "wy"]]}.  Every matrix entry
is a two-element [re, im] list.  Validation failures name the offending field
and quote the measured value; ``functions`` and ``pairs`` are read by
``monotone.read_function_specs``, under the rules of a campaign config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .linalg import hermitian_part, require_hermitian
from .monotone import read_function_specs
from .states import DensityMatrix, density


class InstanceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class LoadedInstance:
    state: DensityMatrix
    observables: tuple[np.ndarray, ...]
    functions: tuple[str, ...]
    pairs: tuple[tuple[str, str], ...]


def _complex_matrix(raw, dim: int, field: str) -> np.ndarray:
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise InstanceFormatError(f"{field}: entries must be numeric [re, im] pairs") from None
    if arr.shape != (dim, dim, 2):
        raise InstanceFormatError(
            f"{field}: expected shape {dim}x{dim} of [re, im] pairs, got array shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _refused(check, *args):
    """``check(*args)``; a ValueError it raises, whose text names its field, as an InstanceFormatError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def _encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def load_instance(path: str | Path) -> LoadedInstance:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise InstanceFormatError("top level: expected a JSON object")

    if "dim" not in payload:
        raise InstanceFormatError("dim: missing")
    dim = payload["dim"]
    # a whole float (2.0) is an integer; a bool (JSON true), though an int subclass, is not
    if type(dim) is not int and not (type(dim) is float and dim.is_integer()):
        raise InstanceFormatError(f"dim: not an integer ({dim!r})")
    dim = int(dim)
    if dim < 2:
        raise InstanceFormatError(f"dim: must be at least 2, got {dim}")

    if "state" not in payload:
        raise InstanceFormatError("state: missing")
    state = _refused(density, _complex_matrix(payload["state"], dim, "state"))  # each of its texts names the state

    raw_obs = payload.get("observables", [])
    if not isinstance(raw_obs, list) or not raw_obs:
        raise InstanceFormatError(f"observables: expected a non-empty list of matrices, got {raw_obs!r}")
    checked = []
    for k, raw in enumerate(raw_obs):
        field = f"observables[{k}]"
        matrix = _complex_matrix(raw, dim, field)
        _refused(require_hermitian, matrix, field)
        checked.append(hermitian_part(matrix))

    functions, pairs = payload.get("functions", ["sld"]), payload.get("pairs", [])
    functions, pairs = read_function_specs(functions, pairs, "functions", "pairs", InstanceFormatError)
    return LoadedInstance(state, tuple(checked), functions, pairs)


def save_instance(
    path: str | Path,
    state: DensityMatrix,
    observables: Sequence[np.ndarray],
    functions: Sequence[str] = ("sld",),
    pairs: Sequence[tuple[str, str]] = (),
) -> None:
    payload = {
        "dim": state.dim,
        "state": _encode_matrix(state.matrix),
        "observables": [_encode_matrix(a) for a in observables],
        "functions": list(functions),
        "pairs": [list(p) for p in pairs],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
