"""Instance files: a small JSON schema for states, observables and functions.

Schema: {"dim": n, "state": [[[re, im], ...], ...], "observables": [matrix, ...],
"functions": ["sld", "wyd:0.3"], "pairs": [["sld", "wy"]]}.  Every matrix entry
is a two-element [re, im] list.  Validation failures name the offending field
and quote the measured value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .monotone import checked_spec
from .states import DensityMatrix, density, observable


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
    try:
        state = density(_complex_matrix(payload["state"], dim, "state"))
    except ValueError as exc:
        if isinstance(exc, InstanceFormatError):
            raise
        raise InstanceFormatError(f"state: {exc}") from None

    raw_obs = payload.get("observables", [])
    if not isinstance(raw_obs, list) or not raw_obs:
        raise InstanceFormatError(f"observables: expected a non-empty list of matrices, got {raw_obs!r}")
    checked = []
    for k, raw in enumerate(raw_obs):
        name = f"observables[{k}]"
        try:
            checked.append(observable(_complex_matrix(raw, dim, name)))
        except ValueError as exc:
            if isinstance(exc, InstanceFormatError):
                raise
            raise InstanceFormatError(f"{name}: {exc}") from None

    raw_functions = payload.get("functions", ["sld"])
    if not isinstance(raw_functions, list) or not raw_functions:
        raise InstanceFormatError(f"functions: expected a non-empty list of function specs, got {raw_functions!r}")
    functions = tuple(
        checked_spec(str(s), f"functions[{k}]", InstanceFormatError) for k, s in enumerate(raw_functions)
    )
    raw_pairs = payload.get("pairs", [])
    if not isinstance(raw_pairs, list):
        raise InstanceFormatError(f"pairs: expected a list of [f, g] lists, got {raw_pairs!r}")
    pairs = []
    for k, raw_pair in enumerate(raw_pairs):
        if not isinstance(raw_pair, (list, tuple)) or len(raw_pair) != 2:
            raise InstanceFormatError(f"pairs[{k}]: expected a two-element [f, g] list, got {raw_pair!r}")
        pairs.append(tuple(checked_spec(str(s), f"pairs[{k}]", InstanceFormatError) for s in raw_pair))
    return LoadedInstance(state, tuple(checked), functions, tuple(pairs))


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
