"""Catalogue of normalized symmetric operator monotone functions.

Every member f maps (0, inf) to (0, inf), satisfies f(1) = 1 and the symmetry
f(x) = x f(1/x), and extends continuously to x = 0.  Members with f(0) > 0
are called regular; they admit the companion transform

    transformed(x) = ((x + 1) - (x - 1)^2 f(0) / f(x)) / 2

which lands back in the catalogue's nonregular class.  The induced mean
m_f(x, y) = x f(y/x) interpolates between the harmonic and arithmetic means.

The built-in members come from one table, ``_CATALOG``: each row builds its
member from the parameter alone (param -> (evaluator, f(0))) and holds the
text that ``qfidet catalog`` prints.  A parameter outside the range a row
states is rejected.

Every member is validated on a fixed logarithmic grid when it is built.
That check is a necessary condition only; the operator monotonicity of the
catalogue's families is a known result, not something this module tests.
"""
from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CatalogError",
    "MonotoneFunction",
    "DominanceReport",
    "STANDARD_GRID",
    "STRICTNESS_FLOOR",
    "CATALOG_NAMES",
    "make_function",
    "parse_function_spec",
    "read_sequence",
    "require_distinct",
    "read_function_specs",
    "mean",
    "tilde",
    "dominates",
    "catalog_families",
]

STANDARD_GRID = np.logspace(-4.0, 4.0, 41)
STANDARD_GRID.flags.writeable = False

# dominance margins above this are strict; margins at or above its negative are weak
STRICTNESS_FLOOR = 1e-12

# window around the removable singularity at x = 1 where series expansions
# replace the closed forms
SERIES_WINDOW = 1e-6


class CatalogError(ValueError):
    """A function failed validation or was used outside its contract."""


@dataclass(frozen=True, eq=False)
class MonotoneFunction:
    """A normalized symmetric function with its value at zero pinned analytically.

    Equality is identity and the hash is ``object``'s, C slots both, which the memo keys of every
    outcome and ``dominates``' cache key take.  ``make_function`` and ``tilde`` are cached, so each
    spec builds one member.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    value_at_zero: float
    regular: bool
    params: tuple[float, ...] = ()
    # "name" or "name:p1,p2", set once here because reports read it per outcome
    label: str = field(init=False, repr=False)

    def __post_init__(self):
        label = self.name + ":" + ",".join(f"{p:g}" for p in self.params) if self.params else self.name
        object.__setattr__(self, "label", label)

    def __call__(self, x):
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        low = arr.min(initial=np.inf)
        # one comparison rejects negatives and NaN alike
        if not low >= 0.0:
            raise ValueError(f"{self.label}: arguments must be nonnegative, got {x!r}")
        if low > 0.0:
            out = self.evaluator(arr)
        else:
            out = np.empty_like(arr)
            pos = arr > 0.0
            out[pos] = self.evaluator(arr[pos])
            out[~pos] = self.value_at_zero
        return float(out[0]) if scalar else out


def _km_core(x: np.ndarray) -> np.ndarray:
    """(x - 1)/log(x) with a series branch through the x = 1 window."""
    u = x - 1.0
    near = np.abs(u) < SERIES_WINDOW
    safe = np.where(near, 2.0, x)
    direct = (safe - 1.0) / np.log(safe)
    series = 1.0 + u * (0.5 + u * (-1.0 / 12.0 + u / 24.0))
    return np.where(near, series, direct)


def _validate_grid(f: MonotoneFunction) -> None:
    vals = f(STANDARD_GRID)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise CatalogError(f"{f.label}: not strictly positive and finite on the grid")
    one = float(f(np.array(1.0)))
    if abs(one - 1.0) > 1e-12:
        raise CatalogError(f"{f.label}: f(1) = {one!r}, expected 1 within 1e-12")
    swapped = STANDARD_GRID * f(1.0 / STANDARD_GRID)
    sym = np.abs(vals - swapped) / np.abs(vals)
    if sym.max() > 1e-10:
        k = int(np.argmax(sym))
        raise CatalogError(
            f"{f.label}: symmetry f(x) = x f(1/x) violated at x = {STANDARD_GRID[k]:g} "
            f"(relative gap {sym.max():.3e})"
        )
    drops = np.diff(vals)
    if np.any(drops < -1e-12 * np.abs(vals).max()):
        raise CatalogError(f"{f.label}: not nondecreasing on the grid")
    if f.regular != (abs(f.value_at_zero) > 1e-12):
        raise CatalogError(
            f"{f.label}: regularity flag {f.regular} inconsistent with "
            f"f(0) = {f.value_at_zero!r}"
        )


def _fixed(evaluator: Callable[[np.ndarray], np.ndarray], f0: float):
    """Builder of a family that takes no parameter."""
    return lambda param: (evaluator, f0)


def _alpha(a: float):
    """Builder of 2 x^(a + 1/2)/(1 + x^(2a)), a in [0, 1/2]."""
    if not 0.0 <= a <= 0.5:
        raise CatalogError(f"alpha: parameter must lie in [0, 1/2], got {a!r}")

    def ev(x):
        return 2.0 * x ** (a + 0.5) / (1.0 + x ** (2.0 * a))

    return ev, 0.0


def _wyd(b: float):
    """Builder of the Wigner-Yanase-Dyson member; a series covers the x = 1 window."""
    if not 0.0 < abs(b) < 1.0:
        raise CatalogError(f"wyd: parameter must satisfy 0 < |beta| < 1, got {b!r}")
    m = b * (1.0 - b)

    def ev(x):
        u = x - 1.0
        near = np.abs(u) < SERIES_WINDOW
        safe = np.where(near, 2.0, x)
        lx = np.log(safe)
        direct = m * (safe - 1.0) ** 2 / (np.expm1(b * lx) * np.expm1((1.0 - b) * lx))
        series = 1.0 + u * 0.5 - (1.0 - m) * u**2 / 12.0
        return np.where(near, series, direct)

    return ev, (m if 0.0 < b < 1.0 else 0.0)


class _Family(NamedTuple):
    """One catalogue row: how to build the member, and what ``qfidet catalog`` prints."""

    # param -> (evaluator, f(0)); raises CatalogError
    build: Callable[[float | None], tuple[Callable[[np.ndarray], np.ndarray], float]]
    formula: str
    parameter: str | None  # None: the family takes no parameter
    value_at_zero: str
    regularity: str
    transform: str | None


_CATALOG = {
    "sld": _Family(
        _fixed(lambda x: 0.5 * (1.0 + x), 0.5), "(1 + x)/2", None, "1/2", "regular", "2x/(1 + x)"
    ),
    "harmonic": _Family(
        _fixed(lambda x: 2.0 * x / (1.0 + x), 0.0), "2x/(1 + x)", None, "0", "nonregular", None
    ),
    "kubo-mori": _Family(_fixed(_km_core, 0.0), "(x - 1)/log x", None, "0", "nonregular", None),
    "log-square": _Family(
        _fixed(lambda x: _km_core(x) ** 2 * 2.0 / (1.0 + x), 0.0),
        "2(x - 1)^2/((1 + x) log^2 x)", None, "0", "nonregular", None,
    ),
    "sqrt-log": _Family(
        _fixed(lambda x: _km_core(x) * 2.0 * np.sqrt(x) / (1.0 + x), 0.0),
        "2(x - 1) sqrt(x)/((1 + x) log x)", None, "0", "nonregular", None,
    ),
    "alpha": _Family(_alpha, "2 x^(a + 1/2)/(1 + x^(2a))", "a in [0, 1/2]", "0", "nonregular", None),
    "wyd": _Family(
        _wyd,
        "b(1 - b)(x - 1)^2/((x^b - 1)(x^(1-b) - 1))",
        "0 < |b| < 1",
        "b(1 - b) for 0 < b < 1, else 0",
        "regular for 0 < b < 1, else nonregular",
        "defined for 0 < b < 1 (no simple closed form)",
    ),
    "wy": _Family(
        _fixed(lambda x: 0.25 * (np.sqrt(x) + 1.0) ** 2, 0.25),
        "(sqrt(x) + 1)^2/4", None, "1/4", "regular", "sqrt(x)",
    ),
}
CATALOG_NAMES = tuple(_CATALOG)


@lru_cache(maxsize=None)
def _build(name: str, param: float | None) -> MonotoneFunction:
    family = _CATALOG.get(name)
    if family is None:
        raise CatalogError(f"unknown function name {name!r} (choose from {CATALOG_NAMES})")
    if family.parameter is not None and param is None:
        raise CatalogError(f"{name}: a parameter is required (e.g. '{name}:0.3')")
    if family.parameter is None and param is not None:
        raise CatalogError(f"{name}: does not take a parameter")
    evaluator, f0 = family.build(param)
    f = MonotoneFunction(name, evaluator, f0, f0 > 0.0, params=() if param is None else (param,))
    _validate_grid(f)
    return f


def make_function(name: str, param: float | None = None) -> MonotoneFunction:
    """Build a catalogue member by name, e.g. make_function('wyd', 0.3)."""
    return _build(name, None if param is None else float(param))


def parse_function_spec(spec: str) -> MonotoneFunction:
    """Parse 'name' or 'name:param' strings as used on the command line."""
    name, sep, rest = spec.partition(":")
    name = name.strip()
    if not sep:
        return make_function(name)
    try:
        param = float(rest)
    except ValueError:
        raise CatalogError(f"{spec!r}: parameter {rest!r} is not a number") from None
    return make_function(name, param)


def read_sequence(field: str, value, error: type[ValueError]) -> tuple:
    """The items of ``value``.  ``error``, prefixed with ``field``, refuses text, which would be read one character
    at a time, bytes, a set or mapping, whose order can change with the hash seed, and a scalar."""
    if not isinstance(value, (str, bytes, Set, Mapping)):
        try:
            return tuple(value)
        except TypeError:  # not iterable: a number, a 0-d array
            pass
    raise error(f"{field}: expected a sequence, got {value!r}")


def require_distinct(field: str, items, read_as, error: type[ValueError]):
    """``read_as``, what each of ``items`` reads as; ``error``, prefixed with ``field``, refuses the first item that
    reads as an earlier one."""
    for k, key in enumerate(read_as):
        if key in read_as[:k]:
            raise error(f"{field}: {items[read_as.index(key)]!r} and {items[k]!r} both read as {key!r}")
    return read_as


def read_function_specs(functions, pairs, functions_field: str, pairs_field: str, error: type[ValueError]) -> tuple:
    """(functions, pairs) as a tuple of specs and a tuple of (f, g) specs, each spec a string.

    ``error``, prefixed with the field's name, refuses a ``functions`` or ``pairs`` that is not a sequence
    (``read_sequence``), a pair that is not a sequence of two specs, an empty function list, a spec that does not
    parse, two functions or two pairs that read as one, which would count outcomes twice, and a pair of a function
    with itself.  A spec reads as the label of the first spec of its list with the same f(0) and
    ``STANDARD_GRID`` values to within 1e-12 relative.
    """
    functions, checked = read_sequence(functions_field, functions, error), []
    for pair in read_sequence(pairs_field, pairs, error):
        try:
            f, g = read_sequence(pairs_field, pair, error)
        except ValueError:  # not a sequence, or not of two
            raise error(f"{pairs_field}: expected a pair of function specs, got {pair!r}") from None
        checked.append((str(f), str(g)))
    functions, pairs = tuple(str(spec) for spec in functions), tuple(checked)
    if not functions:
        raise error(f"{functions_field}: need at least one function spec")

    def keys(field: str, specs) -> list:
        try:
            members = [parse_function_spec(spec) for spec in specs]
        except CatalogError as exc:
            raise error(f"{field}: {exc}") from None
        # f(0) >= 0 and the grid values > 0 (``_validate_grid``), so f(0) = 0 matches only itself
        values = [(f.label, np.append(f.value_at_zero, f(STANDARD_GRID))) for f in members]
        return [next(label for label, y in values if np.all(abs(y - x) <= 1e-12 * np.maximum(y, x))) for _, x in values]

    require_distinct(functions_field, functions, keys(functions_field, functions), error)
    flat = iter(keys(pairs_field, [spec for pair in pairs for spec in pair]))
    for pair, (f, g) in zip(pairs, require_distinct(pairs_field, pairs, list(zip(flat, flat)), error)):
        if f == g:  # no function strictly dominates itself, so each of its outcomes would be skipped
            raise error(f"{pairs_field}: {pair!r} pairs {f!r} with itself")
    return functions, pairs


def mean(f: MonotoneFunction, x, y):
    """The induced mean m_f(x, y) = x f(y/x), extended symmetrically to zero.

    Evaluated as max * f(min/max), which makes the symmetry m(x, y) = m(y, x)
    exact and keeps the evaluator argument in [0, 1].
    """
    ax = np.asarray(x, dtype=float)
    ay = np.asarray(y, dtype=float)
    lo = np.minimum(ax, ay)
    low = lo.min(initial=np.inf)
    # a negative or NaN argument in either makes lo negative or NaN
    if not low >= 0.0:
        raise ValueError("mean: arguments must be nonnegative")
    hi = np.maximum(ax, ay)
    ratio = lo / (hi if low > 0.0 else np.where(hi > 0.0, hi, 1.0))
    out = hi * f(ratio)
    if out.ndim == 0:
        return float(out)
    return out


@lru_cache(maxsize=None)
def tilde(f: MonotoneFunction) -> MonotoneFunction:
    """Companion transform of a regular member; always nonregular.

    For the two closed-form regular members: sld maps to 2x/(1+x) and wy
    maps to sqrt(x).
    """
    if not f.regular:
        raise CatalogError(
            f"{f.label}: the transform needs a regular function (f(0) > 0); "
            f"with f(0) = 0 it would collapse to (x+1)/2"
        )
    f0 = f.value_at_zero
    ev = f.evaluator

    def transformed(x):
        return 0.5 * ((x + 1.0) - (x - 1.0) ** 2 * (f0 / ev(x)))

    out = MonotoneFunction(f"tilde({f.label})", transformed, 0.0, False)
    _validate_grid(out)
    return out


@dataclass(frozen=True)
class DominanceReport:
    """Grid comparison of the ratios f(0)/f(t) against g(0)/g(t)."""

    f_label: str
    g_label: str
    grid: np.ndarray = field(repr=False)
    margins: np.ndarray = field(repr=False)
    strict: bool
    weak: bool
    min_margin: float
    min_margin_at: float

    @property
    def classification(self) -> str:
        if self.strict:
            return "strict"
        if self.weak:
            return "weak"
        return "neither"


@lru_cache(maxsize=None)
def dominates(f: MonotoneFunction, g: MonotoneFunction) -> DominanceReport:
    """Compare f(0)/f against g(0)/g pointwise on the standard grid (both must be regular).

    The report is computed once per (f, g) and shared, with read-only margins; a call that
    raises caches nothing.
    """
    if not (f.regular and g.regular):
        raise CatalogError(f"{(g if f.regular else f).label}: dominance is defined for regular functions only")
    margins = f.value_at_zero / f(STANDARD_GRID) - g.value_at_zero / g(STANDARD_GRID)
    margins.flags.writeable = False
    k = int(np.argmin(margins))
    return DominanceReport(
        f_label=f.label,
        g_label=g.label,
        grid=STANDARD_GRID,
        margins=margins,
        strict=bool(np.all(margins > STRICTNESS_FLOOR)),
        weak=bool(np.all(margins >= -STRICTNESS_FLOOR)),
        min_margin=float(margins[k]),
        min_margin_at=float(STANDARD_GRID[k]),
    )


def catalog_families() -> list[dict]:
    """Listing of the built-in families, one dict per catalogue row."""
    return [
        {
            "name": name,
            "formula": family.formula,
            "parameter": family.parameter,
            "value_at_zero": family.value_at_zero,
            "class": family.regularity,
            "transform": family.transform,
        }
        for name, family in _CATALOG.items()
    ]
