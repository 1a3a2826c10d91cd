"""Verification campaigns over derived-seed random instances.

Every instance is generated from hash(seed, n, N, kind, index), so any cell
or single instance reproduces in isolation and the report is identical for
any worker count: cells are independent work items and the merge happens in
a fixed order.  The JSON report is the source of truth; CSV is a flattened
view with one row per (check, n, N, f, g, t) combination, aggregated over
state kinds and instances.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .inequalities import (
    EqualityClassification,
    check_conj1,
    check_conj2,
    check_firey,
    check_main,
    check_metric_contraction,
    check_robertson,
    classify_equality,
    prepare_random,
)
from .monotone import MonotoneFunction, checked_spec, parse_function_spec
from .states import derive_seed, random_partition

REPORT_VERSION = "qfi-report/3"
STATE_KINDS = ("generic", "degenerate", "near-singular")
VIOLATION_CAP = 100
COUNT_NAMES = ("pass", "fail", "hypothesis_skipped", "clamped")
DEFAULT_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class CheckPlan:
    """What the checks of one instance range over, with one generator per check.

    Each generator yields (outcome, f label, g label, t) and looks its check
    function up by module name when it runs, so that replacing
    ``campaign.check_main`` (a test double, a tracer) reaches every dispatch.
    """

    functions: tuple[MonotoneFunction, ...]
    pairs: tuple[tuple[MonotoneFunction, MonotoneFunction], ...]
    tol: float
    t_grid: tuple[float, ...] = ()

    def main(self, inst, derived):
        for f in self.functions:
            yield check_main(inst, f, self.tol), f.label, None, None

    def conj1(self, inst, derived):
        for f in self.functions:
            yield check_conj1(inst, f, self.tol), f.label, None, None

    def conj2(self, inst, derived):
        for f, g in self.pairs:
            yield check_conj2(inst, f, g, self.tol), f.label, g.label, None

    def firey(self, inst, derived):
        for t in self.t_grid:
            for f in self.functions:
                yield check_firey(inst, f, t, tol=self.tol), f.label, None, t
            for f, g in self.pairs:
                yield check_firey(inst, f, t, g=g, tol=self.tol), f.label, g.label, t

    def robertson(self, inst, derived):
        yield check_robertson(inst, self.tol), None, None, None

    def equality(self, inst, derived):
        for f, g in self.pairs or ((self.functions[0], None),):
            got = classify_equality(inst, f, g, self.tol)
            yield got, f.label, g.label if g is not None else None, None

    def contraction(self, inst, derived):
        partition = random_partition(inst.state.dim, derive_seed("partition", derived))
        for f in self.functions:
            rep = check_metric_contraction(inst.state, inst.observables[0], f, partition, self.tol)
            yield rep, f.label, None, None


CHECK_NAMES = ("main", "conj1", "conj2", "firey", "robertson", "equality", "contraction")
# check name -> entry(plan, instance, derived seed), in the order checks run
CHECKS = {name: getattr(CheckPlan, name) for name in CHECK_NAMES}


def _label(spec: str, field: str) -> str:
    return parse_function_spec(checked_spec(spec, field, ConfigError)).label


def _require_distinct(field: str, items, keys) -> None:
    seen = {}
    for item, key in zip(items, keys):
        if key in seen:
            raise ConfigError(f"{field}: {seen[key]!r} and {item!r} both parse to {key!r}")
        seen[key] = item


@dataclass(frozen=True)
class CampaignConfig:
    dims: tuple[int, ...] = (2, 3, 4)
    num_obs: tuple[int, ...] = (1, 2, 3)
    instances_per_cell: int = 1000
    functions: tuple[str, ...] = ("sld", "wy", "wyd:0.3", "kubo-mori")
    function_pairs: tuple[tuple[str, str], ...] = (
        ("sld", "wy"),
        ("sld", "wyd:0.3"),
        ("wy", "wyd:0.3"),
    )
    kinds: tuple[str, ...] = STATE_KINDS
    t_grid: tuple[float, ...] = DEFAULT_T_GRID
    tol: float = 1e-9
    seed: int = 2026
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        coerce = object.__setattr__
        coerce(self, "dims", tuple(int(n) for n in self.dims))
        coerce(self, "num_obs", tuple(int(n) for n in self.num_obs))
        coerce(self, "instances_per_cell", int(self.instances_per_cell))
        coerce(self, "functions", tuple(str(s) for s in self.functions))
        coerce(self, "function_pairs", tuple((str(a), str(b)) for a, b in self.function_pairs))
        coerce(self, "kinds", tuple(str(k) for k in self.kinds))
        coerce(self, "t_grid", tuple(float(t) for t in self.t_grid))
        coerce(self, "tol", float(self.tol))
        coerce(self, "seed", int(self.seed))
        coerce(self, "checks", tuple(str(c) for c in self.checks))

        if not self.dims:
            raise ConfigError("dims: need at least one dimension")
        for n in self.dims:
            if not 2 <= n <= 16:
                raise ConfigError(f"dims: {n} outside the supported range [2, 16]")
        if not self.num_obs:
            raise ConfigError("num_obs: need at least one observable count")
        for n in self.num_obs:
            if n < 1:
                raise ConfigError(f"num_obs: counts must be positive, got {n}")
        if self.instances_per_cell < 0:
            raise ConfigError(f"instances_per_cell: must be nonnegative, got {self.instances_per_cell}")
        if not self.functions:
            raise ConfigError("functions: need at least one function spec")
        # a value repeated under any spelling would count its outcomes twice
        _require_distinct("functions", self.functions, [_label(s, "functions") for s in self.functions])
        pair_labels = [tuple(_label(s, "function_pairs") for s in pair) for pair in self.function_pairs]
        _require_distinct("function_pairs", self.function_pairs, pair_labels)
        if not self.kinds:
            raise ConfigError("kinds: need at least one state kind")
        for kind in self.kinds:
            if kind not in STATE_KINDS:
                raise ConfigError(f"kinds: unknown kind {kind!r}; expected one of {', '.join(STATE_KINDS)}")
        for t in self.t_grid:
            if not 0.0 <= t <= 1.0:
                raise ConfigError(f"t_grid: values must lie in [0, 1], got {t}")
        if not self.tol > 0.0:
            raise ConfigError(f"tol: must be positive, got {self.tol}")
        if not self.checks:
            raise ConfigError("checks: need at least one check")
        for check in self.checks:
            if check not in CHECK_NAMES:
                raise ConfigError(f"checks: unknown check {check!r}; expected one of {', '.join(CHECK_NAMES)}")
        for field in ("dims", "num_obs", "kinds", "t_grid", "checks"):
            _require_distinct(field, getattr(self, field), getattr(self, field))
        # a check with nothing to range over would pass with zero outcomes
        if "firey" in self.checks and not self.t_grid:
            raise ConfigError("t_grid: the firey check needs at least one t value")
        if "conj2" in self.checks and not self.function_pairs:
            raise ConfigError("function_pairs: the conj2 check needs at least one pair")


@dataclass(frozen=True)
class CampaignReport:
    config: CampaignConfig
    counts: dict
    rows: list
    worst: dict
    violations: list
    runtime: float
    version: str = REPORT_VERSION

    @property
    def total_failures(self) -> int:
        return sum(c["fail"] for c in self.counts.values())

    @property
    def ok(self) -> bool:
        return self.total_failures == 0

    def totals(self) -> dict:
        return {key: sum(quad[key] for quad in self.counts.values()) for key in COUNT_NAMES}

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "config": asdict(self.config),
            "counts": self.counts,
            "rows": self.rows,
            "worst": self.worst,
            "violations": self.violations,
            "totals": self.totals(),
            "runtime": self.runtime,
        }


def _empty_row() -> list:
    """A tally row: [pass, fail, hypothesis_skipped, clamped, worst_margin, worst_instance]."""
    return [0, 0, 0, 0, None, ""]


def _add_row(into: list, row: list) -> None:
    """Add tally ``row`` into ``into``; the earlier worst stays on a tie."""
    for k in range(4):
        into[k] += row[k]
    if row[4] is not None and (into[4] is None or row[4] < into[4]):
        into[4:] = row[4:]


def _run_cell(config: CampaignConfig, n: int, n_obs: int, kind: str) -> tuple[dict, list]:
    plan = CheckPlan(
        functions=tuple(parse_function_spec(s) for s in config.functions),
        pairs=tuple((parse_function_spec(a), parse_function_spec(b)) for a, b in config.function_pairs),
        tol=config.tol,
        t_grid=config.t_grid,
    )
    # registry order, whatever the order of config.checks
    active = [(name, entry) for name, entry in CHECKS.items() if name in config.checks]
    rows: dict[tuple, list] = {}
    violations: list[dict] = []
    for index in range(config.instances_per_cell):
        derived = derive_seed(config.seed, n, n_obs, kind, index)
        inst = prepare_random(n, n_obs, derived, kind)
        where = f"kind={kind},index={index}"
        for name, entry in active:
            for rep, fl, gl, t in entry(plan, inst, derived):
                if rep.hypothesis_ok:
                    outcome = [int(rep.passed), int(not rep.passed), 0, rep.clamps, rep.margin, where]
                else:
                    outcome = [0, 0, 1, 0, None, ""]
                _add_row(rows.setdefault((name, n, n_obs, fl, gl, t), _empty_row()), outcome)
                if not rep.violated or len(violations) >= VIOLATION_CAP:
                    continue
                violation = {
                    "check": name,
                    "n": n,
                    "N": n_obs,
                    "kind": kind,
                    "index": index,
                    "seed": config.seed,
                    "derived_seed": derived,
                    "f": fl,
                    "g": gl,
                    "t": t,
                    "margin": rep.margin,
                }
                if isinstance(rep, EqualityClassification):
                    violation["verdict"] = rep.verdict
                violations.append(violation)
    return rows, violations


def _cell_entry(args):
    return _run_cell(*args)


def _row_sort_key(key):
    check, n, n_obs, fl, gl, t = key
    return (check, n, n_obs, fl or "", gl or "", -1.0 if t is None else t)


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignReport:
    start = time.perf_counter()
    cells = [(config, n, n_obs, kind) for n in config.dims for n_obs in config.num_obs for kind in config.kinds]
    if workers > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_cell_entry, cells))
    else:
        partials = [_run_cell(*cell) for cell in cells]

    merged: dict[tuple, list] = {}
    violations: list[dict] = []
    for cell_rows, cell_violations in partials:
        for key, row in cell_rows.items():
            _add_row(merged.setdefault(key, _empty_row()), row)
        violations.extend(cell_violations)
    del violations[VIOLATION_CAP:]

    per_check = {c: _empty_row() for c in config.checks}
    rows = []
    worst: dict[str, dict] = {}
    for key in sorted(merged, key=_row_sort_key):
        check, n, n_obs, fl, gl, t = key
        _add_row(per_check[check], merged[key])
        npass, nfail, _, clamps, margin, instance = merged[key]
        rows.append(
            {
                "check": check,
                "n": n,
                "N": n_obs,
                "f": fl,
                "g": gl,
                "t": t,
                "pass": npass,
                "fail": nfail,
                "worst_margin": margin,
                "clamps": clamps,
                "worst_instance": instance,
            }
        )
        if margin is not None and (check not in worst or margin < worst[check]["margin"]):
            worst[check] = {"margin": margin, "n": n, "N": n_obs, "f": fl, "g": gl, "t": t, "instance": instance}
    runtime = time.perf_counter() - start
    return CampaignReport(
        config=config,
        counts={c: dict(zip(COUNT_NAMES, row)) for c, row in per_check.items()},
        rows=rows,
        worst=worst,
        violations=violations,
        runtime=runtime,
    )


def emit_report(report: CampaignReport, fmt: str = "json", path: str | Path | None = None) -> str:
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "n", "N", "f", "g", "t", "pass", "fail", "worst_margin", "clamps"])
        for row in report.rows:
            writer.writerow(
                [
                    row["check"],
                    row["n"],
                    row["N"],
                    row["f"] or "",
                    row["g"] or "",
                    "" if row["t"] is None else f"{row['t']:g}",
                    row["pass"],
                    row["fail"],
                    "" if row["worst_margin"] is None else f"{row['worst_margin']:.12g}",
                    row["clamps"],
                ]
            )
        text = buf.getvalue()
    else:
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text
