"""Verification campaigns over derived-seed random instances.

Every instance is generated from hash(seed, n, N, kind, index), so any cell or
single instance reproduces in isolation.  A work item is a block of up to
``BLOCK_INSTANCES`` consecutive instances of one (n, N) in (kind, index) order,
which may span kinds: it is drawn, evaluated and tallied on its own.  The config
fixes, before the first instance is drawn, the (check, f, g, t) of every outcome
of an instance: the plan and this layout, bound to the check functions, are
built once per campaign and once per started process, and a block returns one
tally row per layout entry, in layout order and with no keys.  On more than one
process, the campaign's own takes blocks beside the ones it starts, each drawing
the next block index from one shared counter.  The merge adds the blocks of one
(n, N) row by row in (kind, index) order, so the report is identical for any
worker count and block size, and writes the rows through a permutation of the
layout sorted once, in (check, n, N, f, g, t) order.  An instance draws from one
generator of its derived seed; the block forms, checks, eigensolves and rotates
all at once, evaluates what the active checks read as stacks, and the outcomes
read memos: a pencil outcome holds the memo row it was judged from.
The JSON report is the source of truth; CSV is a flattened view with one row per
(check, n, N, f, g, t), aggregated over kinds and instances.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from itertools import chain, groupby, product
from operator import itemgetter
from pathlib import Path

from .inequalities import (
    EqualityClassification,
    InstanceBlock,
    check_conj1,
    check_conj2,
    check_firey,
    check_main,
    check_robertson,
    classify_equality,
    contraction_report,
    fill_contraction,
    prepare_random,
)
from .monotone import MonotoneFunction, checked_spec, parse_function_spec
from .states import STATE_KINDS, derive_seed

REPORT_VERSION = "qfi-report/5"
VIOLATION_CAP = 100
COUNT_NAMES = ("pass", "fail", "hypothesis_skipped", "clamped")
DEFAULT_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
# instances of one (n, N), of any kinds, in one stack and one work item; it bounds the stacks' memory.
# On the default grid at 1000 instances per cell (1 worker, 2-core AMD EPYC), 16 ran as fast as 32,
# 64 or 128 with the least memory of them; whole cells doubled the peak RSS.
BLOCK_INSTANCES = 16


class ConfigError(ValueError):
    pass


class CampaignProcessError(RuntimeError):
    """A process that a campaign started exited without sending its blocks' results."""


@dataclass(frozen=True)
class CheckPlan:
    """What the checks of one instance range over.

    ``layout`` lists the (check, f, g, t) of every outcome, fixed by the plan
    before any instance is drawn; ``bind`` gives each entry the function and
    arguments of its outcome on an instance.  ``evaluate`` fills, for a block of
    instances, what the outcomes read.
    """

    functions: tuple[MonotoneFunction, ...]
    pairs: tuple[tuple[MonotoneFunction, MonotoneFunction], ...]
    tol: float
    t_grid: tuple[float, ...] = ()

    def layout(self, names) -> list[tuple]:
        """(check, f, g, t) of each outcome of the checks in ``names``, in registry order."""
        unit = [(f, None, None) for f in self.functions]
        pairs = [(f, g, None) for f, g in self.pairs]
        ranges = {
            "main": unit,
            "conj1": unit,
            "conj2": pairs,
            "firey": [(f, g, t) for t in self.t_grid for f, g, _ in unit + pairs],
            "robertson": [(None, None, None)],
            "equality": pairs or unit[:1],
            "contraction": unit,
        }
        return [(name, *entry) for name in CHECK_NAMES if name in names for entry in ranges[name]]

    def bind(self, layout) -> list[tuple]:
        """Each (check, f, g, t) of ``layout`` as (check, f, g, t, function, arguments), where
        ``function(inst, *arguments)`` is the outcome on an instance and ``function`` is looked up
        by its module name now, so that a replaced ``campaign.check_main`` (a test double, a tracer)
        is the one called."""
        scope, tol = globals(), self.tol
        checks = {name: (scope[function], arguments) for name, (function, arguments) in CHECKS.items()}
        bound = []
        for name, f, g, t in layout:
            function, arguments = checks[name]
            bound.append((name, f, g, t, function, arguments(f, g, t, tol)))
        return bound

    def evaluate(self, instances, names) -> None:
        """Evaluate as stacks over ``instances`` what the checks in ``names`` read, and nothing
        else, so that their outcomes only read memos."""
        unit = [(f, None) for f in self.functions]
        equality = [h for pair in self.pairs or unit[:1] for h in pair if h is not None]
        reads = {"main": ["cov", *self.functions], "robertson": ["cov", "robertson"], "equality": ["cov", *equality]}
        sides = [side for name in CHECK_NAMES if name in names for side in reads.get(name, ())]
        pencils = (unit if {"conj1", "firey"} & names else []) + (list(self.pairs) if {"conj2", "firey"} & names else [])
        block = InstanceBlock(instances)  # the instances' memos start afresh
        # one determinant call for all, then one for the Firey grid
        block.fill_pencils(pencils, (None, *(self.t_grid if "firey" in names else ())), sides)
        if "equality" in names:
            block.find_structure()
        if "contraction" in names:
            partitions = [inst.partition for inst in instances]
            block.contraction.update(fill_contraction(block.states, block.observables[:, 0], partitions, self.functions))


def _contraction(inst, f, tol):
    return contraction_report(inst.contraction(f), f, inst._block.frame.dim, tol)


# check name -> (the module-level name of the function that gives its outcome on an instance, its
# arguments after the instance from a layout entry's f, g, t and the tolerance), in the order
# checks run; ``CheckPlan.bind`` looks the functions up
CHECKS = {
    "main": ("check_main", lambda f, g, t, tol: (f, tol)),
    "conj1": ("check_conj1", lambda f, g, t, tol: (f, tol)),
    "conj2": ("check_conj2", lambda f, g, t, tol: (f, g, tol)),
    "firey": ("check_firey", lambda f, g, t, tol: (f, t, g, tol)),
    "robertson": ("check_robertson", lambda f, g, t, tol: (tol,)),
    "equality": ("classify_equality", lambda f, g, t, tol: (f, g, tol)),
    "contraction": ("_contraction", lambda f, g, t, tol: (f, tol)),
}
CHECK_NAMES = tuple(CHECKS)


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
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol: must be positive and finite, got {self.tol}")
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
    runtime: float  # seconds; left out of to_dict() so that report files are deterministic
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


def _campaign_plan(config: CampaignConfig) -> tuple:
    """``config`` with its plan and its layout bound by ``CheckPlan.bind``, built once per campaign: the
    specs parse to functions, which hold lambdas and cannot be pickled, so a started process builds its own."""
    plan = CheckPlan(
        functions=tuple(parse_function_spec(s) for s in config.functions),
        pairs=tuple((parse_function_spec(a), parse_function_spec(b)) for a, b in config.function_pairs),
        tol=config.tol,
        t_grid=config.t_grid,
    )
    return config, plan, plan.bind(plan.layout(set(config.checks)))


def _take_blocks(config: CampaignConfig, blocks: list, counter, sender) -> dict:
    """Block index -> (tally, violations), or the exception of a failed block, for each index this process
    draws from the shared ``counter``; a failure moves the counter past the end, so that no process starts
    another block.  A started process builds its own plan and sends the dict through its ``sender``."""
    planned, partials = _campaign_plan(config), {}
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(blocks):
            break
        try:
            partials[k] = _run_block(*planned, *blocks[k])
        except Exception as exc:
            partials[k], counter.value = exc, len(blocks)
    if sender is not None:
        sender.send(partials)
    return partials


def _run_block(
    config: CampaignConfig, plan: CheckPlan, bound: list, n: int, n_obs: int, positions: range
) -> tuple[list, list]:
    """Draw, evaluate and tally the instances at ``positions`` of (n, N), numbered in (kind, index) order:
    one tally row per entry of the ``bound`` layout, in layout order, and the block's violations."""
    # one tally row per layout entry, as every instance has an outcome at each
    tally = [_empty_row() for _ in bound]
    violations: list[dict] = []
    count = config.instances_per_cell
    members = [(config.kinds[k // count], k % count) for k in positions]
    seeds = [derive_seed(config.seed, n, n_obs, kind, index) for kind, index in members]
    block = [prepare_random(n, n_obs, derived, kind) for derived, (kind, _) in zip(seeds, members)]
    plan.evaluate(block, set(config.checks))
    # each layout entry with its check function, arguments and tally row
    outcomes = [(*entry, row) for entry, row in zip(bound, tally)]
    for (kind, index), derived, inst in zip(members, seeds, block):
        where = f"kind={kind},index={index}"
        for name, f, g, t, check, args, row in outcomes:
            rep = check(inst, *args)
            # the tally of _add_row, one outcome at a time
            if not rep.hypothesis_ok:
                row[2] += 1
                continue
            passed = rep.passed
            row[0 if passed else 1] += 1
            row[3] += rep.clamps
            if row[4] is None or rep.margin < row[4]:
                row[4:] = rep.margin, where
            # a violation: the hypothesis held and the bound failed
            if passed or len(violations) >= VIOLATION_CAP:
                continue
            violation = {"check": name, "n": n, "N": n_obs, "kind": kind, "index": index, "seed": config.seed,
                         "derived_seed": derived, "f": f and f.label, "g": g and g.label, "t": t, "margin": rep.margin}
            if isinstance(rep, EqualityClassification):
                violation["verdict"] = rep.verdict
            violations.append(violation)
    return tally, violations


def _run_shared(config: CampaignConfig, blocks: list, processes: int) -> list:
    """The blocks' partials in block order, taken by this process and ``processes - 1`` started ones.
    Once every started process has ended, the exception of the lowest failing block is raised: every
    lower block was drawn earlier and finished, so it is the one a 1-worker run raises."""
    import multiprocessing  # imported here: a 1-worker run never needs it

    counter, children = multiprocessing.Value("i", 0), []
    try:
        for _ in range(processes - 1):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_take_blocks, args=(config, blocks, counter, sender))
            child.start()
            sender.close()  # so that a child which exits without a reply ends its pipe
            children.append((child, receiver))
        partials = _take_blocks(config, blocks, counter, None)
        for child, receiver in children:  # every reply is read before any child is joined
            partials.update(receiver.recv())
        for child, _ in children:
            child.join()
    except BaseException as exc:
        for started, _ in children:
            started.terminate()
            started.join()
        if isinstance(exc, EOFError):
            raise CampaignProcessError(f"a campaign process exited with code {child.exitcode} without a reply") from None
        raise
    failed = [k for k, partial in partials.items() if isinstance(partial, Exception)]
    if failed:
        raise partials[min(failed)]
    return [partials[k] for k in range(len(blocks))]


def run_campaign(config: CampaignConfig, workers: int = 1) -> CampaignReport:
    if workers < 1:
        raise ConfigError(f"workers: must be at least 1, got {workers}")
    start = time.perf_counter()
    span = len(config.kinds) * config.instances_per_cell
    ranges = [range(k, min(k + BLOCK_INSTANCES, span)) for k in range(0, span, BLOCK_INSTANCES)]
    blocks = list(product(config.dims, config.num_obs, ranges))
    # this process and the ones it starts, no more than there are blocks or CPUs
    processes = min(workers, len(blocks), os.cpu_count() or 1)
    planned = _campaign_plan(config)
    if processes > 1:
        partials = _run_shared(config, blocks, processes)
    else:
        partials = [_run_block(*planned, *block) for block in blocks]

    # the blocks of one (n, N) added row by row, in (kind, index) order
    merged: dict[tuple, list] = {}
    violations: list[dict] = []
    for (n, n_obs, _), (tally, block_violations) in zip(blocks, partials):
        cell = merged.setdefault((n, n_obs), tally)
        if cell is not tally:
            for into, row in zip(cell, tally):
                _add_row(into, row)
        violations.extend(block_violations)
    del violations[VIOLATION_CAP:]

    # the report rows in (check, n, N, f, g, t) order: the layout's entries sorted once, each
    # check's entries then written for every (n, N)
    entries = sorted(
        ((name, f and f.label, g and g.label, t, j) for j, (name, f, g, t, *_) in enumerate(planned[2])),
        key=lambda e: (e[0], e[1] or "", e[2] or "", -1.0 if e[3] is None else e[3]),
    )
    per_check = {c: _empty_row() for c in config.checks}
    rows = []
    worst: dict[str, dict] = {}
    for check, group in groupby(entries, key=itemgetter(0)):
        group = list(group)
        for (n, n_obs), cell in sorted(merged.items()):
            for _, fl, gl, t, j in group:
                _add_row(per_check[check], cell[j])
                npass, nfail, _, clamps, margin, instance = cell[j]
                rows.append({"check": check, "n": n, "N": n_obs, "f": fl, "g": gl, "t": t, "pass": npass, "fail": nfail,
                             "worst_margin": margin, "clamps": clamps, "worst_instance": instance})
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


_CONTAINERS = (dict, list, tuple)


def _scalars(items) -> bool:
    """Whether no item is a JSON container, from the set of the items' types."""
    return not any(issubclass(kind, _CONTAINERS) for kind in set(map(type, items)))


def _write_json(value, level: int, out: list) -> None:
    """Append to ``out`` the pieces of ``json.dumps(value, indent=2, sort_keys=True)``'s text for
    ``value`` nested ``level`` deep, from the C encoder: a container of scalars is one call, and so
    is a list of non-empty dicts of scalars (the report's rows and violations), with the indentation
    in the item separator.  Every dict key is a string, as in a report."""
    if not isinstance(value, _CONTAINERS) or not value:
        out.append(json.dumps(value))
        return
    inner, outer = "\n" + "  " * (level + 1), "\n" + "  " * level
    is_dict = isinstance(value, dict)
    if _scalars(value.values() if is_dict else value):
        text = json.dumps(value, separators=("," + inner, ": "), sort_keys=True)
        out += (text[0], inner, text[1:-1], outer, text[-1])
        return
    if not is_dict and all(isinstance(item, dict) and item for item in value):
        if _scalars(chain.from_iterable(map(dict.values, value))):
            deeper = "\n" + "  " * (level + 2)
            text = json.dumps(value, separators=("," + deeper, ": "), sort_keys=True)
            # a JSON string holds no raw newline, so "}," + deeper + "{" only ever joins two dicts
            text = text.replace("}," + deeper + "{", inner + "}," + inner + "{" + deeper)
            out += ("[", inner, "{", deeper, text[2:-2], inner, "}", outer, "]")
            return
    out.append("{" if is_dict else "[")
    for k, key in enumerate(sorted(value) if is_dict else range(len(value))):
        out.append("," + inner if k else inner)
        if is_dict:
            out.append(json.dumps(key) + ": ")
        _write_json(value[key], level + 1, out)
    out += (outer, "}" if is_dict else "]")


def emit_report(report: CampaignReport, fmt: str = "json", path: str | Path | None = None) -> str:
    """The report as text, written to ``path`` too when one is given.

    JSON is exactly ``json.dumps(report.to_dict(), indent=2, sort_keys=True)`` plus a newline.
    The writer does not call it that way: with an ``indent`` the stdlib runs its pure-Python
    encoder, several times slower than its C encoder on a report's hundreds of rows, so
    ``_write_json`` lays out the same text from C encoder calls.  CSV has one row per report row.
    """
    if fmt == "json":
        pieces: list[str] = []
        _write_json(report.to_dict(), 0, pieces)
        pieces.append("\n")
        text = "".join(pieces)  # the one copy of the whole text
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "n", "N", "f", "g", "t", "pass", "fail", "worst_margin", "clamps"])
        for row in report.rows:
            t, margin = row["t"], row["worst_margin"]
            t, margin = "" if t is None else f"{t:g}", "" if margin is None else f"{margin:.12g}"
            labels = [row["check"], row["n"], row["N"], row["f"] or "", row["g"] or "", t]
            writer.writerow([*labels, row["pass"], row["fail"], margin, row["clamps"]])
        text = buf.getvalue()
    else:
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text
