"""Verification campaigns over derived-seed random instances.

Every instance is generated from hash(seed, n, N, kind, index), so any cell or
single instance reproduces in isolation.  A work item is a block of up to
``BLOCK_INSTANCES`` consecutive instances of one (n, N) in (kind, index) order,
which may span kinds: it is drawn, evaluated and tallied on its own.  The config
fixes, before the first instance is drawn, the (check, f, g, t) of every outcome
of an instance: the plan and this layout, with the check functions, are
built once per campaign and once per started process, and a block returns one
tally row per layout entry, in layout order and with no keys.  On more than one
process, the campaign's own takes blocks beside the ones it starts, each drawing
the next block index from one shared counter.  The merge adds the blocks of one
(n, N) row by row in (kind, index) order, so the report is identical for any
worker count and block size, and writes the rows through a permutation of the
layout sorted once, in (check, n, N, f, g, t) order.  An instance draws from one
generator of its derived seed; the block forms, checks, eigensolves and rotates
all at once, evaluates what the active checks read as stacks, and the outcomes
read memos: each outcome holds the values it was judged from, a pencil outcome
its memo row.
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
from itertools import groupby, product
from operator import itemgetter
from pathlib import Path

import numpy as np

from .inequalities import (
    DEFAULT_TOL,
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
from .monotone import MonotoneFunction, parse_function_spec, read_function_specs, read_sequence, require_distinct
from .states import STATE_KINDS, derive_seed

REPORT_VERSION = "qfi-report/7"
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

    ``layout`` lists every outcome, fixed by the plan before any instance is
    drawn, with the function and arguments that give it on an instance, from the
    rows of ``CHECKS``.  ``evaluate`` builds a block of instances and fills what the
    outcomes read.
    """

    functions: tuple[MonotoneFunction, ...]
    pairs: tuple[tuple[MonotoneFunction, MonotoneFunction], ...]
    tol: float
    t_grid: tuple[float, ...] = ()

    @property
    def unit(self) -> tuple:
        """Each function as the pencil (f, None)."""
        return tuple((f, None) for f in self.functions)

    def layout(self, names) -> list[tuple]:
        """(check, f, g, t, function, arguments) of each outcome of the checks in ``names``, in registry
        order, where ``function(inst, *arguments)`` is the outcome on an instance and ``function`` is looked
        up by its module name now, so that a replaced ``campaign.check_main`` (a test double, a tracer) is
        the one called."""
        scope = globals()
        return [(name, f, g, t, scope[function], arguments) for name, (function, outcomes) in CHECKS.items()
                if name in names for f, g, t, arguments in outcomes(self)]

    def evaluate(self, instances, names) -> None:
        """Build ``instances``, none of which a block has built, as one block, and fill as stacks what the
        checks in ``names`` read, and nothing else, so that their outcomes only read memos: one
        ``fill_pencils`` call, ``find_structure`` and one ``fill_contraction`` call for all the functions.
        A built instance raises the block's ValueError; a key left unfilled fills itself on its first read."""
        equality = [h for pair in self.pairs or self.unit[:1] for h in pair if h is not None]
        reads = {"main": ["cov", *self.functions], "robertson": ["cov", "robertson"], "equality": ["cov", *equality]}
        sides = [side for name in CHECK_NAMES if name in names for side in reads.get(name, ())]
        pencils = (self.unit if {"conj1", "firey"} & names else ()) + (self.pairs if {"conj2", "firey"} & names else ())
        block = InstanceBlock(instances)
        # every determinant and pencil row of the block in one call
        block.fill_pencils(pencils, (None, *(self.t_grid if "firey" in names else ())), sides)
        if "equality" in names:
            block.find_structure()
        if "contraction" in names:
            block.contraction.update(fill_contraction(block.states, block.observables[:, 0], block.partitions, self.functions))


def _contraction(inst, f, tol):
    return contraction_report(inst.contraction(f), f, inst._block.frame.dim, tol)


# check name -> (the module-level name of the function that gives its outcome on an instance, and the
# (f, g, t, arguments after the instance) of each of its outcomes under a plan), in the order checks
# run; firey runs t-major over the functions and then the pairs, and equality over the pairs or,
# without them, the first function.  ``CheckPlan.layout`` looks the functions up
CHECKS = {
    "main": ("check_main", lambda plan: [(f, None, None, (f, plan.tol)) for f in plan.functions]),
    "conj1": ("check_conj1", lambda plan: [(f, None, None, (f, plan.tol)) for f in plan.functions]),
    "conj2": ("check_conj2", lambda plan: [(f, g, None, (f, g, plan.tol)) for f, g in plan.pairs]),
    "firey": ("check_firey", lambda plan: [(f, g, t, (f, t, g, plan.tol)) for t in plan.t_grid for f, g in plan.unit + plan.pairs]),
    "robertson": ("check_robertson", lambda plan: [(None, None, None, (plan.tol,))]),
    "equality": ("classify_equality", lambda plan: [(f, g, None, (f, g, plan.tol)) for f, g in plan.pairs or plan.unit[:1]]),
    "contraction": ("_contraction", lambda plan: [(f, None, None, (f, plan.tol)) for f in plan.functions]),
}
CHECK_NAMES = tuple(CHECKS)


def _number(field: str, value, kind: type):
    """``value`` as ``kind``, int or float.  ConfigError names ``field`` for a boolean (numpy's too), a value that
    is not a number, and a number that is not whole where an int is asked for, which ``kind`` would truncate."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or isinstance(value, (bool, np.bool_)) or (kind is int and number != value):
        raise ConfigError(f"{field}: expected {'an integer' if kind is int else 'a number'}, got {value!r}")
    return number


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
    tol: float = DEFAULT_TOL
    seed: int = 2026
    checks: tuple[str, ...] = CHECK_NAMES

    def __post_init__(self):
        coerce = object.__setattr__
        coerce(self, "dims", tuple(_number("dims", n, int) for n in read_sequence("dims", self.dims, ConfigError)))
        coerce(self, "num_obs", tuple(_number("num_obs", n, int) for n in read_sequence("num_obs", self.num_obs, ConfigError)))
        coerce(self, "instances_per_cell", _number("instances_per_cell", self.instances_per_cell, int))
        functions, pairs = read_function_specs(self.functions, self.function_pairs, "functions", "function_pairs", ConfigError)
        coerce(self, "functions", functions)
        coerce(self, "function_pairs", pairs)
        coerce(self, "kinds", tuple(str(k) for k in read_sequence("kinds", self.kinds, ConfigError)))
        coerce(self, "t_grid", tuple(_number("t_grid", t, float) for t in read_sequence("t_grid", self.t_grid, ConfigError)))
        coerce(self, "tol", _number("tol", self.tol, float))
        coerce(self, "seed", _number("seed", self.seed, int))
        coerce(self, "checks", tuple(str(c) for c in read_sequence("checks", self.checks, ConfigError)))

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
            require_distinct(field, getattr(self, field), getattr(self, field), ConfigError)
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
            "version": REPORT_VERSION,
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
    """``config`` with its plan and that plan's layout, built once per campaign: the
    specs parse to functions, which hold lambdas and cannot be pickled, so a started process builds its own."""
    plan = CheckPlan(
        functions=tuple(parse_function_spec(s) for s in config.functions),
        pairs=tuple((parse_function_spec(a), parse_function_spec(b)) for a, b in config.function_pairs),
        tol=config.tol,
        t_grid=config.t_grid,
    )
    return config, plan, plan.layout(set(config.checks))


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
    config: CampaignConfig, plan: CheckPlan, layout: list, n: int, n_obs: int, positions: range
) -> tuple[list, list]:
    """Draw, evaluate and tally the instances at ``positions`` of (n, N), numbered in (kind, index) order:
    one tally row per entry of the plan's ``layout``, in layout order, and the block's violations."""
    # one tally row per layout entry, as every instance has an outcome at each
    tally = [_empty_row() for _ in layout]
    violations: list[dict] = []
    count = config.instances_per_cell
    members = [(config.kinds[k // count], k % count) for k in positions]
    seeds = [derive_seed(config.seed, n, n_obs, kind, index) for kind, index in members]
    block = [prepare_random(n, n_obs, derived, kind) for derived, (kind, _) in zip(seeds, members)]
    plan.evaluate(block, set(config.checks))
    # each layout entry with its check function, arguments and tally row
    outcomes = [(*entry, row) for entry, row in zip(layout, tally)]
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
            if name == "equality":
                violation["verdict"] = rep.components["verdict"]
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
    # this process and the ones it starts, no more than there are blocks or CPUs it may run on
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    processes = min(workers, len(blocks), cpus)
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


def emit_report(report: CampaignReport, fmt: str = "json", path: str | Path | None = None) -> str:
    """The report as text, written to ``path`` too when one is given.

    JSON is ``json.dumps(report.to_dict(), sort_keys=True, separators=(",\n", ": "))`` plus a
    newline: one object member or array element per line, unindented, from the stdlib's C encoder.
    CSV has one row per report row.
    """
    if fmt == "json":
        text = json.dumps(report.to_dict(), sort_keys=True, separators=(",\n", ": ")) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["check", "n", "N", "f", "g", "t", "pass", "fail", "worst_margin", "clamps"])
        for row in report.rows:
            t, margin = row["t"], row["worst_margin"]
            # repr reads back as the same float, so that no two t values share a cell
            t, margin = "" if t is None else repr(t), "" if margin is None else f"{margin:.12g}"
            labels = [row["check"], row["n"], row["N"], row["f"] or "", row["g"] or "", t]
            writer.writerow([*labels, row["pass"], row["fail"], margin, row["clamps"]])
        text = buf.getvalue()
    else:
        raise ConfigError(f"format: expected json or csv, got {fmt!r}")
    if path is not None:
        Path(path).write_text(text)
    return text
