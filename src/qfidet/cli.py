"""Command line front end: verify, compute, catalog, selftest.

Exit codes: 0 all checks passed, 1 at least one inequality violation, 2 configuration or input
error, 3 numerical invariant failure (a determinant below its clamp window, a determinant of finite
entries that overflows, or a LAPACK eigensolver that did not converge) or a campaign process that
exited without a reply.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .campaign import (
    CHECK_NAMES,
    DEFAULT_T_GRID,
    CampaignConfig,
    CampaignProcessError,
    CheckPlan,
    emit_report,
    run_campaign,
)
from .inequalities import DEFAULT_TOL, PreparedInstance
from .io import load_instance
from .monotone import catalog_families, parse_function_spec
from .selftest import run_selftest
from .states import STATE_KINDS


def _convert(text: str, kind: type):
    """``kind(text)`` for str, int or float; argparse prefixes an error with the option's name."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not {'an integer' if kind is int else 'a number'}: {text!r}") from None


def _tolerance(text: str) -> float:
    """Type of every ``--tol`` option: a finite number above 0."""
    value = _convert(text, float)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text}")
    return value


def _listed(kind: type):
    """Type of an option that lists ``kind`` values (str, int or float), separated by commas."""
    return lambda text: [_convert(part.strip(), kind) for part in text.split(",") if part.strip()]


def _cmd_verify(args) -> int:
    # each verify option is stored under its config field; an option not given keeps the field's default
    config = CampaignConfig(**{f.name: getattr(args, f.name) for f in fields(CampaignConfig) if getattr(args, f.name) is not None})
    report = run_campaign(config, workers=args.workers)
    text = emit_report(report, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    totals = report.totals()
    print(
        f"verify: {totals['pass']} pass, {totals['fail']} fail, "
        f"{totals['hypothesis_skipped']} hypothesis-skipped, "
        f"{totals['clamped']} clamped, {report.runtime:.2f}s",
        file=sys.stderr,
    )
    for violation in report.violations[:10]:
        print(f"violation: {violation}", file=sys.stderr)
    return 0 if report.ok else 1


def _show(rep) -> int:
    """Print one outcome of ``compute``; return 1 if it counts as a failure.  A margin inside its window
    prints as ``within window``: there it is a rounding residue whose digits depend on the BLAS kernel."""
    facts = rep.components
    if rep.name == "equality":
        print(
            f"  equality: verdict={facts['verdict']} det_cov={facts['det_cov']:.12g} "
            f"det_qov_f={facts['det_qov_f']:.12g} det_qov_g={facts['det_qov_g']:.12g} "
            f"consistent={facts['consistent']}"
        )
    else:
        status = "pass" if rep.passed else "FAIL"
        if not rep.hypothesis_ok:
            status = "skipped (dominance hypothesis not met)"
        extras = " ".join(f"{k}={v:.12g}" for k, v in facts.items() if isinstance(v, float))
        window = facts.get("window", rep.tol * rep.scale)  # the contraction's window is its own
        margin = "within window" if abs(rep.margin) <= window else f"{rep.margin:.3e}"
        print(f"  {rep.name}: lhs={rep.lhs:.12g} rhs={rep.rhs:.12g} margin={margin} [{status}]")
        if extras:
            print(f"    {extras}")
    return 1 if rep.violated else 0


def _cmd_compute(args) -> int:
    loaded = load_instance(args.instance)
    inst = PreparedInstance(loaded.state, list(loaded.observables), digest=Path(args.instance).name)
    failures = 0

    def run(checks, functions=(), pairs=()) -> int:
        # each outcome fills what it reads in the one block the instance was built in, and the memos carry over
        plan = CheckPlan(functions=functions, pairs=pairs, tol=args.tol, t_grid=DEFAULT_T_GRID)
        return sum(_show(check(inst, *args)) for *_, check, args in plan.layout(checks))

    print(f"instance {args.instance}: dim={loaded.state.dim}, observables={len(loaded.observables)}")
    print(f"  eigenvalues: {' '.join(f'{v:.6g}' for v in loaded.state.eigenvalues)}")
    for spec in loaded.functions:
        f = parse_function_spec(spec)
        print(f"function {f.label}:")
        failures += run(("main", "conj1", "firey", "contraction"), functions=(f,))
    failures += run(("robertson",))
    for fs, gs in loaded.pairs:
        f, g = parse_function_spec(fs), parse_function_spec(gs)
        print(f"pair ({f.label}, {g.label}):")
        failures += run(("conj2", "firey", "equality"), pairs=((f, g),))
    return 0 if failures == 0 else 1


def _cmd_catalog(args) -> int:
    families = catalog_families()
    for family in families:
        if family["parameter"]:
            family["name"] = f"{family['name']} ({family['parameter']})"
    # each padded column as wide as its widest entry
    w = {key: max(len(family[key]) for family in families) for key in ("name", "formula", "value_at_zero")}
    for family in families:
        line = (
            f"{family['name']:<{w['name']}} f(x) = {family['formula']:<{w['formula']}} "
            f"f(0) = {family['value_at_zero']:<{w['value_at_zero']}} {family['class']}"
        )
        if family["transform"]:
            line += f"  ftilde = {family['transform']}"
        print(line)
    return 0


def _cmd_selftest(args) -> int:
    return 0 if run_selftest(args.tol) else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises on every usage error instead of exiting,
    so that main() reports it like any other input error.  Its subcommand
    parsers are of this class too."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfidet",
        description="Verify determinant bounds between covariance and quantum covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a randomized verification campaign")
    verify.add_argument("--seed", type=lambda text: _convert(text, int), default=None, help="root seed for instance derivation")
    verify.add_argument("--dims", type=_listed(int), default=None, help="comma-separated state dimensions, e.g. 2,3,4")
    verify.add_argument("--num-obs", type=_listed(int), default=None, help="comma-separated observable counts")
    verify.add_argument(
        "--instances", dest="instances_per_cell", type=lambda text: _convert(text, int), default=None, help="instances per (n, N, kind) cell"
    )
    verify.add_argument("--functions", type=_listed(str), default=None, help="comma-separated function specs, e.g. sld,wyd:0.3")
    verify.add_argument(
        "--pairs", dest="function_pairs", type=lambda text: [tuple(spec.strip() for spec in pair.split("/")) for pair in _listed(str)(text)],
        default=None, help="comma-separated f/g pairs, e.g. sld/wy",
    )
    verify.add_argument("--t-grid", type=_listed(float), default=None, help="comma-separated t values in [0,1]")
    verify.add_argument("--tol", type=_tolerance, default=None, help=f"relative tolerance (default {DEFAULT_TOL:g})")
    verify.add_argument("--kinds", type=_listed(str), default=None, help=f"state kinds from: {','.join(STATE_KINDS)}")
    verify.add_argument("--checks", type=_listed(str), default=None, help=f"checks from: {','.join(CHECK_NAMES)}")
    verify.add_argument("--out", default=None, help="write the report to this path")
    verify.add_argument("--format", choices=("json", "csv"), default="json")
    verify.add_argument("--workers", type=lambda text: _convert(text, int), default=1)
    verify.set_defaults(handler=_cmd_verify)

    compute = sub.add_parser("compute", help="run every check on one instance file")
    compute.add_argument("instance", help="path to an instance JSON file")
    compute.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    compute.set_defaults(handler=_cmd_compute)

    catalog = sub.add_parser("catalog", help="list the built-in monotone function families")
    catalog.set_defaults(handler=_cmd_catalog)

    selftest = sub.add_parser("selftest", help="run the hand-derived fixture battery")
    selftest.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (ArithmeticError, np.linalg.LinAlgError, CampaignProcessError) as exc:
        # before ValueError: LinAlgError is one
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, argparse.ArgumentError) as exc:
        # ConfigError, InstanceFormatError and CatalogError are ValueErrors;
        # an OSError is a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
