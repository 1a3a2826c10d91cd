"""The option surface of ``qfidet``: every parameter that has a default.

An option that no program path sets is a branch that only tests reach.  The
list below is the whole surface; adding an option means adding it here.
"""
from __future__ import annotations

import ast
from pathlib import Path

import qfidet

DEFAULTED = [
    "campaign.run_campaign(workers)",
    "campaign.emit_report(fmt)",
    "campaign.emit_report(path)",
    "cli.main(argv)",
    "cli.run(functions)",
    "cli.run(pairs)",
    "inequalities.prepare_random(kind)",
    "inequalities._report(clamps)",
    "inequalities._report(window)",
    "inequalities.check_main(tol)",
    "inequalities.check_conj1(tol)",
    "inequalities.check_conj2(tol)",
    "inequalities.check_firey(g)",
    "inequalities.check_firey(tol)",
    "inequalities.check_robertson(tol)",
    "inequalities.classify_equality(g)",
    "inequalities.classify_equality(tol)",
    "inequalities.minkowski_firey_selftest(tol)",
    "inequalities.check_metric_contraction(tol)",
    "inequalities.__init__(digest)",
    "io.save_instance(functions)",
    "io.save_instance(pairs)",
    "monotone.make_function(param)",
    "selftest.run_selftest(tol)",
    "states.random_density(kind)",
]


def _defaulted(source: str, module: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults) :] if args.defaults else []
        named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        found += [f"{module}.{getattr(node, 'name', '<lambda>')}({a.arg})" for a in named]
    return found


def test_defaulted_parameters_are_exactly_the_listed_ones():
    found = []
    for path in sorted(Path(qfidet.__file__).parent.glob("*.py")):
        found += _defaulted(path.read_text(), path.stem)
    assert sorted(found) == sorted(DEFAULTED)


def test_the_walk_sees_positional_and_keyword_only_defaults():
    source = "def f(a, b=1, *, c, d=2):\n    pass\ng = lambda x=0: x\n"
    assert _defaulted(source, "m") == ["m.f(b)", "m.f(d)", "m.<lambda>(x)"]
