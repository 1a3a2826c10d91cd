"""What the kernels assume, checked once in the suite instead of on every call.

``hermitian_eigen``, ``det_real_symmetric``, ``det_antisymmetric``,
``pinching`` and ``pair_means`` judge no values: they take each matrix as
finite and Hermitian, symmetric or antisymmetric, each partition as one of
range(n) and each spectrum as finite and at least ``POSITIVITY_FLOOR``, because
their callers build them exactly so (``hermitian_part``, ``0.5 * (raw ± rawᵀ)``,
a symmetric mask, drawn partitions) or judge them at a door (``density_stack``
and ``fill_contraction`` judge every spectrum).  This test wraps the five
kernels in every ``qfidet`` module that holds them and runs the command line
through verify configs of the CI, ``compute`` on both fixtures and
``selftest``, holding every stack to exact equality with its mirror, with no
tolerance, and every spectrum to the floor.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from itertools import chain

import numpy as np

import qfidet.covariance
import qfidet.linalg
import qfidet.states
from qfidet.states import POSITIVITY_FLOOR
from qfidet.cli import main

from conftest import FIXTURES


def _exact(stack, axes, sign=1.0) -> bool:
    """Whether ``stack`` is finite and, bit for bit, ``sign`` times its conjugate with the matrix ``axes`` swapped."""
    stack = np.asarray(stack)
    return bool(np.isfinite(stack).all()) and np.array_equal(stack, sign * np.conj(np.swapaxes(stack, *axes)))


# kernel -> its home module and whether a call's arguments meet what it assumes
KERNELS = {
    "hermitian_eigen": (qfidet.linalg, lambda h: _exact(h, (0, 1))),
    "det_real_symmetric": (qfidet.linalg, lambda m: _exact(m, (0, 1))),
    "det_antisymmetric": (qfidet.linalg, lambda k: _exact(k, (0, 1), -1.0)),
    "pinching": (qfidet.states, lambda x, partitions: _exact(x, (-2, -1))),
    "pair_means": (qfidet.covariance, lambda lambdas, f: bool(np.isfinite(lambdas).all() and (lambdas >= POSITIVITY_FLOOR).all())),
}

# each verify config, as the CI runs it, on the one process whose kernels are wrapped
CONFIGS = {
    "default-json": ["--instances", "2"],
    "determinant-stacks-N4-5": ["--dims", "4,5", "--num-obs", "4,5", "--instances", "3", "--seed", "11"],
    "states-n6-8": ["--dims", "6,8", "--num-obs", "4,6", "--instances", "2", "--functions", "sld,wy", "--pairs", "",
                    "--checks", "main,conj1,robertson,equality,contraction"],
    "pairs-without-dominance": ["--dims", "3", "--num-obs", "1,3", "--instances", "5", "--functions", "sld",
                                "--pairs", "wyd:0.7/sld,kubo-mori/sld"],
}


def _run_everything(tmp_path) -> None:
    for name, args in CONFIGS.items():
        assert main(["verify", *args, "--workers", "1", "--out", str(tmp_path / f"{name}.json")]) == 0, name
    for instance in ("qubit_tight.json", "n4_pair.json"):
        assert main(["compute", str(FIXTURES / instance)]) == 0, instance
    assert main(["selftest"]) == 0


def test_every_kernel_call_takes_finite_exactly_built_matrices_and_valid_partitions(tmp_path, monkeypatch, capsys):
    calls, inexact, partitions = Counter(), Counter(), []  # partitions: (n, partition) of each pinched matrix
    modules = [module for name, module in sys.modules.items() if name.startswith("qfidet.")]
    for name, (home, meets) in KERNELS.items():
        original = getattr(home, name)

        @functools.wraps(original)
        def wrapped(*args, _name=name, _original=original, _meets=meets):
            calls[_name] += 1
            inexact[_name] += not _meets(*args)
            if _name == "pinching":
                partitions.extend((np.shape(args[0])[-1], partition) for partition in args[1])
            return _original(*args)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapped)
    _run_everything(tmp_path)
    capsys.readouterr()
    assert set(calls) == set(KERNELS), calls
    assert +inexact == Counter(), f"inexact calls {dict(+inexact)} of {dict(calls)}"
    invalid = [(n, partition) for n, partition in partitions if sorted(chain.from_iterable(partition)) != list(range(n))]
    assert invalid == [], f"{len(invalid)} of {len(partitions)} partitions do not partition range(n): {invalid[:5]}"
