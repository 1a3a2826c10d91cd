#!/usr/bin/env python3
"""Run one workload of the qfidet verification benchmark.

    python3 bench/run.py --workload default-1w --seed 2026 --seconds 10 --trace 0

prints human-readable metric lines and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The failure
ratio is ``failed / attempted``, in verified instances.  ``--workload all``
runs every workload in both modes, each in its own process, and prints all
metrics together.  Run it from the root of a source checkout; it imports
qfidet from ``src/`` and writes only under ``.bench_out/``.
"""

from __future__ import annotations

import os

# one thread per process, so that no run uses more threads than cores;
# set before numpy is imported, inherited by every process the run starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402


def _print_result(result) -> None:
    for note in result.notes:
        print(f"# {note}")
    for name, metric in result.metrics.items():
        print(f"{name:<48} {metric['value']!r:>24} {metric['unit']}")
    print(f"failed_ratio {result.failed / max(result.attempted, 1)!r} ({result.failed}/{result.attempted} instances)")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in harness.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"## {workload} trace={trace}", flush=True)
            done = subprocess.run(cmd, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print("\n".join(lines), flush=True)
                combined["correct"] = False
                continue
            print("\n".join(lines[:-1]), flush=True)
            last = json.loads(lines[-1])
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            combined["metrics"].setdefault(workload, {}).update(last["metrics"])
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*harness.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        harness.import_qfidet()
        workers = harness.WORKLOADS[args.workload].workers
        meta = harness.metadata(args.workload, args.seed, workers, bool(args.trace))
        print(f"# meta {json.dumps(meta, sort_keys=True)}", flush=True)
        result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SourceMissing as exc:
        print(f"bench: {exc}; run from the root of a qfidet source checkout", file=sys.stderr)
        return 2
    _print_result(result)
    print(result.line(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
