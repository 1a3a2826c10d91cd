"""Verification benchmark for qfidet: workloads, measurement and correctness gate.

The benchmark drives the public API the way ``qfidet verify`` does:
``CampaignConfig`` -> ``run_campaign`` -> ``emit_report("json")``.  It is a
batch job: one driver process runs the campaigns of one workload back to
back (a closed loop of one client) until the requested time is used up.

Untraced runs (``trace=False``) report the end-to-end metrics, scaled to a
reference host speed measured in the same run (``host_kernel``); traced runs
wrap the public functions of six modules (see ``tracer.py``) and report
per-layer metrics.  Every campaign passes the same correctness gate: no
exception, no violation, the expected number of check outcomes, and one
report digest for one seed whatever the worker count.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
POOL_WORKERS = min(2, NPROC)
SETUP_REPEATS = 7

@dataclass(frozen=True)
class Workload:
    why: str
    workers: int
    # CampaignConfig fields other than the seed; the rest keep their defaults
    config: dict = field(default_factory=dict)


WORKLOADS = {
    "default-1w": Workload(
        why="default CampaignConfig (all 7 checks, dims 2-4, N 1-3) on 1 worker: "
        "firey and the dominance hypothesis dominate, linalg sees closed forms",
        workers=1,
        config={"instances_per_cell": 4},
    ),
    "default-2w": Workload(
        why="same config and seed on all cores (at most 2): exercises the process pool, "
        "the 27 cells of uneven cost and the merge; digest must equal default-1w",
        workers=POOL_WORKERS,
        config={"instances_per_cell": 4},
    ),
    "jacobi-heavy": Workload(
        why="1 worker on dims 6,8 and N 4,6 without pairs or firey: Jacobi eigen and "
        "Jacobi determinants dominate, dominance is never called",
        workers=1,
        config={
            "dims": (6, 8),
            "num_obs": (4, 6),
            "instances_per_cell": 2,
            "functions": ("sld", "wy"),
            "function_pairs": (),
            "checks": ("main", "conj1", "robertson", "equality", "contraction"),
        },
    ),
}

END_TO_END = {
    "instances_per_s": "inst/s",
    "checks_per_s": "checks/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for module, names in tracer.TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.self_s"] = "s"
    for n in tracer.EIGEN_SIZES:
        units[f"linalg.hermitian_eigen.n{n}.calls"] = "count"
        units[f"linalg.hermitian_eigen.n{n}.self_s"] = "s"
    for n in tracer.DET_SIZES:
        units[f"linalg.det_real_symmetric.N{n}.calls"] = "count"
        units[f"linalg.det_real_symmetric.N{n}.self_s"] = "s"
    for module in tracer.TRACED:
        units[f"{module}.self_s"] = "s"
    units.update(
        {
            "monotone.dominates.useful_ratio": "ratio",
            "inequalities.check_firey.useful_ratio": "ratio",
            "inequalities.hypothesis_skipped_ratio": "ratio",
            "inequalities.clamped_per_check": "ratio",
            "campaign.instance_ms.p50": "ms",
            "campaign.instance_ms.p99": "ms",
            "campaign.emit_report.bytes": "bytes",
            "campaign.worker_busy_ratio": "ratio",
            "trace_overhead": "ratio",
        }
    )
    return units


class SourceMissing(RuntimeError):
    pass


def import_qfidet():
    """Import the package from ``src/`` of this checkout, never from elsewhere."""
    if not (SRC / "qfidet" / "campaign.py").is_file():
        raise SourceMissing(f"no qfidet sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qfidet.campaign as campaign

    if Path(campaign.__file__).resolve().parent != (SRC / "qfidet").resolve():
        raise SourceMissing(f"qfidet was imported from {campaign.__file__}, not from {SRC}")
    return campaign


def make_config(workload: str, seed: int):
    campaign = import_qfidet()
    return campaign.CampaignConfig(**WORKLOADS[workload].config, seed=seed)


def instances_of(config) -> int:
    return len(config.dims) * len(config.num_obs) * len(config.kinds) * config.instances_per_cell


def outcomes_per_instance(config) -> int:
    """Check outcomes (pass + fail + hypothesis_skipped) one instance must produce."""
    nf, npairs = len(config.functions), len(config.function_pairs)
    per_check = {
        "main": nf,
        "conj1": nf,
        "conj2": npairs,
        "firey": len(config.t_grid) * (nf + npairs),
        "robertson": 1,
        "equality": npairs or 1,
        "contraction": nf,
    }
    return sum(per_check[c] for c in config.checks)


def expected_calls(config) -> dict[str, int]:
    """Exact per-campaign call counts of traced functions that the config implies."""
    from qfidet.monotone import parse_function_spec

    instances = instances_of(config)
    regular_pairs = sum(
        parse_function_spec(f).regular and parse_function_spec(g).regular for f, g in config.function_pairs
    )
    firey = "firey" in config.checks
    per_pair = ("conj2" in config.checks) + (len(config.t_grid) if firey else 0)
    return {
        "inequalities.prepare_random": instances,
        "inequalities.check_firey": instances * len(config.t_grid) * (len(config.functions) + len(config.function_pairs))
        if firey
        else 0,
        "monotone.dominates": instances * regular_pairs * per_pair,
        "campaign.run_campaign": 1,
        "campaign.emit_report": 1,
    }


def report_digest(text: str) -> str:
    """SHA-256 of the deterministic report content: the JSON report without ``runtime``."""
    content = json.loads(text)
    content.pop("runtime", None)
    return hashlib.sha256(json.dumps(content, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


# Seconds one host_kernel() call takes on an idle 2-core Xeon host (the
# one the bounds were set on).  Throughput and set-up times are scaled to
# that host speed; see host_kernel.
HOST_KERNEL_S = 0.05


def host_kernel() -> float:
    """Fixed work in the style of the campaign hot path, independent of qfidet.

    Cyclic Jacobi sweeps over small complex Hermitian matrices: a Python loop
    around tiny numpy operations, which is what a campaign spends its time on.
    Other tenants of a shared host slow this and a campaign alike, by up to
    2x over minutes, so the kernel's time measures the host's speed during a
    run, and dividing by it takes that drift out of the reported rates.
    Returns the kernel's wall time in seconds.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    g = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
    mats = g + np.conj(np.transpose(g, (0, 2, 1)))
    start = time.perf_counter()
    for m in np.tile(mats, (20, 1, 1)):
        a = m.copy()
        for _ in range(3):
            for p in range(3):
                for q in range(p + 1, 4):
                    apq = a[p, q]
                    r = abs(apq)
                    if r < 1e-300:
                        continue
                    theta = 0.5 * math.atan2(2.0 * r, a[q, q].real - a[p, p].real)
                    c, s = math.cos(theta), math.sin(theta)
                    v = np.array([[c * apq / r, s * apq / r], [-s, c]])
                    a[:, [p, q]] = a[:, [p, q]] @ v
                    a[[p, q], :] = v.conj().T @ a[[p, q], :]
    return time.perf_counter() - start


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Outcome:
    """One campaign: timing, gate verdict and report facts."""

    workers: int
    instances: int
    seconds: float = 0.0
    busy_ratio: float = 0.0
    digest: str = ""
    totals: dict = field(default_factory=dict)
    report_bytes: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    @property
    def outcomes(self) -> int:
        return sum(self.totals.get(k, 0) for k in ("pass", "fail", "hypothesis_skipped"))


def run_one(config, workers: int) -> Outcome:
    """Run one campaign as ``qfidet verify`` does and gate its report.

    The timed region is ``run_campaign`` plus ``emit_report``; the digest and
    the checks on the report are made outside it.
    """
    # looked up per call, so that a traced run gets the tracer's wrappers
    from qfidet.campaign import emit_report, run_campaign

    out = Outcome(workers=workers, instances=instances_of(config))
    who = resource.RUSAGE_SELF if workers == 1 else resource.RUSAGE_CHILDREN
    cpu0 = _cpu(who)
    start = time.perf_counter()
    try:
        report = run_campaign(config, workers=workers)
        mid = time.perf_counter()
        cpu1 = _cpu(who)
        text = emit_report(report, "json")
        out.seconds = time.perf_counter() - start
    except Exception:  # an aborted campaign fails every instance it held
        traceback.print_exc()
        out.failed = out.instances
        out.problems.append("campaign raised")
        return out
    out.busy_ratio = (cpu1 - cpu0) / (workers * (mid - start))
    out.digest = report_digest(text)
    out.totals = report.totals()
    out.report_bytes = len(text.encode())
    if out.totals["fail"]:
        violated = {(v["n"], v["N"], v["kind"], v["index"]) for v in report.violations}
        out.failed = max(1, len(violated))
        out.problems.append(f"{out.totals['fail']} violations")
    expected = out.instances * outcomes_per_instance(config)
    if out.outcomes != expected:
        out.failed = out.instances
        out.problems.append(f"{out.outcomes} check outcomes, expected {expected}")
    return out


def gate_digests(outcomes: list[Outcome], reference: str) -> None:
    """Fail every campaign whose digest differs from the reference digest."""
    for o in outcomes:
        if o.digest and o.digest != reference:
            o.failed = o.instances
            o.problems.append(f"digest {o.digest[:12]} != reference {reference[:12]} ({o.workers} workers)")


# Runs in a helper process.  Each line read from stdin asks for one sample:
# "kernel" times one host_kernel() call; "setup" times one fresh interpreter
# that imports qfidet and builds and validates the config.
_HELPER = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from harness import host_kernel
timed = (
    "import json, sys, time\\n"
    "t0 = time.perf_counter()\\n"
    "sys.path.insert(0, sys.argv[1])\\n"
    "from qfidet.campaign import CampaignConfig\\n"
    "CampaignConfig(**json.loads(sys.argv[2]))\\n"
    "print(time.perf_counter() - t0)\\n"
)
for line in sys.stdin:
    if line.strip() == "kernel":
        print(host_kernel(), flush=True)
    else:
        done = subprocess.run([sys.executable, "-c", timed, *sys.argv[2:]], capture_output=True, text=True, check=True)
        print(done.stdout.split()[-1], flush=True)
"""


class HostSampler:
    """Samples the host speed (``host_kernel``) and ``setup_s``.

    ``setup_s`` is the time to import qfidet and build and validate the
    config, in a fresh interpreter started by a helper process.  The helper
    is started before any process pool and reaped only on ``close``, so its
    children stay out of the driver's ``RUSAGE_CHILDREN``, which then holds
    only pool workers.  The kernel runs in the driver, and for a pooled
    workload in the helper at the same time, so that it loads as many cores
    as the workload's campaigns do.
    """

    def __init__(self, config_fields: dict, parallel: int):
        self.parallel = parallel
        self.kernel: list[float] = []
        self.setup: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _HELPER, str(Path(__file__).resolve().parent), str(SRC), json.dumps(config_fields)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def _ask(self, what: str) -> None:
        self._proc.stdin.write(what + "\n")
        self._proc.stdin.flush()

    def _answer(self) -> float:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("sampling helper exited early")
        return float(line)

    def sample(self) -> None:
        """One host-kernel sample (mean over the loaded cores), then one set-up sample."""
        if self.parallel > 1:
            self._ask("kernel")
        times = [host_kernel()]
        if self.parallel > 1:
            times.append(self._answer())
        self.kernel.append(sum(times) / len(times))
        self._ask("setup")
        self.setup.append(self._answer())

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it; ``unknown`` if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(workload: str, seed: int, workers: int, trace: bool) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "trace": trace,
        "nproc": NPROC,
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    notes: list

    def line(self) -> str:
        return json.dumps(
            {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": self.metrics}
        )


def _result(campaigns: list[Outcome], values: dict, units: dict, notes: list) -> Result:
    failed = sum(o.failed for o in campaigns)
    problems = [p for o in campaigns for p in o.problems]
    return Result(
        correct=not problems,
        attempted=sum(o.instances for o in campaigns),
        failed=failed,
        metrics={name: {"value": values[name], "unit": units[name]} for name in units},
        notes=notes + [f"problem: {p}" for p in problems],
    )


def _until(seconds: float):
    """Yield rep numbers until ``seconds`` have passed; always at least one."""
    stop = time.perf_counter() + seconds
    rep = 0
    while rep == 0 or time.perf_counter() < stop:
        yield rep
        rep += 1


def _rate(outcomes: list[Outcome], of=lambda o: o.instances) -> float:
    """Median per-campaign rate over the campaigns that passed the gate."""
    return _median([of(o) / o.seconds for o in outcomes if not o.failed])


def run_untraced(workload: str, seed: int, seconds: float) -> Result:
    """End-to-end metrics: campaigns on the workload's worker count for ``seconds``.

    A set-up sample and a host-kernel sample follow each campaign, so that
    all three spread over the run.  Rates and set-up time are scaled to the
    reference host speed (``host_kernel``); the unscaled medians are noted.
    """
    spec = WORKLOADS[workload]
    config = make_config(workload, seed)
    with HostSampler({**spec.config, "seed": seed}, spec.workers) as host:
        # untimed reference at the other worker count; it also warms the caches
        reference = run_one(config, 2 if spec.workers == 1 else 1)
        timed = []
        for _ in _until(seconds):
            timed.append(run_one(config, spec.workers))
            host.sample()
        while len(host.setup) < SETUP_REPEATS:
            host.sample()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if spec.workers > 1:
            # an upper bound: every worker counted at the largest worker peak
            peak_kb += spec.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    gate_digests(timed, reference.digest)
    speed = HOST_KERNEL_S / _median(host.kernel)
    raw = {
        "instances_per_s": _rate(timed),
        "checks_per_s": _rate(timed, lambda o: o.outcomes),
        "setup_s": _median(host.setup),
    }
    values = {
        "instances_per_s": raw["instances_per_s"] / speed,
        "checks_per_s": raw["checks_per_s"] / speed,
        "setup_s": raw["setup_s"] * speed,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    notes = [
        f"{len(timed)} timed campaigns of {reference.instances} instances on {spec.workers} worker(s), "
        f"reference on {reference.workers}; medians of {len(host.setup)} set-up and host-kernel samples",
        f"host speed {speed:.4f} (host kernel {HOST_KERNEL_S} s / median {_median(host.kernel):.4f} s); "
        f"unscaled: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}",
        f"instances_per_s samples (unscaled): {' '.join(f'{o.instances / o.seconds:.2f}' for o in timed if not o.failed)}",
        f"setup_s samples (unscaled): {' '.join(f'{t:.4f}' for t in host.setup)}",
        f"digest {reference.digest}",
    ]
    return _result([reference] + timed, values, END_TO_END, notes)


def run_traced(workload: str, seed: int, seconds: float, spans_path: Path) -> Result:
    """Per-layer metrics from traced 1-worker campaigns.

    Traced campaigns alternate with untraced ones (for ``trace_overhead``)
    and, on a pooled workload, with pooled ones (for ``worker_busy_ratio``).
    Each traced campaign's spans are aggregated and appended to
    ``spans_path`` after it ends.
    """
    spec = WORKLOADS[workload]
    config = make_config(workload, seed)
    expected = expected_calls(config)
    reference = run_one(config, 1)
    traced, untraced, pooled = [], [], []
    totals: dict = {}
    per_instance: list[float] = []
    trace = tracer.Tracer()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(spans_path, "wt", compresslevel=1) as out:
        out.write(tracer.SPAN_HEADER)
        for rep in _until(seconds):
            with trace:
                campaign = run_one(config, 1)
            firey_interior, pairs = trace.firey_interior, len(trace.dominance_pairs)
            spans = trace.drain()
            traced.append(campaign)
            stats = tracer.self_times(spans)
            for name, want in expected.items():
                got = stats[name]["calls"] if name in stats else 0
                if got != want:
                    campaign.failed = campaign.instances
                    campaign.problems.append(f"{name}.calls = {got}, config implies {want}")
            calls = {k: v["calls"] for k, v in stats.items()}
            if rep == 0:
                first_calls = calls
            elif calls != first_calls:
                campaign.problems.append("traced call counts differ between identical campaigns")
            for key, s in stats.items():
                acc = totals.setdefault(key, {"calls": 0, "self_s": 0.0})
                acc["calls"] += s["calls"]
                acc["self_s"] += s["self_s"]
            per_instance += tracer.instance_ms(spans)
            tracer.write_spans(out, spans, rep)
            untraced.append(run_one(config, 1))
            if spec.workers > 1:
                pooled.append(run_one(config, spec.workers))
    gate_digests(traced + untraced + pooled, reference.digest)

    reps = len(traced)
    empty = {"calls": 0, "self_s": 0.0}
    values: dict = {}
    for module, names in tracer.TRACED.items():
        values[f"{module}.self_s"] = 0.0
        for name in names:
            s = totals.get(f"{module}.{name}", empty)
            values[f"{module}.{name}.calls"] = s["calls"] // reps
            values[f"{module}.{name}.self_s"] = s["self_s"] / reps
            values[f"{module}.self_s"] += s["self_s"] / reps
    reported = {f"linalg.hermitian_eigen.n{n}" for n in tracer.EIGEN_SIZES}
    reported |= {f"linalg.det_real_symmetric.N{n}" for n in tracer.DET_SIZES}
    for key in reported:
        values[f"{key}.calls"] = totals.get(key, empty)["calls"] // reps
        values[f"{key}.self_s"] = totals.get(key, empty)["self_s"] / reps
    unbucketed = sorted(
        k for k in totals if k.startswith(("linalg.hermitian_eigen.", "linalg.det_real_symmetric.")) and k not in reported
    )
    dominance_calls = values["monotone.dominates.calls"]
    firey_calls = values["inequalities.check_firey.calls"]
    outcomes = max(reference.outcomes, 1)
    traced_rate = _rate(traced)
    values.update(
        {
            "monotone.dominates.useful_ratio": pairs / dominance_calls if dominance_calls else 1.0,
            "inequalities.check_firey.useful_ratio": firey_interior / firey_calls if firey_calls else 1.0,
            "inequalities.hypothesis_skipped_ratio": reference.totals.get("hypothesis_skipped", 0) / outcomes,
            "inequalities.clamped_per_check": reference.totals.get("clamped", 0) / outcomes,
            "campaign.instance_ms.p50": tracer.percentile(per_instance, 50),
            "campaign.instance_ms.p99": tracer.percentile(per_instance, 99),
            "campaign.emit_report.bytes": reference.report_bytes,
            "campaign.worker_busy_ratio": _median([o.busy_ratio for o in (pooled or untraced) if not o.failed]),
            "trace_overhead": _rate(untraced) / traced_rate - 1.0 if traced_rate else 0.0,
        }
    )
    notes = [
        f"{reps} traced and {len(untraced)} untraced campaigns of {reference.instances} instances on 1 worker; "
        f"worker_busy_ratio from {len(pooled) or len(untraced)} campaigns on {spec.workers} worker(s)",
        f"calls and self_s are per campaign; instance_ms from {len(per_instance)} instances; spans in {spans_path}",
        f"patched sites: {', '.join(sorted(trace.sites))}",
        f"digest {reference.digest}",
    ]
    if unbucketed:
        notes.append(f"sizes outside the reported buckets: {', '.join(unbucketed)}")
    return _result([reference] + traced + untraced + pooled, values, per_layer_units(), notes)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Result:
    if trace:
        return run_traced(workload, seed, seconds, OUT / f"spans-{workload}.csv.gz")
    return run_untraced(workload, seed, seconds)
