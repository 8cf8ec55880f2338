"""netforms benchmark: one workload per run, end-to-end or traced.

Usage, from the repository root::

    python3 perfbench/run.py --workload tower|forms|walks --seed N --seconds S --trace 0|1

``--workload all`` runs the three one after another, each in a fresh
process, and passes their output through: one command for every metric.

One caller runs closed-loop passes of the workload for ``--seconds`` seconds
in this process, with the BLAS thread count fixed before numpy is imported.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced passes with the same passes run with every layer
function wrapped, and prints the per-layer metrics. The last line of
standard output is the JSON result; the lines before it are a readable
summary and a ``report:`` line carrying the environment stamp, output digest,
health values and the latency percentiles with their sample counts.
See README.md in this directory for the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: BLAS threads for this process and its children, at most ``nproc``.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOAD_NAMES = ("tower", "forms", "walks")

#: Set-up is repeated in this many fresh processes, spread over the timed
#: loop; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: Fewest passes a timed loop runs, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Workloads whose time goes to the interpreter and small numpy calls, as
#: ``reference_loop``'s does; their ``wall_s`` is scaled by the host speed.
SCALED_WORKLOADS = ("forms", "walks")
#: Reference loops timed before each pass of a scaled workload.
REFERENCE_REPS = 3
#: Mean ``reference_loop`` time on a quiet 2-vCPU Intel Xeon VM with Python
#: 3.11.7, numpy 2.4.6 and 1 BLAS thread: the host speed ``wall_s`` is
#: given at.
REFERENCE_S = 0.015


def reference_loop() -> None:
    """Fixed interpreter and small-matrix work that does not touch netforms.

    Its mean time in a run measures how fast the host ran during that run;
    the mix resembles the per-call work of ``forms`` and ``walks``.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    eye = 12.0 * np.eye(12)
    rhs = np.ones(12)
    counts: dict = {}
    for i in range(1500):
        np.linalg.solve(rng.random((12, 12)) + eye, rhs)
        counts[i % 97] = counts.get(i % 97, 0) + i


def time_reference(reps: int) -> list:
    """Seconds of ``reps`` reference loops, one sample each."""
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        reference_loop()
        out.append(time.perf_counter() - t0)
    return out


def percentile(values, q: float) -> float:
    """The q-th percentile with linear interpolation between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_summary(seconds) -> dict:
    """Median and 90th percentile in milliseconds, with the sample count.

    The 90th percentile is reported only with at least 100 samples, so that
    ten samples lie beyond it.
    """
    ms = [1e3 * s for s in seconds]
    out = {"samples": len(ms), "op_p50_ms": percentile(ms, 50)}
    if len(ms) >= 100:
        out["op_p90_ms"] = percentile(ms, 90)
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
    }


def set_up(workload: str, seed: int):
    """Import the library and generate the workload inputs; returns (seconds, inputs, run_pass, ops)."""
    t0 = time.perf_counter()
    import workloads  # imports numpy, scipy and netforms

    setup, run_pass, ops = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    return time.perf_counter() - t0, inputs, run_pass, ops


def setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]


class Laps:
    """Contiguous lap times of one pass, keyed by step."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.times: dict = {}
        self._last = clock()

    def __call__(self, key) -> None:
        now = self.clock()
        self.times[key] = now - self._last
        self._last = now


def run_passes(run_pass, inputs, ops: int, seconds: float, min_passes: int, wrap=contextlib.nullcontext,
               before_pass=None):
    """Closed loop of passes; returns [(wall_s, laps, PassResult)].

    Runs passes until their wall times add up to ``seconds`` and at least
    ``min_passes`` are done. ``before_pass(loop_s)``, if given, runs between
    passes with the pass wall time so far; its own time is not counted. A
    pass that raises fails all of its ops.
    """
    from workloads import PassResult

    clock = time.perf_counter
    out = []
    loop_s = 0.0
    while len(out) < min_passes or loop_s < seconds:
        if before_pass is not None:
            before_pass(loop_s)
        t0 = clock()
        laps = Laps(clock)
        try:
            with wrap():
                res = run_pass(inputs, laps)
        except Exception:
            traceback.print_exc()
            res = PassResult(ops=ops, failed=ops, digest="error")
        wall = clock() - t0
        loop_s += wall
        out.append((wall, laps.times, res))
    return out


def layer_metrics(rec, traced: list, plain: list) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    from spans import FUNCTION_GROUPS, LAYERS

    passes = len(traced)
    m = {}
    for layer in LAYERS:
        calls, self_s = rec.layer_totals(layer)
        m[f"{layer}.calls"] = (calls / passes, "count")
        m[f"{layer}.self_s"] = (self_s / passes, "s")
    m["network.components.calls"] = (rec.calls("network.components") / passes, "count")
    for key, fnames in FUNCTION_GROUPS.items():
        layer = key.split(".", 1)[0]
        m[f"{key}.self_s"] = (sum(rec.self_s(f"{layer}.{f}") for f in fnames) / passes, "s")
    c = rec.counters
    for key in ("trace.interior_n", "trace.documented_errors", "sequences.levels_checked", "energy.vertices", "simulate.trajectories"):
        m[key] = (c.get(key, 0) / passes, "count")
    requests = c.get("sequences.form_requests", 0)
    m["sequences.assemble_per_form"] = (c.get("sequences.form_assemblies", 0) / requests if requests else 0.0, "ratio")
    sim_self = m["simulate.self_s"][0]
    m["simulate.traj_per_s"] = (m["simulate.trajectories"][0] / sim_self if sim_self else 0.0, "1/s")
    m["bench.self_s"] = (rec.self_s("bench.pass") / passes, "s")
    m["tracing.wall_s"] = (sum(w for w, _, _ in traced) / passes, "s")
    m["tracing.overhead_ratio"] = (m["tracing.wall_s"][0] / statistics.fmean(w for w, _, _ in plain) - 1.0, "ratio")
    return m


def run_child(args, workload: str) -> int:
    """Run one workload in a fresh process; its output passes through."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    return subprocess.run(cmd).returncode


def summarize(results) -> tuple[int, int, list]:
    attempted = sum(r.ops for *_, r in results)
    failed = sum(r.failed for *_, r in results)
    return attempted, failed, sorted({r.digest for *_, r in results})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "netforms" / "__init__.py").is_file():
        print(f"perfbench: netforms sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return max(run_child(args, name) for name in WORKLOAD_NAMES)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [str(HERE), str(SRC)]

    if args.setup_only:
        seconds, *_ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": seconds}))
        return 0

    _, inputs, run_pass, ops = set_up(args.workload, args.seed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": environment()}

    if args.trace:
        from spans import Recorder, instrumented

        # untraced and traced passes alternate, so that both see the same host
        rec = Recorder()
        plain, traced = [], []
        start = time.perf_counter()
        while len(plain) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            plain += run_passes(run_pass, inputs, ops, 0, 1)
            with instrumented(rec):
                traced += run_passes(run_pass, inputs, ops, 0, 1, wrap=lambda: rec.span("bench.pass", "bench"))
        results, untraced = plain + traced, plain
        m = layer_metrics(rec, traced, plain)
        layers_s = sum(v for k, (v, _) in m.items() if k.endswith(".self_s") and k.count(".") == 1)
        report["unaccounted_s"] = m["tracing.wall_s"][0] - layers_s
    else:
        setups, refs = [], []

        def between_passes(loop_s: float) -> None:
            # the reference loop before every pass, and fresh-process set-ups
            # spread evenly over the timed loop, so that both see the same
            # host as the passes
            if args.workload in SCALED_WORKLOADS:
                refs.extend(time_reference(REFERENCE_REPS))
            if len(setups) < SETUP_SAMPLES and len(setups) * args.seconds <= loop_s * SETUP_SAMPLES:
                setups.append(setup_sample(args.workload, args.seed))

        results = untraced = run_passes(run_pass, inputs, ops, args.seconds, MIN_PASSES, before_pass=between_passes)
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(args.workload, args.seed))
        walls = [w for w, _, _ in results]
        # The host's speed drifts, within a run and between runs. The mean
        # reference loop of the run measures it, and the pass time of a
        # scaled workload is given at the speed at which that loop takes
        # REFERENCE_S.
        scale = REFERENCE_S / statistics.fmean(refs) if refs else 1.0
        wall = statistics.fmean(walls) * scale
        m = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (ops / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report["host_scale"] = scale
        report["setup_samples_s"] = setups
        report["pass_walls_s"] = walls
        report["mean_pass_wall_s"] = statistics.fmean(walls)
        if refs:
            report["mean_reference_s"] = statistics.fmean(refs)

    attempted, failed, digests = summarize(results)
    report.update(
        passes=len(results),
        ops_per_pass=ops,
        fail_ratio=failed / attempted,
        digest=digests[0] if len(digests) == 1 else digests,
        health=results[-1][2].health,
    )
    if args.workload == "forms":
        report.update(latency_summary([s for _, t, _ in untraced for s in t.values()]))
    correct = failed == 0 and len(digests) == 1

    for name, (value, unit) in m.items():
        print(f"{args.workload:6s} {name:34s} {value:14.6g} {unit}")
    print(f"{args.workload:6s} {'fail_ratio':34s} {failed / attempted:14.6g} ratio ({failed}/{attempted})")
    for key in ("op_p50_ms", "op_p90_ms"):
        if key in report:
            print(f"{args.workload:6s} {key:34s} {report[key]:14.6g} ms (n={report['samples']})")
    print("report: " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
