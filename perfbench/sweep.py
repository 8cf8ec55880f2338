"""On-demand scale sweep of the sequence layer; not part of the timed runs.

Each level runs in a fresh child process that first limits its own address
space, so a dense allocation too large for the limit is recorded as a failed
level instead of crashing the sweep or the machine. For every level the
sweep records the wall time of ``check_compatibility`` (build included), of
``counterexample_demo`` over levels 4..L on the dyadic tower, and the child's
peak RSS. Dyadic level 14 needs a 2 GiB dense array and is expected to
fail under the limit. Usage, from the repository root::

    python3 perfbench/sweep.py

Prints one JSON line per level, then a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

from run import BLAS_ENV, BLAS_THREADS, SRC

#: Levels swept per tower; dyadic 14 is the known dense failure level.
LEVELS = {"dyadic": range(8, 15), "gasket": range(4, 9)}
#: Address-space limit of each child.
LIMIT_BYTES = 3 * 2**30
COUNTEREXAMPLE_MIN = 4
CHILD_TIMEOUT_S = 900


def child(kind: str, level: int) -> dict:
    """Runs in the child: set the limit, then time the sequence layer."""
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT_BYTES, LIMIT_BYTES))
    sys.path.insert(0, str(SRC))
    import numpy as np

    import netforms as nf

    out = {"kind": kind, "level": level}
    try:
        t0 = time.perf_counter()
        seq = nf.build_dyadic_interval(level) if kind == "dyadic" else nf.build_sierpinski_gasket(level)
        out["n"] = seq.networks[-1].n
        rep = nf.check_compatibility(seq)
        out["check_s"] = time.perf_counter() - t0
        out["ok"] = rep.ok
        out["max_rel_deviation"] = float(np.max(rep.deviations / rep.scales))
        del seq, rep
        if kind == "dyadic":
            t0 = time.perf_counter()
            nf.counterexample_demo(level, n_min=COUNTEREXAMPLE_MIN)
            out["counterexample_s"] = time.perf_counter() - t0
    except MemoryError as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def run_level(kind: str, level: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", kind, str(level)]
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in BLAS_ENV})
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "level": level, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        tail = res.stderr.strip().splitlines()[-1:] or [""]
        return {"kind": kind, "level": level, "error": f"child exited with {res.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def _cell(row: dict, key: str, fmt: str) -> str:
    return format(row[key], fmt) if key in row else "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--child", nargs=2, metavar=("KIND", "LEVEL"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "netforms" / "__init__.py").is_file():
        print(f"sweep: netforms sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(child(args.child[0], int(args.child[1]))))
        return 0

    rows = []
    for kind, levels in LEVELS.items():
        for level in levels:
            row = run_level(kind, level)
            print(json.dumps(row), flush=True)
            rows.append(row)

    print(f"\naddress-space limit per child: {LIMIT_BYTES / 2**30:g} GiB, BLAS threads {BLAS_THREADS}\n")
    print("| tower | level | n | check_compatibility s | counterexample_demo s | peak RSS MB | max rel dev | failure |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for r in rows:
        print(
            f"| {r['kind']} | {r['level']} | {r.get('n', '-')} | {_cell(r, 'check_s', '.3f')} "
            f"| {_cell(r, 'counterexample_s', '.3f')} | {_cell(r, 'peak_rss_mb', '.0f')} "
            f"| {_cell(r, 'max_rel_deviation', '.1e')} | {r.get('error', '')} |"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
