"""Command-line front end.

Exit codes: 0 on success, 1 on validation errors (bad files, bad flags, bad
queries, memory running out), 2 on numerical failures (singular solves, infinite resistance,
tolerance breaches). Failures emit a machine-readable JSON object on stderr.
All floating-point output uses 17-significant-digit round-trippable
formatting, commands never mutate their inputs, and identical inputs produce
byte-identical outputs. NO_COLOR is respected trivially: output is never
colored.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

from . import acceptance
from .beurling_deny import decompose
from .energy import counterexample_demo, energy_measure
from .errors import NumericalError, ValidationError
from .gelfand import (
    AlgebraSpec,
    embed,
    l2_isometry_check,
    pushforward,
    spectrum_closure_estimate,
    vanishes_nowhere,
)
from .network import COMPAT_RELTOL, AtomicMeasure, Network, assemble, form_to_csv, is_markov
from .network import _json_object, _matrix_csv, _read_json, _writing
from .sequences import (
    build_dyadic_interval,
    build_sierpinski_gasket,
    check_compatibility,
    energy_profile,
    load_sequence,
    save_sequence,
)
from .simulate import build_generator, commute_time, hitting_probability, occupation_check
from .svg import polyline_plot
from .trace import effective_resistance, resistance_matrix, trace

__all__ = ["main", "run"]

#: Largest ``sim --n``: about 100 s at the roughly 1e5 trajectories/s the
#: simulator runs on small networks. The library functions take any count.
MAX_SIM_TRAJECTORIES = 10**7


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _load_network(path) -> Network:
    return Network.from_dict(_read_json(path))


def _load_vector(path) -> np.ndarray:
    try:
        lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
        return np.array([float(v) for v in lines])
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except ValueError as e:
        raise ValidationError(f"malformed vector CSV in {path}: {e}") from None


def _load_measure(path, n: int) -> AtomicMeasure:
    data = _read_json(path)
    if isinstance(data, dict) and "weights" in data:
        data = data["weights"]
    mu = AtomicMeasure(data)
    if mu.n != n:
        raise ValidationError(f"measure in {path} has {mu.n} weights, expected {n}")
    return mu


def _emit(text: str, output) -> None:
    if output:
        with _writing(output) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _outdir(path) -> Path:
    """The output directory, created if missing; a file in its place raises ValidationError."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot create directory {path}: {e}") from None
    return out


def _json_out(obj, output) -> None:
    _emit(json.dumps(obj, indent=1) + "\n", output)


def _parse_indices(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValidationError(f"expected a comma-separated index list, got {text!r}") from None


# ---------------------------------------------------------------- commands


def cmd_net_validate(args):
    net = _load_network(args.file)
    report = is_markov(assemble(net))
    print(f"ok: {net.n} vertices, {len(net.edges)} edges, markov={bool(report)}")
    return 0


def cmd_net_assemble(args):
    A = assemble(_load_network(args.file))
    _emit(form_to_csv(A), args.output)
    return 0


def cmd_trace(args):
    A = assemble(_load_network(args.net))
    tr = trace(A, _parse_indices(args.subset))
    _emit(form_to_csv(tr.traced_form), args.output)
    return 0


def cmd_resistance(args):
    A = assemble(_load_network(args.net))
    if args.pairs == "all":
        _emit(_matrix_csv(resistance_matrix(A)), args.output)
    else:
        idx = _parse_indices(args.pairs)
        if len(idx) != 2:
            raise ValidationError(f"--pairs expects 'all' or 'x,y', got {args.pairs!r}")
        _emit(_fmt(effective_resistance(A, idx[0], idx[1])) + "\n", args.output)
    return 0


def cmd_decompose(args):
    d = decompose(assemble(_load_network(args.net)))
    _json_out(d.to_dict(), args.output)
    return 0


def cmd_seq_build(args):
    if args.kind == "dyadic":
        seq = build_dyadic_interval(args.levels)
    else:
        seq = build_sierpinski_gasket(args.levels, factor=args.factor, calibrate=args.calibrate)
    if args.output:
        save_sequence(seq, args.output)
        print(f"wrote {args.output}: {seq.levels} levels, top size {seq.networks[-1].n}")
    else:
        from .sequences import sequence_to_dict

        _json_out(sequence_to_dict(seq), None)
    return 0


def cmd_seq_check(args):
    seq = load_sequence(args.file)
    rep = check_compatibility(seq, tol=args.tol)
    for n, (dev, scale) in enumerate(zip(rep.deviations, rep.scales)):
        print(f"level {n} -> {n + 1}: deviation {_fmt(dev)} (scale {_fmt(scale)})")
    if not rep.ok:
        raise NumericalError(
            f"sequence is incompatible at tolerance {args.tol}: max relative deviation "
            f"{_fmt(float(np.max(rep.deviations / rep.scales)))}"
        )
    print("compatible")
    return 0


def cmd_seq_profile(args):
    seq = load_sequence(args.file)
    prof = energy_profile(seq, _load_vector(args.f))
    _emit("level,energy\n" + "".join(f"{n},{_fmt(e)}\n" for n, e in enumerate(prof)), args.output)
    return 0


def cmd_gelfand_embed(args):
    spec = _load_algebra(args.spec)
    emb = embed(spec, tol=args.tolerance)
    _json_out(
        {
            "images": [[float(v) for v in row] for row in emb.images],
            "classes": emb.classes,
            "separated": emb.separated,
            "vanishes_nowhere": bool(vanishes_nowhere(spec)),
        },
        args.output,
    )
    return 0


def _load_algebra(path) -> AlgebraSpec:
    d = _read_json(path)
    _json_object(d, "algebra", "points", "generators")
    return AlgebraSpec(d["points"], d["generators"])


def cmd_gelfand_pushforward(args):
    spec = _load_algebra(args.spec)
    emb = embed(spec, tol=args.tolerance)
    mu = _load_measure(args.mu, spec.n_points)
    push = pushforward(mu, emb)
    _json_out(
        {
            "atoms": [float(a) for a in push.atoms],
            "total": push.total,
            "classes": emb.classes,
        },
        args.output,
    )
    return 0


def cmd_gelfand_isometry(args):
    spec = _load_algebra(args.spec)
    emb = embed(spec, tol=args.tolerance)
    mu = _load_measure(args.mu, spec.n_points)
    lhs, rhs, diff = l2_isometry_check(_load_vector(args.f), mu, emb)
    _json_out({"lhs": lhs, "rhs": rhs, "difference": diff}, args.output)
    return 0


def cmd_gelfand_closure(args):
    est = spectrum_closure_estimate(_load_algebra(args.spec), args.epsilon)
    _json_out(
        {
            "net_points": [[float(v) for v in row] for row in est.net_points],
            "flagged": [bool(f) for f in est.flagged],
            "counts": [int(c) for c in est.counts],
        },
        args.output,
    )
    return 0


def cmd_gamma(args):
    A = assemble(_load_network(args.form))
    gamma = energy_measure(A, _load_vector(args.f))
    _emit(
        "vertex,mass\n" + "".join(f"{i},{_fmt(m)}\n" for i, m in enumerate(gamma.masses)),
        args.output,
    )
    return 0


def cmd_demo_counterexample(args):
    try:
        points = tuple(float(tok) for tok in args.set.split(",") if tok != "")
    except ValueError:
        raise ValidationError(f"--set expects comma-separated numbers, got {args.set!r}") from None
    outdir = _outdir(args.outdir)
    rows = counterexample_demo(args.levels, points=points, n_min=args.min_level)
    csv = "level,energy,gamma_mass\n" + "".join(
        f"{int(n)},{_fmt(e)},{_fmt(g)}\n" for n, e, g in rows
    )
    _emit(csv, outdir / "counterexample.csv")
    svg = polyline_plot(
        rows[:, 0],
        np.log10(rows[:, 2]),
        title="energy-measure mass of a fixed point set",
        xlabel="level",
        ylabel="log10 mass",
    )
    _emit(svg, outdir / "counterexample.svg")
    print(f"wrote {outdir / 'counterexample.csv'} and {outdir / 'counterexample.svg'}")
    return 0


def cmd_sim(args):
    if not 1 <= args.n <= MAX_SIM_TRAJECTORIES:
        raise ValidationError(f"--n must be between 1 and {MAX_SIM_TRAJECTORIES}, got {args.n}")
    net = _load_network(args.net)
    A = assemble(net)
    mu = _load_measure(args.mu, net.n) if args.mu else AtomicMeasure(np.ones(net.n))
    gen = build_generator(A, mu)
    if args.sim_command == "hit":
        a, b = _parse_two(args.targets, "--targets")
        est = hitting_probability(gen, a, b, args.start, args.n, args.seed)
        out = {"query": "hit", "a": a, "b": b, "start": args.start,
               "estimate": est.value, "stderr": est.stderr}
    elif args.sim_command == "commute":
        x, y = _parse_two(args.pair, "--pair")
        est = commute_time(gen, x, y, args.n, args.seed)
        out = {"query": "commute", "x": x, "y": y, "estimate": est.value, "stderr": est.stderr}
    else:
        res = occupation_check(gen, args.horizon, args.n, args.seed, x0=args.start)
        out = {
            "query": "occupy",
            "l1_distance": res.l1_distance,
            "band": res.band,
            "occupation": [float(v) for v in res.occupation],
            "target": [float(v) for v in res.target],
        }
    out["seed"] = args.seed
    out["n_trajectories"] = args.n
    _json_out(out, args.output)
    return 0


def _parse_two(text, flag):
    idx = _parse_indices(text)
    if len(idx) != 2:
        raise ValidationError(f"{flag} expects two comma-separated indices, got {text!r}")
    return idx[0], idx[1]


#: Environment variables that set the BLAS thread count, as ``env.json`` reports them.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def _environment() -> dict:
    """The environment of a run: usable CPUs, Python, numpy, scipy, the BLAS
    numpy was built with and the BLAS thread variables as set (None when unset)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def cmd_reproduce_all(args):
    outdir = _outdir(args.outdir)
    results = acceptance.run_all(quick=args.quick, gasket_factor=args.gasket_factor)
    lines = [r.line() for r in results]
    table = "\n".join(lines) + "\n"
    _emit(table, outdir / "report.txt")
    _json_out(
        [{"name": r.name, "passed": r.passed, "details": r.details, "seconds": r.seconds} for r in results],
        outdir / "report.json",
    )
    _json_out(_environment(), outdir / "env.json")
    sys.stdout.write(table)
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise NumericalError(f"acceptance criteria failed: {', '.join(failed)}")
    return 0


# ---------------------------------------------------------------- parser


@functools.cache  # argparse parsers are reusable, and building this one dominates a short command
def _build_parser() -> _Parser:
    p = _Parser(prog="netforms", description="Dirichlet and resistance forms on finite networks")
    sub = p.add_subparsers(dest="command", required=True)

    net = sub.add_parser("net", help="network file operations").add_subparsers(dest="net_command", required=True)
    v = net.add_parser("validate", help="validate a network JSON file")
    v.add_argument("file")
    v.set_defaults(func=cmd_net_validate)
    a = net.add_parser("assemble", help="assemble the form matrix as CSV")
    a.add_argument("file")
    a.add_argument("--output")
    a.set_defaults(func=cmd_net_assemble)

    t = sub.add_parser("trace", help="trace a form onto a subset")
    t.add_argument("--net", required=True)
    t.add_argument("--subset", required=True, help="comma-separated vertex indices")
    t.add_argument("--output")
    t.set_defaults(func=cmd_trace)

    r = sub.add_parser("resistance", help="effective resistance")
    r.add_argument("--net", required=True)
    r.add_argument("--pairs", required=True, help="'all' or 'x,y'")
    r.add_argument("--output")
    r.set_defaults(func=cmd_resistance)

    d = sub.add_parser("decompose", help="jump/killing decomposition as JSON")
    d.add_argument("--net", required=True)
    d.add_argument("--output")
    d.set_defaults(func=cmd_decompose)

    seq = sub.add_parser("seq", help="compatible sequences").add_subparsers(dest="seq_command", required=True)
    b = seq.add_parser("build", help="build a standard sequence")
    b.add_argument("kind", choices=["dyadic", "gasket"])
    b.add_argument("--levels", type=int, required=True)
    b.add_argument("--factor", type=float, default=None, help="gasket renormalization factor")
    b.add_argument("--calibrate", action="store_true", help="search the gasket factor numerically")
    b.add_argument("--output")
    b.set_defaults(func=cmd_seq_build)
    c = seq.add_parser("check", help="check trace compatibility")
    c.add_argument("file")
    c.add_argument("--tol", type=float, default=COMPAT_RELTOL)
    c.set_defaults(func=cmd_seq_check)
    pr = seq.add_parser("profile", help="energy profile of a top-level function")
    pr.add_argument("file")
    pr.add_argument("--f", required=True, help="CSV with one value per top-level vertex")
    pr.add_argument("--output")
    pr.set_defaults(func=cmd_seq_profile)

    g = sub.add_parser("gelfand", help="algebra embeddings").add_subparsers(dest="gelfand_command", required=True)
    ge = g.add_parser("embed", help="embed points by generator values")
    ge.add_argument("--spec", required=True)
    ge.add_argument("--tolerance", type=float, default=0.0)
    ge.add_argument("--output")
    ge.set_defaults(func=cmd_gelfand_embed)
    gp = g.add_parser("pushforward", help="push a measure to the quotient")
    gp.add_argument("--spec", required=True)
    gp.add_argument("--mu", required=True)
    gp.add_argument("--tolerance", type=float, default=0.0)
    gp.add_argument("--output")
    gp.set_defaults(func=cmd_gelfand_pushforward)
    gi = g.add_parser("isometry", help="check the L2 isometry for a function")
    gi.add_argument("--spec", required=True)
    gi.add_argument("--mu", required=True)
    gi.add_argument("--f", required=True)
    gi.add_argument("--tolerance", type=float, default=0.0)
    gi.add_argument("--output")
    gi.set_defaults(func=cmd_gelfand_isometry)
    gc = g.add_parser("closure", help="epsilon-net closure estimate")
    gc.add_argument("--spec", required=True)
    gc.add_argument("--epsilon", type=float, required=True)
    gc.add_argument("--output")
    gc.set_defaults(func=cmd_gelfand_closure)

    ga = sub.add_parser("gamma", help="per-vertex energy measure of a function")
    ga.add_argument("--form", required=True, help="network JSON file")
    ga.add_argument("--f", required=True)
    ga.add_argument("--output")
    ga.set_defaults(func=cmd_gamma)

    demo = sub.add_parser("demo", help="scripted demonstrations").add_subparsers(dest="demo_command", required=True)
    ce = demo.add_parser("counterexample", help="energy vs point-set mass decay table")
    ce.add_argument("--levels", type=int, default=12)
    ce.add_argument("--set", default="0,0.5,1")
    ce.add_argument("--min-level", type=int, default=None)
    ce.add_argument("--outdir", default=".")
    ce.set_defaults(func=cmd_demo_counterexample)

    sim = sub.add_parser("sim", help="Markov chain simulation").add_subparsers(dest="sim_command", required=True)
    for name in ("hit", "commute", "occupy"):
        s = sim.add_parser(name)
        s.add_argument("--net", required=True)
        s.add_argument("--mu", default=None)
        s.add_argument("--seed", type=int, required=True)
        s.add_argument("--n", type=int, required=True)
        s.add_argument("--output")
        if name == "hit":
            s.add_argument("--targets", required=True, help="a,b")
            s.add_argument("--start", type=int, required=True)
        elif name == "commute":
            s.add_argument("--pair", required=True, help="x,y")
        else:
            s.add_argument("--horizon", type=float, required=True)
            s.add_argument("--start", type=int, default=0)
        s.set_defaults(func=cmd_sim)

    rep = sub.add_parser("reproduce-all", help="run every acceptance experiment")
    rep.add_argument("--outdir", default="reproduce-out")
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--gasket-factor", type=float, default=None)
    rep.set_defaults(func=cmd_reproduce_all)

    return p


def _error_json(kind: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": str(exc)}}) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as e:
        _error_json("validation", e)
        return 1
    except MemoryError as e:  # an allocation no guard counts, such as reading a file under an address-space limit
        _error_json("validation", ValidationError(f"out of memory: {e}" if str(e) else "out of memory"))
        return 1
    except NumericalError as e:
        _error_json("numerical", e)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
