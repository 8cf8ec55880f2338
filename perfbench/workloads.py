"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

A pass is the fixed unit of work a workload repeats in its timed loop. Every
pass of a run repeats identical work on identical inputs, so its output
digest must repeat too. A pass calls ``lap(key)`` after each of its steps;
the laps of a pass are contiguous, so they add up to the pass wall time. Each workload defines its ops (the unit behind
``ops_per_s``) and maps every output check onto an op, so that ``failed``
counts ops whose output was wrong or which raised an undocumented exception.

Why these workloads (one per kind of work the library does):

- ``tower``: traces of nested forms up a compatible sequence at the largest
  sizes the dense code runs; dense Schur complements and the n x n arrays of
  ``energy_measure`` dominate. No ``simulate`` calls.
- ``forms``: a stream of small random networks, each decomposed, traced,
  measured and embedded; per-call overhead on small dense matrices dominates.
  The only workload that uses ``beurling_deny`` and ``gelfand``.
- ``walks``: Monte Carlo estimators of the reversible process; the
  per-trajectory loop dominates and ``trace``/``sequences`` sit idle.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

import netforms as nf

#: Pinned acceptance tolerances the checks use.
COMPAT_RTOL = 1e-9  # check_compatibility, criterion 4
PROFILE_SLACK = 1e-12  # non-decreasing energy profiles, criterion 4
ENERGY_ONE_TOL = 1e-12  # counterexample energy, criterion 7
DECAY_RATIO_TOL = 1e-6  # counterexample mass decay ratio 0.5, criterion 7
RESISTANCE_AGREE = 1e-9  # resistance_matrix vs two-point trace, trace module contract
SE_BAND = 4.0  # Monte Carlo band in standard errors, criterion 9


@dataclass
class PassResult:
    """Outcome of one pass: op counts, the output digest and health values."""

    ops: int
    failed: int
    digest: str
    health: dict = field(default_factory=dict)


def _raises(exc_type, fn, *args) -> bool:
    """True iff ``fn(*args)`` raises the documented exception type.

    Any other exception propagates and fails the op.
    """
    try:
        fn(*args)
    except exc_type:
        return True
    return False


# --------------------------------------------------------------------- tower

GASKET_TOP = 7
DYADIC_TOP = 12
COUNTEREXAMPLE_MIN = 4
PROFILES_PER_SEQUENCE = 4


def setup_tower(seed: int) -> dict:
    """Random top-level functions for the energy profiles."""
    rng = np.random.default_rng([seed, 1])
    n_gasket = 3 * (3**GASKET_TOP + 1) // 2
    n_dyadic = 2**DYADIC_TOP + 1
    return {
        "gasket": rng.standard_normal((PROFILES_PER_SEQUENCE, n_gasket)),
        "dyadic": rng.standard_normal((PROFILES_PER_SEQUENCE, n_dyadic)),
    }


def run_tower(inputs: dict, lap) -> PassResult:
    """Build both towers, check compatibility and profiles, run the decay demo.

    An op is one level pair traced (7 gasket + 12 dyadic). Profile and
    counterexample checks each fail the level pair they are about. Each step
    is a lap.
    """
    digest = hashlib.sha256()
    bad_pairs = set()
    health = {}
    towers = (("gasket", nf.build_sierpinski_gasket, GASKET_TOP), ("dyadic", nf.build_dyadic_interval, DYADIC_TOP))
    for name, build, top in towers:
        seq = build(top)
        lap(f"{name}.build")
        rep = nf.check_compatibility(seq, tol=COMPAT_RTOL)
        rel = rep.deviations / rep.scales
        bad_pairs.update((name, int(n)) for n in np.flatnonzero(rel > COMPAT_RTOL))
        health[f"{name}_max_rel_deviation"] = float(np.max(rel))
        digest.update(rep.deviations.tobytes())
        lap(f"{name}.check")
        for f in inputs[name]:
            prof = nf.energy_profile(seq, f)
            slack = PROFILE_SLACK * max(1.0, float(np.max(np.abs(prof))))
            bad_pairs.update((name, int(n)) for n in np.flatnonzero(np.diff(prof) < -slack))
            digest.update(prof.tobytes())
        del seq
        lap(f"{name}.profile")

    rows = nf.counterexample_demo(DYADIC_TOP, points=(0.0, 0.5, 1.0), n_min=COUNTEREXAMPLE_MIN)
    levels = rows[:, 0].astype(int)
    for lv in levels[np.abs(rows[:, 1] - 1.0) > ENERGY_ONE_TOL]:
        bad_pairs.add(("dyadic", int(lv) - 1))
    ratios = rows[1:, 2] / rows[:-1, 2]
    for lv in levels[1:][np.abs(ratios - 0.5) > DECAY_RATIO_TOL]:
        bad_pairs.add(("dyadic", int(lv) - 1))
    digest.update(rows.tobytes())
    lap("counterexample")
    return PassResult(ops=GASKET_TOP + DYADIC_TOP, failed=len(bad_pairs), digest=digest.hexdigest(), health=health)


# --------------------------------------------------------------------- forms

FORMS_PER_PASS = 500
FORMS_N_RANGE = (10, 60)
#: Input kinds with their shares. The last two take a documented error path.
FORMS_KINDS = (
    ("plain", 0.70),  # connected, killing-free: the full chain
    ("killing", 0.20),  # connected with killing: no resistance queries
    ("disconnected", 0.05),  # SingularBlockError, InfiniteResistanceError
    ("killed_query", 0.05),  # resistance query on a killed network: UnsupportedRegimeError
)


@dataclass(frozen=True)
class FormsInput:
    kind: str
    n: int
    edges: list
    killing: np.ndarray | None
    subset: np.ndarray
    f: np.ndarray
    pair: tuple
    generators: np.ndarray
    mu: np.ndarray


def _tree_plus_extras(rng, vertices: np.ndarray) -> np.ndarray:
    """Random spanning tree of ``vertices`` plus up to as many extra edges.

    Returns the distinct unordered pairs as rows ``(u, v)`` with ``u < v``.
    """
    k = vertices.size
    parents = (rng.random(k - 1) * np.arange(1, k)).astype(int)  # parent of i is in [0, i)
    extra = rng.integers(0, k, size=(int(rng.integers(0, k + 1)), 2))
    extra = extra[extra[:, 0] != extra[:, 1]]
    pairs = vertices[np.concatenate([np.stack([parents, np.arange(1, k)], axis=1), extra])]
    return np.unique(np.sort(pairs, axis=1), axis=0)


def _forms_input(rng) -> FormsInput:
    names = [k for k, _ in FORMS_KINDS]
    kind = names[int(rng.choice(len(names), p=[p for _, p in FORMS_KINDS]))]
    n = int(rng.integers(FORMS_N_RANGE[0], FORMS_N_RANGE[1] + 1))
    if kind == "disconnected":
        split = int(rng.integers(2, n - 1))
        block_a, block_b = np.arange(split), np.arange(split, n)
        pairs = np.concatenate([_tree_plus_extras(rng, block_a), _tree_plus_extras(rng, block_b)])
        subset = np.sort(rng.choice(block_a, size=int(rng.integers(1, split)), replace=False))
        pair = (int(rng.choice(block_a)), int(rng.choice(block_b)))
    else:
        pairs = _tree_plus_extras(rng, rng.permutation(n))
        subset = np.sort(rng.choice(n, size=int(rng.integers(1, n)), replace=False))
        pair = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
    killing = None
    if kind in ("killing", "killed_query"):
        killing = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 2.0, n))
        killing[int(rng.integers(0, n))] = float(rng.uniform(0.1, 2.0))
    m = int(rng.integers(1, n + 1))
    labels = rng.integers(0, m, n)
    generators = np.zeros((int(labels.max()) + 1, n))
    generators[labels, np.arange(n)] = 1.0
    # raw edge list in a random order, as a user would hand it over
    pairs = pairs[rng.permutation(len(pairs))]
    edges = list(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), rng.uniform(0.1, 3.0, len(pairs)).tolist()))
    return FormsInput(
        kind=kind,
        n=n,
        edges=edges,
        killing=killing,
        subset=subset,
        f=rng.uniform(-2.0, 2.0, n),
        pair=pair,
        generators=generators,
        mu=rng.uniform(0.1, 2.0, n),
    )


def setup_forms(seed: int) -> list:
    rng = np.random.default_rng([seed, 2])
    return [_forms_input(rng) for _ in range(FORMS_PER_PASS)]


def forms_op(x: FormsInput, digest) -> bool:
    """One network through the chain; True iff every check passes."""
    ok = True
    A = nf.assemble(nf.Network(x.n, x.edges, x.killing))
    ok &= bool(nf.is_markov(A))
    ok &= np.array_equal(nf.recompose(nf.decompose(A)).matrix, A.matrix)
    a, b = x.pair
    if x.kind == "disconnected":
        ok &= _raises(nf.SingularBlockError, nf.trace, A, x.subset)
        ok &= _raises(nf.InfiniteResistanceError, nf.effective_resistance, A, a, b)
        ok &= _raises(nf.InfiniteResistanceError, nf.resistance_matrix, A)
    else:
        g = nf.harmonic_extension(nf.trace(A, x.subset), x.f[x.subset])
        ok &= np.array_equal(g[x.subset], x.f[x.subset])
        digest.update(g.tobytes())
    digest.update(nf.energy_measure(A, x.f).masses.tobytes())
    if x.kind == "plain":
        R = nf.resistance_matrix(A)
        r = nf.effective_resistance(A, a, b)
        ok &= abs(R[a, b] - r) <= RESISTANCE_AGREE * max(1.0, float(np.max(R)))
        digest.update(R[a].tobytes())
    elif x.kind == "killed_query":
        ok &= _raises(nf.UnsupportedRegimeError, nf.effective_resistance, A, a, b)
        ok &= _raises(nf.UnsupportedRegimeError, nf.resistance_matrix, A)
    emb = nf.embed(nf.AlgebraSpec(range(x.n), x.generators))
    mu = nf.AtomicMeasure(x.mu)
    push = nf.pushforward(mu, emb)
    ok &= push.total == mu.total
    digest.update(push.atoms.tobytes())
    digest.update(nf.transfer_form(A, emb).matrix.tobytes())
    return bool(ok)


def run_forms(inputs: list, lap) -> PassResult:
    """An op is one network through the chain, and one lap."""
    digest = hashlib.sha256()
    failed = 0
    for i, x in enumerate(inputs):
        try:
            ok = forms_op(x, digest)
        except Exception as exc:  # an undocumented exception fails the op
            traceback.print_exc()
            digest.update(type(exc).__name__.encode())
            ok = False
        failed += not ok
        lap(i)
    return PassResult(ops=len(inputs), failed=failed, digest=digest.hexdigest())


# --------------------------------------------------------------------- walks

TRAJECTORIES = 1000
HORIZON = 5.0
KILLING_AT_CORNERS = 1.0


@dataclass(frozen=True)
class WalkCase:
    name: str
    net: object  # netforms.Network
    a: int
    b: int
    x0: int
    hit: float  # analytic P_x0(hit a before b)
    commute: float  # analytic R(a, b) mu(V)
    seeds: tuple  # per-call seeds: hitting, commute, occupation


def _gasket_case(level: int):
    seq = nf.build_sierpinski_gasket(level)
    corners = seq.positions_at_top(0)
    interior = sorted(set(range(seq.networks[-1].n)) - set(corners.tolist()))
    return seq.networks[-1], int(corners[0]), int(corners[1]), interior[0], corners


def setup_walks(seed: int) -> dict:
    """Networks, per-call seeds and the analytic values the checks compare to."""
    rng = np.random.default_rng([seed, 3])
    gaskets = {level: _gasket_case(level) for level in (2, 3)}
    specs = [("path-3", nf.Network(3, [(0, 1, 1.0), (1, 2, 1.0)]), 0, 2, 1)]
    specs += [(f"gasket-{level}", *g[:4]) for level, g in gaskets.items()]
    cases = []
    for name, net, a, b, x0 in specs:
        A = nf.assemble(net)
        hit = float(nf.harmonic_extension(nf.trace(A, [a, b]), [1.0, 0.0])[x0])
        commute = nf.effective_resistance(A, a, b) * net.n  # unit mu
        seeds = tuple(int(s) for s in rng.integers(0, 2**63, size=3))
        cases.append(WalkCase(name, net, a, b, x0, hit, commute, seeds))

    net, _, _, x0, corners = gaskets[2]
    kappa = np.zeros(net.n)
    kappa[corners] = KILLING_AT_CORNERS
    killed = nf.Network(net.vertices, net.edges, kappa)
    # unit mu: the sub-generator is -A, so P(alive at t) = (expm(-t A) 1)(x0)
    alive = sla.expm(-HORIZON * nf.assemble(killed).matrix) @ np.ones(net.n)
    return {
        "cases": cases,
        "killed": killed,
        "killed_x0": x0,
        "killed_fraction": 1.0 - float(alive[x0]),
        "killed_seed": int(rng.integers(0, 2**63)),
    }


def _within_band(est, analytic: float) -> bool:
    return abs(est.value - analytic) <= SE_BAND * est.stderr


def _se_distance(est, analytic: float) -> float:
    return abs(est.value - analytic) / max(est.stderr, 1e-300)


def run_walks(inputs: dict, lap) -> PassResult:
    """An op is one trajectory; a failed check fails that call's trajectories.

    Per pass: three estimators on each of three networks and one killed
    ``simulate``, ten calls of ``TRAJECTORIES`` each.
    """
    digest = hashlib.sha256()
    n = TRAJECTORIES
    failed = 0
    calls = 0
    health = {}
    for case in inputs["cases"]:
        A = nf.assemble(case.net)
        gen = nf.build_generator(A, nf.AtomicMeasure(np.ones(case.net.n)))
        lap(f"{case.name}.generator")
        s_hit, s_com, s_occ = case.seeds
        hit = nf.hitting_probability(gen, case.a, case.b, case.x0, n, seed=s_hit)
        lap(f"{case.name}.hit")
        com = nf.commute_time(gen, case.a, case.b, n, seed=s_com)
        lap(f"{case.name}.commute")
        occ = nf.occupation_check(gen, HORIZON, n, seed=s_occ, x0=case.x0)
        failed += n * (not _within_band(hit, case.hit))
        failed += n * (not _within_band(com, case.commute))
        failed += n * (not (np.isfinite(occ.l1_distance) and abs(np.sum(occ.occupation) - 1.0) <= 1e-9))
        calls += 3
        health[f"{case.name}_hit_se"] = _se_distance(hit, case.hit)
        health[f"{case.name}_commute_se"] = _se_distance(com, case.commute)
        health[f"{case.name}_occupation_l1"] = occ.l1_distance
        for v in (hit.value, hit.stderr, com.value, com.stderr, occ.l1_distance):
            digest.update(np.float64(v).tobytes())
        digest.update(occ.occupation.tobytes())
        lap(f"{case.name}.occupation")

    killed = inputs["killed"]
    gen = nf.build_generator(nf.assemble(killed), nf.AtomicMeasure(np.ones(killed.n)))
    res = nf.simulate(gen, inputs["killed_x0"], HORIZON, n, seed=inputs["killed_seed"])
    kf = nf.Estimate(res.killed_fraction, res.killed_fraction_se)
    failed += n * (not _within_band(kf, inputs["killed_fraction"]))
    calls += 1
    health["killed_fraction_se"] = _se_distance(kf, inputs["killed_fraction"])
    digest.update(res.occupation.tobytes())
    digest.update(np.float64(res.killed_fraction).tobytes())
    lap("killed.simulate")
    return PassResult(ops=n * calls, failed=failed, digest=digest.hexdigest(), health=health)


#: name -> (setup(seed), run_pass(inputs, lap), ops per pass)
WORKLOADS = {
    "tower": (setup_tower, run_tower, GASKET_TOP + DYADIC_TOP),
    "forms": (setup_forms, run_forms, FORMS_PER_PASS),
    "walks": (setup_walks, run_walks, 10 * TRAJECTORIES),
}
