"""Acceptance experiments with pinned tolerances.

Each criterion function runs one acceptance experiment end to end and reports
pass/fail plus a one-line summary of the observed margins. The pytest
acceptance suite runs them at full size; the command line ``reproduce-all``
can also run a reduced quick profile (smaller counts and statistically wider
bands, same identities).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .beurling_deny import decompose, recompose
from .energy import counterexample_demo, energy_measure, pushforward_gamma
from .gelfand import (
    AlgebraSpec,
    embed,
    l2_isometry_check,
    lift_function,
    pushforward,
    quotient_function,
    transfer_form,
)
from .network import AtomicMeasure, Network, assemble, evaluate, killing_vector, unit_contraction
from .random_networks import random_connected_network, random_markov_form
from .sequences import build_dyadic_interval, build_sierpinski_gasket, check_compatibility, energy_profile
from .simulate import build_generator, commute_time, hitting_probability
from .trace import effective_resistance, harmonic_extension, resistance_matrix, sup_formula_value, trace

__all__ = ["CriterionResult", "run_all"] + [f"criterion_{k}" for k in (
    "markov_contraction", "trace_tower", "resistance_metric", "compatibility",
    "beurling_deny", "energy_measures", "counterexample", "isometry_injection", "process",
)]


@dataclass(frozen=True, eq=False)
class CriterionResult:
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.details}"


def _result(name, t0, passed, details):
    return CriterionResult(name=name, passed=bool(passed), details=details, seconds=time.perf_counter() - t0)


def criterion_markov_contraction(n_forms: int = 1000, n_max: int = 30, seed: int = 101) -> CriterionResult:
    """Unit contraction never increases the energy: E(u clamped) <= E(u) + 1e-12 scale."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(n_forms):
        A = random_markov_form(rng, n_max=n_max)
        u = rng.uniform(-2.0, 3.0, A.n)
        e_u = evaluate(A, u)
        e_bar = evaluate(A, unit_contraction(u))
        tol = 1e-12 * max(1.0, abs(e_u))
        worst = max(worst, (e_bar - e_u) / max(1.0, abs(e_u)))
        if e_bar > e_u + tol:
            return _result("markov contraction", t0, False,
                           f"violated: E(u^)={e_bar!r} > E(u)={e_u!r}")
    return _result("markov contraction", t0, True,
                   f"{n_forms} forms, worst relative excess {worst:.2e} <= 1e-12")


def criterion_trace_tower(n_cases: int = 500, n_max: int = 30, seed: int = 102) -> CriterionResult:
    """trace(trace(A, U2), U1) equals trace(A, U1) entrywise within 1e-9 max|A|."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        net = random_connected_network(rng, n_max=n_max, n_min=3, with_killing=bool(rng.integers(0, 2)))
        A = assemble(net)
        n = A.n
        k2 = int(rng.integers(2, n))
        U2 = np.sort(rng.choice(n, size=k2, replace=False))
        k1 = int(rng.integers(1, k2))
        U1_local = np.sort(rng.choice(k2, size=k1, replace=False))
        U1 = U2[U1_local]
        via_tower = trace(trace(A, U2).traced_form, U1_local).traced_form.matrix
        direct = trace(A, U1).traced_form.matrix
        dev = float(np.max(np.abs(via_tower - direct)))
        tol = 1e-9 * max(1.0, float(np.max(np.abs(A.matrix))))
        worst = max(worst, dev / max(1.0, float(np.max(np.abs(A.matrix)))))
        if dev > tol:
            return _result("trace tower", t0, False, f"deviation {dev!r} exceeds {tol!r}")
    return _result("trace tower", t0, True,
                   f"{n_cases} nested traces, worst relative deviation {worst:.2e} <= 1e-9")


def criterion_resistance_metric(n_networks: int = 200, n_sup: int = 10000, n_max: int = 30, seed: int = 103) -> CriterionResult:
    """Triangle inequality of R and the variational upper bound on 200 networks."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_tri = -np.inf
    worst_sup = -np.inf
    per_net = max(1, n_sup // n_networks)
    for _ in range(n_networks):
        net = random_connected_network(rng, n_max=n_max, with_killing=False)
        A = assemble(net)
        R = resistance_matrix(A)
        scale = max(1.0, float(np.max(R)))
        tol = 1e-9 * scale
        T = R[:, :, None] + R[None, :, :]
        viol = float(np.max(R[:, None, :] - T))
        worst_tri = max(worst_tri, viol / scale)
        if viol > tol:
            return _result("resistance metric", t0, False,
                           f"triangle inequality violated by {viol!r}")
        for _ in range(per_net):
            x, y = rng.choice(A.n, size=2, replace=False)
            u = rng.standard_normal(A.n)
            val = sup_formula_value(A, x, y, u)
            excess = val - R[x, y]
            worst_sup = max(worst_sup, excess / scale)
            if excess > tol:
                return _result("resistance metric", t0, False,
                               f"sup-formula value exceeds R by {excess!r}")
    return _result("resistance metric", t0, True,
                   f"{n_networks} networks: worst triangle excess {worst_tri:.2e}, "
                   f"worst sup excess {worst_sup:.2e} (both <= 1e-9)")


def criterion_compatibility(
    dyadic_levels: int = 12,
    gasket_levels: int = 6,
    n_random_f: int = 100,
    gasket_factor: float | None = None,
    x2_level: int = 8,
    seed: int = 104,
) -> CriterionResult:
    """Builder sequences pass the trace-compatibility check; profiles are monotone."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    dyadic = build_dyadic_interval(dyadic_levels)
    gasket = build_sierpinski_gasket(gasket_levels, factor=gasket_factor)
    msgs = []
    for name, seq in (("dyadic", dyadic), ("gasket", gasket)):
        rep = check_compatibility(seq, tol=1e-9)
        msgs.append(f"{name} max rel dev {np.max(rep.deviations / rep.scales):.2e}")
        if not rep.ok:
            return _result("compatibility and monotonicity", t0, False,
                           f"{name} compatibility deviations {rep.deviations.tolist()} breach 1e-9")
        top_n = seq.networks[-1].n
        for _ in range(n_random_f):
            prof = energy_profile(seq, rng.standard_normal(top_n))
            slack = 1e-12 * max(1.0, float(np.max(np.abs(prof))))
            if np.any(np.diff(prof) < -slack):
                return _result("compatibility and monotonicity", t0, False,
                               f"{name} profile decreased for a random f")

    f_lin = np.array(dyadic.networks[-1].vertices, dtype=float)
    prof_lin = energy_profile(dyadic, f_lin)
    if np.max(np.abs(prof_lin - 1.0)) > 1e-12:
        return _result("compatibility and monotonicity", t0, False,
                       f"linear profile deviates from 1 by {np.max(np.abs(prof_lin - 1.0))!r}")
    prof_sq = energy_profile(dyadic, f_lin * f_lin)
    err_sq = abs(prof_sq[x2_level] - 4.0 / 3.0)
    if err_sq > 1e-2:
        return _result("compatibility and monotonicity", t0, False,
                       f"x^2 energy at level {x2_level} is {prof_sq[x2_level]!r}, off 4/3 by {err_sq!r}")
    msgs.append(f"x^2 level-{x2_level} energy off 4/3 by {err_sq:.2e} <= 1e-2")
    return _result("compatibility and monotonicity", t0, True, "; ".join(msgs))


def criterion_beurling_deny(n_matrices: int = 500, pairs_per_matrix: int = 100, n_max: int = 30, seed: int = 105) -> CriterionResult:
    """Exact decompose/recompose roundtrip and the bilinear jump/killing identity."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_matrices):
        A = random_markov_form(rng, n_max=n_max)
        d = decompose(A)
        if not np.array_equal(recompose(d).matrix, A.matrix):
            return _result("beurling-deny roundtrip", t0, False,
                           "recompose(decompose(A)) differs from A bitwise")
        n = A.n
        F = rng.uniform(-1.5, 1.5, (n, pairs_per_matrix))
        G = rng.uniform(-1.5, 1.5, (n, pairs_per_matrix))
        via_matrix = np.einsum("xk,xy,yk->k", F, A.matrix, G)
        DF = F[:, None, :] - F[None, :, :]
        DG = G[:, None, :] - G[None, :, :]
        via_jump = np.einsum("xy,xyk,xyk->k", d.jump, DF, DG) + np.einsum("x,xk,xk->k", d.kappa, F, G)
        scale = max(1.0, float(np.max(np.abs(A.matrix)))) * n * 1.5 * 1.5
        dev = float(np.max(np.abs(via_matrix - via_jump)))
        worst = max(worst, dev / scale)
        if dev > 1e-12 * scale:
            return _result("beurling-deny roundtrip", t0, False,
                           f"bilinear identity deviates by {dev!r} (scale {scale!r})")
    return _result("beurling-deny roundtrip", t0, True,
                   f"{n_matrices} matrices roundtrip bitwise; worst bilinear rel dev {worst:.2e} <= 1e-12")


def _random_partition_spec(rng: np.random.Generator, n: int) -> AlgebraSpec:
    m = int(rng.integers(1, n + 1))
    labels = rng.integers(0, m, n)
    k = int(np.max(labels)) + 1
    gens = np.zeros((k, n))
    gens[labels, np.arange(n)] = 1.0
    return AlgebraSpec(range(n), gens)


def criterion_energy_measures(n_cases: int = 500, n_quotients: int = 100, n_max: int = 20, seed: int = 106) -> CriterionResult:
    """Defining identity vs closed form, total-mass identity, pushforward consistency."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst_total = 0.0
    for _ in range(n_cases):
        A = random_markov_form(rng, n_max=n_max)
        f = rng.uniform(-2.0, 2.0, A.n)
        gamma = energy_measure(A, f)  # internally cross-asserts closed form vs identity
        kappa = killing_vector(A)
        expect = evaluate(A, f) - 0.5 * float(np.sum(kappa * f * f))
        scale = max(1.0, float(np.max(np.abs(A.matrix)))) * max(1.0, float(np.max(np.abs(f)))) ** 2 * A.n
        dev = abs(gamma.total - expect)
        worst_total = max(worst_total, dev / scale)
        if dev > 1e-12 * scale:
            return _result("energy measures", t0, False,
                           f"total mass {gamma.total!r} != E - kappa-term {expect!r} (dev {dev!r})")
    worst_push = 0.0
    for _ in range(n_quotients):
        net = random_connected_network(rng, n_max=n_max, with_killing=bool(rng.integers(0, 2)))
        A = assemble(net)
        emb = embed(_random_partition_spec(rng, A.n))
        f = lift_function(rng.uniform(-2.0, 2.0, emb.n_classes), emb)
        pushed = pushforward_gamma(energy_measure(A, f), emb)
        direct = energy_measure(transfer_form(A, emb), quotient_function(f, emb))
        scale = max(1.0, float(np.max(np.abs(A.matrix)))) * max(1.0, float(np.max(np.abs(f)))) ** 2 * A.n
        dev = float(np.max(np.abs(pushed.masses - direct.masses)))
        worst_push = max(worst_push, dev / scale)
        if dev > 1e-12 * scale:
            return _result("energy measures", t0, False,
                           f"pushforward consistency deviates by {dev!r}")
    return _result("energy measures", t0, True,
                   f"{n_cases} identity/total checks, {n_quotients} quotients; "
                   f"worst rel deviations {worst_total:.2e}, {worst_push:.2e} <= 1e-12")


def criterion_counterexample(n_min: int = 4, n_max: int = 12) -> CriterionResult:
    """Constant energy with geometrically escaping point-set mass on the dyadic interval."""
    t0 = time.perf_counter()
    rows = counterexample_demo(n_max, points=(0.0, 0.5, 1.0), n_min=n_min)
    energy_dev = float(np.max(np.abs(rows[:, 1] - 1.0)))
    if energy_dev > 1e-12:
        return _result("counterexample reproduction", t0, False,
                       f"E_n deviates from 1 by {energy_dev!r}")
    ratios = rows[1:, 2] / rows[:-1, 2]
    ratio_dev = float(np.max(np.abs(ratios - 0.5)))
    if ratio_dev > 1e-6:
        return _result("counterexample reproduction", t0, False,
                       f"mass decay ratio off 0.5 by {ratio_dev!r}")
    return _result("counterexample reproduction", t0, True,
                   f"levels {n_min}-{n_max}: E_n == 1 ({energy_dev:.2e}), "
                   f"decay ratio 0.5 +- {ratio_dev:.2e}")


def criterion_isometry_injection(n_specs: int = 100, f_per_spec: int = 10, seed: int = 107) -> CriterionResult:
    """Exact mass preservation, L2 isometry, measure injection, dyadic-series mass."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for case in range(n_specs):
        n = int(rng.integers(2, 41))
        if case % 2 == 0:
            spec = AlgebraSpec(range(n), rng.standard_normal((int(rng.integers(1, 4)), n)))
        else:
            spec = _random_partition_spec(rng, n)
        emb = embed(spec)
        mu = AtomicMeasure(rng.uniform(0.1, 2.0, n))
        push = pushforward(mu, emb)
        if push.total != mu.total:
            return _result("isometry and injection", t0, False,
                           f"mass not preserved exactly: {push.total!r} != {mu.total!r}")
        for _ in range(f_per_spec):
            f = lift_function(rng.uniform(-2.0, 2.0, emb.n_classes), emb)
            lhs, rhs, diff = l2_isometry_check(f, mu, emb)
            scale = max(1.0, lhs)
            worst = max(worst, diff / scale)
            if diff > 1e-12 * scale:
                return _result("isometry and injection", t0, False,
                               f"isometry violated: |{lhs!r} - {rhs!r}| = {diff!r}")
        if emb.separated:
            w2 = mu.weights.copy()
            w2[int(rng.integers(0, n))] *= 1.5
            push2 = pushforward(AtomicMeasure(w2), emb)
            if np.array_equal(push.atoms, push2.atoms):
                return _result("isometry and injection", t0, False,
                               "distinct measures pushed to identical atoms on a separated spec")
    series = AtomicMeasure([2.0**-k for k in range(1, 21)])
    if series.total != 1.0 - 2.0**-20:
        return _result("isometry and injection", t0, False,
                       f"truncated dyadic series mass {series.total!r} != 1 - 2^-20")
    return _result("isometry and injection", t0, True,
                   f"{n_specs} specs: exact mass, worst isometry rel dev {worst:.2e} <= 1e-12, "
                   "separated injection holds, dyadic series mass exact")


def _gasket_level2():
    seq = build_sierpinski_gasket(2)
    corners = seq.positions_at_top(0)
    others = [i for i in range(seq.networks[-1].n) if i not in set(corners.tolist())]
    return assemble(seq.networks[-1]), corners, others[0]


def criterion_process(
    n_traj: int = 100000,
    commute_rtol: float = 0.05,
    hit_se_mult: float = 4.0,
    seed: int = 108,
    determinism_n: int = 1500,
) -> CriterionResult:
    """Hitting probabilities vs harmonic values, commute times vs R mu(V),
    bit-identical results for a fixed seed, and a different estimate for a
    different seed."""
    t0 = time.perf_counter()
    path = assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
    tri = assemble(Network(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)]))
    gasket, corners, midpoint = _gasket_level2()
    suite = [
        ("path-3", path, (0, 2, 1)),
        ("triangle", tri, (0, 1, 2)),
        ("gasket-2", gasket, (int(corners[0]), int(corners[1]), midpoint)),
    ]
    msgs = []
    for idx, (name, A, (a, b, x0)) in enumerate(suite):
        mu = AtomicMeasure(np.ones(A.n))
        gen = build_generator(A, mu)

        analytic_hit = harmonic_extension(trace(A, [a, b]), [1.0, 0.0])[x0]
        est = hitting_probability(gen, a, b, x0, n_traj, seed=seed + 10 * idx)
        if abs(est.value - analytic_hit) > hit_se_mult * est.stderr:
            return _result("process identities", t0, False,
                           f"{name} hitting {est.value!r} +- {est.stderr!r} vs analytic {analytic_hit!r} "
                           f"beyond {hit_se_mult} SE")
        msgs.append(f"{name} hit off by {abs(est.value - analytic_hit) / max(est.stderr, 1e-300):.1f} SE")

        analytic_commute = effective_resistance(A, a, b) * float(np.sum(mu.weights))
        com = commute_time(gen, a, b, n_traj, seed=seed + 10 * idx + 5)
        rel = abs(com.value - analytic_commute) / analytic_commute
        if rel > commute_rtol:
            return _result("process identities", t0, False,
                           f"{name} commute {com.value!r} vs analytic {analytic_commute!r} "
                           f"(rel err {rel:.3f} > {commute_rtol})")
        msgs.append(f"{name} commute rel err {rel:.4f}")

    gen = build_generator(path, AtomicMeasure(np.ones(3)))
    first = commute_time(gen, 0, 2, determinism_n, seed=seed)
    again = commute_time(gen, 0, 2, determinism_n, seed=seed)
    if first.value != again.value or first.stderr != again.stderr:
        return _result("process identities", t0, False,
                       "two runs with the same seed differ")
    other = commute_time(gen, 0, 2, determinism_n, seed=seed + 1)
    if other.value == first.value:
        return _result("process identities", t0, False,
                       "a different seed gave the same estimate")
    msgs.append("same seed bit-identical, new seed differs")
    return _result("process identities", t0, True, "; ".join(msgs))


def run_all(quick: bool = False, gasket_factor: float | None = None) -> list[CriterionResult]:
    """Run every acceptance criterion; quick mode shrinks counts and widens
    the statistical bands accordingly (deterministic identities keep their
    tolerances)."""
    if quick:
        return [
            criterion_markov_contraction(n_forms=100),
            criterion_trace_tower(n_cases=60),
            criterion_resistance_metric(n_networks=30, n_sup=1000),
            criterion_compatibility(dyadic_levels=9, gasket_levels=4, n_random_f=20,
                                    gasket_factor=gasket_factor, x2_level=8),
            criterion_beurling_deny(n_matrices=80, pairs_per_matrix=40),
            criterion_energy_measures(n_cases=80, n_quotients=25),
            criterion_counterexample(n_min=4, n_max=9),
            criterion_isometry_injection(n_specs=25, f_per_spec=5),
            criterion_process(n_traj=4000, commute_rtol=0.2, determinism_n=400),
        ]
    return [
        criterion_markov_contraction(),
        criterion_trace_tower(),
        criterion_resistance_metric(),
        criterion_compatibility(gasket_factor=gasket_factor),
        criterion_beurling_deny(),
        criterion_energy_measures(),
        criterion_counterexample(),
        criterion_isometry_injection(),
        criterion_process(),
    ]
