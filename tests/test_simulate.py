import dataclasses
import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_array

from netforms import (
    AtomicMeasure,
    GeneratorSpec,
    Network,
    UnsupportedRegimeError,
    ValidationError,
    assemble,
    build_generator,
    build_sierpinski_gasket,
    commute_time,
    effective_resistance,
    harmonic_extension,
    hitting_probability,
    occupation_check,
    simulate,
    trace,
)
from netforms.random_networks import random_connected_network

# the package re-exports the function ``simulate`` under the module's name
_sim = importlib.import_module("netforms.simulate")


def uniform_measure(n):
    return AtomicMeasure(np.ones(n))


class TestBuildGenerator:
    def test_unit_edge_uniform(self, unit_edge):
        gen = build_generator(unit_edge, uniform_measure(2))
        assert np.array_equal(gen.conductances.toarray() / gen.mu[:, None], [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(gen.holding, [1.0, 1.0])

    def test_weighted_measure_detailed_balance(self, unit_edge):
        gen = build_generator(unit_edge, AtomicMeasure([2.0, 1.0]))
        q01, q10 = gen.conductances[0, 1] / gen.mu[0], gen.conductances[1, 0] / gen.mu[1]
        assert q01 == 0.5 and q10 == 1.0
        assert gen.mu[0] * q01 == gen.mu[1] * q10

    def test_killing_rates(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 0.0]))
        gen = build_generator(A, uniform_measure(2))
        assert np.allclose(gen.killing_rates, [1.0, 0.0], atol=1e-12)

    def test_zero_mass_rejected_citing_positivity(self, unit_edge):
        with pytest.raises(ValidationError, match=r"^mu\(1\) = 0.0 is not positive; the symmetric process requires "
                                                  "every point to have positive measure$"):
            build_generator(unit_edge, AtomicMeasure([1.0, 0.0]))

    def test_measure_of_the_wrong_length_rejected(self, path3):
        with pytest.raises(ValidationError, match=r"^measure has 2 atoms but the form has 3 vertices$"):
            build_generator(path3, uniform_measure(2))

    def test_overflowing_rates_raise_naming_the_vertex(self, path3):
        # 1 / 1e-320 overflows: the jump rates out of vertex 1, and the killing rate of a lone killed vertex
        with pytest.raises(ValidationError, match=r"^mu\(1\) = 1e-320 is too small: the rates out of vertex 1 overflow$"):
            build_generator(path3, AtomicMeasure([1.0, 1e-320, 1.0]))
        with pytest.raises(ValidationError, match=r"^mu\(0\) = 1e-320 is too small: the rates out of vertex 0 overflow$"):
            build_generator(assemble(Network(1, [], killing=[1.0])), AtomicMeasure([1e-320]))

    def test_build_generator_is_the_only_constructor(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        for call in (
            lambda: GeneratorSpec(),
            lambda: GeneratorSpec(gen.conductances, gen.mu, gen.killing_rates, gen.holding),
            lambda: GeneratorSpec(conductances=gen.conductances),
            lambda: dataclasses.replace(gen),
            lambda: dataclasses.replace(gen, holding=2.0 * gen.holding),
        ):
            with pytest.raises(TypeError, match="build_generator"):
                call()

    def test_fields_pinned_on_random_killing_networks(self):
        # forms of 2 to 90 vertices, so both sides of DENSE_N_MAX; the index
        # arrays are hashed by value, as int64
        rng = np.random.default_rng(27)
        arrays = []
        for _ in range(50):
            net = random_connected_network(rng, n_max=90, with_killing=True)
            gen = build_generator(assemble(net), AtomicMeasure(rng.uniform(0.1, 5.0, net.n)))
            C = gen.conductances
            arrays += [C.indptr.astype(np.int64), C.indices.astype(np.int64), C.data, gen.mu, gen.killing_rates,
                       gen.holding]
        assert _sha256(*arrays) == "bcecd6b5ff7ed9979ab82834b39a37dfa3b390637a7ceb3230867b89a8c6ac84"

    def test_detailed_balance_exact_by_construction(self):
        rng = np.random.default_rng(60)
        for _ in range(50):
            net = random_connected_network(rng, n_max=15, with_killing=True)
            A = assemble(net)
            gen = build_generator(A, AtomicMeasure(rng.uniform(0.5, 3.0, A.n)))
            # the flow matrix mu(x) q_xy is the stored symmetric conductance
            C = gen.conductances.toarray()
            assert np.array_equal(C, C.T)
            flows = gen.mu[:, None] * (C / gen.mu[:, None])
            assert np.allclose(flows, flows.T, rtol=1e-14, atol=1e-14)


    def test_flow_matrix_is_the_one_stored_array(self):
        A = assemble(Network(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.5)], killing=[0.0, 1.0, 0.0, 0.0]))
        gen = build_generator(A, AtomicMeasure([1.0, 2.0, 3.0, 4.0]))
        C = gen.conductances
        assert isinstance(C, csr_array) and C.has_canonical_format
        assert np.array_equal(C.toarray(), np.where(np.eye(4, dtype=bool), 0.0, -A.matrix))
        assert not np.any(C.diagonal()) and np.all(C.data > 0.0)
        for a in (C.data, C.indices, C.indptr, gen.mu, gen.killing_rates, gen.holding):
            assert not a.flags.writeable
        assert not hasattr(gen, "jump_rates")

    def test_memory_below_one_dense_array(self):
        # gasket level 6: 1,095 vertices, so one dense n x n array takes 9.6 MB
        A = assemble(build_sierpinski_gasket(6).networks[6])
        mu = uniform_measure(A.n)
        tracemalloc.start()
        try:
            gen = build_generator(A, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.n == 1095 and peak < 8 * A.n ** 2 // 16


class TestSimulate:
    def test_no_killing_never_killed(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        res = simulate(gen, 0, 20.0, 300, seed=1)
        assert res.killed_fraction == 0.0

    def test_pure_killing_survival(self):
        A = assemble(Network(1, [], killing=[1.0]))
        gen = build_generator(A, uniform_measure(1))
        res = simulate(gen, 0, 10.0, 20000, seed=2)
        assert abs(res.killed_fraction - (1.0 - np.exp(-10.0))) <= 0.002

    def test_two_state_long_run_occupation(self, unit_edge):
        gen = build_generator(unit_edge, uniform_measure(2))
        res = simulate(gen, 0, 500.0, 400, seed=3)
        band = max(3.0 * res.occupation_se[0], 0.02)
        assert abs(res.occupation[0] - 0.5) <= band

    def test_probabilities_in_range(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        res = simulate(gen, 1, 5.0, 50, seed=4)
        assert np.all(res.occupation >= 0.0) and np.all(res.occupation <= 1.0)
        assert 0.0 <= res.killed_fraction <= 1.0

    def test_invalid_start(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        with pytest.raises(ValidationError, match="out of range"):
            simulate(gen, 7, 1.0, 10, seed=5)

    def test_same_seed_bit_identical_new_seed_differs(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        a = simulate(gen, 0, 30.0, 200, seed=6)
        b = simulate(gen, 0, 30.0, 200, seed=6)
        c = simulate(gen, 0, 30.0, 200, seed=7)
        assert np.array_equal(a.occupation, b.occupation)
        assert np.array_equal(a.occupation_se, b.occupation_se)
        assert a.killed_fraction == b.killed_fraction
        assert not np.array_equal(a.occupation, c.occupation)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf"), 0.0])
    def test_horizon_must_be_finite_and_positive(self, unit_edge, horizon):
        gen = build_generator(unit_edge, uniform_measure(2))
        with pytest.raises(ValidationError, match="horizon"):
            simulate(gen, 0, horizon, 5, seed=1)
        with pytest.raises(ValidationError, match="horizon"):
            occupation_check(gen, horizon, 5, seed=1)

    def test_seeds_outside_the_key_range_raise(self, path3):
        # a seed is a Philox key in [0, 2^64): -1 is not 2^64 - 1, and 2^64 + 5 is not 5
        gen = build_generator(path3, uniform_measure(3))
        for seed in (-1, 2**64, 5 + 2**64, 5 - 2**64):
            for call in (
                lambda: simulate(gen, 0, 1.0, 5, seed=seed),
                lambda: hitting_probability(gen, 0, 2, 1, 5, seed=seed),
                lambda: commute_time(gen, 0, 2, 5, seed=seed),
                lambda: occupation_check(gen, 1.0, 5, seed=seed),
            ):
                with pytest.raises(ValidationError, match=rf"seed must be in \[0, 2\*\*64\), got {seed}"):
                    call()
        top = 2**64 - 1
        a = commute_time(gen, 0, 2, 50, seed=np.uint64(top))
        b = commute_time(gen, 0, 2, 50, seed=top)
        assert (a.value, a.stderr, a.jumps) == (b.value, b.stderr, b.jumps)

    def test_n_traj_checked_before_early_returns(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        with pytest.raises(ValidationError, match="n_traj"):
            hitting_probability(gen, 0, 2, 0, 0, seed=2)
        with pytest.raises(ValidationError, match="n_traj"):
            hitting_probability(gen, 0, 2, 2, -1, seed=2)
        with pytest.raises(ValidationError, match="n_traj"):
            commute_time(gen, 1, 1, -4, seed=2)


class TestHitting:
    def test_path_midpoint(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = hitting_probability(gen, 0, 2, 1, 20000, seed=7)
        assert est.stderr > 0
        assert abs(est.value - 0.5) <= 4.0 * est.stderr

    def test_start_at_target_exact(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        assert hitting_probability(gen, 0, 2, 0, 10, seed=8).value == 1.0
        assert hitting_probability(gen, 0, 2, 2, 10, seed=8).value == 0.0

    def test_triangle_matches_harmonic_value(self, triangle):
        gen = build_generator(triangle, uniform_measure(3))
        est = hitting_probability(gen, 0, 1, 2, 20000, seed=9)
        analytic = harmonic_extension(trace(triangle, [0, 1]), [1.0, 0.0])[2]
        assert abs(est.value - analytic) <= 4.0 * est.stderr

    def test_mu_independence(self, path3):
        gen = build_generator(path3, AtomicMeasure([3.0, 0.5, 1.0]))
        est = hitting_probability(gen, 0, 2, 1, 20000, seed=10)
        assert abs(est.value - 0.5) <= 4.0 * est.stderr

    def test_rejects_killing(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[0.5, 0.0]))
        gen = build_generator(A, uniform_measure(2))
        with pytest.raises(UnsupportedRegimeError):
            hitting_probability(gen, 0, 1, 0, 10, seed=11)

    def test_unreachable_targets(self):
        A = assemble(Network(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        gen = build_generator(A, uniform_measure(4))
        with pytest.raises(ValidationError, match="reachable"):
            hitting_probability(gen, 0, 2, 1, 10, seed=12)

    def test_vertex_indices_checked(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        for bad in (-1, 3, 0.7, 2.0):
            with pytest.raises(ValidationError, match="vertex"):
                hitting_probability(gen, bad, 2, 1, 10, seed=1)
            with pytest.raises(ValidationError, match="vertex"):
                hitting_probability(gen, 0, 2, bad, 10, seed=1)
            with pytest.raises(ValidationError, match="vertex"):
                commute_time(gen, 0, bad, 10, seed=1)
            with pytest.raises(ValidationError, match="vertex"):
                simulate(gen, bad, 1.0, 10, seed=1)
        a = hitting_probability(gen, np.int64(0), np.int64(2), np.intp(1), 50, seed=3)
        b = hitting_probability(gen, 0, 2, 1, 50, seed=3)
        assert (a.value, a.stderr) == (b.value, b.stderr)

    def test_same_targets_rejected(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        with pytest.raises(ValidationError, match="distinct"):
            hitting_probability(gen, 1, 1, 0, 10, seed=13)


class TestCommute:
    def test_two_state_analytic_means(self, unit_edge):
        m1, m2 = 2.0, 1.0
        gen = build_generator(unit_edge, AtomicMeasure([m1, m2]))
        est = commute_time(gen, 0, 1, 20000, seed=14)
        assert abs(est.value - (m1 + m2)) <= 0.05 * (m1 + m2)

    def test_unit_edge_clock_is_the_mean_holding_times(self, unit_edge):
        # every trajectory leaves 0 once and 1 once, and the clock adds the
        # mean holding times 1/lambda_0 = 2 and 1/lambda_1 = 1, so the
        # conditional estimator has no variance left
        gen = build_generator(unit_edge, AtomicMeasure([2.0, 1.0]))
        est = commute_time(gen, 0, 1, 5000, seed=14)
        assert (est.value, est.stderr, est.jumps, est.max_jumps) == (3.0, 0.0, 10000, 2)

    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_gasket_corners_match_resistance_times_mass(self, level):
        # commute time identity E_a T_b + E_b T_a = R(a, b) mu(V) (Chandra et al., STOC 1989)
        seq = build_sierpinski_gasket(level)
        A = seq.form(level)
        a, b = seq.positions_at_top(0)[:2].tolist()
        gen = build_generator(A, uniform_measure(A.n))
        est = commute_time(gen, a, b, 2000, seed=70 + level)
        analytic = effective_resistance(A, a, b) * A.n
        assert abs(est.value - analytic) <= 4.0 * est.stderr

    def test_path_endpoints(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = commute_time(gen, 0, 2, 20000, seed=15)
        analytic = effective_resistance(path3, 0, 2) * 3.0
        assert abs(est.value - analytic) <= 0.05 * analytic

    def test_same_vertex_zero(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = commute_time(gen, 1, 1, 10, seed=16)
        assert est.value == 0.0 and est.stderr == 0.0

    def test_killing_refused_before_the_same_vertex_shortcut(self):
        A = assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)], killing=[0.0, 0.5, 0.0]))
        gen = build_generator(A, uniform_measure(3))
        for x in range(3):
            with pytest.raises(UnsupportedRegimeError, match="commute time requires a killing-free chain"):
                commute_time(gen, x, x, 10, seed=1)

    def test_same_seed_bit_identical_new_seed_differs(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        a = commute_time(gen, 0, 2, 500, seed=17)
        b = commute_time(gen, 0, 2, 500, seed=17)
        c = commute_time(gen, 0, 2, 500, seed=18)
        assert a.value == b.value and a.stderr == b.stderr
        assert c.value != a.value


class TestOccupation:
    def test_two_state_symmetric(self, unit_edge):
        gen = build_generator(unit_edge, uniform_measure(2))
        res = occupation_check(gen, 1000.0, 100, seed=18)
        assert res.l1_distance < 0.02

    def test_single_state_exact(self):
        gen = build_generator(assemble(Network(1)), uniform_measure(1))
        res = occupation_check(gen, 10.0, 5, seed=19)
        assert res.l1_distance == 0.0

    def test_weighted_measure_target(self, unit_edge):
        gen = build_generator(unit_edge, AtomicMeasure([2.0, 1.0]))
        res = occupation_check(gen, 800.0, 120, seed=20)
        assert np.array_equal(res.target, [2.0 / 3.0, 1.0 / 3.0])
        assert abs(res.occupation[0] - 2.0 / 3.0) <= max(4.0 * res.occupation_se[0], 0.02)

    def test_reducible_reports_components(self):
        A = assemble(Network(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        gen = build_generator(A, uniform_measure(4))
        with pytest.raises(ValidationError, match="component 1"):
            occupation_check(gen, 10.0, 10, seed=21)


class TestJumpCounts:
    def test_hitting_from_path_midpoint_one_jump_each(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = hitting_probability(gen, 0, 2, 1, 700, seed=30)
        assert est.jumps == 700 and est.max_jumps == 1

    def test_commute_on_an_edge_two_jumps_each(self, unit_edge):
        gen = build_generator(unit_edge, uniform_measure(2))
        est = commute_time(gen, 0, 1, 500, seed=31)
        assert est.jumps == 1000 and est.max_jumps == 2

    def test_kill_counts_as_one_jump(self):
        gen = build_generator(assemble(Network(1, [], killing=[1.0])), uniform_measure(1))
        res = simulate(gen, 0, 0.7, 900, seed=32)
        assert res.jumps == round(res.killed_fraction * 900) and res.max_jumps == 1

    def test_early_returns_report_no_jumps(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = hitting_probability(gen, 0, 2, 0, 10, seed=33)
        assert est.jumps == 0 and est.max_jumps == 0


def _loop_jump_law(gen, x, include_killing):
    """Reference: targets (ascending, cemetery n last) and cumulative
    probabilities of state x, built one state at a time."""
    q = gen.conductances.toarray()[x] / gen.mu[x]
    rates, targets = [], []
    for y in range(gen.n):
        if y != x and q[y] > 0.0:
            rates.append(float(q[y]))
            targets.append(y)
    if include_killing and gen.killing_rates[x] > 0.0:
        rates.append(float(gen.killing_rates[x]))
        targets.append(gen.n)
    return targets, np.cumsum(rates) / sum(rates) if rates else np.zeros(0)


class TestJumpTable:
    @pytest.mark.parametrize("include_killing", [False, True])
    def test_matches_per_state_reference(self, include_killing):
        rng = np.random.default_rng(61)
        for _ in range(30):
            net = random_connected_network(rng, n_max=12, with_killing=True)
            gen = build_generator(assemble(net), AtomicMeasure(rng.uniform(0.5, 3.0, net.n)))
            table = _sim._jump_table(gen, include_killing)
            for x in range(gen.n + 1):
                targets, cum = _loop_jump_law(gen, x, include_killing) if x < gen.n else ([], [])
                deg = len(targets)
                assert table.tgt[:deg, x].tolist() == targets
                np.testing.assert_allclose(table.cum[:deg, x], cum, rtol=1e-14, atol=0)
                assert np.all(np.isinf(table.cum[deg:, x]))
                if deg:
                    # exact, so a uniform variate (< 1) never selects padding
                    assert table.cum[deg - 1, x] == 1.0
                else:
                    assert table.inv_holding[x] == np.inf


SMALL_BLOCK = 64
N_RAGGED = 3 * SMALL_BLOCK + 10  # three full blocks and a ragged last one


def _path(n, kill_last=0.0):
    kappa = np.zeros(n)
    kappa[-1] = kill_last
    net = Network(n, [(i, i + 1, 1.0) for i in range(n - 1)], killing=kappa)
    return build_generator(assemble(net), uniform_measure(n))


def _estimator(kind, n=4):
    """(means, standard errors) of one estimator on a path of n vertices,
    as a function of (n_traj, seed)."""
    if kind == "simulate":
        gen = _path(n, kill_last=0.4)

        def run(n_traj, seed):
            r = simulate(gen, 0, 3.0, n_traj, seed)
            return np.append(r.occupation, r.killed_fraction), np.append(r.occupation_se, r.killed_fraction_se)
        return run
    gen = _path(n)
    if kind == "hit":
        def run(n_traj, seed):
            e = hitting_probability(gen, 0, n - 1, 1, n_traj, seed)
            return np.array([e.value]), np.array([e.stderr])
    else:
        def run(n_traj, seed):
            e = commute_time(gen, 0, n - 1, n_traj, seed)
            return np.array([e.value]), np.array([e.stderr])
    return run


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(_sim, "_BLOCK", SMALL_BLOCK)


@pytest.fixture
def block_log(small_blocks, monkeypatch):
    """Record (b, m, output) of every block run."""
    blocks = []
    run_block = _sim._run_block

    def spy(walk, seed, b, m):
        out = run_block(walk, seed, b, m)
        blocks.append((b, m, out))
        return out

    monkeypatch.setattr(_sim, "_run_block", spy)
    return blocks


@pytest.mark.parametrize("kind", ["simulate", "hit", "commute"])
class TestBlocks:
    def test_same_seed_bit_identical_new_seed_differs(self, block_log, kind):
        run = _estimator(kind)
        (m1, s1), (m2, s2), (m3, _) = run(N_RAGGED, 40), run(N_RAGGED, 40), run(N_RAGGED, 41)
        assert [(b, m) for b, m, _ in block_log[:4]] == [(0, 64), (1, 64), (2, 64), (3, 10)]
        assert np.array_equal(m1, m2) and np.array_equal(s1, s2)
        assert not np.array_equal(m1, m3)

    def test_streamed_moments_match_concatenated_blocks(self, block_log, kind):
        mean, se = _estimator(kind)(N_RAGGED, 42)
        values = np.concatenate([out[0] for _, _, out in block_log])
        assert values.shape[0] == N_RAGGED
        np.testing.assert_allclose(mean, np.mean(values, axis=0), rtol=1e-12, atol=0)
        np.testing.assert_allclose(se, np.std(values, axis=0, ddof=1) / np.sqrt(N_RAGGED), rtol=1e-12, atol=0)

    def test_block_values_do_not_depend_on_n_traj(self, block_log, kind):
        run = _estimator(kind)
        run(N_RAGGED, 43)
        first = list(block_log)
        block_log.clear()
        run(6 * SMALL_BLOCK, 43)
        for (b, m, out), (b2, m2, out2) in zip(first[:3], block_log[:3]):
            assert (b, m) == (b2, m2)
            assert np.array_equal(out[0], out2[0]) and out[1:] == out2[1:]

    def test_memory_does_not_grow_with_n_traj(self, small_blocks, kind):
        run = _estimator(kind, n=40 if kind == "simulate" else 4)
        run(SMALL_BLOCK, 44)  # warm up

        def peak(n_traj):
            tracemalloc.start()
            try:
                run(n_traj, 44)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16 * SMALL_BLOCK) <= 2 * peak(SMALL_BLOCK)


def _gasket2(kill=0.0):
    """Level-2 gasket network with killing ``kill`` at its corners, its
    corners and the measure 1, 2, 3, 1, 2, 3, ..."""
    seq = build_sierpinski_gasket(2)
    net = seq.networks[-1]
    corners = seq.positions_at_top(0).tolist()
    kappa = np.zeros(net.n)
    kappa[corners] = kill
    return Network(net.vertices, net.edges, kappa), corners, AtomicMeasure(1.0 + np.arange(net.n) % 3)


def _sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinnedBits:
    """The engine's exact output at fixed seeds, with 64-trajectory blocks
    and 150 trajectories (two full blocks and a ragged one). Any change to
    the variates drawn, their order or the trajectories they drive shows
    here; a change that keeps the engine's bits keeps these values."""

    N = 150

    def test_hitting_path3(self, small_blocks, path3):
        e = hitting_probability(build_generator(path3, uniform_measure(3)), 0, 2, 1, self.N, seed=18)
        assert (e.value.hex(), e.stderr.hex(), e.jumps, e.max_jumps) == (
            "0x1.c962fc962fc96p-2", "0x1.4da49aa88f64cp-5", 150, 1)

    def test_hitting_gasket2(self, small_blocks):
        net, c, mu = _gasket2()
        e = hitting_probability(build_generator(assemble(net), mu), c[0], c[1], 4, self.N, seed=22)
        assert (e.value.hex(), e.stderr.hex(), e.jumps, e.max_jumps) == (
            "0x1.5f92c5f92c5f9p-1", "0x1.374bb195ba614p-5", 2458, 77)

    def test_commute_gasket2(self, small_blocks):
        net, c, mu = _gasket2()
        e = commute_time(build_generator(assemble(net), mu), c[0], c[1], self.N, seed=19)
        assert (e.value.hex(), e.stderr.hex(), e.jumps, e.max_jumps) == (
            "0x1.4256d5cfaacd8p+4", "0x1.f3c7adb27e04ap-1", 15040, 329)

    def test_simulate_killed_gasket2(self, small_blocks):
        net, _, mu = _gasket2(kill=1.0)
        r = simulate(build_generator(assemble(net), mu), 4, 2.0, self.N, seed=20)
        assert (r.killed_fraction.hex(), r.killed_fraction_se.hex(), r.jumps, r.max_jumps) == (
            "0x1.1111111111111p-3", "0x1.c84533bf73067p-6", 1524, 21)
        assert _sha256(r.occupation, r.occupation_se) == (
            "0b97b027807ff4a2ec50fa9b3cc9c43b0edf016e650616da6e730bc92a27dd62")

    def test_occupation_check_gasket2(self, small_blocks):
        net, _, mu = _gasket2()
        o = occupation_check(build_generator(assemble(net), mu), 2.0, self.N, seed=21, x0=4)
        assert (o.l1_distance.hex(), o.band.hex()) == ("0x1.0c5612faa7e8ep-1", "0x1.fe7e9d9a37079p-4")
        assert _sha256(o.occupation, o.occupation_se) == (
            "4d4f7d780a677572d67ed0e9cf24f4628adad84846b0bc0b5ffe88608a03aec5")


def _stops(ends, width):
    stops = np.zeros((len(ends), width), dtype=bool)
    for p, vertices in enumerate(ends):
        stops[p, vertices] = True
    return stops


class TestFold:
    """``_fold`` against the per-phase law it folds, on random connected
    networks with killing."""

    @pytest.mark.parametrize("style", ["commute", "hitting", "killed"])
    def test_folded_entries_columns_and_finished_states(self, style):
        rng = np.random.default_rng(63)
        for _ in range(30):
            net = random_connected_network(rng, n_max=12, with_killing=True)
            gen = build_generator(assemble(net), AtomicMeasure(rng.uniform(0.5, 3.0, net.n)))
            n1 = gen.n + 1
            a, b = (int(v) for v in rng.choice(gen.n, 2, replace=gen.n < 2))
            ends = {"commute": ([b], [a]), "hitting": ([a, b],), "killed": ([gen.n],)}[style]
            table = _sim._jump_table(gen, include_killing=True)
            folded = _sim._fold(table, *ends)
            phases = len(ends)
            stops = _stops(ends, n1)
            assert folded.cum.shape == folded.tgt.shape == (table.cum.shape[0], phases * n1)
            deg = np.isfinite(table.cum).sum(axis=0)
            for p in range(phases):
                cols = slice(p * n1, (p + 1) * n1)
                assert np.array_equal(folded.cum[:, cols], table.cum)
                assert np.array_equal(folded.inv_holding[cols], table.inv_holding)
                for x in range(n1):
                    for k in range(deg[x]):
                        y = table.tgt[k, x]
                        s = folded.tgt[k, p * n1 + x]
                        assert s == (p + stops[p, y]) * n1 + y
                        # finished exactly when the last phase ends
                        assert (s >= phases * n1) == (p == phases - 1 and stops[p, y])


class TestNoExits:
    """A 0-1-2 path whose every jump rate out of vertex 1 underflows to 0, so
    the jump table gives vertex 1 no exits."""

    @pytest.fixture
    def stuck(self):
        net = Network(3, [(0, 1, 1e-300), (1, 2, 1e-300)])
        return build_generator(assemble(net), AtomicMeasure([1.0, 1e300, 1.0]))

    def test_hitting_refused(self, stuck):
        with pytest.raises(ValidationError, match="^vertex 1 has holding rate 0"):
            hitting_probability(stuck, 0, 2, 1, 1000, seed=1)

    def test_commute_refused(self, stuck):
        with pytest.raises(ValidationError, match="^vertex 1 has holding rate 0"):
            commute_time(stuck, 0, 1, 100, seed=1)
        with pytest.raises(ValidationError, match="^vertex 1 has holding rate 0"):
            commute_time(stuck, 0, 2, 100, seed=1)

    def test_hitting_target_without_exits_is_walked_to(self, stuck):
        # the walk stops on entering a target, so it never steps from one
        assert hitting_probability(stuck, 1, 2, 0, 100, seed=1).value == 1.0

    def test_simulate_holds_until_horizon(self, stuck):
        r = simulate(stuck, 1, 1.0, 100, seed=1)
        assert np.array_equal(r.occupation, [0.0, 1.0, 0.0])
        assert r.killed_fraction == 0.0 and r.jumps == 0
