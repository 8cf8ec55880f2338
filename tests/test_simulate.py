import importlib
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array

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
        with pytest.raises(ValidationError, match="positive measure"):
            build_generator(unit_edge, AtomicMeasure([1.0, 0.0]))

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


class TestHandBuiltSpec:
    """The public constructor takes the flow matrix dense or as any scipy
    sparse matrix and stores it as build_generator does."""

    def test_dense_flow_matrix_simulates_as_built(self):
        rng = np.random.default_rng(62)
        net = random_connected_network(rng, n_max=12, with_killing=True)
        g = build_generator(assemble(net), AtomicMeasure(rng.uniform(0.5, 2.0, net.n)))
        for C in (g.conductances.toarray(), g.conductances.toarray().tolist(), coo_array(g.conductances)):
            h = GeneratorSpec(C, g.mu, g.killing_rates, g.holding)
            for a, b in ((g.conductances.indptr, h.conductances.indptr), (g.conductances.indices, h.conductances.indices)):
                assert np.array_equal(a, b)
            assert g.conductances.data.tobytes() == h.conductances.data.tobytes()
            assert not h.conductances.data.flags.writeable and h.conductances.has_canonical_format
            a, b = simulate(g, 0, 3.0, 300, seed=8), simulate(h, 0, 3.0, 300, seed=8)
            for field in ("occupation", "occupation_se", "killed_fraction", "killed_fraction_se", "jumps", "max_jumps"):
                assert np.asarray(getattr(a, field)).tobytes() == np.asarray(getattr(b, field)).tobytes()

    @pytest.mark.parametrize(
        "C, mu, message",
        [
            (np.zeros((2, 3)), np.ones(2), r"conductance matrix must be square"),
            ([[0.0, 1.0], [2.0, 0.0]], np.ones(2), r"conductance matrix is not symmetric at \(0,1\)"),
            ([[0.0, -1.0], [-1.0, 0.0]], np.ones(2), r"conductance matrix entry \(0,1\) = -1.0 is negative"),
            ([[1.0, 0.0], [0.0, 0.0]], np.ones(2), r"conductance matrix must have zero diagonal"),
            ([[0.0, np.inf], [np.inf, 0.0]], np.ones(2), r"conductance matrix entry \(0,1\) = inf is not finite"),
            ([[0.0, "1"], ["1", 0.0]], np.ones(2), r"conductance matrix\[0, 1\] must be a real number"),
            (None, np.ones(2), r"conductance matrix must be a real number"),
            (csr_array(np.eye(2, dtype=bool)), np.ones(2), r"conductance matrix must hold real numbers"),
            (np.zeros((2, 2)), np.ones(3), r"mu must be a vector of length 2"),
            (np.zeros((2, 2)), [1.0, np.nan], r"mu\[1\] = nan is not finite"),
            (np.zeros((2, 2)), [1.0, 0.0], r"mu\(1\) = 0.0 is not positive"),
        ],
    )
    def test_bad_input_raises_validation_error(self, C, mu, message):
        with pytest.raises(ValidationError, match=message):
            GeneratorSpec(C, mu, np.zeros(2), np.ones(2))


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

    def test_path_endpoints(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = commute_time(gen, 0, 2, 20000, seed=15)
        analytic = effective_resistance(path3, 0, 2) * 3.0
        assert abs(est.value - analytic) <= 0.05 * analytic

    def test_same_vertex_zero(self, path3):
        gen = build_generator(path3, uniform_measure(3))
        est = commute_time(gen, 1, 1, 10, seed=16)
        assert est.value == 0.0 and est.stderr == 0.0

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
