import numpy as np
import pytest

from netforms import (
    AtomicMeasure,
    Network,
    UnsupportedRegimeError,
    ValidationError,
    assemble,
    build_generator,
    commute_time,
    effective_resistance,
    harmonic_extension,
    hitting_probability,
    occupation_check,
    simulate,
    trace,
)
from netforms.random_networks import random_connected_network


def uniform_measure(n):
    return AtomicMeasure(np.ones(n))


class TestBuildGenerator:
    def test_unit_edge_uniform(self, unit_edge):
        gen = build_generator(unit_edge, uniform_measure(2))
        assert np.array_equal(gen.jump_rates, [[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(gen.holding, [1.0, 1.0])

    def test_weighted_measure_detailed_balance(self, unit_edge):
        gen = build_generator(unit_edge, AtomicMeasure([2.0, 1.0]))
        assert gen.jump_rates[0, 1] == 0.5 and gen.jump_rates[1, 0] == 1.0
        assert gen.mu[0] * gen.jump_rates[0, 1] == gen.mu[1] * gen.jump_rates[1, 0]

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
            assert np.array_equal(gen.conductances, gen.conductances.T)
            flows = gen.mu[:, None] * gen.jump_rates
            assert np.allclose(flows, flows.T, rtol=1e-14, atol=1e-14)


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
