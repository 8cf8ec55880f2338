import numpy as np
import pytest

from netforms import (
    AlgebraSpec,
    FormMatrix,
    Network,
    ValidationError,
    assemble,
    counterexample_demo,
    embed,
    energy_measure,
    energy_measure_identity,
    evaluate,
    lift_function,
    pushforward_gamma,
    quotient_function,
    transfer_form,
)
from netforms.random_networks import random_connected_network, random_markov_form

from helpers import edge_sum_energy


def closed_form_oracle(net: Network, f):
    """Oracle: per-vertex masses straight from the network data."""
    f = np.asarray(f, dtype=float)
    out = np.zeros(net.n)
    for u, v, c in net.edges:
        out[u] += 0.5 * c * (f[u] - f[v]) ** 2
        out[v] += 0.5 * c * (f[v] - f[u]) ** 2
    out += 0.5 * net.killing * f * f
    return out


def dense_closed_form(A: FormMatrix, f):
    """Oracle: the closed form over the dense n x n difference array."""
    C = -A.matrix.copy()
    np.fill_diagonal(C, 0.0)
    diffs = f[:, None] - f[None, :]
    kappa = np.diag(A.matrix) - np.cumsum(C, axis=1)[:, -1]  # killing_vector's rule: the diagonal, then left to right
    return 0.5 * np.sum(C * diffs * diffs, axis=1) + 0.5 * kappa * f * f


class TestEnergyMeasure:
    def test_support_pairs_match_dense_closed_form(self):
        # the masses sum the same nonnegative terms in another order
        rng = np.random.default_rng(51)
        for _ in range(100):
            A = random_markov_form(rng, n_max=40)
            f = rng.uniform(-2, 2, A.n)
            old = np.maximum(dense_closed_form(A, f), 0.0)
            assert np.all(np.abs(energy_measure(A, f).masses - old) <= 4 * np.spacing(old))

    def test_unit_edge(self, unit_edge):
        gamma = energy_measure(unit_edge, [1.0, 0.0])
        assert np.array_equal(gamma.masses, [0.5, 0.5])
        assert gamma.total == 1.0

    def test_killing_example(self):
        net = Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0])
        A = assemble(net)
        f = np.array([1.0, 0.0])
        gamma = energy_measure(A, f)
        assert np.allclose(gamma.masses, [1.0, 0.5], atol=1e-14)
        assert abs(gamma.total - (evaluate(A, f) - 0.5 * 1.0)) <= 1e-14

    def test_constant_function_zero(self, path3):
        gamma = energy_measure(path3, [2.0, 2.0, 2.0])
        assert np.max(np.abs(gamma.masses)) <= 1e-13

    def test_matches_network_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            net = random_connected_network(rng, n_max=15, with_killing=True)
            A = assemble(net)
            f = rng.uniform(-2, 2, A.n)
            gamma = energy_measure(A, f)
            scale = max(1.0, np.max(np.abs(A.matrix))) * 4.0 * A.n
            assert np.max(np.abs(gamma.masses - closed_form_oracle(net, f))) <= 1e-12 * scale

    def test_nonnegative(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            A = random_markov_form(rng, n_max=20)
            gamma = energy_measure(A, rng.uniform(-3, 3, A.n))
            assert np.all(gamma.masses >= 0.0)

    def test_total_mass_identity(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            net = random_connected_network(rng, n_max=20, with_killing=True)
            A = assemble(net)
            f = rng.uniform(-2, 2, A.n)
            expected = edge_sum_energy(net, f) - 0.5 * float(np.sum(net.killing * f * f))
            scale = max(1.0, np.max(np.abs(A.matrix))) * 4.0 * A.n
            assert abs(energy_measure(A, f).total - expected) <= 1e-12 * scale

    def test_rejects_non_markov(self):
        with pytest.raises(ValidationError, match="not Markov"):
            energy_measure(FormMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])), [1.0, 0.0])


class TestDefiningIdentity:
    def test_indicator_recovers_mass(self, path3):
        f = np.array([1.0, 0.4, -0.3])
        gamma = energy_measure(path3, f)
        for x in range(3):
            phi = np.zeros(3)
            phi[x] = 1.0
            lhs, rhs = energy_measure_identity(path3, f, phi)
            assert lhs == 2.0 * gamma.masses[x]
            assert abs(lhs - rhs) <= 1e-12

    def test_phi_constant_one_conservative(self, triangle):
        f = np.array([1.0, -1.0, 0.5])
        lhs, rhs = energy_measure_identity(triangle, f, np.ones(3))
        assert abs(lhs - 2.0 * evaluate(triangle, f)) <= 1e-12
        assert abs(lhs - rhs) <= 1e-12

    def test_random_20_vertex(self):
        rng = np.random.default_rng(53)
        net = random_connected_network(rng, n_max=20, n_min=20, with_killing=True)
        A = assemble(net)
        for _ in range(50):
            f = rng.uniform(-2, 2, A.n)
            phi = rng.uniform(-2, 2, A.n)
            lhs, rhs = energy_measure_identity(A, f, phi)
            scale = max(1.0, np.max(np.abs(A.matrix))) * 8.0 * A.n
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestPushforwardGamma:
    @staticmethod
    def _partition_embedding(rng, n):
        m = int(rng.integers(1, n + 1))
        labels = rng.integers(0, m, n)
        gens = np.zeros((int(np.max(labels)) + 1, n))
        gens[labels, np.arange(n)] = 1.0
        return embed(AlgebraSpec(range(n), gens))

    def test_separated_is_copy(self, path3):
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        f = np.array([1.0, 0.3, -0.5])
        gamma = energy_measure(path3, f)
        assert np.array_equal(pushforward_gamma(gamma, emb).masses, gamma.masses)

    def test_merged_pair_consistency(self):
        A = assemble(Network(3, [(0, 2, 1.0), (1, 2, 1.0)]))
        emb = embed(AlgebraSpec(range(3), [[1.0, 1.0, 0.0]]))
        f = lift_function(np.array([2.0, -1.0]), emb)
        pushed = pushforward_gamma(energy_measure(A, f), emb)
        direct = energy_measure(transfer_form(A, emb), quotient_function(f, emb))
        assert np.max(np.abs(pushed.masses - direct.masses)) <= 1e-12 * 10

    def test_constant_zero_both_sides(self, triangle):
        emb = embed(AlgebraSpec(range(3), [[1.0, 1.0, 2.0]]))
        f = np.full(3, 4.0)
        pushed = pushforward_gamma(energy_measure(triangle, f), emb)
        direct = energy_measure(transfer_form(triangle, emb), quotient_function(f, emb))
        assert np.max(np.abs(pushed.masses)) <= 1e-12
        assert np.max(np.abs(direct.masses)) <= 1e-12

    def test_random_quotients(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            net = random_connected_network(rng, n_max=15, with_killing=bool(rng.integers(0, 2)))
            A = assemble(net)
            emb = self._partition_embedding(rng, A.n)
            f = lift_function(rng.uniform(-2, 2, emb.n_classes), emb)
            pushed = pushforward_gamma(energy_measure(A, f), emb)
            direct = energy_measure(transfer_form(A, emb), quotient_function(f, emb))
            scale = max(1.0, np.max(np.abs(A.matrix))) * 4.0 * A.n
            assert np.max(np.abs(pushed.masses - direct.masses)) <= 1e-12 * scale


class TestCounterexampleDemo:
    def test_energy_constant_mass_halves(self):
        rows = counterexample_demo(12, (0.0, 0.5, 1.0), n_min=4)
        assert rows.shape == (9, 3)
        assert np.max(np.abs(rows[:, 1] - 1.0)) <= 1e-12
        # interior vertices carry 2^-n, endpoints 2^-(n+1): S mass is exactly 2^(1-n)
        expected = 2.0 ** (1.0 - rows[:, 0])
        assert np.array_equal(rows[:, 2], expected)
        ratios = rows[1:, 2] / rows[:-1, 2]
        assert np.max(np.abs(ratios - 0.5)) <= 1e-6
        assert np.max(rows[:, 2]) <= 3 * 2.0 ** (1.0 - rows[0, 0])

    def test_all_points_give_total_mass(self):
        n = 5
        pts = tuple(k * 0.5**n for k in range(2**n + 1))
        rows = counterexample_demo(n, pts, n_min=n)
        assert abs(rows[-1, 2] - 1.0) <= 1e-12

    def test_constant_function_zero(self):
        # direct check through the underlying measure: constant f has no mass
        from netforms import build_dyadic_interval

        seq = build_dyadic_interval(4)
        gamma = energy_measure(seq.form(4), np.full(seq.networks[4].n, 3.0))
        assert np.max(np.abs(gamma.masses)) <= 1e-12

    def test_point_not_on_coarsest_level(self):
        with pytest.raises(ValidationError, match="coarsest level"):
            counterexample_demo(8, (0.0, 0.5, 1.0), n_min=0)

    def test_non_dyadic_point_rejected(self):
        with pytest.raises(ValidationError, match="not a dyadic point"):
            counterexample_demo(8, (1.0 / 3.0,))

    def test_default_min_level(self):
        rows = counterexample_demo(5)  # S = {0, 1/2, 1} needs level >= 1
        assert rows[0, 0] == 1.0

    @pytest.mark.parametrize("kwargs, message", [
        ({"points": ("0.5", True)}, r"points\[0\] must be a real number"),
        ({"points": (0.5, True)}, r"points\[1\] must be a real number"),
        ({"points": 0.5}, "1-d list of points"),
        ({"n_min": 1.9}, "n_min must be an integer"),
        ({"n_min": True}, "n_min must be an integer"),
        ({"n_max": 4.0}, "n_max must be an integer"),
    ])
    def test_levels_and_points_pass_the_number_rule(self, kwargs, message):
        # neither truncated (1.9 read as level 1) nor coerced (True read as the point 1.0)
        with pytest.raises(ValidationError, match=message):
            counterexample_demo(**{"n_max": 4, **kwargs})
        assert counterexample_demo(4, points=(np.float32(0.5), 1), n_min=np.int64(1)).shape == (4, 3)
