import json

import numpy as np
import pytest

from netforms import (
    FormMatrix,
    JumpKillingDecomposition,
    Network,
    ValidationError,
    assemble,
    decompose,
    decomposition_to_network,
    evaluate,
    recompose,
)
from netforms.random_networks import random_markov_form


def jump_killing_energy(d, f, g):
    """Oracle: the bilinear identity summed directly over ordered pairs."""
    n = d.n
    total = 0.0
    for x in range(n):
        for y in range(n):
            if x != y:
                total += d.jump[x, y] * (f[x] - f[y]) * (g[x] - g[y])
    for x in range(n):
        total += d.kappa[x] * f[x] * g[x]
    return total


def coefficients_from_indicator_evaluations(A):
    """Oracle: recover (J', kappa') purely from evaluations on indicator pairs."""
    n = A.n
    e = np.eye(n)
    J = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            if x != y:
                J[x, y] = -evaluate(A, e[x], e[y]) / 2.0
    kappa = np.array([evaluate(A, e[x], e[x]) - 2.0 * np.sum(J[x]) for x in range(n)])
    return J, kappa


def pair_loop_dict(d):
    """Oracle: the JSON dict built by walking the pairs x < y."""
    entries = []
    for x in range(d.n):
        for y in range(x + 1, d.n):
            if d.jump[x, y] != 0.0:
                entries.append({"x": x, "y": y, "value": float(d.jump[x, y])})
    return {"J": entries, "kappa": [float(v) for v in d.kappa]}


def pair_loop_network(d):
    """Oracle: the network built by walking the pairs x < y."""
    edges = []
    for x in range(d.n):
        for y in range(x + 1, d.n):
            if d.jump[x, y] > 0.0:
                edges.append((x, y, 2.0 * d.jump[x, y]))
    return Network(d.n, edges, np.maximum(d.kappa, 0.0))


class TestDecompose:
    def test_killing_example(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0]))
        d = decompose(A)
        assert np.array_equal(d.jump, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(d.kappa, [1.0, 2.0])

    def test_zero_matrix(self):
        d = decompose(FormMatrix(np.zeros((3, 3))))
        assert np.all(d.jump == 0.0) and np.all(d.kappa == 0.0)

    def test_unit_edge(self, unit_edge):
        d = decompose(unit_edge)
        assert np.array_equal(d.jump, [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(d.kappa, [0.0, 0.0])

    def test_rejects_non_markov_citing_violation(self):
        with pytest.raises(ValidationError, match="off-diagonal"):
            decompose(FormMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        with pytest.raises(ValidationError, match="row"):
            decompose(FormMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]])))

    def test_pair_listing_matches_pair_loop(self):
        rng = np.random.default_rng(23)
        decomps = [decompose(random_markov_form(rng, n_max=25)) for _ in range(100)]
        # entries within the sign tolerance below zero: listed, but not edges
        J = np.array([[0.0, -1e-12, 0.5], [-1e-12, 0.0, 0.0], [0.5, 0.0, 0.0]])
        decomps.append(JumpKillingDecomposition(jump=J, kappa=np.array([0.0, -1e-12, 1.0])))
        for d in decomps:
            assert json.dumps(d.to_dict(), indent=1) == json.dumps(pair_loop_dict(d), indent=1)
            assert decomposition_to_network(d) == pair_loop_network(d)

    def test_local_part_identically_zero(self, unit_edge):
        assert decompose(unit_edge).local_part == 0.0


class TestRecompose:
    def test_roundtrip_killing_example(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0]))
        assert np.array_equal(recompose(decompose(A)).matrix, A.matrix)

    def test_pure_killing(self):
        d = JumpKillingDecomposition(jump=np.zeros((2, 2)), kappa=np.array([1.0, 1.0]))
        assert np.array_equal(recompose(d).matrix, np.diag([1.0, 1.0]))

    def test_pure_jump(self):
        d = JumpKillingDecomposition(
            jump=np.array([[0.0, 0.5], [0.5, 0.0]]), kappa=np.zeros(2)
        )
        assert np.array_equal(recompose(d).matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_roundtrip_exact_on_random_markov_matrices(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            A = random_markov_form(rng, n_max=25)
            assert np.array_equal(recompose(decompose(A)).matrix, A.matrix)

    def test_validation(self):
        with pytest.raises(ValidationError, match="symmetric"):
            JumpKillingDecomposition(jump=np.array([[0.0, 1.0], [0.5, 0.0]]), kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="negative"):
            JumpKillingDecomposition(jump=np.array([[0.0, -1.0], [-1.0, 0.0]]), kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="negative"):
            JumpKillingDecomposition(jump=np.zeros((2, 2)), kappa=np.array([-1.0, 0.0]))


class TestIdentities:
    def test_bilinear_identity_against_direct_sum(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            A = random_markov_form(rng, n_max=12)
            d = decompose(A)
            for _ in range(10):
                f = rng.uniform(-1.5, 1.5, A.n)
                g = rng.uniform(-1.5, 1.5, A.n)
                scale = max(1.0, np.max(np.abs(A.matrix))) * A.n * 2.25
                assert abs(evaluate(A, f, g) - jump_killing_energy(d, f, g)) <= 1e-12 * scale

    def test_uniqueness_by_indicator_matching(self):
        rng = np.random.default_rng(22)
        for _ in range(500):
            A = random_markov_form(rng, n_max=10)
            d = decompose(A)
            J2, kappa2 = coefficients_from_indicator_evaluations(A)
            scale = max(1.0, np.max(np.abs(A.matrix)))
            assert np.max(np.abs(J2 - d.jump)) <= 1e-12 * scale * A.n
            assert np.max(np.abs(kappa2 - d.kappa)) <= 1e-12 * scale * A.n

    def test_network_recovery(self):
        net = Network(3, [(0, 1, 0.5), (1, 2, 2.0)], killing=[0.25, 0.0, 1.0])
        recovered = decomposition_to_network(decompose(assemble(net)), net.vertices)
        assert recovered == net

    def test_to_dict_lists_each_pair_once(self):
        A = assemble(Network(3, [(0, 1, 1.0), (1, 2, 3.0)]))
        d = decompose(A).to_dict()
        assert d["J"] == [
            {"x": 0, "y": 1, "value": 0.5},
            {"x": 1, "y": 2, "value": 1.5},
        ]
        assert d["kappa"] == [0.0, 0.0, 0.0]
