import dataclasses
import json

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array

import netforms.beurling_deny as beurling_deny
from netforms import (
    FormMatrix,
    JumpKillingDecomposition,
    Network,
    ValidationError,
    assemble,
    decompose,
    decomposition_to_network,
    evaluate,
    is_markov,
    recompose,
)
from netforms.network import DENSE_N_MAX
from netforms.random_networks import random_connected_network, random_markov_form


def jump_killing_energy(d, f, g):
    """Oracle: the bilinear identity summed directly over ordered pairs."""
    n = d.n
    J = d.jump.toarray()
    total = 0.0
    for x in range(n):
        for y in range(n):
            if x != y:
                total += J[x, y] * (f[x] - f[y]) * (g[x] - g[y])
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
    J = d.jump.toarray()
    entries = []
    for x in range(d.n):
        for y in range(x + 1, d.n):
            if J[x, y] != 0.0:
                entries.append({"x": x, "y": y, "value": float(J[x, y])})
    return {"J": entries, "kappa": [float(v) for v in d.kappa]}


def pair_loop_network(d):
    """Oracle: the network built by walking the pairs x < y."""
    J = d.jump.toarray()
    edges = []
    for x in range(d.n):
        for y in range(x + 1, d.n):
            if J[x, y] > 0.0:
                edges.append((x, y, 2.0 * J[x, y]))
    return Network(d.n, edges, np.maximum(d.kappa, 0.0))


class TestDecompose:
    def test_killing_example(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0]))
        d = decompose(A)
        assert np.array_equal(d.jump.toarray(), [[0.0, 0.5], [0.5, 0.0]])
        assert np.array_equal(d.kappa, [1.0, 2.0])

    def test_zero_matrix(self):
        d = decompose(FormMatrix(np.zeros((3, 3))))
        assert np.all(d.jump.toarray() == 0.0) and np.all(d.kappa == 0.0)

    def test_unit_edge(self, unit_edge):
        d = decompose(unit_edge)
        assert np.array_equal(d.jump.toarray(), [[0.0, 0.5], [0.5, 0.0]])
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

    def test_large_forms_roundtrip_and_list_pairs(self):
        # above DENSE_N_MAX the form, the kernel and the rebuilt form are all CSR
        rng = np.random.default_rng(24)
        for _ in range(10):
            net = random_connected_network(rng, n_max=200, with_killing=True)
            while net.n <= DENSE_N_MAX:
                net = random_connected_network(rng, n_max=200, with_killing=True)
            A = assemble(net)
            d = decompose(A)
            B = recompose(d).csr
            for a, b in ((A.csr.indptr, B.indptr), (A.csr.indices, B.indices), (A.csr.data, B.data)):
                assert np.array_equal(a, b)
            assert json.dumps(d.to_dict()) == json.dumps(pair_loop_dict(d))
            assert decomposition_to_network(d) == pair_loop_network(d)

    def test_accepts_what_is_markov_accepts(self):
        # a unit star with a positive off-diagonal pair inside the form's
        # Markov tolerance (1e-10 * 59), which the constructor also applies
        n = 60
        M = assemble(Network(n, [(0, k, 1.0) for k in range(1, n)])).matrix.copy()
        M[1, 2] = M[2, 1] = 5e-9
        A = FormMatrix(M)
        assert is_markov(A)
        d = decompose(A)
        assert d.jump[1, 2] == d.jump[2, 1] == -2.5e-9
        assert np.array_equal(recompose(d).matrix, A.matrix)
        for again in (JumpKillingDecomposition(jump=d.jump, kappa=d.kappa), dataclasses.replace(d)):
            assert np.array_equal(again.jump.toarray(), d.jump.toarray())
            assert np.array_equal(again.kappa, d.kappa)
        # beyond the recomposed form's tolerance, the pinned message
        J = d.jump.toarray()
        J[1, 2] = J[2, 1] = -6e-9
        with pytest.raises(ValidationError, match=r"^jump kernel entry \(1,2\) = -6e-09 is negative$"):
            JumpKillingDecomposition(jump=J, kappa=d.kappa)

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

    @pytest.mark.parametrize("n", [3, DENSE_N_MAX + 2], ids=["dense", "sparse"])
    def test_roundtrip_limit_at_tiny_conductances(self, n):
        # decompose halves each conductance c; below 2**-1021, where c / 2 is
        # subnormal, the halving rounds when the last bit of c is set
        tiny = np.finfo(float).tiny

        def roundtrip(c):
            A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.r_[np.ones(n - 2), c]))
            return A, recompose(decompose(A))

        for c in (1e-323, 1e-300, 3.3e-308, float(np.nextafter(2 * tiny, 1.0)), 2 * tiny):
            A, B = roundtrip(c)
            assert B.matrix.tobytes() == A.matrix.tobytes(), c
        A, B = roundtrip(1.5e-323)  # last bit set: half of it rounds to 1e-323
        assert B.matrix[n - 2, n - 1] == -2e-323 and B.matrix[n - 1, n - 1] == 2e-323
        for c in (float(np.nextafter(tiny, 1.0)), float(np.nextafter(2 * tiny, 0.0))):  # normal, half subnormal
            A, B = roundtrip(c)
            assert B.matrix[n - 2, n - 1] != -c
        A, B = roundtrip(5e-324)  # the smallest subnormal halves to 0: its edge is dropped
        assert B.matrix[n - 2, n - 1] == 0.0 and B.matrix[n - 1, n - 1] == 0.0 and B.csr.nnz == A.csr.nnz - 3

    def test_validation(self):
        with pytest.raises(ValidationError, match="symmetric"):
            JumpKillingDecomposition(jump=np.array([[0.0, 1.0], [0.5, 0.0]]), kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="negative"):
            JumpKillingDecomposition(jump=np.array([[0.0, -1.0], [-1.0, 0.0]]), kappa=np.zeros(2))
        with pytest.raises(ValidationError, match="negative"):
            JumpKillingDecomposition(jump=np.zeros((2, 2)), kappa=np.array([-1.0, 0.0]))
        with pytest.raises(ValidationError, match=r"jump kernel entry \(0,1\) = inf is not finite"):
            JumpKillingDecomposition(jump=np.array([[0.0, np.inf], [np.inf, 0.0]]), kappa=np.zeros(2))
        with pytest.raises(ValidationError, match=r"kappa\[1\] = nan is not finite"):
            JumpKillingDecomposition(jump=np.zeros((2, 2)), kappa=np.array([0.0, np.nan]))


class TestStorage:
    def test_jump_kernel_is_canonical_read_only_csr(self):
        rng = np.random.default_rng(25)
        for A in [random_markov_form(rng, n_max=25) for _ in range(20)]:
            J = decompose(A).jump
            assert isinstance(J, csr_array) and J.has_canonical_format
            assert not np.any(J.diagonal()) and not np.any(J.data == 0.0)
            assert np.array_equal(J.toarray(), np.where(np.eye(A.n, dtype=bool), 0.0, -A.matrix / 2.0))
            for a in (J.data, J.indices, J.indptr):
                assert not a.flags.writeable

    def test_sparse_input_equals_dense_input(self):
        # duplicates are summed and stored zeros dropped, as in a form
        S = coo_array(([0.25, 0.25, 0.5, 0.0], ([0, 0, 1, 2], [1, 1, 0, 2])), shape=(3, 3))
        for J in (S, S.tocsr(), csr_array(S.toarray())):
            d = JumpKillingDecomposition(J, [0.0, 1.0, 0.0])
            ref = JumpKillingDecomposition(S.toarray(), [0.0, 1.0, 0.0])
            assert d.jump.nnz == 2 and np.array_equal(d.jump.toarray(), ref.jump.toarray())
            assert d.to_dict() == ref.to_dict()

    def test_decompose_hands_over_its_rows(self, monkeypatch):
        # decompose passes the kernel's row indices to the decomposition, which
        # the public constructor derives again; both read the same
        rng = np.random.default_rng(26)
        tiny = assemble(Network(3, [(0, 1, 5e-324), (1, 2, 1.0)]))  # half the smallest subnormal is 0.0
        forms = [tiny, *(random_markov_form(rng, n_max=2 * DENSE_N_MAX) for _ in range(10))]
        derived = []
        entries = beurling_deny._entries
        monkeypatch.setattr(beurling_deny, "_entries", lambda M: derived.append(M) or entries(M))
        for A in forms:
            derived.clear()
            d = decompose(A)
            assert derived == [A]
            e = JumpKillingDecomposition(d.jump, d.kappa)
            assert len(derived) == 2 and derived[0] is A  # the second from the constructor's copy of d.jump
            assert e.to_dict() == d.to_dict()
            assert recompose(d).matrix.tobytes() == A.matrix.tobytes() or A is tiny
        assert decompose(tiny).jump.nnz == 2 and recompose(decompose(tiny)).matrix[0, 1] == 0.0

    @pytest.mark.parametrize("wrap", [np.array, csr_array], ids=["dense", "sparse"])
    def test_messages_name_the_first_bad_entry_row_major(self, wrap):
        def J(entries, n=4):
            m = np.zeros((n, n))
            for (i, j), v in entries.items():
                m[i, j] = v
            return wrap(m)

        cases = [
            (J({(2, 3): np.inf, (3, 2): np.inf, (1, 3): np.nan, (3, 1): np.nan}), r"entry \(1,3\) = nan is not finite"),
            (J({(2, 2): 1.0}), "must have zero diagonal"),
            (J({(3, 0): 1.0, (0, 3): 1.0, (1, 2): 2.0, (2, 1): 1.0}), r"not symmetric at \(1,2\)"),
            (J({(2, 3): -1.0, (3, 2): -1.0, (1, 3): -2.0, (3, 1): -2.0}), r"entry \(1,3\) = -2.0 is negative"),
        ]
        for jump, message in cases:
            with pytest.raises(ValidationError, match=message):
                JumpKillingDecomposition(jump, np.zeros(4))
        with pytest.raises(ValidationError, match="must be square"):
            JumpKillingDecomposition(wrap(np.zeros((2, 3))), np.zeros(2))
        with pytest.raises(ValidationError, match="real numbers"):
            JumpKillingDecomposition(csr_array(np.eye(2, dtype=complex)), np.zeros(2))


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
            assert np.max(np.abs(J2 - d.jump.toarray())) <= 1e-12 * scale * A.n
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
