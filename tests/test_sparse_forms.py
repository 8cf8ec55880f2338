"""Array-backed networks and CSR forms against a dense oracle kept here.

Forms of at most ``DENSE_N_MAX`` vertices are assembled, row-summed and
traced densely and larger ones on their CSR matrix, so the random networks
straddle that size.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from netforms import (
    CompatibleSequence,
    FormMatrix,
    Network,
    ValidationError,
    assemble,
    build_dyadic_interval,
    build_sierpinski_gasket,
    check_compatibility,
    components,
    counterexample_demo,
    decompose,
    energy_measure,
    evaluate,
    harmonic_extension,
    is_markov,
    killing_vector,
    recompose,
    trace,
)
from netforms import network
from netforms.cli import main

DENSE_N_MAX = network.DENSE_N_MAX


# ----------------------------------------------------------------- the oracle


def dense_conductances(net: Network) -> np.ndarray:
    """Oracle: the conductance matrix, one edge at a time."""
    C = np.zeros((net.n, net.n))
    for u, v, c in net.edges:
        C[u, v] = C[v, u] = c
    return C


def row_sums(D: np.ndarray) -> np.ndarray:
    """Oracle: the documented row-sum order, numpy's row sums up to
    DENSE_N_MAX vertices and a left-to-right sum above."""
    if D.shape[0] <= DENSE_N_MAX:
        return np.sum(D, axis=1)
    return np.cumsum(D, axis=1)[:, -1]


def union_find_components(D: np.ndarray) -> list[list[int]]:
    """Oracle: components of the nonzero off-diagonal entries by union-find."""
    n = D.shape[0]
    parent = list(range(n))

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in zip(*np.nonzero(D)):
        if i != j:
            parent[root(int(i))] = root(int(j))
    groups: dict = {}
    for x in range(n):
        groups.setdefault(root(x), []).append(x)
    return sorted(groups.values())


def markov_violations(D: np.ndarray, tol: float) -> list[str]:
    """Oracle: the violations is_markov lists, in its order and wording."""
    off = D > tol
    np.fill_diagonal(off, False)
    out = [f"off-diagonal ({i},{j}) = {float(D[i, j])!r} exceeds tolerance {tol!r}" for i, j in np.argwhere(off)]
    rows = row_sums(D)
    out += [f"row {i} sum = {float(rows[i])!r} is below -{tol!r}" for i in np.flatnonzero(rows < -tol)]
    return out


def random_network(seed: int, n: int, density: float, isolated: float, killed: float, dyadic: bool) -> Network:
    """A network with isolated vertices and killing; dyadic conductances
    and weights make exact ties in sums likely."""
    rng = np.random.default_rng(seed)
    lonely = rng.random(n) < isolated
    m = int(density * n)
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = (u != v) & ~lonely[u] & ~lonely[v]
    pairs = np.unique(np.stack([np.minimum(u, v)[keep], np.maximum(u, v)[keep]], axis=1), axis=0)
    pairs = pairs[rng.permutation(len(pairs))]
    draw = (lambda k: 2.0 ** rng.integers(-3, 4, k)) if dyadic else (lambda k: rng.uniform(0.1, 3.0, k))
    killing = np.where(rng.random(n) < killed, draw(n), 0.0)
    return Network.from_arrays(n, pairs[:, 0], pairs[:, 1], draw(len(pairs)), killing)


network_cases = st.builds(
    random_network,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 12), st.integers(DENSE_N_MAX - 4, DENSE_N_MAX + 4), st.integers(65, 160)),
    density=st.sampled_from([0.0, 0.5, 1.5, 3.0]),
    isolated=st.sampled_from([0.0, 0.2]),
    killed=st.sampled_from([0.0, 0.3, 1.0]),
    dyadic=st.booleans(),
)
oracle_settings = settings(max_examples=60, derandomize=True, deadline=None, database=None)


class TestAgainstDenseOracle:
    @oracle_settings
    @given(network_cases)
    def test_assemble(self, net):
        A = assemble(net)
        C = dense_conductances(net)
        off = ~np.eye(net.n, dtype=bool)
        assert A.matrix[off].tobytes() == (-C + 0.0)[off].tobytes()
        assert np.array_equal(np.diag(A.matrix), row_sums(C) + net.killing)
        assert Network(net.vertices, list(net.edges), net.killing) == net

    @oracle_settings
    @given(network_cases, st.integers(0, 2**32 - 1))
    def test_evaluate(self, net, seed):
        A = assemble(net)
        f, g = np.random.default_rng(seed).uniform(-2.0, 2.0, (2, net.n))
        scale = max(1.0, float(np.max(np.abs(A.matrix)))) * 4.0 * net.n
        assert abs(evaluate(A, f, g) - f @ A.matrix @ g) <= 1e-13 * scale

    @oracle_settings
    @given(network_cases)
    def test_killing_vector_and_components(self, net):
        A = assemble(net)
        assert np.array_equal(killing_vector(A), row_sums(A.matrix))
        assert [c.tolist() for c in components(A)] == union_find_components(A.matrix)

    @oracle_settings
    @given(network_cases, st.integers(0, 2**32 - 1))
    def test_is_markov_verdict_and_violations(self, net, seed):
        rng = np.random.default_rng(seed)
        D = assemble(net).matrix.copy()
        # flip a few off-diagonal pairs positive and push a few diagonals down
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.integers(0, net.n, 2)
            if i != j:
                D[i, j] = D[j, i] = float(rng.uniform(0.1, 2.0))
        for i in rng.integers(0, net.n, int(rng.integers(0, 3))):
            D[i, i] -= float(rng.uniform(0.0, 5.0))
        tol = network.RELTOL * max(1.0, float(np.max(np.abs(D))))
        expected = markov_violations(D, tol)
        for A in (FormMatrix(D), FormMatrix(csr_array(D))):
            report = is_markov(A)
            assert bool(report) == (not expected)
            assert list(report.violations) == expected

    @oracle_settings
    @given(network_cases, st.integers(0, 2**32 - 1))
    def test_energy_measure_within_4_ulp(self, net, seed):
        A = assemble(net)
        f = np.random.default_rng(seed).uniform(-2.0, 2.0, net.n)
        C = dense_conductances(net)
        diffs = f[:, None] - f[None, :]
        closed = np.maximum(0.5 * np.sum(C * diffs * diffs, axis=1) + 0.5 * row_sums(A.matrix) * f * f, 0.0)
        assert np.all(np.abs(energy_measure(A, f).masses - closed) <= 4 * np.spacing(closed))

    @oracle_settings
    @given(network_cases.filter(lambda net: np.any(net.killing > 0)))
    def test_decompose_recompose_roundtrip_bit_exact(self, net):
        A = assemble(net)
        assert recompose(decompose(A)).matrix.tobytes() == A.matrix.tobytes()


# ------------------------------------------------------------ the CSR storage


class TestCsrForms:
    def test_dense_and_sparse_construction_agree(self):
        net = random_network(3, 90, 1.5, 0.1, 0.3, False)
        A = assemble(net)
        B = FormMatrix(A.matrix)  # dense-backed, CSR derived on first use
        assert A.csr.has_canonical_format and A.csr.nnz == np.count_nonzero(A.matrix)
        assert np.array_equal(B.csr.toarray(), A.csr.toarray())
        assert FormMatrix(A.csr).matrix.tobytes() == A.matrix.tobytes()

    def test_views_are_read_only(self):
        A = assemble(Network(70, [(k, k + 1, 1.0) for k in range(69)]))
        with pytest.raises(ValueError):
            A.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            A.csr.data[0] = 2.0
        with pytest.raises(AttributeError):
            A.matrix = np.zeros((70, 70))

    def test_sparse_validation(self):
        with pytest.raises(ValidationError, match=r"not symmetric: A\[0,1\]=2.0 != A\[1,0\]=0.0"):
            FormMatrix(csr_array(np.array([[1.0, 2.0], [0.0, 1.0]])))
        with pytest.raises(ValidationError, match="non-finite"):
            FormMatrix(csr_array(np.array([[np.inf, 0.0], [0.0, 1.0]])))
        with pytest.raises(ValidationError, match="square"):
            FormMatrix(csr_array(np.zeros((2, 3))))
        # explicit zeros are dropped, so they neither break symmetry nor join components
        M = csr_array((np.array([1.0, 0.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3])), shape=(2, 2))
        assert [c.tolist() for c in components(FormMatrix(M))] == [[0], [1]]

    def test_dense_view_is_guarded(self):
        n = 12_000  # a dense view needs 1,152,000,000 bytes, above DENSE_BYTES_MAX
        k = np.arange(n - 1)
        A = assemble(Network.from_arrays(n, k, k + 1, np.ones(n - 1)))
        assert evaluate(A, np.arange(n, dtype=float)) == n - 1
        with pytest.raises(ValidationError, match="needs 1152000000 bytes"):
            A.matrix

    def test_extension_operator_is_sparse(self):
        n = 40_000  # W and U of 20,000 vertices: a 3.2 GB dense extension operator
        k = np.arange(n - 1)
        A = assemble(Network.from_arrays(n, k, k + 1, np.ones(n - 1)))
        traced = []  # the trace builds its extension operator, so its peak covers reading it
        assert peak_bytes(lambda: traced.append(trace(A, np.arange(0, n, 2)))) < 8 * 20_000 * 20_000 // 16
        (tr,) = traced
        H = tr.extension_operator
        assert isinstance(H, csr_array) and H.shape == (20_000, 20_000) and H.nnz == 2 * 20_000 - 1
        assert H.has_canonical_format and not H.data.flags.writeable
        # interior vertex 2m + 1 sits halfway between 2m and 2m + 2; the last one, n - 1, is a leaf
        m = np.arange(19_999)
        assert np.array_equal(H.indptr, np.r_[0, 2 * m + 2, 2 * 20_000 - 1])
        assert np.array_equal(H.indices, np.r_[np.stack([m, m + 1], axis=1).ravel(), 19_999])
        assert np.array_equal(H.data, np.r_[np.full(2 * 19_999, 0.5), 1.0])
        f = np.arange(0, n, 2, dtype=float)
        g = harmonic_extension(tr, f)
        assert np.array_equal(g, np.minimum(np.arange(n, dtype=float), n - 2))
        assert np.array_equal(g[tr.interior], H @ f)

    def test_from_arrays_checks_like_triples(self):
        for u, v, c, message in (
            ([0, 1], [1, 1], [1.0, 1.0], r"edge #1: self-loop at vertex 1"),
            ([0, 0], [1, 5], [1.0, 1.0], r"edge #1: endpoint out of range \(u=0, v=5, n=3\)"),
            ([0, 1], [1, 2], [1.0, np.nan], r"edge #1: conductance nan must be finite and > 0"),
            ([0, 1, 2], [1, 2, 1], [1.0, 1.0, 1.0], r"edge #2: duplicate edge \(1, 2\), first seen as edge #1"),
        ):
            with pytest.raises(ValidationError, match=message):
                Network.from_arrays(3, np.array(u), np.array(v), np.array(c))
            with pytest.raises(ValidationError, match=message):
                Network(3, list(zip(u, v, c)))
        with pytest.raises(ValidationError, match="integer arrays"):
            Network.from_arrays(3, np.array([0.0]), np.array([1]), np.array([1.0]))
        with pytest.raises(ValidationError, match=r"edge #0: endpoint out of range"):
            Network(3, [(0, 2**70, 1.0)])
        net = Network.from_arrays(3, np.array([2, 0]), np.array([1, 1]), np.array([2.0, 1.0]))
        assert net.edges == ((0, 1, 1.0), (1, 2, 2.0))
        assert not net.u.flags.writeable and not net.c.flags.writeable

    @pytest.mark.parametrize("n_top", [6, 8])
    def test_sparse_trace_matches_dense_path(self, n_top):
        # interiors at and above STACK_MAX on forms above DENSE_N_MAX, onto an unsorted subset
        seq = build_dyadic_interval(n_top)
        A = seq.form(n_top)
        rng = np.random.default_rng(n_top)
        U = rng.permutation(seq.inclusions[-1])
        tr = trace(A, U)
        dense = trace(FormMatrix(A.matrix), U)  # dense-backed, so eliminated from the same CSR
        M = A.matrix
        W = tr.complement()
        H = -np.linalg.solve(M[np.ix_(W, W)], M[np.ix_(W, U)])
        S = M[np.ix_(U, U)] + M[np.ix_(U, W)] @ H
        assert np.max(np.abs(tr.traced_form.matrix - S)) <= 1e-12 * float(np.max(np.abs(S)))
        assert np.max(np.abs(tr.extension_operator - H)) <= 1e-12
        assert tr.traced_form.matrix.tobytes() == dense.traced_form.matrix.tobytes()
        f = rng.standard_normal(U.size)
        g = harmonic_extension(tr, f)
        assert np.array_equal(g[U], f) and np.array_equal(g[W], tr.extension_operator @ f)


# ---------------------------------------------------- tolerances and inclusions


class TestTolerancesRejected:
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-3, True, "1e-9", None])
    def test_api(self, tol):
        A = FormMatrix([[1.0, 2.0], [2.0, 1.0]])
        seq = build_dyadic_interval(2)
        if tol is not None:  # None means the default tolerance in is_markov
            with pytest.raises(ValidationError, match="tol must be a finite number >= 0"):
                is_markov(A, tol=tol)
        with pytest.raises(ValidationError, match="tol must be a finite number >= 0"):
            check_compatibility(seq, tol=tol)
        assert is_markov(A, tol=0.0).violations and check_compatibility(seq, tol=0.0)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_cli(self, tmp_path, capsys, tol):
        p = tmp_path / "d3.json"
        assert main(["seq", "build", "dyadic", "--levels", "3", "--output", str(p)]) == 0
        capsys.readouterr()
        assert main(["seq", "check", str(p), "--tol", tol]) == 1
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert err["type"] == "validation" and "tol must be a finite number >= 0" in err["message"]
        assert "Traceback" not in captured.err


class TestInclusionsAreIndices:
    @pytest.mark.parametrize(
        "bad",
        [[0.7, 2.2], [0, 2.0], np.array([0.0, 2.0]), [True, 2], ["0", 2], [[0, 2]]],
        ids=["floats", "int-valued-float", "float-array", "bool", "string", "nested"],
    )
    def test_rejected(self, bad):
        seq = build_dyadic_interval(2)
        with pytest.raises(ValidationError, match="inclusion 0"):
            CompatibleSequence(seq.networks, (bad, seq.inclusions[1]))

    def test_integers_accepted(self):
        seq = build_dyadic_interval(2)
        for good in ([0, 2], np.array([0, 2], dtype=np.int32), [np.int64(0), np.intp(2)]):
            same = CompatibleSequence(seq.networks, (good, seq.inclusions[1]))
            assert same.inclusions[0].tolist() == [0, 2]


# --------------------------------------------------------- memory regressions


def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDenseSequencePath:
    """The sequence path at dyadic 13 (8,193 vertices) allocates well under
    one dense n x n array of the top level (537 MB): about 5 MB."""

    BOUND = 8 * (2**13 + 1) ** 2 // 16

    def test_check_compatibility(self):
        assert peak_bytes(lambda: check_compatibility(build_dyadic_interval(13))) < self.BOUND

    def test_counterexample_demo(self):
        assert peak_bytes(lambda: counterexample_demo(13)) < self.BOUND

    def test_gasket_check(self):
        seq = build_sierpinski_gasket(8)  # 9,843 vertices
        assert peak_bytes(lambda: check_compatibility(seq)) < 8 * seq.networks[-1].n ** 2 // 16
