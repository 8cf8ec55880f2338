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
from scipy.linalg import lapack
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from netforms import (
    AlgebraSpec,
    AtomicMeasure,
    CompatibleSequence,
    FormMatrix,
    GeneratorSpec,
    JumpKillingDecomposition,
    Network,
    ValidationError,
    assemble,
    build_generator,
    build_dyadic_interval,
    build_sierpinski_gasket,
    check_compatibility,
    components,
    counterexample_demo,
    decompose,
    effective_resistance,
    embed,
    energy_measure,
    evaluate,
    harmonic_extension,
    is_markov,
    killing_vector,
    recompose,
    resistance_matrix,
    trace,
    transfer_form,
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
        # interiors at and above DENSE_N_MAX vertices on forms above DENSE_N_MAX, onto an unsorted subset
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


# ------------------------------------- every CSR matrix the package returns


def as_graph(M: csr_array) -> csr_array:
    """The arrays of M as a square graph: a matrix with fewer rows than
    columns gets its index pointer padded, its data and indices kept."""
    n = max(M.shape)
    indptr = np.concatenate([M.indptr, np.full(n - M.shape[0], M.indptr[-1])])
    return csr_array((M.data, M.indices, indptr), shape=(n, n))


def assert_well_formed(M) -> None:
    """A canonical read-only CSR matrix with C-contiguous integer index arrays,
    which scipy's checks and graph routines accept as it is."""
    assert isinstance(M, csr_array)
    M.check_format(full_check=True)
    rows = np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))
    assert np.all(np.diff(rows * M.shape[1] + M.indices) > 0)  # row-major, no duplicates
    assert not np.any(M.data == 0.0)
    for a in (M.data, M.indices, M.indptr):
        assert not a.flags.writeable and a.flags.c_contiguous
    assert M.indices.dtype.kind in "iu" and M.indptr.dtype.kind in "iu"
    connected_components(as_graph(M), directed=True, connection="strong")


def path_form(n: int):
    k = np.arange(n - 1)
    return assemble(Network.from_arrays(n, k, k + 1, np.linspace(1.0, 2.0, n - 1), np.r_[0.5, np.zeros(n - 1)]))


class TestReturnedCsrWellFormed:
    """Each CSR matrix the package returns passes the same checks, whichever
    path built it."""

    @pytest.mark.parametrize("n", [12, DENSE_N_MAX + 26])
    def test_forms_and_decompositions(self, n):
        A = path_form(n)
        for B in (A, FormMatrix(A.matrix), FormMatrix(A.csr), FormMatrix(A.csr.toarray().tolist())):
            assert_well_formed(B.csr)
        d = decompose(A)
        assert_well_formed(d.jump)
        assert_well_formed(JumpKillingDecomposition(d.jump.toarray(), d.kappa).jump)
        g = build_generator(A, AtomicMeasure(np.linspace(1.0, 3.0, n)))
        assert_well_formed(g.conductances)
        assert_well_formed(GeneratorSpec(g.conductances.toarray(), g.mu, g.killing_rates, g.holding).conductances)

    @pytest.mark.parametrize(
        "n, subset",
        [
            (12, [7, 0, 3]),  # dense: one block
            (12, range(12)),  # dense: an empty interior
            (DENSE_N_MAX + 26, range(0, DENSE_N_MAX + 26, 2)),  # stacked: isolated interior vertices
            (DENSE_N_MAX + 26, [DENSE_N_MAX + 25, 0]),  # one block above DENSE_N_MAX vertices
            (DENSE_N_MAX + 26, range(DENSE_N_MAX + 26)),  # sparse: an empty interior
        ],
        ids=["dense", "dense-empty", "stacked", "single-block", "sparse-empty"],
    )
    def test_extension_operators_and_traced_forms(self, n, subset):
        tr = trace(path_form(n), list(subset))
        assert tr.extension_operator.shape == (tr.interior.size, tr.subset.size)
        assert_well_formed(tr.extension_operator)
        assert_well_formed(tr.traced_form.csr)


class TestTrustedBuilder:
    """network._csr fills a csr_array without scipy's constructor. It must
    build the object that constructor builds from the same arrays, so that a
    scipy release which changes those private attributes fails here."""

    @staticmethod
    def cases():
        A = path_form(12)
        return {
            "empty-extension": trace(A, range(12)).extension_operator,  # 0 x 12
            "extension": trace(A, [7, 0, 3]).extension_operator,  # |W| x |U|
            "form": A.csr,
        }

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", ["empty-extension", "extension", "form"])
    def test_same_matrix_as_the_constructor(self, case, dtype):
        H = self.cases()[case]
        indptr, indices, data = H.indptr.astype(dtype), H.indices.astype(dtype), H.data.copy()
        ref = csr_array((data, indices, indptr), shape=H.shape)
        assert ref.has_canonical_format  # which caches the flags the builder sets
        M = network._csr(indptr.copy(), indices.copy(), data.copy(), H.shape)
        assert vars(M).keys() == vars(ref).keys()
        for name, value in vars(ref).items():
            got = vars(M)[name]
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype and np.array_equal(got, value), name
            else:
                assert type(got) is type(value) and got == value, name
        assert M.indptr.dtype == M.indices.dtype == dtype
        assert M.has_canonical_format and M.has_sorted_indices
        assert_well_formed(M)


class TestCallerInputIsCopied:
    """The public constructors copy a caller's sparse matrix before its checks;
    the trusted builder only ever sees that copy."""

    @staticmethod
    def build(kind, C):
        n = C.shape[0]
        if kind == "form":
            return FormMatrix(C).csr
        if kind == "decomposition":
            return JumpKillingDecomposition(C, np.zeros(n)).jump
        return GeneratorSpec(C, np.ones(n), np.zeros(n), np.asarray(C.sum(axis=1))).conductances

    @pytest.mark.parametrize("readonly", [False, True], ids=["writable", "read-only"])
    @pytest.mark.parametrize("kind", ["form", "decomposition", "generator"])
    def test_result_shares_no_memory_with_the_caller(self, kind, readonly):
        A = path_form(12)
        C = A.csr if kind == "form" else decompose(A).jump
        C = csr_array((C.data.copy(), C.indices.copy(), C.indptr.copy()), shape=C.shape)
        if readonly:
            for a in (C.data, C.indices, C.indptr):
                a.setflags(write=False)
        M = self.build(kind, C)
        before = M.toarray()
        for a in (M.data, M.indices, M.indptr):
            assert not any(np.shares_memory(a, c) for c in (C.data, C.indices, C.indptr))
        C.data.setflags(write=True)
        C.data *= 3.0
        assert np.array_equal(M.toarray(), before)


class TestGroups:
    @pytest.mark.parametrize("seed", range(20))
    def test_equal_to_split_of_the_sort(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, int(rng.integers(1, 12)), int(rng.integers(0, 40)))  # some labels unused
        order = np.argsort(labels, kind="stable")
        split = np.split(order, np.cumsum(np.bincount(labels)))[:-1]
        groups = network._groups(labels)
        assert len(groups) == len(split) and all(np.array_equal(a, b) for a, b in zip(groups, split))


class TestCrossCheckProducts:
    """The products behind the cross-checks of energy_measure and
    transfer_form read the dense array at most DENSE_N_MAX vertices and the
    CSR matrix above, whether or not the dense view has been read."""

    @pytest.mark.parametrize("n", [DENSE_N_MAX, DENSE_N_MAX + 1])
    def test_the_size_picks_the_matrix(self, n, monkeypatch):
        A = path_form(n)
        A.matrix  # cached now, yet a large form must keep its O(|E|) product
        A.csr
        assert is_markov(A) and killing_vector(A) is not None  # kept, so that only the products read a matrix below
        f = np.linspace(-1.0, 1.0, n)
        emb = embed(AlgebraSpec(range(n), [np.arange(n) % 5]))
        calls = {"matrix": 0, "csr @": 0}
        matrix, matmul = FormMatrix.matrix, csr_array.__matmul__

        def read_matrix(self):
            calls["matrix"] += 1
            return matrix.fget(self)

        def csr_matmul(self, other):
            calls["csr @"] += 1
            return matmul(self, other)

        monkeypatch.setattr(FormMatrix, "matrix", property(read_matrix))
        monkeypatch.setattr(csr_array, "__matmul__", csr_matmul)
        energy_measure(A, f)
        transfer_form(A, emb)
        assert calls == ({"matrix": 3, "csr @": 0} if n <= DENSE_N_MAX else {"matrix": 0, "csr @": 3})


# ------------------------------------------- trusted forms and their memos


def outcome(fn, *args):
    """What a call gives: its result, or the type and message of its error."""
    try:
        return "ok", fn(*args)
    except Exception as e:
        return type(e).__name__, str(e)


def trace_bits(tr):
    H = tr.extension_operator
    return tr.traced_form.matrix.tobytes(), H.indptr.tobytes(), H.indices.tobytes(), H.data.tobytes(), tr.rcond


class TestTrustedForms:
    """Forms the package builds skip the symmetry and canonical-form checks
    and derive their invariants once; they must read exactly as the same
    matrix handed to the public constructor does."""

    @pytest.mark.parametrize("n", [3, DENSE_N_MAX + 1])
    def test_overflowing_row_sum_is_rejected(self, n):
        # two finite conductances at vertex 1 sum to an infinite diagonal, densely at 3 vertices, as CSR at 65
        net = Network.from_arrays(n, np.array([0, 1]), np.array([1, 2]), np.array([1e308, 1e308]))
        with pytest.raises(ValidationError, match="non-finite"):
            assemble(net)

    @oracle_settings
    @given(network_cases, st.integers(0, 2**32 - 1))
    def test_trusted_reads_as_public(self, net, seed):
        rng = np.random.default_rng(seed)
        U = np.sort(rng.choice(net.n, size=int(rng.integers(1, net.n + 1)), replace=False))
        x, y = rng.choice(net.n, size=2, replace=False) if net.n > 1 else (0, 0)
        A = assemble(net)
        results = []
        for B in (A, FormMatrix(A.matrix), FormMatrix(A.csr)):
            report = is_markov(B)
            tr = outcome(trace, B, U)
            R = outcome(resistance_matrix, B)
            results.append(
                (
                    (report.ok, report.violations, report.tol),
                    [c.tolist() for c in components(B)],
                    (tr[0], trace_bits(tr[1])) if tr[0] == "ok" else tr,
                    (R[0], R[1].tobytes()) if R[0] == "ok" else R,
                    outcome(effective_resistance, B, x, y),
                )
            )
        assert results[0] == results[1] == results[2]
        labels = network._labels(A)
        assert labels is network._labels(A) and not labels.flags.writeable
        assert not A.matrix.flags.writeable

    def test_each_invariant_is_derived_once(self, monkeypatch):
        rng = np.random.default_rng(40)
        net = Network(40, [(k, k + 1, float(c)) for k, c in enumerate(rng.uniform(0.5, 2.0, 39))] + [(0, 39, 1.0)])
        A = assemble(net)
        assert A._sparse is None  # held dense, where the entries cost a scan of the array
        calls = {"components": 0, "markov": 0, "entries": 0, "killing": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(network, "connected_components", counted("components", network.connected_components))
        monkeypatch.setattr(network, "_markov", counted("markov", network._markov))
        monkeypatch.setattr(network, "_stored_entries", counted("entries", network._stored_entries))
        monkeypatch.setattr(network, "_form_row_sums", counted("killing", network._form_row_sums))
        assert is_markov(A)
        decompose(A)
        energy_measure(A, rng.standard_normal(40))
        R = resistance_matrix(A)
        assert abs(effective_resistance(A, 3, 17) - R[3, 17]) <= 1e-12
        transfer_form(A, embed(AlgebraSpec(range(40), [np.arange(40) % 7])))
        assert calls == {"components": 1, "markov": 1, "entries": 1, "killing": 1}
        kept = [a for v in A._memos.values() for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        assert len(kept) == 5 and not any(a.flags.writeable for a in kept)  # i, j, a, killing, labels
        assert killing_vector(A) is killing_vector(A)


def symmetric_support(seed: int, n: int, density: float, isolated: float, diagonal: float) -> np.ndarray:
    """A symmetric matrix with isolated vertices, some of whose rows hold only
    a diagonal entry."""
    rng = np.random.default_rng(seed)
    lonely = rng.random(n) < isolated
    m = int(density * n)
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    keep = (u != v) & ~lonely[u] & ~lonely[v]
    D = np.zeros((n, n))
    D[u[keep], v[keep]] = -rng.uniform(0.5, 2.0, np.count_nonzero(keep))
    D += D.T
    d = np.flatnonzero(rng.random(n) < diagonal)
    D[d, d] = rng.uniform(0.5, 2.0, d.size)
    return D


support_cases = st.builds(
    symmetric_support,
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.integers(1, 12), st.integers(DENSE_N_MAX - 4, DENSE_N_MAX + 20)),
    density=st.sampled_from([0.0, 0.3, 0.7, 1.5]),
    isolated=st.sampled_from([0.0, 0.3]),
    diagonal=st.sampled_from([0.0, 0.5, 1.0]),
)


class TestStrongComponentLabels:
    """On a symmetric support the strong components are the components: a
    form's labels, and those of a support passed as symmetric, equal scipy's
    undirected labels, numbering included."""

    @oracle_settings
    @given(support_cases)
    def test_labels_equal_undirected_labels(self, D):
        expect = connected_components(csr_array(D), directed=False)[1]
        for labels in (
            network._labels(FormMatrix(D)),
            network._labels(FormMatrix(csr_array(D))),
            network._labels(csr_array(D), symmetric=True),
        ):
            assert np.array_equal(labels, expect)


# ------------------------------------------------------------------ edge lists

#: Edge lists whose outcome is pinned: the error of the first bad edge, or the arrays.
PINNED_EDGES = [
    ([(0, 1, 1.0), (True, 2, 1.0)], "edge #1: vertex index must be an integer, got True"),
    ([(0, 1.0, 1.0)], "edge #0: vertex index must be an integer, got 1.0"),
    ([(0, 2**70, 1.0)], "edge #0: endpoint out of range (u=0, v=1180591620717411303424, n=3)"),
    ([(0, 1, True)], "edge #0: conductance must be a real number, got True"),
    ([(0, 1, 1.0, 5)], "edge #0: expected a (u, v, c) triple, got (0, 1, 1.0, 5)"),
    ([(0, 1, 1.0), (1, 2)], "edge #1: expected a (u, v, c) triple, got (1, 2)"),
    ([(0, 1, 2)], ([0], [1], [2.0])),  # an int conductance
    ([(np.int64(0), np.intp(1), np.float64(1.5))], ([0], [1], [1.5])),  # numpy scalars
    ([(0, 1, 1.0), [1, 2, 0.5]], ([0, 1], [1, 2], [1.0, 0.5])),  # a list in place of a tuple
]


def parsed(edges, n: int = 3):
    """The arrays of an edge list with their dtypes, or its error message."""
    try:
        return [(a.dtype, a.tolist()) for a in network._parse_edges(edges, n)]
    except ValidationError as e:
        return str(e)


class TestParseEdges:
    """Edges are read one by one, a list as an iterator of it, and the
    first bad edge is named."""

    @pytest.mark.parametrize("edges, expect", PINNED_EDGES)
    def test_pinned_outcomes(self, edges, expect):
        if isinstance(expect, str):
            assert parsed(edges) == parsed(iter(edges)) == expect
        else:
            dtypes = (np.dtype(np.int64), np.dtype(np.int64), np.dtype(float))
            assert parsed(edges) == parsed(iter(edges)) == list(zip(dtypes, expect))


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


# ------------------------------------------ the counted Laplacian and its keys


def argsort_laplacian(rows, cols, c, kappa) -> tuple:
    """Oracle: the CSR arrays of a form by the earlier construction. The
    entries of both triangles, row-major, get their diagonal placed by a
    search on their keys, and every zero is dropped at the end."""
    n = kappa.shape[0]
    if n <= DENSE_N_MAX:
        C = np.zeros((n, n))
        C[rows, cols] = c
        diag = C.sum(axis=1) + kappa
    else:
        diag = np.bincount(rows, c, minlength=n) + kappa
    at = np.searchsorted(rows * n + cols, np.arange(n) * (n + 1)) + np.arange(n)
    off = np.ones(rows.size + n, dtype=bool)
    off[at] = False

    def place(entries, diagonal):
        out = np.empty(off.size, dtype=entries.dtype)
        out[off], out[at] = entries, diagonal
        return out

    k = np.arange(n, dtype=rows.dtype)
    r, j, v = place(rows, k), place(cols, k), place(-c, diag)
    keep = v != 0.0
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(r[keep], minlength=n), out=indptr[1:])
    return indptr, j[keep].astype(np.int64), v[keep]


def argsort_assemble(net: Network) -> tuple:
    """Oracle: both triangles of a network's edges by one stable argsort of
    their 2|E| rows, then :func:`argsort_laplacian`."""
    rows = np.concatenate([net.v, net.u])
    order = np.argsort(rows, kind="stable")
    cols, c = np.concatenate([net.u, net.v])[order], np.concatenate([net.c, net.c])[order]
    return argsort_laplacian(rows[order], cols, c, net.killing)


def assert_same_csr(M: csr_array, arrays: tuple) -> None:
    for got, want in zip((M.indptr, M.indices, M.data), arrays):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


LAPLACIAN_SIZES = (1, 2, 7, 20, 40, DENSE_N_MAX, DENSE_N_MAX + 1, 97, 150, 300, 500)


def laplacian_cases(n: int) -> list:
    """24 random networks of n vertices: with and without edges, isolated
    vertices and killing, half of them with dyadic numbers."""
    grid = [(d, i, k) for d in (0.0, 0.5, 1.5, 4.0) for i in (0.0, 0.3) for k in (0.0, 0.4, 1.0)]
    return [random_network(100 * n + s, n, d, i, k, s % 2 == 0) for s, (d, i, k) in enumerate(grid)]


class TestCountedLaplacian:
    """``_laplacian`` writes a large form's CSR arrays at counted positions; they
    must be the arrays of the earlier argsort construction bit for bit, dtypes
    included, with isolated vertices with and without killing and with no
    edges at all."""

    def test_cases_cover_both_sides_and_the_edge_cases(self):
        nets = [net for n in LAPLACIAN_SIZES for net in laplacian_cases(n)]
        assert len(nets) >= 200
        large = [net for net in nets if net.n > DENSE_N_MAX]
        assert len(large) >= 100 and len(nets) - len(large) >= 100
        assert any(net.c.size == 0 for net in large)
        # an isolated vertex without killing stores no diagonal entry
        assert any(np.any(np.bincount(np.concatenate([net.u, net.v]), minlength=net.n) + net.killing == 0) for net in large)

    @pytest.mark.parametrize("n", LAPLACIAN_SIZES)
    def test_assemble_and_recompose_equal_the_argsort_construction(self, n):
        for net in laplacian_cases(n):
            A = assemble(net)
            expected = argsort_assemble(net)
            if n <= DENSE_N_MAX:  # held dense, with its CSR matrix read off the dense array
                assert A._sparse is None
                dense = np.zeros((n, n))
                dense[np.repeat(np.arange(n), np.diff(expected[0])), expected[1]] = expected[2]
                assert A.matrix.tobytes() == dense.tobytes()
            assert_same_csr(A.csr, expected)
            d = decompose(A)
            i, j, v = network._entries(d.jump)
            assert_same_csr(recompose(d).csr, argsort_laplacian(i, j, 2.0 * v, d.kappa))
            assert_same_csr(recompose(d).csr, expected)  # the roundtrip is bit-exact on the CSR arrays

    def test_recompose_of_a_public_kernel_above_dense_n_max(self):
        A = assemble(random_network(5, DENSE_N_MAX + 40, 2.0, 0.2, 0.5, False))
        d = decompose(A)
        public = JumpKillingDecomposition(d.jump.toarray(), d.kappa)  # a checked copy; scipy 1.17 picks int32 indices
        assert_same_csr(recompose(public).csr, (A.csr.indptr, A.csr.indices, A.csr.data))


class TestDistinct:
    """``network._distinct`` is ``np.unique`` without indices, by one sort."""

    VALUES = {
        "empty": [],
        "single": [7],
        "all-equal": [3, 3, 3, 3],
        "negative": [-5, 2, -5, -1, 0, 2],
        "sorted": list(range(-3, 40)),
    }

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("case", VALUES)
    def test_equals_unique(self, case, dtype):
        values = np.array(self.VALUES[case], dtype=dtype)
        for a in (values, np.random.default_rng(0).permutation(values), values[::-1]):
            got, want = network._distinct(a), np.unique(a)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_shuffled_keys(self):
        a = np.random.default_rng(0).integers(-1000, 1000, 5000)
        assert np.array_equal(network._distinct(a), np.unique(a))
        assert np.array_equal(network._distinct(a.astype(np.int32)), np.unique(a.astype(np.int32)))
        big = np.array([2**40, -(2**40), 0, 2**40, 2**62])  # int64 keys beyond int32
        assert np.array_equal(network._distinct(big), np.unique(big))


# ------------------------------------------------ the dense small-form path


def two_array_laplacian(u, v, c, kappa) -> np.ndarray:
    """Oracle: a dense form by the earlier construction, from two n x n arrays:
    the diagonal is the numpy row sums of the conductance matrix plus kappa."""
    n = kappa.shape[0]
    C = np.zeros((n, n))
    C[v, u] = C[u, v] = c
    with np.errstate(over="ignore"):
        diag = C.sum(axis=1) + kappa
    A = np.zeros((n, n))
    A[u, v] = A[v, u] = -c
    np.fill_diagonal(A, diag)
    return A


def dense_cases() -> list:
    """240 networks of at most DENSE_N_MAX vertices, with isolated vertices
    and killing, at scales from 1e-310 (subnormal) to 1e300."""
    scales = (1e-310, 1e-300, 1e-150, 1.0, 1e150, 1e300)
    nets = [net for n in (1, 2, 7, 20, 33, 40, 50, DENSE_N_MAX) for net in laplacian_cases(n)[::5]]
    return [
        Network.from_arrays(net.n, net.u, net.v, net.c * scale, net.killing * scale) for scale in scales for net in nets
    ]


class TestDenseLaplacian:
    """At most DENSE_N_MAX vertices ``_laplacian`` writes one array and reads
    its diagonal off that array's own rows; the result must be the earlier
    two-array construction byte for byte."""

    def test_cases_cover_scales_killing_and_isolated_vertices(self):
        nets = dense_cases()
        assert len(nets) >= 200 and all(net.n <= DENSE_N_MAX for net in nets)
        assert any(net.c.size and net.c.min() < 2.3e-308 for net in nets)  # subnormal conductances
        assert any(net.killing.any() for net in nets) and any(net.c.size == 0 for net in nets)
        assert any((np.bincount(np.concatenate([net.u, net.v]), minlength=net.n) == 0).any() for net in nets)

    def test_assemble_and_roundtrip_equal_the_two_array_construction(self):
        for net in dense_cases():
            A = assemble(net)
            assert A._sparse is None
            assert A.matrix.tobytes() == two_array_laplacian(net.u, net.v, net.c, net.killing).tobytes()
            if net.c.min(initial=1.0) >= np.finfo(float).tiny:  # decompose halves a subnormal inexactly
                assert recompose(decompose(A)).matrix.tobytes() == A.matrix.tobytes()

    def test_negative_zero_killing_on_a_row_without_edges(self):
        # a public decomposition may carry -0.0; the earlier sum 0.0 + -0.0 stored +0.0
        d = JumpKillingDecomposition(np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]), [1.0, -0.0, -0.0])
        got = recompose(d).matrix
        want = two_array_laplacian(np.array([0]), np.array([1]), np.array([1.0]), d.kappa)
        assert got.tobytes() == want.tobytes() and np.signbit(got[2, 2]) == np.signbit(want[2, 2]) == False

    def test_overflowing_row_sum_still_raises(self):
        net = Network(3, [(0, 1, 1e308), (1, 2, 1e308)])
        with pytest.raises(ValidationError, match=r"^form matrix contains non-finite entries, the first in row 1$"):
            assemble(net)


class TestDenseEntries:
    """A dense form's entries come from one pass over its array, and its CSR
    matrix wraps them."""

    @pytest.mark.parametrize("n", [1, 2, 12, 40, DENSE_N_MAX])
    def test_csr_of_a_dense_form(self, n):
        for net in laplacian_cases(n):
            A = assemble(net)
            M, ref = A.csr, network._csr_from_dense(A.matrix)
            assert_same_csr(M, (ref.indptr, ref.indices, ref.data))
            assert M.indices is network._entries(A)[1] and M.data is network._entries(A)[2]
            assert M.indices.dtype == M.indptr.dtype == np.int64
            assert_well_formed(M)
            i, j, a = network._entries(A)
            assert all(x.flags.c_contiguous for x in (i, j, a))
            assert np.array_equal(i, np.nonzero(A.matrix)[0]) and np.array_equal(j, np.nonzero(A.matrix)[1])
            labels = connected_components(M, directed=True, connection="strong")[1]
            assert np.array_equal(labels, network._labels(A))

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (4, 0), (1, 1), (3, 7)])
    def test_csr_from_dense_shapes(self, shape):
        m = np.random.default_rng(1).standard_normal(shape) * (np.random.default_rng(2).random(shape) < 0.5)
        M = network._csr_from_dense(m)
        ref = csr_array(m)
        assert M.shape == shape and M.indptr.tolist() == ref.indptr.tolist()
        assert M.indices.tolist() == ref.indices.tolist() and M.data.tobytes() == ref.data.tobytes()
        assert M.indptr.dtype == M.indices.dtype and M.indices.flags.c_contiguous
        assert_well_formed(M)

    def test_csr_from_dense_of_strided_arrays(self):
        m = np.random.default_rng(3).standard_normal((9, 6)) * (np.random.default_rng(4).random((9, 6)) < 0.4)
        for view in (np.asfortranarray(m), m[::2], m[:, 1:], -np.asfortranarray(m)):
            M = network._csr_from_dense(view)
            assert np.array_equal(M.toarray(), view) and M.indices.flags.c_contiguous
            assert_well_formed(M)


#: Edge lists read by both paths of ``_parse_edges``: each as a list (the bulk
#: path, when its entries allow it) and as a generator and a tuple (one by one).
BULK_EDGES = {
    "ints-and-floats": [(0, 1, 1.5), (2, 1, 2), (0, 2, 1e-320)],
    "large-int-conductance": [(0, 1, 2**70 + 12345), (1, 2, 2**53 + 1)],
    "int-beyond-float": [(0, 1, 1.0), (1, 2, 10**400)],
    "int-beyond-int64": [(0, 1, 1.0), (2**70, 1, 1.0)],
    "negative-beyond-int64": [(-(2**64), 1, 1.0)],
    "negative-and-out-of-range": [(-1, 1, 1.0), (0, 7, 2.0)],
    "numpy-int-endpoints": [(np.int64(0), 1, 1.0), (1, np.int32(2), 1.0)],
    "numpy-float-conductance": [(0, 1, np.float64(1.5)), (1, 2, 2.0)],
    "bool-endpoint": [(0, 1, 1.0), (True, 2, 1.0)],
    "bool-conductance": [(0, 1, 1.0), (1, 2, True)],
    "float-endpoint": [(0, 1.0, 1.0)],
    "string-conductance": [(0, 1, "1.0")],
    "none-conductance": [(0, 1, None)],
    "two-tuple": [(0, 1, 1.0), (1, 2)],
    "four-tuple": [(0, 1, 1.0, 5)],
    "list-triples": [[0, 1, 1.0], [1, 2, 0.5]],
    "mixed-triples": [(0, 1, 1.0), [1, 2, 0.5]],
    "not-a-triple": [(0, 1, 1.0), 7],
    "empty": [],
}


class TestBulkEdgeParse:
    @pytest.mark.parametrize("case", BULK_EDGES)
    def test_bulk_path_equals_the_loop(self, case):
        edges = BULK_EDGES[case]
        got = parsed(edges)
        assert got == parsed(iter(edges)) == parsed(tuple(edges)) == parsed(e for e in edges)
        if not isinstance(got, str):
            assert [dtype for dtype, _ in got] == [np.dtype(np.int64), np.dtype(np.int64), np.dtype(float)]

    def test_errors_name_the_first_bad_edge(self):
        assert parsed(BULK_EDGES["int-beyond-int64"]) == "edge #1: endpoint out of range (u=1180591620717411303424, v=1, n=3)"
        assert parsed(BULK_EDGES["int-beyond-float"]) == "edge #1: conductance is too large for a float"
        assert parsed(BULK_EDGES["bool-conductance"]) == "edge #1: conductance must be a real number, got True"
        assert parsed(BULK_EDGES["two-tuple"]) == "edge #1: expected a (u, v, c) triple, got (1, 2)"
        assert parsed(BULK_EDGES["empty"]) == [(np.dtype(np.int64), []), (np.dtype(np.int64), []), (np.dtype(float), [])]

    def test_a_list_of_python_numbers_is_read_a_column_at_a_time(self, monkeypatch):
        calls = []
        for name in ("_index", "_real"):
            fn = getattr(network, name)
            monkeypatch.setattr(network, name, lambda *a, _f=fn, _n=name: calls.append(_n) or _f(*a))
        parsed(BULK_EDGES["ints-and-floats"])
        assert calls == []
        parsed(iter(BULK_EDGES["ints-and-floats"]))
        assert len(calls) == 9

    def test_checked_edges_are_read_only(self):
        net = Network(3, [(2, 1, 1.0), (0, 1, 2)])
        assert [a.tolist() for a in (net.u, net.v, net.c)] == [[0, 1], [1, 2], [2.0, 1.0]]
        assert not any(a.flags.writeable for a in (net.u, net.v, net.c))


class TestCholeskyNorm:
    """``_cholesky`` takes the 1-norm of its block from LAPACK's ``dlange``,
    whose column sums run in row order as numpy's axis-0 sums of a C-ordered
    array do: the two must agree bit for bit on the strided blocks it gets."""

    def test_dlange_equals_the_numpy_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n, k = int(rng.integers(1, DENSE_N_MAX + 1)), int(rng.integers(0, 8))
            big = rng.standard_normal((n + k, n + k)) * 10.0 ** rng.integers(-300, 300)
            big[rng.random(big.shape) < 0.5] = 0.0
            for M in (big[k:, k:], big[:n, :n], big.take(rng.permutation(n + k), 0)[k:, k:]):
                assert lapack.dlange("1", M) == np.max(np.sum(np.abs(M), axis=0))

    def test_rcond_unchanged_on_a_trace(self):
        A = assemble(random_network(6, 30, 2.0, 0.0, 0.5, False))
        M = A.matrix[5:, 5:]
        c, _ = lapack.dpotrf(M, lower=1, clean=0)
        want = lapack.dpocon(c, np.max(np.sum(np.abs(M), axis=0)), uplo="L")[0]
        assert trace(A, range(5)).rcond == want


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
