import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforms import (
    FormMatrix,
    InfiniteResistanceError,
    Network,
    SingularBlockError,
    UnsupportedRegimeError,
    ValidationError,
    assemble,
    effective_resistance,
    evaluate,
    harmonic_extension,
    is_markov,
    killing_vector,
    resistance_matrix,
    sup_formula_value,
    trace,
)
from netforms.network import DENSE_N_MAX, SINGULAR_RCOND, _csr_from_entries, _entries
from netforms.random_networks import random_connected_network
from netforms.sequences import build_dyadic_interval, build_sierpinski_gasket
from netforms.trace import TraceResult, _cholesky, _dense, _sparse_block, _split


def top_level(seq, idx):
    """Level-0 vertex indices of a sequence as indices of its top level."""
    for m in seq.inclusions:
        idx = m[idx]
    return idx


def min_energy_over_grid(A, U, f, grid):
    """Oracle: minimize E over a grid of values at the single interior vertex."""
    n = A.n
    (w,) = [i for i in range(n) if i not in set(U)]
    best = np.inf
    for m in grid:
        g = np.empty(n)
        g[list(U)] = f
        g[w] = m
        best = min(best, evaluate(A, g))
    return best


def min_energy_random_extensions(A, U, f, n_samples, rng):
    """Oracle: minimum energy over random extensions of boundary data f."""
    n = A.n
    W = np.array([i for i in range(n) if i not in set(U)])
    G = np.empty((n, n_samples))
    G[list(U), :] = np.asarray(f)[:, None]
    G[W[:, None], np.arange(n_samples)[None, :]] = rng.uniform(-3, 3, (W.size, n_samples))
    energies = np.einsum("ik,ij,jk->k", G, A.matrix, G)
    return float(np.min(energies))


class TestTrace:
    def test_path_series_law(self, path3):
        tr = trace(path3, [0, 2])
        assert np.allclose(tr.traced_form.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-14)
        # brute-force oracle: minimize (1-m)^2 + m^2 over the interior value
        oracle = min_energy_over_grid(path3, [0, 2], [1.0, 0.0], np.linspace(-1, 2, 30001))
        assert abs(evaluate(tr.traced_form, [1.0, 0.0]) - oracle) <= 1e-8

    def test_full_subset_is_identity(self, path3):
        tr = trace(path3, [0, 1, 2])
        assert np.array_equal(tr.traced_form.matrix, path3.matrix)
        assert tr.extension_operator.shape == (0, 3)

    def test_triangle_two_vertices(self, triangle):
        tr = trace(triangle, [0, 1])
        assert np.allclose(tr.traced_form.matrix, [[1.5, -1.5], [-1.5, 1.5]], atol=1e-14)
        oracle = min_energy_over_grid(triangle, [0, 1], [1.0, 0.0], np.linspace(-1, 2, 30001))
        assert abs(evaluate(tr.traced_form, [1.0, 0.0]) - oracle) <= 1e-8

    def test_dense_guard_falls_back_to_components(self):
        # 0-1-2-3 at conductance 1, then 3-4-5-6 and on at 1e-20: the interior
        # {1, 2, 4, 5} has two components of rcond 1/3, but as one dense block
        # an rcond of about 3e-21; the 67-vertex form is eliminated by component
        def path(n):
            c = np.r_[np.ones(3), np.full(n - 4, 1e-20)]
            return assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), c))

        small, big = trace(path(7), [0, 3, 6]), trace(path(67), np.r_[0, 3, 6:67])
        assert small.rcond == big.rcond == pytest.approx(1 / 3, rel=1e-12)
        S, T = small.traced_form.matrix, big.traced_form.matrix[:3, :3]
        assert np.max(np.abs(S - T)) <= 1e-15 * np.max(np.abs(S))
        H, K = small.extension_operator.toarray(), big.extension_operator.toarray()
        assert np.array_equal(H, K[:, :3]) and not np.any(K[:, 3:])

    def test_small_floating_component_raises_without_the_component_path(self, monkeypatch):
        # a floating component is singular in any elimination: the failed dense
        # block raises at once instead of retrying component by component
        called = []
        tr = sys.modules["netforms.trace"]  # ``netforms.trace`` names the re-exported function
        monkeypatch.setattr(tr, "_kron", lambda *args: called.append(args))
        A = assemble(Network(5, [(0, 1, 1.0), (2, 3, 1.0), (3, 4, 2.0)]))
        with pytest.raises(SingularBlockError, match=r"^components disconnected from the subset with no killing: \[\[2, 3, 4\]\]"):
            trace(A, [0])
        assert not called

    def test_subset_validation(self, path3):
        with pytest.raises(ValidationError, match="duplicate"):
            trace(path3, [0, 0])
        with pytest.raises(ValidationError, match="nonempty"):
            trace(path3, [])
        with pytest.raises(ValidationError, match="out of range"):
            trace(path3, [0, 7])
        for bad in ([0.7, 2.2], [0, 2.0], [True, 2], np.array([0.0, 2.0]), [[0, 1]], [[0, 1], [2]]):
            with pytest.raises(ValidationError):
                trace(path3, bad)
        ref = trace(path3, [0, 2]).traced_form.matrix
        for ok in (np.array([0, 2]), [np.int64(0), np.intp(2)], (0, 2)):
            assert np.array_equal(trace(path3, ok).traced_form.matrix, ref)

    def test_preserves_markov(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            net = random_connected_network(rng, n_max=20, n_min=3, with_killing=bool(rng.integers(0, 2)))
            A = assemble(net)
            k = int(rng.integers(1, A.n))
            U = np.sort(rng.choice(A.n, size=k, replace=False))
            assert bool(is_markov(trace(A, U).traced_form))

    def test_energy_identity_and_boundary_exactness(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            net = random_connected_network(rng, n_max=15, n_min=3, with_killing=False)
            A = assemble(net)
            k = int(rng.integers(1, A.n))
            U = np.sort(rng.choice(A.n, size=k, replace=False))
            tr = trace(A, U)
            f = rng.uniform(-2, 2, k)
            g = harmonic_extension(tr, f)
            assert np.array_equal(g[U], f)
            scale = max(1.0, np.max(np.abs(A.matrix))) * 4.0 * A.n
            assert abs(evaluate(A, g) - evaluate(tr.traced_form, f)) <= 1e-10 * scale

    def test_minimizer_beats_random_extensions(self):
        rng = np.random.default_rng(12)
        net = random_connected_network(rng, n_max=12, n_min=5, with_killing=False)
        A = assemble(net)
        U = np.sort(rng.choice(A.n, size=3, replace=False))
        tr = trace(A, U)
        f = rng.uniform(-1, 1, 3)
        e_min = evaluate(tr.traced_form, f)
        sampled = min_energy_random_extensions(A, U, f, 10000, rng)
        assert sampled >= e_min - 1e-10 * max(1.0, abs(e_min))

    def test_tower_property(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            net = random_connected_network(rng, n_max=20, n_min=4, with_killing=bool(rng.integers(0, 2)))
            A = assemble(net)
            k2 = int(rng.integers(2, A.n))
            U2 = np.sort(rng.choice(A.n, size=k2, replace=False))
            k1 = int(rng.integers(1, k2))
            local = np.sort(rng.choice(k2, size=k1, replace=False))
            via_tower = trace(trace(A, U2).traced_form, local).traced_form.matrix
            direct = trace(A, U2[local]).traced_form.matrix
            assert np.max(np.abs(via_tower - direct)) <= 1e-9 * max(1.0, np.max(np.abs(A.matrix)))

    def test_singular_interior_names_component(self):
        # vertices 2,3 form a floating component with no killing
        net = Network(4, [(0, 1, 1.0), (2, 3, 1.0)])
        with pytest.raises(SingularBlockError, match=r"\[2, 3\]"):
            trace(assemble(net), [0, 1])

    def test_singular_interior_lists_each_floating_component(self):
        # {0, 1} meets the subset and {4, 5} carries killing; {2, 3} and {6} float
        net = Network(7, [(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)], killing=[0, 0, 0, 0, 0.5, 0, 0])
        with pytest.raises(SingularBlockError) as err:
            trace(assemble(net), [0])
        assert str(err.value).startswith(
            "components disconnected from the subset with no killing: [[2, 3], [6]] (rcond estimate "
        )

    def test_killing_rescues_floating_component(self):
        net = Network(4, [(0, 1, 1.0), (2, 3, 1.0)], killing=[0, 0, 0.5, 0])
        tr = trace(assemble(net), [0, 1])
        assert bool(is_markov(tr.traced_form))


class TestHarmonicExtension:
    def test_path_midpoint(self, path3):
        g = harmonic_extension(trace(path3, [0, 2]), [1.0, 0.0])
        assert np.allclose(g, [1.0, 0.5, 0.0], atol=1e-14)
        assert g[0] == 1.0 and g[2] == 0.0

    def test_constant_extends_to_constant(self, path3):
        g = harmonic_extension(trace(path3, [0, 2]), [2.5, 2.5])
        assert np.allclose(g, 2.5, atol=1e-13)

    def test_full_subset(self, path3):
        g = harmonic_extension(trace(path3, [0, 1, 2]), [1.0, 2.0, 3.0])
        assert np.array_equal(g, [1.0, 2.0, 3.0])

    def test_dimension_mismatch(self, path3):
        with pytest.raises(ValidationError):
            harmonic_extension(trace(path3, [0, 2]), [1.0, 0.0, 3.0])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gasket_one_fifth_two_fifths_rule(self, n):
        # the walk from a level-1 midpoint first meets the corners at its two
        # neighbours with chance 2/5 each and at the opposite one with 1/5, at every level
        seq = build_sierpinski_gasket(n)
        # from level 4 the one interior component (120-9,840 vertices) is factored
        # by sparse LU; levels 6-8 measure errors of 2.4e-14, 8.3e-14 and 5.5e-13
        tol = {6: 1e-13, 7: 4e-13, 8: 2e-12}.get(n, 1e-13)

        def at_level_n(level):
            idx = np.arange(seq.networks[level].n)
            for m in seq.inclusions[level:n]:
                idx = m[idx]
            return idx

        corners1 = seq.inclusions[0]
        mids1 = np.setdiff1d(np.arange(seq.networks[1].n), corners1)
        tr = trace(seq.form(n), at_level_n(0))
        rows = tr.extension_operator[np.searchsorted(tr.interior, at_level_n(1)[mids1])].toarray()
        neighbours = seq.networks[1].conductance_matrix()[np.ix_(mids1, corners1)] > 0.0
        assert mids1.size == 3 and np.all(np.sum(neighbours, axis=1) == 2)
        assert np.max(np.abs(rows - np.where(neighbours, 0.4, 0.2))) <= tol


class TestEffectiveResistance:
    def test_single_edge(self):
        A = assemble(Network(2, [(0, 1, 4.0)]))
        assert abs(effective_resistance(A, 0, 1) - 0.25) <= 1e-14

    def test_series_path(self, path3):
        assert abs(effective_resistance(path3, 0, 2) - 2.0) <= 1e-12
        # sup-formula lower bound from random functions never exceeds it
        rng = np.random.default_rng(14)
        sup = max(sup_formula_value(path3, 0, 2, rng.standard_normal(3)) for _ in range(2000))
        assert sup <= 2.0 + 1e-9

    def test_triangle_parallel(self, triangle):
        assert abs(effective_resistance(triangle, 0, 1) - 2.0 / 3.0) <= 1e-12

    def test_rejects_killing(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 0.0]))
        with pytest.raises(UnsupportedRegimeError):
            effective_resistance(A, 0, 1)

    def test_disconnected_infinite(self):
        A = assemble(Network(4, [(0, 1, 1.0), (2, 3, 1.0)]))
        with pytest.raises(InfiniteResistanceError):
            effective_resistance(A, 0, 2)

    def test_same_vertex_rejected(self, path3):
        with pytest.raises(ValidationError):
            effective_resistance(path3, 1, 1)

    @pytest.mark.parametrize("net, x, y, tol", [
        (lambda: Network(4, [(0, 1, 1.0), (2, 3, 1.0)]), 0, 1, 0.0),
        (lambda: Network(4, [(0, 1, 1.0), (2, 3, 1.0)]), 3, 2, 0.0),
        (lambda: Network(5, [(0, 3, 2.0), (3, 4, 2.0), (1, 2, 1.0)]), 4, 0, 1e-14),
        # above DENSE_N_MAX: a dense view of the 12,002-vertex traced form
        # would exceed DENSE_BYTES_MAX
        (lambda: Network.from_arrays(12_003, np.r_[0, 1, 3:12_002], np.r_[1, 2, 4:12_003],
                                     np.r_[2.0, 2.0, np.ones(11_999)]), 2, 0, 0.0),
    ], ids=["edge-beside-edge", "reversed-pair", "path-beside-edge", "beside-12000-path"])
    def test_other_component_does_not_float(self, net, x, y, tol):
        # the other components would float in the interior block of the trace onto {x, y}
        assert abs(effective_resistance(assemble(net()), x, y) - 1.0) <= tol

    def test_near_zero_bridge(self):
        A = assemble(Network(4, [(0, 1, 1.0), (1, 2, 1e-20), (2, 3, 1.0)]))
        assert effective_resistance(A, 0, 3) == pytest.approx(1e20, rel=1e-12)

    @pytest.mark.parametrize("tail", [0, 70], ids=["dense", "sparse"])
    def test_non_finite_trace_raises(self, tail):
        # killing-free, with positive diagonals and finite entries, but the
        # elimination of vertex 2 overflows, as a FormMatrix of the trace would report
        p, d = 2.0**1000, 2.0**948
        n = 3 + tail
        M = np.zeros((n, n))
        M[:3, :3] = [[3 * p, -2 * p, -p], [-2 * p, p + d, p - d], [-p, p - d, d]]
        for a, b in zip([0] + list(range(3, n - 1)), range(3, n)):  # a unit path hanging off vertex 0
            M[a, b] = M[b, a] = -1.0
            M[a, a] += 1.0
            M[b, b] += 1.0
        with pytest.raises(ValidationError, match="non-finite"), np.errstate(over="ignore"):
            effective_resistance(FormMatrix(M), 0, 1)


rayleigh_cases = st.tuples(
    st.one_of(st.integers(3, 12), st.integers(60, 120)),  # both sides of DENSE_N_MAX
    st.floats(1.0, 100.0),
    st.integers(0, 2**32 - 1),
)


class TestRayleighMonotonicity:
    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(rayleigh_cases)
    def test_raising_a_conductance_never_raises_resistance(self, case):
        n, factor, seed = case
        rng = np.random.default_rng(seed)
        net = random_connected_network(rng, n_max=n, n_min=n, with_killing=False)
        k = int(rng.integers(net.c.size))
        raised = Network.from_arrays(n, net.u, net.v, np.where(np.arange(net.c.size) == k, net.c * factor, net.c))
        A0, A1 = assemble(net), assemble(raised)
        R = resistance_matrix(A0)
        for x, y in (rng.choice(n, size=2, replace=False) for _ in range(3)):
            r0, r1 = effective_resistance(A0, x, y), effective_resistance(A1, x, y)
            assert r1 <= r0 * (1.0 + 1e-12)
            assert abs(r0 - R[x, y]) <= 1e-9 * max(1.0, float(np.max(R)))


class TestResistanceMatrix:
    def test_unit_edge(self):
        R = resistance_matrix(assemble(Network(2, [(0, 1, 1.0)])))
        assert np.allclose(R, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_dyadic_endpoints_resistance_one(self):
        for n in range(0, 9):
            seq = build_dyadic_interval(n)
            A = seq.form(n)
            assert abs(effective_resistance(A, 0, A.n - 1) - 1.0) <= 1e-10

    def test_single_vertex(self):
        assert np.array_equal(resistance_matrix(assemble(Network(1))), [[0.0]])

    def test_near_zero_bridge_is_singular(self):
        # the pseudoinverse returned R(0, 3) = 0.5 here; the two-point trace gives 1e20
        A = assemble(Network(4, [(0, 1, 1.0), (1, 2, 1e-20), (2, 3, 1.0)]))
        with pytest.raises(SingularBlockError, match="rcond"):
            resistance_matrix(A)

    def test_guard_counts_five_dense_arrays(self):
        # the dense view, the factor, the identity, the solution and R: n <= 5,181 passes
        n = 5182
        A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        with pytest.raises(ValidationError, match=r"of shape \(5, 5182, 5182\) needs 1074124960 bytes"):
            resistance_matrix(A)

    def test_triangle_all_pairs(self, triangle):
        R = resistance_matrix(triangle)
        off = R[~np.eye(3, dtype=bool)]
        assert np.allclose(off, 2.0 / 3.0, atol=1e-12)

    def test_agrees_with_two_point_trace(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            net = random_connected_network(rng, n_max=15, with_killing=False)
            A = assemble(net)
            R = resistance_matrix(A)
            x, y = rng.choice(A.n, size=2, replace=False)
            scale = max(1.0, np.max(R))
            assert abs(R[x, y] - effective_resistance(A, x, y)) <= 1e-9 * scale

    def test_triangle_inequality(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            net = random_connected_network(rng, n_max=20, with_killing=False)
            R = resistance_matrix(assemble(net))
            T = R[:, :, None] + R[None, :, :]
            assert np.max(R[:, None, :] - T) <= 1e-9 * max(1.0, np.max(R))

    def test_rayleigh_monotonicity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            net = random_connected_network(rng, n_max=12, with_killing=False)
            R0 = resistance_matrix(assemble(net))
            edges = list(net.edges)
            k = int(rng.integers(0, len(edges)))
            u, v, c = edges[k]
            edges[k] = (u, v, c * (1.0 + rng.uniform(0.1, 2.0)))
            R1 = resistance_matrix(assemble(Network(net.vertices, edges)))
            assert np.all(R1 <= R0 + 1e-10 * max(1.0, np.max(R0)))

    def test_gasket_corner_resistance(self):
        seq = build_sierpinski_gasket(3)
        for n in range(4):
            A = seq.form(n)
            # corners of level n are the images of the level-0 vertices
            idx = np.arange(seq.networks[0].n)
            for m in seq.inclusions[:n]:
                idx = m[idx]
            r = effective_resistance(A, int(idx[0]), int(idx[1]))
            assert abs(r - 2.0 / 3.0) <= 1e-10


class TestAcrossLevels:
    """R_n(p, q) between points of V_0 is the same at every level of a
    compatible sequence: the resistance form on V_* that the sequence defines
    (Kigami, Analysis on Fractals, ch. 2). From gasket level 4 and at the
    dyadic levels here, the interior is one component above DENSE_N_MAX
    vertices, factored by sparse LU."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gasket_corner_resistance_two_thirds(self, n):
        # relative errors measured over the three corner pairs: at most 1.1e-14
        # through level 5, then 7.5e-14, 2.7e-13 and 2.7e-12 at levels 6, 7 and 8
        rtol = {6: 4e-13, 7: 1e-12, 8: 1e-11}.get(n, 1e-13)
        seq = build_sierpinski_gasket(n)
        corners = top_level(seq, np.arange(3))
        A = seq.form(n)
        for x, y in ((0, 1), (0, 2), (1, 2)):
            r = effective_resistance(A, int(corners[x]), int(corners[y]))
            assert abs(r - 2.0 / 3.0) <= rtol * 2.0 / 3.0

    # errors measured: 1.3e-11, 4.3e-11, 1.3e-10 and 5.2e-10 at levels 13-16
    @pytest.mark.parametrize("n, tol", [(13, 5e-11), (14, 2e-10), (15, 5e-10), (16, 2e-9)])
    def test_dyadic_end_resistance_one(self, n, tol):
        A = build_dyadic_interval(n).form(n)
        assert abs(effective_resistance(A, 0, A.n - 1) - 1.0) <= tol


class TestSupFormula:
    def test_harmonic_extension_attains(self, triangle):
        tr = trace(triangle, [0, 1])
        u = harmonic_extension(tr, [1.0, 0.0])
        r = effective_resistance(triangle, 0, 1)
        assert abs(sup_formula_value(triangle, 0, 1, u) - r) <= 1e-12
        # random search never exceeds the attained value
        rng = np.random.default_rng(18)
        for _ in range(2000):
            v = rng.standard_normal(3)
            assert sup_formula_value(triangle, 0, 1, v) <= r + 1e-9

    def test_affine_invariance(self, path3):
        rng = np.random.default_rng(19)
        u = rng.standard_normal(3)
        v1 = sup_formula_value(path3, 0, 2, u)
        v2 = sup_formula_value(path3, 0, 2, 3.7 * u + 11.0)
        assert abs(v1 - v2) <= 1e-12 * max(1.0, v1)

    def test_unit_edge_indicator(self, unit_edge):
        assert sup_formula_value(unit_edge, 0, 1, [1.0, 0.0]) == 1.0

    def test_vertex_indices_checked(self, path3):
        u = [1.0, 0.0, 0.5]
        for bad in (-1, 3, 7, 0.9, 2.0, "0"):
            with pytest.raises(ValidationError, match="vertex"):
                sup_formula_value(path3, bad, 0, u)
            with pytest.raises(ValidationError, match="vertex"):
                effective_resistance(path3, 1, bad)
        assert sup_formula_value(path3, np.int64(0), np.intp(1), u) == sup_formula_value(path3, 0, 1, u)
        assert effective_resistance(path3, np.int64(0), np.intp(2)) == effective_resistance(path3, 0, 2)

    def test_zero_energy_rejected(self):
        zero = assemble(Network(3))
        with pytest.raises(ValidationError, match="undefined"):
            sup_formula_value(zero, 0, 1, [1.0, 0.0, 0.0])


def dense_schur(A, U):
    """Oracle: the Schur complement and extension operator of one dense solve."""
    M = A.matrix
    W = np.setdiff1d(np.arange(A.n), U)
    X = np.linalg.solve(M[np.ix_(W, W)], M[np.ix_(W, U)])
    return M[np.ix_(U, U)] - M[np.ix_(U, W)] @ X, -X


def split_network(rng, sizes, big, n_boundary, bridges=(), with_killing=True):
    """Boundary vertices 0..n_boundary-1 on a random tree, then interior
    components: trees of the given sizes and one of ``big`` vertices, each
    tied to the boundary by one to three edges; a fifth of the vertices carry
    killing, unless ``with_killing`` is false. Vertices are shuffled; returns
    the form and the boundary's positions. ``bridges`` names components (0 is
    the big one) whose last vertex, killing-free, hangs on the rest by a 1e-20
    edge instead."""
    edges = {}
    for a in range(1, n_boundary):
        edges[(int(rng.integers(0, a)), a)] = float(rng.uniform(0.1, 3.0))
    n = n_boundary + big + sum(sizes)
    killing = np.where(rng.random(n) < 0.2, rng.uniform(0.0, 1.0, n), 0.0) * with_killing
    v = n_boundary
    for c, k in enumerate([big, *sizes]):
        for a in range(1, k):
            weight = float(rng.uniform(0.1, 3.0))
            if c in bridges and a == k - 1:
                weight, killing[v + a] = 1e-20, 0.0
            edges[(v + int(rng.integers(0, a)), v + a)] = weight
        for _ in range(int(rng.integers(1, 4))):
            edges[(int(rng.integers(0, n_boundary)), v + int(rng.integers(0, max(1, k - 1))))] = float(rng.uniform(0.1, 3.0))
        v += k
    perm = rng.permutation(n)
    net = Network(n, [(int(perm[a]), int(perm[b]), w) for (a, b), w in edges.items()], killing[np.argsort(perm)])
    return assemble(net), np.sort(perm[:n_boundary])


split_inputs = st.tuples(
    st.lists(st.integers(1, 5), min_size=1, max_size=30),
    st.integers(DENSE_N_MAX + 1, DENSE_N_MAX + 8),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
split_settings = settings(max_examples=40, derandomize=True, deadline=None, database=None)


class TestSplitTrace:
    """Interiors above DENSE_N_MAX vertices, eliminated component by component."""

    @split_settings
    @given(split_inputs)
    def test_matches_dense_schur(self, case):
        sizes, big, n_boundary, seed = case
        A, U = split_network(np.random.default_rng(seed), sizes, big, n_boundary)
        tr = trace(A, U)
        S, H = dense_schur(A, U)
        scale = max(1.0, float(np.max(np.abs(S))))
        assert np.max(np.abs(tr.traced_form.matrix - S)) <= 1e-12 * scale
        assert np.max(np.abs(tr.extension_operator - H)) <= 1e-12
        assert SINGULAR_RCOND <= tr.rcond <= 1.0

    @split_settings
    @given(split_inputs, st.integers(1, 40))
    def test_tower_property(self, case, n_extra):
        sizes, big, n_boundary, seed = case
        rng = np.random.default_rng(seed)
        A, U1 = split_network(rng, sizes, big, n_boundary)
        W = np.setdiff1d(np.arange(A.n), U1)
        U2 = np.union1d(U1, rng.choice(W, size=min(n_extra, W.size - 1), replace=False))
        via_tower = trace(trace(A, U2).traced_form, np.searchsorted(U2, U1)).traced_form.matrix
        direct = trace(A, U1).traced_form.matrix
        assert np.max(np.abs(via_tower - direct)) <= 1e-12 * max(1.0, float(np.max(np.abs(direct))))

    @split_settings
    @given(split_inputs, st.integers(1, 4))
    def test_floating_components_named(self, case, k):
        sizes, big, n_boundary, seed = case
        A, U = split_network(np.random.default_rng(seed), sizes, big, n_boundary)
        # append two killing-free paths of k vertices that touch nothing; they
        # share one stacked solve, which fails as a whole
        n = A.n + 2 * k
        M = np.zeros((n, n))
        M[: A.n, : A.n] = A.matrix
        for start in (A.n, A.n + k):
            for a in range(start + 1, start + k):
                M[a - 1, a] = M[a, a - 1] = -1.0
        tail = np.arange(A.n, n)
        M[tail, tail] = -np.sum(M[tail], axis=1)
        with pytest.raises(SingularBlockError) as err:
            trace(FormMatrix(M), U)
        floating = [list(range(A.n, A.n + k)), list(range(A.n + k, n))]
        assert str(err.value).startswith(
            f"components disconnected from the subset with no killing: {floating} (rcond estimate "
        )

    @pytest.mark.parametrize("bridged", [0, 1], ids=["lone", "stacked"])
    def test_near_zero_bridge_is_singular(self, bridged):
        # component 0 is the big one (a lone block); components 1-3 have the
        # same size and so share a stack unless their boundary counts differ
        rng = np.random.default_rng(7)
        A, U = split_network(rng, [3, 3, 3], DENSE_N_MAX + 1, 1, bridges=(bridged,))
        with pytest.raises(SingularBlockError, match=r"^interior block is numerically singular \(rcond estimate"):
            trace(A, U)

    def test_rcond_is_per_block(self):
        # the interior {1, 3} is diagonal, so each vertex is its own block: vertex
        # 3, on a 1e-20 edge, is a well-conditioned 1 x 1 block, although the
        # condition of the whole interior block is 5e-21
        A = assemble(Network(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1e-20)]))
        tr = trace(A, [0, 2])
        S, H = dense_schur(A, np.array([0, 2]))
        assert tr.rcond == pytest.approx(1.0)
        assert np.allclose(tr.traced_form.matrix, S, rtol=1e-15, atol=0.0)
        assert np.allclose(tr.extension_operator.toarray(), H, rtol=1e-15, atol=0.0)

    def test_rcond_of_cholesky_block_and_empty_interior(self, path3, triangle):
        assert trace(path3, [0, 1, 2]).rcond == 1.0
        tr = trace(triangle, [0])
        assert 0.0 < tr.rcond < 1.0 and tr.extension_operator.shape == (2, 1)

    def test_guard_counts_the_boundary_pair_terms(self, monkeypatch):
        # the center of a star touches all of its 6,000 leaves: 3.6e7 boundary
        # pairs, 7 arrays of them; a star of at most 4,378 leaves passes
        def eliminate(*args):
            raise AssertionError("eliminated a block past the guard")

        monkeypatch.setattr(sys.modules["netforms.trace"], "_dense", eliminate)
        b = 6000
        A = assemble(Network.from_arrays(b + 1, np.zeros(b, dtype=int), np.arange(1, b + 1), np.ones(b)))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"^the boundary-pair terms of the interior components of shape \(7, 36000000\) "):
                trace(A, np.arange(1, b + 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**22  # one array of the 3.6e7 pairs alone would take 288 MB


def lone_kron(A, U):
    """Oracle: the component-wise trace with a stack of one shape's components
    through ``_dense`` and every lone component eliminated on its own: a coupled
    block by ``_cholesky``, a diagonal one by division, one above DENSE_N_MAX
    vertices by ``_sparse_block``, each with its terms taken as ``B.T @ h``.
    Returns the traced form as CSR, the extension operator as an array, the
    smallest rcond and the kinds of elimination met."""
    n, n_u = A.n, U.size
    W = np.setdiff1d(np.arange(n), U)
    i, j, a = _entries(A)
    pos = np.empty(n, dtype=np.intp)
    pos[U], pos[W] = np.arange(n_u), np.arange(W.size)
    inner = np.isin(np.arange(n), W)
    uu = ~inner[i] & ~inner[j]
    keys, terms = [pos[i[uu]] * n_u + pos[j[uu]]], [a[uu]]
    M, H, rcond, kinds = A.matrix, np.zeros((W.size, n_u)), 1.0, set()
    for w, u in _split(i, j, pos, inner, n_u, W.size):
        if w.shape[0] > 1:
            Wg, Ug = W[w], U[u]
            B = M[Wg[:, :, None], Ug[:, None, :]]
            h, rc = _dense(M[Wg[:, :, None], Wg[:, None, :]], B, lambda: "singular")
            keys.append((u[:, :, None] * n_u + u[:, None, :]).ravel())
            terms.append((np.swapaxes(B, 1, 2) @ h).ravel())
            H[w[:, :, None], u[:, None, :]] = h
            rcond = min(rcond, rc)
            kinds.add("isolated stack" if w.shape[1] == 1 else "stack")
            continue
        (wc,), (uc,) = w, u
        Wc, Uc = W[wc], U[uc]
        if wc.size > DENSE_N_MAX:
            B, h, rc = _sparse_block(A.csr, Wc, Uc, lambda: "singular")
            B, h = B[0], h[0]
            kinds.add("sparse")
        else:
            A_cc, B = M[np.ix_(Wc, Wc)], M[np.ix_(Wc, Uc)]
            d = np.diagonal(A_cc)
            if np.count_nonzero(A_cc) > np.count_nonzero(d):
                X, rc = _cholesky(A_cc, B, lambda: "singular")
                h = -X
                kinds.add("lone")
            else:
                h, rc = -B / d[:, None], 1.0 if (d > 0.0).all() else 0.0
                kinds.add("isolated lone")
        keys.append((uc[:, None] * n_u + uc[None, :]).ravel())
        terms.append((B.T @ h).ravel())
        H[np.ix_(wc, uc)] = h
        rcond = min(rcond, rc)
    n_uu, keys, terms = keys[0].size, np.concatenate(keys), np.concatenate(terms)
    uniq, at = np.unique(keys, return_inverse=True)
    s = np.bincount(at[:n_uu], terms[:n_uu], uniq.size) + np.bincount(at[n_uu:], terms[n_uu:], uniq.size)
    s = (s + s[np.searchsorted(uniq, uniq % n_u * n_u + uniq // n_u)]) / 2.0
    r, c = np.divmod(uniq, n_u)
    return _csr_from_entries(r, c, s, (n_u, n_u)), H, rcond, kinds


class TestOneDenseRule:
    """Every component group goes through one loop body: the result equals, bit
    for bit, that of eliminating each lone component on its own."""

    @pytest.mark.parametrize("with_killing", [True, False], ids=["killing", "killing-free"])
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_lone_elimination(self, seed, with_killing):
        rng = np.random.default_rng(seed)
        # isolated vertices, stacks of three-vertex trees, lone trees of 20-40
        # vertices and one SuperLU component
        sizes = [1] * 12 + [3] * 12 + [20, 30, 40]
        A, U = split_network(rng, sizes, DENSE_N_MAX + 1 + seed, int(rng.integers(3, 9)), with_killing=with_killing)
        tr = trace(A, U)
        S, H, rcond, kinds = lone_kron(A, U)
        assert kinds >= {"stack", "lone", "sparse"} and kinds & {"isolated stack", "isolated lone"}
        T = tr.traced_form.csr
        assert all(x.tobytes() == y.tobytes() for x, y in ((T.indptr, S.indptr), (T.indices, S.indices), (T.data, S.data)))
        assert tr.extension_operator.toarray().tobytes() == (H + 0.0).tobytes()  # -0.0 is not stored
        assert tr.rcond == rcond
        assert (killing_vector(A) > 1e-9).any() == with_killing  # killing-free up to rounding

    @pytest.mark.parametrize("seed", range(4))
    def test_lone_isolated_vertex_and_no_sparse_component(self, seed):
        # one isolated vertex of its own shape, below the SuperLU size
        rng = np.random.default_rng(100 + seed)
        A, U = split_network(rng, [1, 5, 5, 5, 5, 6, 7, 9, 11, 13], 12, 1)
        tr = trace(A, U)
        S, H, rcond, kinds = lone_kron(A, U)
        assert "sparse" not in kinds and "isolated lone" in kinds and A.n > DENSE_N_MAX
        assert tr.traced_form.matrix.tobytes() == S.toarray().tobytes()
        assert tr.extension_operator.toarray().tobytes() == (H + 0.0).tobytes()
        assert tr.rcond == rcond


class TestSparseBlock:
    """A component above DENSE_N_MAX vertices is factored by SuperLU on its
    CSR rows; the guard reads its pivots and a 1-norm estimate."""

    def test_floating_component_named(self):
        # the subset sits on the unit path 0-1-2; a killing-free path of 70 vertices floats
        n = 73
        u, v = np.r_[0, 1, 3:n - 1], np.r_[1, 2, 4:n]
        A = assemble(Network.from_arrays(n, u, v, np.ones(u.size)))
        with pytest.raises(SingularBlockError) as err:
            trace(A, [0, 2])
        assert str(err.value).startswith(
            f"components disconnected from the subset with no killing: {[list(range(3, n))]} (rcond estimate "
        )

    def test_indefinite_block_is_singular(self):
        # a path whose interior block 1.5 I - adjacency has 80 vertices and
        # negative eigenvalues: not a Markov form, and no Cholesky factor exists
        n = 82
        M = 1.5 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        with pytest.raises(SingularBlockError, match=r"^interior block is numerically singular \(rcond estimate 0\.000e\+00\)"):
            trace(FormMatrix(M), [0, n - 1])

    def test_bit_identical_and_leaves_the_global_random_state(self):
        # onenormest with t=1 draws no random columns, so rcond and every output
        # bit are the same on each call, and numpy's global state does not move
        seq = build_sierpinski_gasket(6)
        corners = top_level(seq, np.arange(3))
        A = seq.form(6)
        state = np.random.get_state()
        one, two = trace(A, corners), trace(A, corners)
        after = np.random.get_state()
        assert state[0] == after[0] and np.array_equal(state[1], after[1]) and state[2:] == after[2:]
        assert one.rcond == two.rcond == pytest.approx(8e-5, rel=1e-9)
        assert one.traced_form.matrix.tobytes() == two.traced_form.matrix.tobytes()
        H, K = one.extension_operator, two.extension_operator
        assert all(a.tobytes() == b.tobytes() for a, b in ((H.indptr, K.indptr), (H.indices, K.indices), (H.data, K.data)))

    def test_guard_refuses_before_factoring(self, monkeypatch):
        # 80 floats of SuperLU workspace per stored entry: the 599,998-vertex
        # interior of a path stores 1.8e6 entries, 1.16e9 bytes with its solution
        def factor(*args, **kwargs):
            raise AssertionError("factored past the guard")

        monkeypatch.setattr(sys.modules["netforms.trace"], "splu", factor)
        n = 600_000
        A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        with pytest.raises(ValidationError, match=r"^a component's LU workspace \(80 floats an entry\) and solution"):
            trace(A, [0, n - 1])

    def test_other_superlu_failure_is_not_singular(self, monkeypatch):
        def factor(*args, **kwargs):
            raise RuntimeError("COLAMD failed")

        monkeypatch.setattr(sys.modules["netforms.trace"], "splu", factor)
        n = DENSE_N_MAX + 3
        A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        with pytest.raises(RuntimeError, match="COLAMD failed") as info:
            trace(A, [0, n - 1])
        assert not isinstance(info.value, (ValidationError, SingularBlockError))

    def test_other_system_error_propagates(self, monkeypatch):
        def factor(*args, **kwargs):
            raise SystemError("gstrs was called with invalid arguments")

        monkeypatch.setattr(sys.modules["netforms.trace"], "splu", factor)
        n = DENSE_N_MAX + 3
        A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        with pytest.raises(SystemError, match="gstrs"):
            trace(A, [0, n - 1])

    class _NoRoomForU:
        """A factor whose U factor cannot be copied out, as numpy's MemoryError after SuperLU."""

        perm_r = perm_c = np.arange(3)

        @property
        def U(self):
            raise MemoryError("Unable to allocate 98.6 MiB for an array")

    @pytest.mark.parametrize(
        "failure",
        [
            RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()"),
            RuntimeError("malloc fails for local dworkptr[]."),
            MemoryError(),  # after SuperLU's "Can't expand MemType" line
            SystemError("gstrf was called with invalid arguments"),  # the same, above 2 GiB held
            None,  # the factor returns, then its U factor runs out of memory
        ],
        ids=["superlu-malloc", "work-malloc", "expand", "expand-above-2-gib", "after-factor"],
    )
    def test_memory_failures_are_validation_errors(self, monkeypatch, failure):
        def factor(*args, **kwargs):
            if failure is None:
                return self._NoRoomForU()
            raise failure

        monkeypatch.setattr(sys.modules["netforms.trace"], "splu", factor)
        n = DENSE_N_MAX + 3
        A = assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        with pytest.raises(ValidationError) as info:
            trace(A, [0, n - 1])
        assert str(info.value) == f"out of memory eliminating an interior component of {n - 2} vertices by sparse LU"


def ix_elimination(A, U):
    """Oracle: the dense elimination from np.ix_ blocks, through the same
    _dense call as the trace; the traced form and the extension block."""
    M = A.matrix
    W = np.setdiff1d(np.arange(A.n), U)
    S = M[np.ix_(U, U)]
    if W.size:
        h, _ = _dense(M[np.ix_(W, W)][None], M[np.ix_(W, U)][None], lambda: "singular")
        h = h[0]
        S = S + M[np.ix_(U, W)] @ h
    else:
        h = np.zeros((0, U.size))
    return (S + S.T) / 2.0, h


class TestDensePermutation:
    """The dense elimination permutes the form's array once to [U, W] order and
    reads its four blocks as slices; the results equal, bit for bit, those of
    the np.ix_ blocks."""

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_ix_blocks(self, seed):
        rng = np.random.default_rng(seed)
        A = assemble(random_connected_network(rng, n_max=DENSE_N_MAX, n_min=3, with_killing=bool(seed % 2)))
        subsets = [
            rng.permutation(A.n)[: int(rng.integers(2, A.n))],  # unsorted
            np.array([int(rng.integers(A.n))]),  # one vertex
            rng.permutation(A.n),  # every vertex
        ]
        for U in subsets:
            tr = trace(A, U)
            S, h = ix_elimination(A, U)
            assert tr.traced_form.matrix.tobytes() == S.tobytes()
            H = tr.extension_operator
            assert H.shape == h.shape and H.toarray().tobytes() == (h + 0.0).tobytes()  # -0.0 is not stored
            assert not np.any(H.data == 0.0) and H.has_canonical_format

    def test_singular_block_falls_back_to_components(self, monkeypatch):
        # the unit path 0-1-2-3, then 3-4-5-6 at 1e-20: as one block the
        # interior fails the guard, by component it passes
        A = assemble(Network(7, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1e-20), (4, 5, 1e-20), (5, 6, 1e-20)]))
        U = np.array([6, 0, 3])
        with pytest.raises(SingularBlockError):
            ix_elimination(A, U)
        tr = trace(A, U)
        # netforms.trace names the re-exported function, so patch the module itself
        monkeypatch.setattr(sys.modules["netforms.trace"], "DENSE_N_MAX", 0)
        ref = trace(A, U)
        assert tr.rcond == ref.rcond == pytest.approx(1 / 3)
        assert tr.traced_form.matrix.tobytes() == ref.traced_form.matrix.tobytes()
        H, R = tr.extension_operator, ref.extension_operator
        assert all(a.tobytes() == b.tobytes() for a, b in ((H.indptr, R.indptr), (H.indices, R.indices), (H.data, R.data)))


def random_path(n, seed):
    """A path 0-1-...-(n-1) with random conductances, none a power of two."""
    c = np.random.default_rng(seed).uniform(0.5, 3.0, n - 1)
    return assemble(Network.from_arrays(n, np.arange(n - 1), np.arange(1, n), c))


class TestLazyExtension:
    """The extension operator is built from the eliminated blocks on first read
    and then kept in the builder's place."""

    @pytest.mark.parametrize("n", [DENSE_N_MAX - 4, DENSE_N_MAX + 37])  # dense trace, component-wise trace
    def test_built_once_and_kept(self, n):
        A = random_path(n, n)
        U = np.arange(0, n, 3)
        tr = trace(A, U)
        calls = []
        build = tr._operator
        object.__setattr__(tr, "_operator", lambda: calls.append(1) or build())
        H = tr.extension_operator
        assert tr.extension_operator is H and len(calls) == 1
        eager = build()  # what an eager build gives
        assert H is not eager
        assert all(a.tobytes() == b.tobytes() for a, b in ((H.indptr, eager.indptr), (H.indices, eager.indices), (H.data, eager.data)))
        assert H.shape == (tr.interior.size, U.size)

    @pytest.mark.parametrize("n", [DENSE_N_MAX - 4, DENSE_N_MAX + 37])
    def test_first_read_frees_the_blocks(self, n):
        tr = trace(random_path(n, n), np.arange(0, n, 3))
        held = tr._operator.args[0]  # the dense h, or the list of blocks (w, u, h)
        h = weakref.ref(held if isinstance(held, np.ndarray) else held[0][2])
        del held
        gc.collect()
        assert h() is not None  # the unread result keeps its blocks
        H = tr.extension_operator
        gc.collect()
        assert h() is None and tr._operator is H

    def test_constructor_takes_the_builder(self):
        A = random_path(5, 0)
        tr = trace(A, [0, 4])
        built = []
        H = tr.extension_operator
        again = TraceResult(tr.subset, tr.traced_form, tr.rcond, tr.interior, lambda: built.append(1) or H)
        assert built == [] and again.extension_operator is H and again.extension_operator is H and built == [1]
        assert "_operator" not in repr(again)


class TestStackedDivision:
    """Isolated interior vertices are divided, -B/d, whether one is eliminated
    alone or many are stacked; the stacked LU solve never runs on them."""

    @pytest.mark.parametrize("seed", range(5))
    def test_stacked_equals_division_and_lone_vertices(self, seed, monkeypatch):
        n = 2 * DENSE_N_MAX + 3  # every other vertex: 65 isolated interior vertices in one stack
        A = random_path(n, seed)
        U = np.arange(0, n, 2)
        tr = trace(A, U)
        M = A.matrix
        W = tr.interior
        expected = -M[np.ix_(W, U)] / np.diagonal(M)[W][:, None]
        assert tr.extension_operator.toarray().tobytes() == (expected + 0.0).tobytes()  # -0.0 is not stored
        assert tr.rcond == 1.0

        def lone(A_ww, B, singular):  # each stacked vertex through _dense on its own
            hs = [_dense(a[None], b[None], singular) for a, b in zip(A_ww, B)]
            return np.concatenate([h for h, _ in hs]), min(r for _, r in hs)

        monkeypatch.setattr(sys.modules["netforms.trace"], "_dense", lone)
        ref = trace(A, U)
        assert tr.traced_form.csr.data.tobytes() == ref.traced_form.csr.data.tobytes()
        assert tr.traced_form.csr.indices.tobytes() == ref.traced_form.csr.indices.tobytes()
        assert tr.extension_operator.data.tobytes() == ref.extension_operator.data.tobytes()

    def test_no_lu_solve_on_one_by_one_stacks(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("LU solve on a 1 x 1 stack")

        monkeypatch.setattr(np.linalg, "solve", solve)
        n = 2 * DENSE_N_MAX + 3
        assert trace(random_path(n, 0), np.arange(0, n, 2)).rcond == 1.0

    def test_stacked_vertices_without_diagonal_float(self):
        # two isolated, killing-free vertices with no neighbour: a 1 x 1 stack of zeros
        n = DENSE_N_MAX + 3
        A = assemble(Network.from_arrays(n, np.arange(n - 3), np.arange(1, n - 2), np.ones(n - 3)))
        with pytest.raises(SingularBlockError, match=r"disconnected from the subset with no killing: \[\[65\], \[66\]\] \(rcond estimate 0\.000e\+00\)"):
            trace(A, np.arange(n - 2))
