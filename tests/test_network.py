import importlib
import inspect
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csr_array

from netforms import (
    AlgebraSpec,
    AtomicMeasure,
    EnergyMeasure,
    FormMatrix,
    JumpKillingDecomposition,
    Network,
    PushforwardMeasure,
    ValidationError,
    assemble,
    build_dyadic_interval,
    build_generator,
    build_sierpinski_gasket,
    check_compatibility,
    commute_time,
    components,
    embed,
    energy_measure,
    energy_measure_identity,
    evaluate,
    hitting_probability,
    is_markov,
    l2_isometry_check,
    lift_function,
    occupation_check,
    quotient_function,
    simulate,
    spectrum_closure_estimate,
    truncate_one,
    unit_contraction,
)
from netforms import network
from netforms.cli import _build_parser
from netforms.random_networks import random_connected_network, random_markov_form

from helpers import edge_sum_energy, networks


def quadratic_to_matrix(q, n):
    """Oracle: recover the matrix of a quadratic form by polarization."""
    A = np.zeros((n, n))
    basis = np.eye(n)
    for i in range(n):
        A[i, i] = q(basis[i])
    for i in range(n):
        for j in range(i + 1, n):
            A[i, j] = A[j, i] = (q(basis[i] + basis[j]) - q(basis[i]) - q(basis[j])) / 2.0
    return A


class TestAssemble:
    def test_single_edge_laplacian(self):
        A = assemble(Network(2, [(0, 1, 1.0)]))
        assert np.array_equal(A.matrix, [[1.0, -1.0], [-1.0, 1.0]])

    def test_killing_matches_quadratic_expansion(self):
        # E(f) = (f0 - f1)^2 + f0^2 + 2 f1^2, coefficients recovered by polarization
        expected = quadratic_to_matrix(
            lambda f: (f[0] - f[1]) ** 2 + f[0] ** 2 + 2.0 * f[1] ** 2, 2
        )
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0]))
        assert np.array_equal(A.matrix, expected)
        assert np.array_equal(A.matrix, [[2.0, -1.0], [-1.0, 3.0]])

    def test_empty_edges_zero_form(self):
        A = assemble(Network(3))
        assert np.array_equal(A.matrix, np.zeros((3, 3)))

    def test_diagonal_reconstruction(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            net = random_connected_network(rng, n_max=12, with_killing=True)
            A = assemble(net)
            C = net.conductance_matrix()
            assert np.array_equal(np.diag(A.matrix), np.sum(C, axis=1) + net.killing)

    def test_duplicate_edge_named(self):
        with pytest.raises(ValidationError, match=r"edge #1: duplicate edge \(0, 1\)"):
            Network(2, [(0, 1, 1.0), (1, 0, 2.0)])

    def test_negative_conductance_named(self):
        with pytest.raises(ValidationError, match="edge #0.*must be finite and > 0"):
            Network(2, [(0, 1, -1.0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            Network(2, [(1, 1, 1.0)])

    def test_negative_killing_named(self):
        with pytest.raises(ValidationError, match=r"killing\[1\] = -0.5"):
            Network(2, [(0, 1, 1.0)], killing=[0.0, -0.5])

    def test_out_of_range_endpoint(self):
        with pytest.raises(ValidationError, match="out of range"):
            Network(2, [(0, 5, 1.0)])

    def test_endpoints_are_integers(self):
        for u, v in ((0.9, 1), (0, 1.0), (True, 2), ("0", 1)):
            with pytest.raises(ValidationError, match=r"edge #0: vertex index must be an integer"):
                Network(3, [(u, v, 1.0)])
        assert Network(3, [(np.int64(0), np.intp(1), 1.0)]).edges == ((0, 1, 1.0),)


class TestEvaluate:
    def test_single_edge_indicator(self, unit_edge):
        assert evaluate(unit_edge, [1.0, 0.0]) == 1.0

    def test_constant_is_null_without_killing(self, path3):
        assert abs(evaluate(path3, [3.0, 3.0, 3.0])) <= 1e-14

    def test_killing_constant(self):
        A = assemble(Network(2, [(0, 1, 1.0)], killing=[1.0, 2.0]))
        assert evaluate(A, [1.0, 1.0]) == 3.0

    def test_dimension_mismatch(self, unit_edge):
        with pytest.raises(ValidationError, match="length 2"):
            evaluate(unit_edge, [1.0, 0.0, 2.0])

    def test_matches_edge_sum_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            net = random_connected_network(rng, n_max=15, with_killing=True)
            A = assemble(net)
            f = rng.uniform(-2, 2, A.n)
            g = rng.uniform(-2, 2, A.n)
            scale = max(1.0, np.max(np.abs(A.matrix))) * 4.0 * A.n
            assert abs(evaluate(A, f, g) - edge_sum_energy(net, f, g)) <= 1e-12 * scale

    def test_bilinear_and_symmetric(self):
        rng = np.random.default_rng(3)
        A = random_markov_form(rng, n_max=10)
        f, g, h = rng.uniform(-1, 1, (3, A.n))
        s = max(1.0, np.max(np.abs(A.matrix))) * A.n
        assert abs(evaluate(A, f, g) - evaluate(A, g, f)) <= 1e-12 * s
        assert abs(evaluate(A, f + 2.0 * h, g) - evaluate(A, f, g) - 2.0 * evaluate(A, h, g)) <= 1e-12 * s


class TestContractions:
    def test_clamp(self):
        assert np.array_equal(unit_contraction([-0.5, 0.3, 1.7]), [0.0, 0.3, 1.0])

    def test_fixed_point(self):
        u = np.array([0.0, 0.4, 1.0])
        assert np.array_equal(unit_contraction(u), u)

    def test_constant_two(self):
        assert np.array_equal(unit_contraction([2.0, 2.0]), [1.0, 1.0])

    def test_truncate(self):
        assert np.array_equal(truncate_one([0.5, 2.0]), [0.5, 1.0])

    def test_truncate_nonpositive_fixed(self):
        u = np.array([-1.0, 0.0, -3.5])
        assert np.array_equal(truncate_one(u), u)

    def test_truncate_constant_one(self):
        assert np.array_equal(truncate_one([1.0, 1.0]), [1.0, 1.0])

    def test_energy_never_increases(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            A = random_markov_form(rng, n_max=20)
            u = rng.uniform(-2, 3, A.n)
            e_u = evaluate(A, u)
            assert evaluate(A, unit_contraction(u)) <= e_u + 1e-12 * max(1.0, abs(e_u))


class TestIsMarkov:
    def test_laplacian_is_markov(self, unit_edge):
        assert bool(is_markov(unit_edge))

    def test_positive_offdiagonal(self):
        rep = is_markov(FormMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
        assert not rep
        assert any("off-diagonal" in v for v in rep.violations)

    def test_negative_row_sum(self):
        A = FormMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))
        rep = is_markov(A)
        assert not rep
        assert any("row" in v for v in rep.violations)
        # brute-force confirmation: some u has E(u clamped) > E(u)
        rng = np.random.default_rng(5)
        found = False
        for _ in range(500):
            u = rng.uniform(-1, 2, 2)
            if evaluate(A, unit_contraction(u)) > evaluate(A, u) + 1e-12:
                found = True
                break
        assert found

    def test_assembled_forms_are_markov(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            assert bool(is_markov(random_markov_form(rng, n_max=15)))


class TestZeroEnergy:
    def test_rank_deficiency_is_one_when_connected(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_connected_network(rng, n_max=12, with_killing=False)
            A = assemble(net)
            eig = np.linalg.eigvalsh(A.matrix)
            assert eig[0] >= -1e-10 * max(1.0, np.max(np.abs(A.matrix)))
            assert abs(eig[0]) <= 1e-9 * max(1.0, np.max(np.abs(A.matrix)))
            if A.n > 1:
                assert eig[1] > 1e-8  # nonconstant functions carry energy


class TestTypes:
    def test_form_matrix_rejects_asymmetry(self):
        with pytest.raises(ValidationError, match="not symmetric"):
            FormMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_form_matrix_rejects_nonsquare(self):
        with pytest.raises(ValidationError, match="square"):
            FormMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("empty", [np.zeros((0, 0)), csr_array((0, 0))], ids=["dense", "sparse"])
    def test_form_matrix_rejects_empty(self, empty):
        # as a network needs one vertex; resistance_matrix would fail inside numpy
        with pytest.raises(ValidationError, match="nonempty"):
            FormMatrix(empty)

    def test_atomic_measure_total_and_flag(self):
        mu = AtomicMeasure([0.25, 0.75])
        assert mu.total == 1.0
        assert mu.everywhere_positive
        assert not AtomicMeasure([0.0, 1.0]).everywhere_positive

    def test_atomic_measure_rejects_negative(self):
        with pytest.raises(ValidationError, match=r"weight\[1\]"):
            AtomicMeasure([0.5, -0.1])

    def test_immutability(self, unit_edge):
        with pytest.raises(ValueError):
            unit_edge.matrix[0, 0] = 5.0
        net = Network(2, [(0, 1, 1.0)])
        with pytest.raises(AttributeError):
            net.vertices = ()
        with pytest.raises(ValueError):
            net.killing[0] = 1.0

    def test_equal_networks_hash_equal(self):
        # -0.0 == 0.0, so the killing weights are equal; their bytes differ unless normalized
        a = Network(2, [(0, 1, 1.0)], killing=[-0.0, 0.0])
        b = Network(2, [(0, 1, 1.0)], killing=[0.0, 0.0])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_labels_are_read_without_formatting_them(self):
        # only a non-iterable is read as a count, so a label sequence is never
        # formatted into an error message (a million labels take seconds)
        class Labels(tuple):
            def __repr__(self):
                raise AssertionError("the labels were formatted")

        assert Network(Labels("abc")).vertices == ("a", "b", "c")

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(networks())
    def test_json_round_trip(self, net):
        back = Network.from_dict(json.loads(json.dumps(net.to_dict())))
        assert back == net and hash(back) == hash(net)


def bfs_components(m):
    """Oracle: breadth-first search over the nonzero off-diagonals."""
    n = m.shape[0]
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        queue, comp = [start], []
        while queue:
            x = queue.pop(0)
            comp.append(x)
            for y in range(n):
                if y != x and m[x, y] != 0.0 and not seen[y]:
                    seen[y] = True
                    queue.append(y)
        comps.append(sorted(comp))
    return comps


class TestComponents:
    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            m = np.zeros((n, n))
            iu, ju = np.triu_indices(n, 1)
            pick = rng.random(iu.size) < rng.uniform(0.0, 0.3)
            # either sign off the diagonal (not only Markov forms), and -0.0 entries
            m[iu[pick], ju[pick]] = rng.choice([-1.0, 1.0], pick.sum()) * rng.uniform(0.1, 3.0, pick.sum())
            zero = rng.random(iu.size) < 0.2
            m[iu[zero & ~pick], ju[zero & ~pick]] = -0.0
            m = m + m.T
            m[np.diag_indices(n)] = rng.uniform(-1.0, 1.0, n)  # the diagonal carries no edge
            comps = components(FormMatrix(m))
            assert [c.tolist() for c in comps] == bfs_components(m)
            assert all(c.dtype == np.intp for c in comps)
            assert [c.tolist() for c in components(m)] == bfs_components(m)

    def test_isolated_vertices_and_negative_zero(self):
        m = np.zeros((5, 5))
        m[1, 3] = m[3, 1] = -2.0
        m[0, 4] = m[4, 0] = -0.0
        assert [c.tolist() for c in components(FormMatrix(m))] == [[0], [1, 3], [2], [4]]
        assert [c.tolist() for c in components(assemble(Network(3)))] == [[0], [1], [2]]


class TestTolerancesAndGuards:
    def test_tolerance_table_values(self):
        assert network.RELTOL == 1e-10
        assert network.SINGULAR_RCOND == 1e-13
        assert network.CLAMP_RELTOL == 1e-14
        assert network.IDENTITY_RELTOL == 1e-12
        assert network.COMPAT_RELTOL == 1e-9
        assert network.PROFILE_RELTOL == 1e-12
        assert inspect.signature(check_compatibility).parameters["tol"].default is network.COMPAT_RELTOL
        assert _build_parser().parse_args(["seq", "check", "seq.json"]).tol is network.COMPAT_RELTOL
        sequences = importlib.import_module("netforms.sequences")
        assert sequences.MAX_DYADIC_LEVELS == 20
        assert importlib.import_module("netforms.energy").MAX_DYADIC_LEVELS is sequences.MAX_DYADIC_LEVELS

    @pytest.mark.parametrize("module", ["trace", "simulate", "energy", "sequences", "beurling_deny", "gelfand"])
    def test_modules_bind_only_the_network_tolerances(self, module):
        mod = importlib.import_module(f"netforms.{module}")
        for name, value in vars(mod).items():
            if name.endswith(("RELTOL", "RCOND")):
                assert value is getattr(network, name, None), f"netforms.{module}.{name} is not from network"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vertex_functions_rejected(self, bad):
        A = assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        f = np.array([0.0, bad, 1.0])
        seq = build_dyadic_interval(1)
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        calls = [
            lambda: Network(3, killing=f),
            lambda: evaluate(A, f),
            lambda: energy_measure(A, f),
            lambda: energy_measure_identity(A, np.ones(3), f),
            lambda: seq.restrict(f, 0),
            lambda: quotient_function(f, emb),
            lambda: lift_function(f, emb),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match=r"\[1\] = .* is not finite"):
                call()


# ------------------------------------------------------- the number rule

_P3 = assemble(Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
_SPEC = AlgebraSpec(range(3), [[0.0, 0.5, 1.0]])
_MU = AtomicMeasure(np.ones(3))
_GEN = build_generator(_P3, _MU)

#: Entry points that take an array: (id, the name the error gives, a call
#: with ``x`` as one entry of that array, the array built by ``wrap``).
ARRAY_ENTRIES = [
    ("from_arrays", "conductances", lambda x, wrap: Network.from_arrays(3, [0, 1], [1, 2], wrap([x, 1])).c),
    ("killing", "killing", lambda x, wrap: Network(2, killing=wrap([0, x])).killing),
    ("evaluate", "f", lambda x, wrap: evaluate(_P3, wrap([0, x, 1]))),
    ("form_matrix", "form matrix", lambda x, wrap: FormMatrix(wrap([[x, 0], [0, x]])).matrix),
    ("atomic_measure", "weights", lambda x, wrap: AtomicMeasure(wrap([1, x])).weights),
    ("generators", "generators", lambda x, wrap: AlgebraSpec(range(2), wrap([[0, x]])).generators),
    ("jump", "jump kernel", lambda x, wrap: JumpKillingDecomposition(wrap([[0, x], [x, 0]]), [0, 0]).jump.toarray()),
    ("kappa", "kappa", lambda x, wrap: JumpKillingDecomposition(np.zeros((2, 2)), wrap([0, x])).kappa),
    ("energy_measure", "masses", lambda x, wrap: EnergyMeasure(wrap([1, x])).masses),
    ("pushforward", "atoms", lambda x, wrap: PushforwardMeasure(wrap([1, x]), 1.0).atoms),
    ("l2_isometry", "f", lambda x, wrap: l2_isometry_check(wrap([0, x, 1]), _MU, embed(_SPEC))),
    ("unit_contraction", "u", lambda x, wrap: unit_contraction(wrap([0, x]))),
    ("truncate_one", "u", lambda x, wrap: truncate_one(wrap([0, x]))),
]

#: Entry points that take a real number: (id, name, call).
SCALAR_ENTRIES = [
    ("edge", "conductance", lambda x: Network(2, [(0, 1, x)]).c),
    ("embed", "tolerance", lambda x: embed(_SPEC, tol=x).class_of),  # tol=True must not read as 1: one class
    ("horizon", "horizon", lambda x: simulate(_GEN, 0, x, 5, seed=1).occupation),
    ("closure", "epsilon", lambda x: spectrum_closure_estimate(_SPEC, x).counts),
    ("gasket", "factor", lambda x: build_sierpinski_gasket(1, factor=x).networks[1].c),
]

#: Entry points that take an integer count or seed: (id, name, call).
INTEGER_ENTRIES = [
    ("simulate", "n_traj", lambda x: simulate(_GEN, 0, 1.0, x, seed=1).occupation),
    ("hit", "n_traj", lambda x: hitting_probability(_GEN, 0, 2, 1, x, seed=1).value),
    ("commute", "n_traj", lambda x: commute_time(_GEN, 0, 2, x, seed=1).value),
    ("occupy", "n_traj", lambda x: occupation_check(_GEN, 1.0, x, seed=1).occupation),
    ("seed", "seed", lambda x: simulate(_GEN, 0, 1.0, 5, seed=x).occupation),
]

NON_NUMBERS = [("None", None), ("str", "1.5"), ("bool", True), ("np_bool", np.True_), ("bytes", b"2"), ("object", object())]
RAGGED = ("ragged", [1.0, 2.0])  # as one entry, it makes the array ragged

RULE_CASES = (
    [pytest.param(name, lambda x, call=call: call(x, list), x, id=f"{cid}-{xid}")
     for cid, name, call in ARRAY_ENTRIES for xid, x in NON_NUMBERS + [RAGGED]]
    + [pytest.param(name, call, x, id=f"{cid}-{xid}")
       for cid, name, call in SCALAR_ENTRIES + INTEGER_ENTRIES for xid, x in NON_NUMBERS
       if not (name == "factor" and x is None)]  # factor=None is the default factor
    # a vertex count is an integer by the same rule; anything else must be an iterable of labels
    + [pytest.param("vertices", Network, x, id=f"network-{xid}") for xid, x in [("bool", True), ("float", 2.0), ("None", None)]]
)


class TestNumberRule:
    """One rule for every number that enters: Python and numpy integers and
    floats pass, anything else raises ValidationError naming the argument."""

    @pytest.mark.parametrize("name, call, x", RULE_CASES)
    def test_non_numbers_raise_naming_the_argument(self, name, call, x):
        rule = "must be an integer" if name in ("n_traj", "seed", "vertices") else "real number"
        with pytest.raises(ValidationError, match=rf"^(edge #0: )?{re.escape(name)}\b.*{rule}"):
            call(x)

    @pytest.mark.parametrize("wrap", [list, np.array])
    @pytest.mark.parametrize("x", [2, np.int64(2), np.float32(2.0)], ids=["int", "np_int64", "np_float32"])
    @pytest.mark.parametrize("call", [c for _, _, c in ARRAY_ENTRIES], ids=[i for i, _, _ in ARRAY_ENTRIES])
    def test_array_numbers_pass_as_floats(self, call, x, wrap):
        assert np.array_equal(call(x, wrap), call(2.0, list))

    @pytest.mark.parametrize("x", [2, np.int64(2), np.float32(2.0)], ids=["int", "np_int64", "np_float32"])
    @pytest.mark.parametrize("call", [c for _, _, c in SCALAR_ENTRIES], ids=[i for i, _, _ in SCALAR_ENTRIES])
    def test_scalar_numbers_pass_as_floats(self, call, x):
        assert np.array_equal(call(x), call(2.0))

    @pytest.mark.parametrize("x", [np.int64(2), np.uint8(2)], ids=["np_int64", "np_uint8"])
    @pytest.mark.parametrize("call", [c for _, _, c in INTEGER_ENTRIES], ids=[i for i, _, _ in INTEGER_ENTRIES])
    def test_numpy_integers_pass_as_ints(self, call, x):
        assert np.array_equal(call(x), call(2))

    def test_int_beyond_float_range_raises(self):
        with pytest.raises(ValidationError, match=r"killing\[1\] is too large for a float"):
            Network(2, killing=[0, 10**400])
        with pytest.raises(ValidationError, match="horizon is too large for a float"):
            simulate(_GEN, 0, 10**400, 5, seed=1)
