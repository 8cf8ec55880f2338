import json
import os
import re
import subprocess
import sys
from pathlib import Path

import netforms
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
    build_dyadic_interval,
    build_sierpinski_gasket,
    calibrate_gasket_factor,
    check_compatibility,
    effective_resistance,
    energy_profile,
    limit_energy_estimate,
    load_sequence,
    save_sequence,
)
from netforms.network import DENSE_N_MAX
from netforms.sequences import _deviation, sequence_from_dict, sequence_to_dict

from helpers import networks


def with_edge(seq, level, u, v, c=1.0):
    """The sequence with one extra edge (u, v) at one level."""
    net = seq.networks[level]
    edged = Network.from_arrays(net.vertices, np.append(net.u, u), np.append(net.v, v), np.append(net.c, c))
    nets = seq.networks[:level] + (edged,) + seq.networks[level + 1 :]
    return CompatibleSequence(nets, seq.inclusions)


def dyadic_square_energy(n):
    """Oracle: closed-form Riemann sum for f(x) = x^2 at level n."""
    # sum over 2^n cells of 2^n * ((k+1)^2 - k^2)^2 / 4^n = 4/3 - 4^-n / 3
    return 4.0 / 3.0 - 4.0**-n / 3.0


class TestDyadic:
    def test_levels_and_conductances(self):
        seq = build_dyadic_interval(3)
        assert seq.levels == 4
        assert seq.networks[2].edges[0][2] == 4.0
        assert seq.networks[-1].vertices[1] == 0.125

    def test_compatibility_tight(self):
        seq = build_dyadic_interval(8)
        rep = check_compatibility(seq, tol=1e-12)
        assert rep
        assert np.all(rep.deviations <= 1e-12 * rep.scales)

    def test_compatibility_exact_at_every_level_pair(self):
        # 2^(n+1) in series with 2^(n+1) traces to 2^n bit for bit
        rep = check_compatibility(build_dyadic_interval(11))
        assert np.array_equal(rep.deviations, np.zeros(11))

    def test_linear_profile_constant_one(self):
        seq = build_dyadic_interval(8)
        f = np.array(seq.networks[-1].vertices, dtype=float)
        prof = energy_profile(seq, f)
        assert np.max(np.abs(prof - 1.0)) <= 1e-12

    def test_constant_profile_zero(self):
        seq = build_dyadic_interval(5)
        prof = energy_profile(seq, np.full(seq.networks[-1].n, 7.0))
        assert np.max(np.abs(prof)) <= 1e-10

    def test_square_profile_matches_closed_form(self):
        seq = build_dyadic_interval(8)
        x = np.array(seq.networks[-1].vertices, dtype=float)
        prof = energy_profile(seq, x * x)
        for n, e in enumerate(prof):
            assert abs(e - dyadic_square_energy(n)) <= 1e-12
        assert np.all(np.diff(prof) > 0)
        assert abs(prof[8] - 4.0 / 3.0) <= 1e-2

    def test_perturbed_conductance_detected(self):
        seq = build_dyadic_interval(2)
        delta = 0.01
        edges = list(seq.networks[1].edges)
        u, v, c = edges[0]
        edges[0] = (u, v, c + delta)
        nets = (seq.networks[0], Network(seq.networks[1].vertices, edges), seq.networks[2])
        bad = CompatibleSequence(nets, seq.inclusions)
        dev = check_compatibility(bad).deviations[0]
        assert delta / 10 <= dev <= delta

    def test_size_guard(self):
        for levels in (21, 22):
            with pytest.raises(ValidationError, match=rf"^levels must be an integer in \[0, 20\], got {levels}$"):
                build_dyadic_interval(levels)

    def test_levels_must_be_an_integer(self):
        for bad in (2.7, 3.0, True, "3"):
            with pytest.raises(ValidationError, match="levels must be an integer"):
                build_dyadic_interval(bad)
        assert build_dyadic_interval(np.int64(3)).levels == 4


class TestDeviation:
    """check_compatibility reads each deviation off the forms' entry lists; it
    must equal scipy's sparse difference bit for bit, for forms held dense (at
    most DENSE_N_MAX vertices) and held as CSR."""

    CASES = {
        "dyadic": lambda: build_dyadic_interval(8),  # levels 0-5 dense, 6-8 above DENSE_N_MAX
        "gasket": lambda: build_sierpinski_gasket(5),  # levels 0-3 dense, 4-5 above
        "wrong factor": lambda: build_sierpinski_gasket(5, factor=1.7),  # same pattern, other values
        "coarse edge, sparse": lambda: with_edge(build_dyadic_interval(8), 7, 0, 100),  # only in A_n
        "coarse edge, dense": lambda: with_edge(build_dyadic_interval(8), 5, 3, 20),
        "fine edge, sparse": lambda: with_edge(build_dyadic_interval(8), 8, 0, 200),  # only in the trace
        "fine edge, dense": lambda: with_edge(build_dyadic_interval(7), 6, 2, 40),
    }

    @staticmethod
    def sparse_difference(seq, n):
        traced = netforms.trace(seq.form(n + 1), seq.inclusions[n]).traced_form
        return traced, float(abs(traced.csr - seq.form(n).csr).max())

    @pytest.mark.parametrize("case", CASES)
    def test_equals_sparse_difference_bit_for_bit(self, case):
        seq = self.CASES[case]()
        rep = check_compatibility(seq)
        sizes = [net.n for net in seq.networks[:-1]]
        assert min(sizes) <= DENSE_N_MAX < max(sizes)  # dense-held and CSR-held forms
        for n in range(seq.levels - 1):
            traced, expected = self.sparse_difference(seq, n)
            assert _deviation(traced, seq.form(n)) == expected
            assert rep.deviations[n].tobytes() == np.float64(expected).tobytes()

    def test_cases_move_the_expected_pairs(self):
        nonzero = {case: check_compatibility(self.CASES[case]()).deviations > 0.0 for case in self.CASES}
        assert not np.any(nonzero["dyadic"])
        assert np.all(nonzero["wrong factor"][1:])
        # an edge at level n moves the pairs n - 1 (it is in the trace) and n (it is in A_n)
        expected = {
            "coarse edge, sparse": [6, 7],
            "coarse edge, dense": [4, 5],
            "fine edge, sparse": [7],
            "fine edge, dense": [5, 6],
        }
        for case, pairs in expected.items():
            assert np.flatnonzero(nonzero[case]).tolist() == pairs
        coarse = self.CASES["coarse edge, sparse"]()
        traced = netforms.trace(coarse.form(8), coarse.inclusions[7]).traced_form
        assert traced.csr.nnz != coarse.form(7).csr.nnz  # the union of two patterns

    @pytest.mark.parametrize("n", [DENSE_N_MAX - 24, DENSE_N_MAX + 16])
    def test_patterns_that_differ(self, n):
        # symmetric forms, not Markov ones, so the largest difference can sit
        # on a key that only one of the two stores
        rng = np.random.default_rng(n)
        base = np.diag(rng.uniform(1.0, 2.0, n)) - np.diag(rng.uniform(0.1, 0.5, n - 1), 1)
        base = base + np.triu(base, 1).T

        def form(extra):
            M = base.copy()
            for (i, j), x in extra.items():
                M[i, j] = M[j, i] = x
            return FormMatrix(csr_array(M))

        S = form({})
        others = {
            "one more key": form({(0, n // 2): -5.0}),
            "one key less": form({(3, 4): 0.0}),
            "moved key": form({(3, 4): 0.0, (3, n // 2): -5.0}),  # the same number of entries
            "other values": form({(3, 4): -7.0}),
            "equal": form({}),
        }
        for F in others.values():
            for a, b in ((S, F), (F, S)):
                assert _deviation(a, b) == float(abs(a.csr - b.csr).max())
        assert _deviation(S, others["equal"]) == 0.0


class TestNoHashUnique:
    """numpy's np.unique takes a hash table when asked for no indices, several
    times slower than one sort on the package's int64 keys; the sequence path
    must not reach it."""

    def test_sequence_path_makes_no_hash_unique_call(self, monkeypatch):
        impl = pytest.importorskip("numpy.lib._arraysetops_impl")
        if not hasattr(impl, "_unique_hash"):
            pytest.skip("this numpy has no hash unique")
        calls = []
        hashed = impl._unique_hash
        monkeypatch.setattr(impl, "_unique_hash", lambda *a, **k: calls.append(1) or hashed(*a, **k))
        np.unique(np.array([3, 1, 3]))
        assert calls == [1]  # the counter sees numpy's own calls
        calls.clear()
        for seq in (build_sierpinski_gasket(5), build_dyadic_interval(10)):
            assert check_compatibility(seq)
        coarse = with_edge(build_dyadic_interval(8), 7, 0, 100)
        traced = netforms.trace(coarse.form(8), coarse.inclusions[7]).traced_form
        fine = with_edge(build_dyadic_interval(7), 6, 2, 40)
        small = netforms.trace(fine.form(6), fine.inclusions[5]).traced_form
        for S, F in ((traced, coarse.form(7)), (small, fine.form(5))):  # two patterns, above and below DENSE_N_MAX
            assert S.csr.nnz != F.csr.nnz and _deviation(S, F) > 0.0
        assert calls == []


class TestCheckBuildsNoOperator:
    @pytest.mark.parametrize("build", [lambda: build_dyadic_interval(8), lambda: build_sierpinski_gasket(4)])
    def test_no_extension_operator_built(self, build, monkeypatch):
        trace_module = sys.modules["netforms.trace"]
        calls = []
        for name in ("_extension", "_csr_from_dense"):  # the two builders, sparse and dense traces
            builder = getattr(trace_module, name)
            monkeypatch.setattr(trace_module, name, lambda *a, _b=builder, _n=name: calls.append(_n) or _b(*a))
        seq = build()
        assert check_compatibility(seq)
        assert calls == []
        # the counters see the builders: one read of each kind of trace builds one operator
        for n in (0, seq.levels - 2):
            netforms.trace(seq.form(n + 1), seq.inclusions[n]).extension_operator
        assert sorted(calls) == ["_csr_from_dense", "_extension"]


class TestProfilesAndLimits:
    def test_monotone_for_random_functions(self):
        rng = np.random.default_rng(30)
        for seq in (build_dyadic_interval(6), build_sierpinski_gasket(3)):
            top = seq.networks[-1].n
            for _ in range(20):
                prof = energy_profile(seq, rng.standard_normal(top))
                slack = 1e-12 * max(1.0, np.max(np.abs(prof)))
                assert np.all(np.diff(prof) >= -slack)

    def test_incompatible_sequence_warns(self):
        strong = Network([0.0, 1.0], [(0, 1, 5.0)])
        fine = Network([0.0, 0.5, 1.0], [(0, 1, 1.0), (1, 2, 1.0)])
        seq = CompatibleSequence((strong, fine), (np.array([0, 2]),))
        with pytest.warns(UserWarning, match="incompatible"):
            energy_profile(seq, np.array([1.0, 0.5, 0.0]))

    def test_limit_estimate_linear(self):
        seq = build_dyadic_interval(6)
        f = np.array(seq.networks[-1].vertices, dtype=float)
        est, inc = limit_energy_estimate(seq, f)
        assert abs(est - 1.0) <= 1e-12 and abs(inc) <= 1e-12

    def test_limit_estimate_constant(self):
        seq = build_dyadic_interval(4)
        est, inc = limit_energy_estimate(seq, np.ones(seq.networks[-1].n))
        assert abs(est) <= 1e-12 and abs(inc) <= 1e-12

    def test_limit_estimate_square(self):
        seq = build_dyadic_interval(8)
        x = np.array(seq.networks[-1].vertices, dtype=float)
        est, inc = limit_energy_estimate(seq, x * x)
        assert abs(est - 4.0 / 3.0) <= 1e-2
        assert inc > 0

    def test_limit_estimate_needs_three_levels(self):
        seq = build_dyadic_interval(1)
        with pytest.raises(ValidationError, match="3 levels"):
            limit_energy_estimate(seq, np.zeros(seq.networks[-1].n))


class TestGasket:
    def test_level0_unit_triangle(self):
        seq = build_sierpinski_gasket(0)
        A = seq.form(0)
        assert np.array_equal(A.matrix, [[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0], [-1.0, -1.0, 2.0]])
        assert abs(effective_resistance(A, 0, 1) - 2.0 / 3.0) <= 1e-12

    def test_level1_compatibility_tight(self):
        rep = check_compatibility(build_sierpinski_gasket(1), tol=1e-12)
        assert rep and np.all(rep.deviations <= 1e-12 * rep.scales)

    def test_compatibility_levels_4(self):
        assert check_compatibility(build_sierpinski_gasket(4), tol=1e-10)

    def test_corner_resistance_ratio_level_independent(self):
        seq = build_sierpinski_gasket(3)
        rs = []
        idx = np.arange(3)
        for n in range(4):
            rs.append(effective_resistance(seq.form(n), int(idx[0]), int(idx[1])))
            if n < 3:
                idx = seq.inclusions[n][idx]
        ratios = np.diff(np.array(rs)) / np.array(rs[:-1]) + 1.0
        assert np.max(np.abs(ratios - ratios[0])) <= 1e-10

    def test_wrong_factor_breaks_compatibility(self):
        rep = check_compatibility(build_sierpinski_gasket(2, factor=1.6))
        assert not rep

    def test_calibration_finds_standard_factor(self):
        assert abs(calibrate_gasket_factor() - 5.0 / 3.0) <= 1e-6

    def test_cold_start_leaves_out_scipy_optimize(self):
        # the calibration is one trace and needs no root finder, whose import costs a cold start about 0.2 s
        src = str(Path(netforms.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import sys, netforms, netforms.cli\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            "print(repr(netforms.calibrate_gasket_factor()))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert abs(float(proc.stdout) - 5.0 / 3.0) <= 1e-12

    def test_calibrate_flag(self):
        seq = build_sierpinski_gasket(1, calibrate=True)
        assert check_compatibility(seq, tol=1e-9)

    def test_size_guard(self):
        with pytest.raises(ValidationError, match=r"^levels must be an integer in \[0, 8\], got 9$"):
            build_sierpinski_gasket(9)

    def test_levels_must_be_an_integer(self):
        for bad in (2.7, 3.0, True, "3"):
            with pytest.raises(ValidationError, match="levels must be an integer"):
                build_sierpinski_gasket(bad)
        assert build_sierpinski_gasket(np.int64(2)).levels == 3

    def test_vertex_counts(self):
        for n, count in ((0, 3), (1, 6), (2, 15), (3, 42)):
            assert build_sierpinski_gasket(n).networks[-1].n == count

    @pytest.mark.parametrize("levels, factor", [(2, 1e200), (3, 1e-200), (8, 1e39), (8, 1e-41)],
                             ids=["overflows", "underflows", "overflows-at-8", "underflows-at-8"])
    def test_factor_whose_top_conductance_leaves_the_floats_raises(self, levels, factor):
        # factor ** levels is the largest (factor > 1) or smallest (factor < 1) conductance
        message = f"factor ** levels = {factor!r} ** {levels} must be a finite number > 0, got "
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            build_sierpinski_gasket(levels, factor=factor)

    def test_factor_whose_top_conductance_is_a_float_passes(self):
        assert build_sierpinski_gasket(2, factor=1e150).networks[2].c[0] == 1e150**2
        assert build_sierpinski_gasket(2, factor=1e-160).networks[2].c[0] == 1e-160**2  # subnormal, still > 0


@st.composite
def sequences(draw) -> CompatibleSequence:
    """Sequences of random networks, coarse to fine, with random injective inclusions."""
    nets = sorted(draw(st.lists(networks(), min_size=1, max_size=4)), key=lambda net: net.n)
    incs = tuple(np.array(draw(st.permutations(range(b.n)))[: a.n]) for a, b in zip(nets, nets[1:]))
    return CompatibleSequence(tuple(nets), incs)


class TestProfileRestrictions:
    @pytest.mark.parametrize("build", [lambda: build_dyadic_interval(9), lambda: build_sierpinski_gasket(5)])
    def test_profile_equals_restrict_per_level(self, build):
        seq = build()
        f = np.random.default_rng(3).standard_normal(seq.networks[-1].n)
        expected = np.array([netforms.evaluate(seq.form(n), seq.restrict(f, n)) for n in range(seq.levels)])
        assert energy_profile(seq, f).tobytes() == expected.tobytes()

    def test_profile_validates_f(self):
        seq = build_dyadic_interval(3)
        with pytest.raises(ValidationError, match="f on the top level"):
            energy_profile(seq, np.ones(8))

    def test_gasket_labels_are_int_pairs_and_inclusions_double(self):
        seq = build_sierpinski_gasket(4)
        assert seq.networks[0].vertices == ((0, 0), (1, 0), (0, 1))
        assert seq.networks[1].vertices == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))  # first appearance
        for n, net in enumerate(seq.networks):
            assert all(type(x) is int and type(y) is int for x, y in net.vertices)
            assert all(type(label) is tuple for label in net.vertices)
            if n:
                finer = seq.networks[n]
                mapped = [finer.vertices[i] for i in seq.inclusions[n - 1]]
                assert mapped == [(2 * x, 2 * y) for x, y in seq.networks[n - 1].vertices]


class TestSerialization:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(sequences())
    def test_json_round_trip(self, seq):
        back = sequence_from_dict(json.loads(json.dumps(sequence_to_dict(seq))))
        assert back.networks == seq.networks and len(back.inclusions) == len(seq.inclusions)
        for a, b in zip(back.inclusions, seq.inclusions):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_dyadic_roundtrip_identical(self, tmp_path):
        seq = build_dyadic_interval(4)
        path = tmp_path / "seq.json"
        save_sequence(seq, path)
        loaded = load_sequence(path)
        assert loaded.networks == seq.networks
        assert all(np.array_equal(a, b) for a, b in zip(loaded.inclusions, seq.inclusions))

    def test_gasket_roundtrip_identical(self, tmp_path):
        seq = build_sierpinski_gasket(2)
        path = tmp_path / "gasket.json"
        save_sequence(seq, path)
        loaded = load_sequence(path)
        assert loaded.networks == seq.networks

    def test_missing_inclusions_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"levels": [Network(2, [(0, 1, 1.0)]).to_dict()]}))
        with pytest.raises(ValidationError, match="inclusions"):
            load_sequence(path)

    def test_malformed_json_names_offset(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"levels": [')
        with pytest.raises(ValidationError, match="byte offset"):
            load_sequence(path)

    def test_hand_written_two_level_refinement(self):
        d = {
            "levels": [
                {"vertices": ["a", "b"], "edges": [{"u": 0, "v": 1, "c": 0.5}]},
                {
                    "vertices": ["a", "m", "b"],
                    "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}],
                },
            ],
            "inclusions": [[0, 2]],
        }
        seq = sequence_from_dict(d)
        assert check_compatibility(seq, tol=1e-12)

    def test_non_injective_inclusion_rejected(self):
        nets = (Network(2, [(0, 1, 1.0)]), Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        with pytest.raises(ValidationError, match="injective"):
            CompatibleSequence(nets, (np.array([0, 0]),))

    @pytest.mark.parametrize("m", [[0, 0], [2, 2], [1, 1]])
    def test_non_injective_inclusion_message(self, m):
        nets = (Network(2, [(0, 1, 1.0)]), Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        with pytest.raises(ValidationError, match=r"^inclusion 0 is not injective$"):
            CompatibleSequence(nets, (np.array(m),))

    @pytest.mark.parametrize("m", [[-1, 0], [0, 3], [-3, -3]])
    def test_range_is_checked_before_injectivity(self, m):
        nets = (Network(2, [(0, 1, 1.0)]), Network(3, [(0, 1, 1.0), (1, 2, 1.0)]))
        with pytest.raises(ValidationError, match=r"^inclusion 0 has an index outside level 1$"):
            CompatibleSequence(nets, (np.array(m),))
