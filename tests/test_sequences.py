import json
import os
import subprocess
import sys
from pathlib import Path

import netforms
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforms import (
    CompatibleSequence,
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
from netforms.sequences import sequence_from_dict, sequence_to_dict

from conftest import networks


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
            with pytest.raises(ValidationError, match="size guard"):
                build_dyadic_interval(levels)

    def test_levels_must_be_an_integer(self):
        for bad in (2.7, 3.0, True, "3"):
            with pytest.raises(ValidationError, match="levels must be an integer"):
                build_dyadic_interval(bad)
        assert build_dyadic_interval(np.int64(3)).levels == 4


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
        # the root finder is imported by the calibration alone: it costs a cold start about 0.2 s
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
        with pytest.raises(ValidationError, match="size guard"):
            build_sierpinski_gasket(9)

    def test_levels_must_be_an_integer(self):
        for bad in (2.7, 3.0, True, "3"):
            with pytest.raises(ValidationError, match="levels must be an integer"):
                build_sierpinski_gasket(bad)
        assert build_sierpinski_gasket(np.int64(2)).levels == 3

    def test_vertex_counts(self):
        for n, count in ((0, 3), (1, 6), (2, 15), (3, 42)):
            assert build_sierpinski_gasket(n).networks[-1].n == count


@st.composite
def sequences(draw) -> CompatibleSequence:
    """Sequences of random networks, coarse to fine, with random injective inclusions."""
    nets = sorted(draw(st.lists(networks(), min_size=1, max_size=4)), key=lambda net: net.n)
    incs = tuple(np.array(draw(st.permutations(range(b.n)))[: a.n]) for a, b in zip(nets, nets[1:]))
    return CompatibleSequence(tuple(nets), incs)


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
