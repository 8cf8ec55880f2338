"""Acceptance suite: every criterion at its stated tolerance and full size.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and asserts the criterion passed.
"""

from netforms import acceptance


def _check(result):
    print(result.line())
    assert result.passed, result.details


def test_criterion_1_markov_contraction():
    # 1000 random Markov forms (n <= 30): E(u clamped) <= E(u) + 1e-12 scale
    _check(acceptance.criterion_markov_contraction(n_forms=1000, n_max=30))


def test_criterion_2_trace_tower():
    # 500 random nested subsets: entrywise deviation <= 1e-9 max|A|
    _check(acceptance.criterion_trace_tower(n_cases=500, n_max=30))


def test_criterion_3_resistance_metric():
    # triangle inequality on 200 networks and 10^4 sup-formula samples
    _check(acceptance.criterion_resistance_metric(n_networks=200, n_sup=10000, n_max=30))


def test_criterion_4_compatibility_and_monotonicity():
    # dyadic levels <= 12 and gasket levels <= 6 at 1e-9; 100 random profiles each;
    # linear profile constant 1 +- 1e-12; x^2 level-8 energy within 1e-2 of 4/3
    _check(acceptance.criterion_compatibility(dyadic_levels=12, gasket_levels=6, n_random_f=100))


def test_criterion_5_beurling_deny():
    # exact roundtrip on 500 random Markov matrices; bilinear identity on 100 pairs each
    _check(acceptance.criterion_beurling_deny(n_matrices=500, pairs_per_matrix=100))


def test_criterion_6_energy_measures():
    # defining identity vs closed form and total mass on 500 cases;
    # pushforward consistency on 100 random quotients
    _check(acceptance.criterion_energy_measures(n_cases=500, n_quotients=100))


def test_criterion_7_counterexample():
    # S = {0, 1/2, 1}, levels 4..12: E_n = 1 +- 1e-12, decay ratio 0.5 +- 1e-6
    _check(acceptance.criterion_counterexample(n_min=4, n_max=12))


def test_criterion_8_isometry_and_injection():
    # 100 random specs: exact mass preservation, isometry within 1e-12 scale,
    # injection on separated specs, truncated dyadic series mass exactly 1 - 2^-20
    _check(acceptance.criterion_isometry_injection(n_specs=100))


def test_criterion_9_process_identities():
    # hitting within 4 SE of harmonic values and commute within 5% of R mu(V)
    # at 10^5 trajectories on path-3 / triangle / gasket-2; same-seed determinism
    _check(acceptance.criterion_process(n_traj=100000, commute_rtol=0.05))
