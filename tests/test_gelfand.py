import numpy as np
import pytest

from netforms import (
    AlgebraSpec,
    AtomicMeasure,
    Network,
    NotInAlgebraError,
    ValidationError,
    assemble,
    embed,
    evaluate,
    is_markov,
    l2_isometry_check,
    lift_function,
    pushforward,
    quotient_function,
    spectrum_closure_estimate,
    transfer_form,
    unit_contraction,
    vanishes_nowhere,
)


class TestEmbed:
    def test_indicators_separate(self):
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        assert emb.separated and emb.classes == ((0,), (1,), (2,))

    def test_constant_collapses(self):
        emb = embed(AlgebraSpec(range(3), [[1.0, 1.0, 1.0]]))
        assert not emb.separated and emb.classes == ((0, 1, 2),)

    def test_coordinate_generator(self):
        emb = embed(AlgebraSpec([0.0, 0.5, 1.0], [[0.0, 0.5, 1.0]]))
        assert emb.separated
        assert np.array_equal(emb.images, [[0.0], [0.5], [1.0]])

    def test_tolerance_merging(self):
        emb0 = embed(AlgebraSpec(range(2), [[0.0, 1e-12]]))
        assert emb0.separated
        emb1 = embed(AlgebraSpec(range(2), [[0.0, 1e-12]]), tol=1e-9)
        assert not emb1.separated

    def test_validation(self):
        with pytest.raises(ValidationError, match="at least one generator"):
            AlgebraSpec(range(3), np.zeros((0, 3)))
        with pytest.raises(ValidationError, match="non-finite"):
            AlgebraSpec(range(2), [[0.0, np.inf]])
        with pytest.raises(ValidationError, match="one value per point"):
            AlgebraSpec(range(3), [[0.0, 1.0]])
        with pytest.raises(ValidationError, match="rectangular"):
            AlgebraSpec(range(2), [[0.0, 1.0], [1.0]])
        with pytest.raises(ValidationError, match="tolerance"):
            embed(AlgebraSpec(range(2), [[0.0, 1.0]]), tol=float("nan"))


class TestVanishesNowhere:
    def test_constant_one(self):
        assert bool(vanishes_nowhere(AlgebraSpec(range(3), [[1.0, 1.0, 1.0]])))

    def test_coordinate_fails_at_zero(self):
        rep = vanishes_nowhere(AlgebraSpec([0.0, 1.0], [[0.0, 1.0]]))
        assert not rep and rep.witnesses == (0,)

    def test_indicators(self):
        assert bool(vanishes_nowhere(AlgebraSpec(range(4), np.eye(4))))


class TestPushforward:
    def test_separated_is_copy(self):
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        mu = AtomicMeasure([0.2, 0.3, 0.5])
        push = pushforward(mu, emb)
        assert np.array_equal(push.atoms, mu.weights)
        assert push.total == mu.total

    def test_merged_pair_adds(self):
        emb = embed(AlgebraSpec(range(2), [[7.0, 7.0]]))
        push = pushforward(AtomicMeasure([0.25, 0.75]), emb)
        assert np.array_equal(push.atoms, [1.0])
        assert push.total == 1.0

    def test_truncated_dyadic_series_mass_exact(self):
        weights = [2.0**-n for n in range(1, 21)]
        mu = AtomicMeasure(weights)
        emb = embed(AlgebraSpec(range(20), [np.arange(20, dtype=float)]))
        push = pushforward(mu, emb)
        assert push.total == 1.0 - 2.0**-20
        assert mu.total == 1.0 - 2.0**-20

    def test_mass_preserved_exactly_random(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, n + 1))
            labels = rng.integers(0, m, n)
            gens = np.zeros((int(np.max(labels)) + 1, n))
            gens[labels, np.arange(n)] = 1.0
            emb = embed(AlgebraSpec(range(n), gens))
            mu = AtomicMeasure(rng.uniform(0, 3, n))
            assert pushforward(mu, emb).total == mu.total

    def test_injection_on_separated_specs(self):
        rng = np.random.default_rng(41)
        emb = embed(AlgebraSpec(range(10), rng.standard_normal((2, 10))))
        assert emb.separated
        w = rng.uniform(0.5, 1.5, 10)
        w2 = w.copy()
        w2[3] += 0.25
        p1 = pushforward(AtomicMeasure(w), emb)
        p2 = pushforward(AtomicMeasure(w2), emb)
        assert not np.array_equal(p1.atoms, p2.atoms)

    def test_dimension_mismatch(self):
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        with pytest.raises(ValidationError):
            pushforward(AtomicMeasure([1.0, 2.0]), emb)


class TestIsometry:
    def test_separated_exact(self):
        rng = np.random.default_rng(42)
        emb = embed(AlgebraSpec(range(8), rng.standard_normal((3, 8))))
        mu = AtomicMeasure(rng.uniform(0.1, 2.0, 8))
        f = rng.uniform(-2, 2, 8)
        lhs, rhs, diff = l2_isometry_check(f, mu, emb)
        assert diff == 0.0

    def test_merged_pair_hand_computation(self):
        emb = embed(AlgebraSpec(range(2), [[4.0, 4.0]]))
        mu = AtomicMeasure([0.25, 0.75])
        c = 3.0
        lhs, rhs, diff = l2_isometry_check([c, c], mu, emb)
        assert abs(lhs - c) <= 1e-12 and abs(rhs - c) <= 1e-12
        assert diff <= 1e-12

    def test_generator_is_class_constant(self):
        spec = AlgebraSpec(range(4), [[1.0, 1.0, 2.0, 2.0]])
        emb = embed(spec)
        mu = AtomicMeasure([0.1, 0.2, 0.3, 0.4])
        lhs, rhs, diff = l2_isometry_check(spec.generators[0], mu, emb)
        assert diff <= 1e-12 * max(1.0, lhs)

    def test_not_class_constant_rejected(self):
        emb = embed(AlgebraSpec(range(2), [[5.0, 5.0]]))
        with pytest.raises(NotInAlgebraError):
            l2_isometry_check([1.0, 2.0], AtomicMeasure([1.0, 1.0]), emb)


class TestTransferForm:
    def test_separated_identity(self, path3):
        emb = embed(AlgebraSpec(range(3), np.eye(3)))
        assert np.array_equal(transfer_form(path3, emb).matrix, path3.matrix)

    def test_merged_pair_doubles_conductance(self):
        A = assemble(Network(3, [(0, 2, 1.0), (1, 2, 1.0)]))
        emb = embed(AlgebraSpec(range(3), [[1.0, 1.0, 0.0]]))
        Ahat = transfer_form(A, emb)
        assert np.array_equal(Ahat.matrix, [[2.0, -2.0], [-2.0, 2.0]])

    def test_values_preserved_on_class_constant_functions(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            net_edges = [
                (u, v, float(rng.uniform(0.2, 2.0)))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.4
            ]
            A = assemble(Network(n, net_edges, rng.uniform(0, 1, n)))
            m = int(rng.integers(1, n + 1))
            labels = rng.integers(0, m, n)
            gens = np.zeros((int(np.max(labels)) + 1, n))
            gens[labels, np.arange(n)] = 1.0
            emb = embed(AlgebraSpec(range(n), gens))
            Ahat = transfer_form(A, emb)
            fh = rng.uniform(-2, 2, emb.n_classes)
            gh = rng.uniform(-2, 2, emb.n_classes)
            up = evaluate(A, lift_function(fh, emb), lift_function(gh, emb))
            down = evaluate(Ahat, fh, gh)
            scale = max(1.0, np.max(np.abs(A.matrix))) * n * 4.0
            assert abs(up - down) <= 1e-12 * scale

    def test_transfer_preserves_markov(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(3, 12))
            A = assemble(
                Network(n, [(u, u + 1, float(rng.uniform(0.5, 2))) for u in range(n - 1)],
                        rng.uniform(0, 1, n))
            )
            labels = rng.integers(0, max(1, n // 2), n)
            gens = np.zeros((int(np.max(labels)) + 1, n))
            gens[labels, np.arange(n)] = 1.0
            emb = embed(AlgebraSpec(range(n), gens))
            assert bool(is_markov(transfer_form(A, emb)))

    def test_contraction_commutes_with_quotient(self):
        emb = embed(AlgebraSpec(range(4), [[1.0, 1.0, 2.0, 3.0]]))
        f = lift_function(np.array([-0.5, 0.3, 1.7]), emb)
        a = quotient_function(unit_contraction(f), emb)
        b = unit_contraction(quotient_function(f, emb))
        assert np.array_equal(a, b)


class TestClosureEstimate:
    def test_accumulation_at_zero_flagged(self):
        vals = np.array([1.0 / k for k in range(1, 1001)])
        est = spectrum_closure_estimate(AlgebraSpec(range(1000), vals[None, :]), 0.01)
        flagged_positions = est.net_points[est.flagged]
        assert flagged_positions.size > 0
        assert np.min(flagged_positions) < 0.05

    def test_separated_below_gap_no_flags(self):
        est = spectrum_closure_estimate(AlgebraSpec(range(3), [[0.0, 1.0, 2.0]]), 0.5)
        assert len(est.net_points) == 3
        assert not np.any(est.flagged)

    def test_constant_generator_single_net_point(self):
        est = spectrum_closure_estimate(AlgebraSpec(range(50), [np.ones(50)]), 0.25)
        assert len(est.net_points) == 1
        assert not np.any(est.flagged)

    def test_epsilon_validation(self):
        with pytest.raises(ValidationError):
            spectrum_closure_estimate(AlgebraSpec(range(2), [[0.0, 1.0]]), 0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="epsilon"):
                spectrum_closure_estimate(AlgebraSpec(range(2), [[0.0, 1.0]]), bad)
