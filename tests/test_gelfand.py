import tracemalloc

import numpy as np
import pytest

import netforms.gelfand as gelfand
from netforms import (
    AlgebraSpec,
    AtomicMeasure,
    Network,
    NotInAlgebraError,
    ValidationError,
    assemble,
    embed,
    energy_measure,
    evaluate,
    is_markov,
    l2_isometry_check,
    lift_function,
    pushforward,
    pushforward_gamma,
    quotient_function,
    spectrum_closure_estimate,
    transfer_form,
    unit_contraction,
    vanishes_nowhere,
)
from netforms.random_networks import random_markov_form


def closure_classes(images, tol):
    """Oracle: classes of the transitive closure of "within tol in sup norm",
    by Warshall's algorithm, numbered by smallest member."""
    n = len(images)
    reach = np.max(np.abs(images[:, None, :] - images[None, :, :]), axis=2) <= tol
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    classes = []
    for i in range(n):
        if not any(i in c for c in classes):
            classes.append(tuple(int(j) for j in np.flatnonzero(reach[i])))
    return tuple(classes)


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

    @pytest.mark.parametrize("budget", [1, 16, gelfand._PAIR_BUDGET])
    def test_tolerance_classes_are_the_transitive_closure(self, monkeypatch, budget):
        # budget 1 compares one row per block, 16 a few, so pairs cross blocks
        monkeypatch.setattr(gelfand, "_PAIR_BUDGET", budget)
        rng = np.random.default_rng(45)
        for trial in range(150):
            n = int(rng.integers(1, 30))
            k = int(rng.integers(1, 4))
            G = rng.integers(-4, 5, size=(k, n)) * 0.25  # exact ties at distance tol
            tol = float(rng.choice([0.25, 0.5, 0.75, 1e-3]))
            emb = embed(AlgebraSpec(range(n), G), tol=tol)
            expected = closure_classes(G.T, tol)
            assert emb.classes == expected
            assert emb.separated == (len(expected) == n)
            for c, members in enumerate(expected):
                assert np.all(emb.class_of[list(members)] == c)

    def test_tolerance_chain_merges_across_blocks(self, monkeypatch):
        monkeypatch.setattr(gelfand, "_PAIR_BUDGET", 1)
        # 0 ~ 2 ~ 1 within 0.5, but |x0 - x1| = 1 exceeds it
        emb = embed(AlgebraSpec(range(4), [[0.0, 1.0, 0.5, 5.0]]), tol=0.5)
        assert emb.classes == ((0, 1, 2), (3,))
        assert emb.class_of.tolist() == [0, 0, 0, 1]

    def test_tolerance_path_memory_is_blockwise(self, monkeypatch):
        monkeypatch.setattr(gelfand, "_PAIR_BUDGET", 1 << 14)
        n = 2000
        spec = AlgebraSpec(range(n), np.random.default_rng(46).uniform(0, 1, (1, n)))
        tracemalloc.start()
        try:
            embed(spec, tol=1e-7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 2  # an n x n boolean array alone takes n * n bytes

    @pytest.mark.parametrize("tol", [0.0, 0.1])
    def test_signed_zeros_share_a_class(self, tol):
        emb = embed(AlgebraSpec(range(3), [[0.0, -0.0, 1.0], [-0.0, 0.0, 0.0]]), tol=tol)
        assert emb.classes == ((0, 1), (2,))

    @pytest.mark.parametrize("tol", [0.0, 0.1])
    def test_classes_numbered_by_smallest_member(self, tol):
        emb = embed(AlgebraSpec(range(6), [[3.0, 1.0, 3.0, 2.0, 1.0, 2.0]]), tol=tol)
        assert emb.classes == ((0, 2), (1, 4), (3, 5))
        assert emb.class_of.tolist() == [0, 1, 0, 2, 1, 2]
        assert emb.representatives().tolist() == [0, 1, 3]

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

    def test_atoms_are_class_sums(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
            gens = np.zeros((int(np.max(labels)) + 1, n))
            gens[labels, np.arange(n)] = 1.0
            emb = embed(AlgebraSpec(range(n), gens))
            mu = AtomicMeasure(rng.uniform(0, 3, n))
            A = assemble(Network(n, [(i, i + 1, float(c)) for i, c in enumerate(rng.uniform(0.1, 3, n - 1))]))
            gamma = energy_measure(A, rng.uniform(-2, 2, n))
            push = pushforward(mu, emb)
            assert push.total == mu.total
            for atoms, w in ((push.atoms, mu.weights), (pushforward_gamma(gamma, emb).masses, gamma.masses)):
                ref = np.array([np.sum(w[list(c)]) for c in emb.classes])
                assert np.all(np.abs(atoms - ref) <= 4 * np.spacing(ref))

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

    def test_smallest_faulty_class_is_named(self):
        # classes (0, 5), (1, 2), (3,), (4,); the first faulty point, 2, is in class 1
        emb = embed(AlgebraSpec(range(6), [[0.0, 1.0, 1.0, 3.0, 4.0, 0.0]]))
        f = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        with pytest.raises(NotInAlgebraError, match=r"^f is not constant on class 0 \(points \(0, 5\)\); "):
            quotient_function(f, emb)

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

    def test_block_sums_match_one_hot_product(self):
        # oracle: Q^T A Q with the n x m one-hot class matrix Q
        rng = np.random.default_rng(45)
        for _ in range(30):
            A = random_markov_form(rng, n_max=25)
            labels = rng.integers(0, int(rng.integers(1, A.n + 1)), A.n)
            gens = np.zeros((int(np.max(labels)) + 1, A.n))
            gens[labels, np.arange(A.n)] = 1.0
            emb = embed(AlgebraSpec(range(A.n), gens))
            Q = np.zeros((A.n, emb.n_classes))
            Q[np.arange(A.n), emb.class_of] = 1.0
            oracle = Q.T @ A.matrix @ Q
            scale = max(1.0, float(np.max(np.abs(A.matrix)))) * A.n
            assert np.max(np.abs(transfer_form(A, emb).matrix - oracle)) <= 1e-14 * scale

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


class TestProbes:
    """transfer_form's probe pairs are slices of one kept prefix of the stream
    that default_rng(0) draws."""

    def test_equal_to_fresh_draws(self, monkeypatch):
        monkeypatch.setattr(gelfand, "_probe_stream", np.empty(0))
        sizes = [*range(1, 65), 11_585]
        largest = 0
        for m in sizes + sizes[::-1]:
            largest = max(largest, m)
            probes = gelfand._probes(m)
            fresh = np.swapaxes(np.random.default_rng(0).standard_normal((8, 2, m)), 0, 1)
            assert probes.shape == fresh.shape == (2, 8, m)
            assert probes.tobytes() == fresh.tobytes()
            assert not probes.flags.writeable and not gelfand._probe_stream.flags.writeable
            assert gelfand._probe_stream.size <= 2 * 16 * largest


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
