"""Per-vertex energy measures of functions under a Markov form.

The energy measure of f assigns to each vertex the mass

    gamma_f(x) = 1/2 sum_y c_xy (f(x) - f(y))^2 + 1/2 kappa_x f(x)^2,

the unique per-point masses satisfying the defining identity
2 sum_x phi(x) gamma_f(x) = 2 E(phi f, f) - E(phi, f^2) for every phi. Both
the closed form and the defining identity are computed and cross-asserted;
the closed form is the numerically stable normative output because the
defining identity involves cancellation. The total mass satisfies
sum_x gamma_f(x) = E(f, f) - 1/2 sum_x kappa_x f(x)^2.

The decay demo exhibits the one phenomenon that makes these measures
interesting on countable approximation sequences: on the dyadic interval the
energy of the linear function is 1 at every level while the mass any fixed
finite point set carries halves per level, so in the limit no point set
supports the energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .gelfand import EmbeddingResult
from .network import CLAMP_RELTOL, IDENTITY_RELTOL, FormMatrix, evaluate, killing_vector
from .network import _as_vector, _check_product, _entries, _index, _readonly, _reals, _require_markov, _scale
from .sequences import MAX_DYADIC_LEVELS, build_dyadic_interval

__all__ = [
    "EnergyMeasure",
    "energy_measure",
    "energy_measure_identity",
    "pushforward_gamma",
    "counterexample_demo",
]


@dataclass(frozen=True, eq=False)
class EnergyMeasure:
    """Nonnegative per-vertex masses gamma_f({x}) with their total."""

    masses: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        m = _reals(self.masses, "masses")
        object.__setattr__(self, "masses", _readonly(m))
        object.__setattr__(self, "total", float(np.sum(m)))

    @property
    def n(self) -> int:
        return self.masses.shape[0]


def energy_measure(A: FormMatrix, f) -> EnergyMeasure:
    """Energy measure of f, cross-checked against the defining identity.

    The measure is a sum over the nonzero entries of the form: O(|E|). The
    identity side's products ``A f`` and ``A f^2`` read the dense array on a
    form of at most ``DENSE_N_MAX`` vertices (O(n^2); a form held as CSR
    builds and caches that array) and the CSR matrix above (O(|E|)).
    """
    _require_markov(A)
    fv = _as_vector(f, A.n, "f")
    kappa = killing_vector(A)
    i, j, a = _entries(A)
    off = i != j
    i, j, a = i[off], j[off], a[off]
    d = fv[i] - fv[j]
    closed = 0.5 * np.bincount(i, -a * d * d, minlength=A.n) + 0.5 * kappa * fv * fv

    # defining identity with indicator test functions:
    # gamma(x) = E(1_x f, f) - 1/2 E(1_x, f^2) = f(x) (A f)(x) - 1/2 (A f^2)(x)
    Af = _check_product(A, fv)
    Af2 = _check_product(A, fv * fv)
    via_identity = fv * Af - 0.5 * Af2

    s = _scale(A) * _scale(fv) ** 2
    if np.max(np.abs(closed - via_identity)) > IDENTITY_RELTOL * s * A.n:
        raise NumericalError(
            "energy measure cross-check failed: closed form and defining identity "
            f"disagree by {float(np.max(np.abs(closed - via_identity)))!r}"
        )
    neg = closed < 0.0
    if np.any(closed < -CLAMP_RELTOL * s):
        i = int(np.argmin(closed))
        raise NumericalError(
            f"energy mass at vertex {i} is {float(closed[i])!r} < 0 beyond tolerance; "
            "a non-Markov input slipped through"
        )
    closed = np.where(neg, 0.0, closed)
    return EnergyMeasure(masses=closed)


def energy_measure_identity(A: FormMatrix, f, phi) -> tuple[float, float]:
    """Both sides of 2 sum phi d(gamma_f) = 2 E(phi f, f) - E(phi, f^2)."""
    fv = _as_vector(f, A.n, "f")
    pv = _as_vector(phi, A.n, "phi")
    gamma = energy_measure(A, fv)
    lhs = 2.0 * float(np.sum(pv * gamma.masses))
    rhs = 2.0 * evaluate(A, pv * fv, fv) - evaluate(A, pv, fv * fv)
    return lhs, rhs


def pushforward_gamma(gamma: EnergyMeasure, emb: EmbeddingResult) -> EnergyMeasure:
    """Sum the per-vertex masses over equivalence classes.

    When the function generating ``gamma`` is class-constant this equals the
    energy measure of the quotient function under the transferred form.
    """
    if gamma.n != emb.n_points:
        raise ValidationError(
            f"energy measure has {gamma.n} masses but the embedding has {emb.n_points} points"
        )
    return EnergyMeasure(masses=np.bincount(emb.class_of, gamma.masses, minlength=emb.n_classes))


def counterexample_demo(n_max: int, points=(0.0, 0.5, 1.0), n_min: int | None = None) -> np.ndarray:
    """Energy vs. point-set mass table for the linear function on dyadic levels.

    Returns rows (level, E_n(f), gamma_n(f)(S)) for f(x) = x on the dyadic
    interval sequence. The energy column is constantly 1 while the mass of the
    fixed set S halves per level: the discrete shadow of energy escaping every
    countable point set in the limit.
    """
    pts = _reals(points, "points")
    if pts.ndim != 1:
        raise ValidationError(f"the point set S must be a 1-d list of points, got shape {pts.shape}")
    pts = pts.tolist()
    if not pts:
        raise ValidationError("the point set S must be nonempty")
    for s in pts:
        if not (0.0 <= s <= 1.0):
            raise ValidationError(f"point {s} lies outside [0, 1]")
    if n_min is None:
        n_min = 0
        for s in pts:
            level = 0
            while s * 2**level != round(s * 2**level):
                level += 1
                if level > MAX_DYADIC_LEVELS:
                    raise ValidationError(
                        f"point {s} is not a dyadic point of any level <= {MAX_DYADIC_LEVELS}"
                    )
            n_min = max(n_min, level)
    n_min, n_max = _index(n_min, "n_min"), _index(n_max, "n_max")
    if n_max < n_min:
        raise ValidationError(f"n_max = {n_max} is below the coarsest level {n_min}")
    for s in pts:
        if s * 2**n_min != round(s * 2**n_min):
            raise ValidationError(
                f"point {s} is not contained in the coarsest level {n_min}"
            )

    seq = build_dyadic_interval(n_max)
    rows = np.zeros((n_max - n_min + 1, 3))
    for r, n in enumerate(range(n_min, n_max + 1)):
        A = seq.form(n)
        f = np.array(seq.networks[n].vertices, dtype=float)
        gamma = energy_measure(A, f)
        idx = [int(round(s * 2**n)) for s in pts]
        rows[r] = (n, evaluate(A, f), float(np.sum(gamma.masses[idx])))
    return rows
