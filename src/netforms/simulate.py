"""Reversible continuous-time Markov chains generated by a form and a measure.

Given a Markov form matrix and an everywhere-positive measure, the chain
jumps from x to y at rate c_xy / mu(x) and is killed at rate kappa_x / mu(x).
The rates satisfy detailed balance by construction: mu(x) q_xy and mu(y) q_yx
both materialize the single stored conductance c_xy, so the flow matrix is
exactly symmetric. Killing moves the trajectory to an explicit cemetery state
that ends it.

Reproducibility contract: every trajectory draws from its own counter-based
stream keyed by (seed, trajectory index), and trajectories run one after
another in index order, so results are a pure function of (generator, query,
seed, n_traj).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import UnsupportedRegimeError, ValidationError
from .network import (
    AtomicMeasure,
    FormMatrix,
    components,
    conductance_matrix,
    is_markov,
    killing_vector,
    _readonly,
)

__all__ = [
    "GeneratorSpec",
    "SimResult",
    "Estimate",
    "OccupationResult",
    "build_generator",
    "simulate",
    "hitting_probability",
    "commute_time",
    "occupation_check",
]

_MASK64 = (1 << 64) - 1
_BLOCK = 256

#: Relative tolerance below which killing rates count as zero for the
#: killing-free queries.
KILLING_RELTOL = 1e-10


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Jump/killing rates of the mu-symmetric chain of a form.

    Attributes
    ----------
    conductances : ndarray
        Symmetric nonnegative matrix; entry (x, y) is the flow
        mu(x) q_xy == mu(y) q_yx, stored once so detailed balance is exact.
    mu : ndarray
        Everywhere-positive vertex masses.
    jump_rates : ndarray
        q_xy = c_xy / mu(x).
    killing_rates : ndarray
        k_x = kappa_x / mu(x).
    holding : ndarray
        lambda_x = sum_y q_xy + k_x.
    """

    conductances: np.ndarray
    mu: np.ndarray
    jump_rates: np.ndarray
    killing_rates: np.ndarray
    holding: np.ndarray

    def __post_init__(self):
        for name in ("conductances", "mu", "jump_rates", "killing_rates", "holding"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float


@dataclass(frozen=True, eq=False)
class SimResult:
    """Horizon-run summary: occupation fractions and the killed fraction."""

    n_trajectories: int
    occupation: np.ndarray
    occupation_se: np.ndarray
    killed_fraction: float
    killed_fraction_se: float


@dataclass(frozen=True, eq=False)
class OccupationResult:
    """L1 distance of the empirical occupation from mu/mu(V) with a band."""

    l1_distance: float
    band: float
    occupation: np.ndarray
    occupation_se: np.ndarray
    target: np.ndarray


def build_generator(A: FormMatrix, mu: AtomicMeasure) -> GeneratorSpec:
    """Rates of the mu-symmetric continuous-time chain of a Markov form."""
    report = is_markov(A)
    if not report:
        raise ValidationError(f"matrix is not Markov: {report.violations[0]}")
    if mu.n != A.n:
        raise ValidationError(f"measure has {mu.n} atoms but the form has {A.n} vertices")
    if not mu.everywhere_positive:
        bad = int(np.flatnonzero(mu.weights <= 0)[0])
        raise ValidationError(
            f"mu({bad}) = {float(mu.weights[bad])!r} is not positive; the symmetric process "
            "requires every point to have positive measure"
        )
    C = np.maximum(conductance_matrix(A), 0.0)
    kappa = np.maximum(killing_vector(A), 0.0)
    Q = C / mu.weights[:, None]
    k = kappa / mu.weights
    lam = np.sum(Q, axis=1) + k
    return GeneratorSpec(conductances=C, mu=mu.weights, jump_rates=Q, killing_rates=k, holding=lam)


class _Stream:
    """Per-trajectory variate source keyed by (seed, trajectory index)."""

    __slots__ = ("_g", "_exp", "_uni", "_ie", "_iu")

    def __init__(self, seed: int, index: int):
        key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
        self._g = np.random.Generator(np.random.Philox(key=key))
        self._exp: list = []
        self._uni: list = []
        self._ie = 0
        self._iu = 0

    def exponential(self) -> float:
        if self._ie == len(self._exp):
            self._exp = self._g.standard_exponential(_BLOCK).tolist()
            self._ie = 0
        v = self._exp[self._ie]
        self._ie += 1
        return v

    def uniform(self) -> float:
        if self._iu == len(self._uni):
            self._uni = self._g.random(_BLOCK).tolist()
            self._iu = 0
        v = self._uni[self._iu]
        self._iu += 1
        return v


class _JumpTables:
    """Per-state cumulative jump probabilities as plain Python structures."""

    __slots__ = ("cum", "targets", "inv_holding", "cemetery", "n")

    def __init__(self, gen: GeneratorSpec, include_killing: bool):
        n = gen.n
        self.n = n
        self.cemetery = n
        self.cum = []
        self.targets = []
        self.inv_holding = []
        for x in range(n):
            rates = []
            targets = []
            for y in range(n):
                r = gen.jump_rates[x, y]
                if y != x and r > 0.0:
                    rates.append(float(r))
                    targets.append(y)
            if include_killing and gen.killing_rates[x] > 0.0:
                rates.append(float(gen.killing_rates[x]))
                targets.append(self.cemetery)
            lam = sum(rates)
            if lam > 0.0:
                self.cum.append(list(accumulate(r / lam for r in rates)))
                self.inv_holding.append(1.0 / lam)
            else:
                self.cum.append([])
                self.inv_holding.append(0.0)
            self.targets.append(targets)

    def step(self, x: int, u: float) -> int:
        cum = self.cum[x]
        return self.targets[x][min(bisect_right(cum, u), len(cum) - 1)]


def _bernoulli_se(values: np.ndarray) -> float:
    n = values.shape[0]
    if n < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(n))


def simulate(gen: GeneratorSpec, x0: int, horizon: float, n_traj: int, seed: int) -> SimResult:
    """Run trajectories up to a time horizon, tracking occupation and killing.

    Holding times are exponential with the state's holding parameter; jumps
    are selected proportionally to the jump rates, and killing moves the
    trajectory to the cemetery, ending it. Occupation fractions are
    time-averages over [0, horizon]; time after a kill belongs to the
    cemetery and is not credited to any state.
    """
    x0 = int(x0)
    if not (0 <= x0 < gen.n):
        raise ValidationError(f"start vertex {x0} out of range for n={gen.n}")
    if not (horizon > 0 and np.isfinite(horizon)):
        raise ValidationError(f"horizon must be finite and > 0, got {horizon!r}")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    tables = _JumpTables(gen, include_killing=True)
    occ = np.zeros((n_traj, gen.n))
    killed = np.zeros(n_traj)
    for i in range(n_traj):
        stream = _Stream(seed, i)
        t = 0.0
        x = x0
        row = occ[i]
        while True:
            inv = tables.inv_holding[x]
            if inv == 0.0:
                row[x] += horizon - t
                break
            dt = stream.exponential() * inv
            if t + dt >= horizon:
                row[x] += horizon - t
                break
            row[x] += dt
            t += dt
            x = tables.step(x, stream.uniform())
            if x == tables.cemetery:
                killed[i] = 1.0
                break

    occ /= horizon
    return SimResult(
        n_trajectories=n_traj,
        occupation=np.mean(occ, axis=0),
        occupation_se=np.std(occ, axis=0, ddof=1) / np.sqrt(n_traj) if n_traj > 1 else np.zeros(gen.n),
        killed_fraction=float(np.mean(killed)),
        killed_fraction_se=_bernoulli_se(killed),
    )


def _require_killing_free(gen: GeneratorSpec, op: str) -> None:
    scale = max(1.0, float(np.max(gen.holding)))
    if np.any(gen.killing_rates > KILLING_RELTOL * scale):
        raise UnsupportedRegimeError(f"{op} requires a killing-free chain")


def _support_form(gen: GeneratorSpec) -> FormMatrix:
    return FormMatrix(-gen.conductances)


def _component_of(gen: GeneratorSpec, x: int) -> np.ndarray:
    for comp in components(_support_form(gen)):
        if x in comp:
            return comp
    raise AssertionError("vertex not found in any component")


def hitting_probability(gen: GeneratorSpec, a: int, b: int, x0: int, n_traj: int, seed: int) -> Estimate:
    """Estimate P_x0(hit a before b) for a killing-free chain.

    The analytic value is u(x0) where u is the harmonic extension of the
    boundary data (1 at a, 0 at b); hitting probabilities do not depend on mu.
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    a, b, x0 = int(a), int(b), int(x0)
    if a == b:
        raise ValidationError("hitting targets must be distinct")
    for v in (a, b, x0):
        if not (0 <= v < gen.n):
            raise ValidationError(f"vertex {v} out of range for n={gen.n}")
    _require_killing_free(gen, "hitting probability")
    comp = _component_of(gen, x0)
    if a not in comp or b not in comp:
        raise ValidationError(f"targets {a}, {b} are not both reachable from {x0}")
    if x0 == a:
        return Estimate(1.0, 0.0)
    if x0 == b:
        return Estimate(0.0, 0.0)

    tables = _JumpTables(gen, include_killing=False)
    hits = np.zeros(n_traj)
    for i in range(n_traj):
        stream = _Stream(seed, i)
        x = x0
        while True:
            x = tables.step(x, stream.uniform())
            if x == a:
                hits[i] = 1.0
                break
            if x == b:
                break

    return Estimate(float(np.mean(hits)), _bernoulli_se(hits))


def commute_time(gen: GeneratorSpec, x: int, y: int, n_traj: int, seed: int) -> Estimate:
    """Estimate the commute time E_x T_y + E_y T_x of a killing-free chain.

    Each trajectory runs from x until it hits y and then continues until it
    returns to x; the analytic value is R(x, y) * mu(V).
    """
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    x, y = int(x), int(y)
    for v in (x, y):
        if not (0 <= v < gen.n):
            raise ValidationError(f"vertex {v} out of range for n={gen.n}")
    if x == y:
        return Estimate(0.0, 0.0)
    _require_killing_free(gen, "commute time")
    comp = _component_of(gen, x)
    if y not in comp:
        raise ValidationError(f"vertex {y} is not reachable from {x}")

    tables = _JumpTables(gen, include_killing=False)
    times = np.zeros(n_traj)
    for i in range(n_traj):
        stream = _Stream(seed, i)
        t = 0.0
        state = x
        target = y
        while True:
            t += stream.exponential() * tables.inv_holding[state]
            state = tables.step(state, stream.uniform())
            if state == target:
                if target == y:
                    target = x
                else:
                    break
        times[i] = t

    se = float(np.std(times, ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    return Estimate(float(np.mean(times)), se)


def occupation_check(gen: GeneratorSpec, horizon: float, n_traj: int, seed: int, x0: int = 0) -> OccupationResult:
    """L1 distance between the empirical occupation and mu/mu(V).

    The band aggregates the per-state standard errors; the distance shrinks
    with the horizon since mu/mu(V) is the stationary law of the chain.
    """
    _require_killing_free(gen, "occupation check")
    comps = components(_support_form(gen))
    if len(comps) > 1:
        report = "; ".join(f"component {i}: vertices {c.tolist()}" for i, c in enumerate(comps))
        raise ValidationError(f"chain is reducible, occupation target is ill-defined ({report})")
    res = simulate(gen, x0, horizon, n_traj, seed)
    target = gen.mu / float(np.sum(gen.mu))
    l1 = float(np.sum(np.abs(res.occupation - target)))
    band = float(np.sum(res.occupation_se))
    return OccupationResult(
        l1_distance=l1,
        band=band,
        occupation=res.occupation,
        occupation_se=res.occupation_se,
        target=target,
    )
