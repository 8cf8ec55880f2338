"""Reversible continuous-time Markov chains generated by a form and a measure.

Given a Markov form matrix and an everywhere-positive measure, the chain
jumps from x to y at rate c_xy / mu(x) and is killed at rate kappa_x / mu(x).
The rates satisfy detailed balance by construction: mu(x) q_xy and mu(y) q_yx
both materialize the single stored conductance c_xy, so the flow matrix is
exactly symmetric. Killing moves the trajectory to an explicit cemetery state
that ends it.

Every estimator runs on one step-synchronous engine. Trajectories go in
blocks of ``_BLOCK`` (the last block may be shorter); each step advances all
the live trajectories of a block with one vector of variates and then drops
the ones that finished. Block b draws from its own counter-based stream,
numpy Philox keyed by (seed, b), so its values depend only on (seed, b,
block length). Each block is reduced to its count, sum and sum of squared
deviations, and the blocks are combined in index order (the pairwise update
of Chan, Golub and LeVeque), so results are a pure function of (generator,
query, seed, n_traj) and memory does not grow with n_traj.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.sparse import csr_array

from .errors import UnsupportedRegimeError, ValidationError
from .network import (
    AtomicMeasure,
    FormMatrix,
    components,
    killing_vector,
    _as_vector,
    _csr_from_entries,
    _entries,
    _index,
    _kernel,
    _killing_free,
    _readonly,
    _real,
    _require_markov,
    _row_sums,
    _scale,
    _vertex,
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
#: Trajectories per block; the bits of every estimate depend on it.
_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Jump/killing rates of the mu-symmetric chain of a form.

    Attributes
    ----------
    conductances : csr_array
        The flow matrix, canonical and read-only, with no diagonal: entry
        (x, y) > 0 is the flow mu(x) q_xy == mu(y) q_yx, stored once so
        detailed balance is exact; the jump rate is q_xy = c_xy / mu(x).
    mu : ndarray
        Everywhere-positive vertex masses.
    killing_rates : ndarray
        k_x = kappa_x / mu(x).
    holding : ndarray
        lambda_x = sum_y q_xy + k_x.

    The constructor also takes ``conductances`` as a dense array-like or as
    any scipy sparse matrix; it must be finite, >= 0, symmetric and zero on
    the diagonal, the three vectors finite, one entry per vertex, and mu
    positive.
    """

    conductances: csr_array
    mu: np.ndarray
    killing_rates: np.ndarray
    holding: np.ndarray

    def __post_init__(self):
        C = _kernel(self.conductances, "conductance matrix")
        i, j, c = _entries(C)
        if np.any(c < 0.0):
            x = np.argmax(c < 0.0)
            raise ValidationError(f"conductance matrix entry ({i[x]},{j[x]}) = {float(c[x])!r} is negative")
        mu, k, lam = (_as_vector(getattr(self, name), C.shape[0], name) for name in ("mu", "killing_rates", "holding"))
        if not np.all(mu > 0.0):
            bad = int(np.argmax(~(mu > 0.0)))
            raise ValidationError(f"mu({bad}) = {float(mu[bad])!r} is not positive")
        object.__setattr__(self, "conductances", C)
        for name, v in (("mu", mu), ("killing_rates", k), ("holding", lam)):
            object.__setattr__(self, name, _readonly(v))

    @property
    def n(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True, eq=False)
class Estimate:
    """Monte Carlo estimate with its standard error.

    ``jumps`` counts the transitions of all trajectories (a kill counts as
    one) and ``max_jumps`` those of the longest trajectory.
    """

    value: float
    stderr: float
    jumps: int = 0
    max_jumps: int = 0


@dataclass(frozen=True, eq=False)
class SimResult:
    """Horizon-run summary: occupation fractions, the killed fraction and the
    jump counts (as in :class:`Estimate`)."""

    n_trajectories: int
    occupation: np.ndarray
    occupation_se: np.ndarray
    killed_fraction: float
    killed_fraction_se: float
    jumps: int = 0
    max_jumps: int = 0


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
    _require_markov(A)
    if mu.n != A.n:
        raise ValidationError(f"measure has {mu.n} atoms but the form has {A.n} vertices")
    if not mu.everywhere_positive:
        bad = int(np.flatnonzero(mu.weights <= 0)[0])
        raise ValidationError(
            f"mu({bad}) = {float(mu.weights[bad])!r} is not positive; the symmetric process "
            "requires every point to have positive measure"
        )
    i, j, a = _entries(A)
    flow = (i != j) & (a < 0.0)  # the conductances -a, clamped at 0
    rows, cols, c = i[flow], j[flow], -a[flow]
    k = np.maximum(killing_vector(A), 0.0) / mu.weights
    lam = _row_sums(rows, cols, c / mu.weights[rows], A.n) + k
    C = _csr_from_entries(rows, cols, c, (A.n, A.n))
    return GeneratorSpec(C, mu.weights, k, lam)


class _JumpTable(NamedTuple):
    """Padded per-state jump law; state n is the cemetery, which has no exits.

    Column x of ``cum`` holds the cumulative jump probabilities of x over its
    targets in column x of ``tgt`` (ascending, the cemetery last), padded
    with inf. States index columns, so gathering a vector of states is one
    contiguous ``take`` per row.
    """

    cum: np.ndarray  # (d, n + 1)
    tgt: np.ndarray  # (d, n + 1)
    inv_holding: np.ndarray  # (n + 1,) mean holding time; inf without exits


def _jump_table(gen: GeneratorSpec, include_killing: bool) -> _JumpTable:
    n = gen.n
    rows, cols, c = _entries(gen.conductances)
    rates = c / gen.mu[rows]
    exits = rates > 0.0  # a rate can underflow to 0
    rows, cols, rates = rows[exits], cols[exits], rates[exits]
    if include_killing:
        kx = np.flatnonzero(gen.killing_rates > 0.0)
        order = np.argsort(np.concatenate([rows, kx]), kind="stable")
        rows = np.concatenate([rows, kx])[order]
        cols = np.concatenate([cols, np.full(kx.size, n)])[order]
        rates = np.concatenate([rates, gen.killing_rates[kx]])[order]
    deg = np.bincount(rows, minlength=n + 1)
    d = max(int(deg.max()), 1)
    pos = np.arange(rows.size) - (np.cumsum(deg) - deg)[rows]
    padded = np.zeros((d, n + 1))
    padded[pos, rows] = rates
    tgt = np.zeros((d, n + 1), dtype=np.intp)
    tgt[pos, rows] = cols
    c = np.cumsum(padded, axis=0)
    lam = c[-1]
    with np.errstate(divide="ignore", invalid="ignore"):  # lam == 0 without exits
        cum = c / lam
        inv_holding = 1.0 / lam
    # The last real entry of a state is lam / lam == 1.0 exactly, and uniform
    # variates are < 1, so a step never selects a padding entry.
    cum[np.arange(d)[:, None] >= deg] = np.inf
    return _JumpTable(cum, tgt, inv_holding)


class _Walk(NamedTuple):
    """One query for the engine.

    A trajectory starts at ``x0`` and passes through the phases in order:
    phase p ends on entering a state x with ``stops[p, x]``, and the
    trajectory ends after the last phase. With ``horizon`` set it also ends
    at that time (or in a state without exits) and its occupation times are
    recorded. Holding times are drawn only when ``timed``. ``values`` maps
    the block's final states, clocks and occupation times to one row of
    values per trajectory.
    """

    table: _JumpTable
    x0: int
    stops: np.ndarray  # (phases, n + 1) bool
    timed: bool
    horizon: float | None
    values: Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]


def _run_block(walk: _Walk, seed: int, b: int, m: int) -> tuple[np.ndarray, int, int]:
    """Values of the m trajectories of block b, their total and their
    longest jump count."""
    key = np.array([seed & _MASK64, b], dtype=np.uint64)
    g = np.random.Generator(np.random.Philox(key=key))
    cum, tgt, inv_holding = walk.table
    horizon = walk.horizon
    phases = walk.stops.shape[0]
    live = np.arange(m)
    x = np.full(m, walk.x0, dtype=np.intp)
    t = np.zeros(m)
    phase = np.zeros(m, dtype=np.intp)
    final = np.empty(m, dtype=np.intp)
    clock = np.zeros(m)
    occ = None if horizon is None else np.zeros((m, cum.shape[1] - 1))
    jumps = max_jumps = steps = 0
    while live.size:
        steps += 1
        if walk.timed:
            dt = g.standard_exponential(live.size) * inv_holding.take(x)
            if horizon is not None:
                out = ~(t + dt < horizon)  # past the horizon, or no exits
                occ[live, x] += np.where(out, horizon - t, dt)
            t += dt
        u = g.random(live.size)
        k = (cum.take(x, axis=1) <= u).sum(axis=0)
        if horizon is None:
            x = tgt[k, x]
            moved = live.size
        else:
            x = np.where(out, x, tgt[k, x])
            moved = live.size - int(np.count_nonzero(out))
        jumps += moved
        if moved:
            max_jumps = steps
        phase += walk.stops[phase, x]
        done = phase == phases
        if horizon is not None:
            done |= out
        if np.count_nonzero(done):
            ids = live[done]
            final[ids] = x[done]
            clock[ids] = t[done]
            keep = ~done
            live, x, t, phase = live[keep], x[keep], t[keep], phase[keep]
    return walk.values(final, clock, occ), jumps, max_jumps


def _merge(acc: tuple, values: np.ndarray, block_jumps: int, block_max: int) -> tuple:
    """Fold one block into the running (count, sum, sum of squared
    deviations, jumps, longest jump count), by the pairwise update of Chan,
    Golub and LeVeque."""
    count, total, m2, jumps, max_jumps = acc
    m = values.shape[0]
    s = values.sum(axis=0)
    dev = values - s / m
    q = np.sum(dev * dev, axis=0)
    if count:
        delta = s / m - total / count
        q = q + delta * delta * (count * m / (count + m))
    return count + m, total + s, m2 + q, jumps + block_jumps, max(max_jumps, block_max)


def _estimate(walk: _Walk, n_traj: int, seed: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Mean and standard error of each value column over n_traj
    trajectories, with the total and the longest jump count."""
    acc = (0, 0.0, 0.0, 0, 0)
    for b, start in enumerate(range(0, n_traj, _BLOCK)):
        # no block's values outlive its merge, so memory stays at one block
        acc = _merge(acc, *_run_block(walk, seed, b, min(_BLOCK, n_traj - start)))
    count, total, m2, jumps, max_jumps = acc
    mean = total / count
    se = np.sqrt(m2 / (count - 1)) / np.sqrt(count) if count > 1 else np.zeros_like(mean)
    return mean, se, jumps, max_jumps


def _count(n_traj) -> int:
    """A trajectory count: an integer by the rule of ``_index``, at least 1."""
    n_traj = _index(n_traj, "n_traj")
    if n_traj < 1:
        raise ValidationError("n_traj must be >= 1")
    return n_traj


def simulate(gen: GeneratorSpec, x0: int, horizon: float, n_traj: int, seed: int) -> SimResult:
    """Run trajectories up to a time horizon, tracking occupation and killing.

    Holding times are exponential with the state's holding parameter; jumps
    are selected proportionally to the jump rates, and killing moves the
    trajectory to the cemetery, ending it. Occupation fractions are
    time-averages over [0, horizon]; time after a kill belongs to the
    cemetery and is not credited to any state.
    """
    x0 = _vertex(x0, gen.n)
    horizon = _real(horizon, "horizon")
    if not (horizon > 0 and np.isfinite(horizon)):
        raise ValidationError(f"horizon must be finite and > 0, got {horizon!r}")
    n_traj, seed = _count(n_traj), _index(seed, "seed")
    n = gen.n
    stops = np.zeros((1, n + 1), dtype=bool)
    stops[0, n] = True
    walk = _Walk(_jump_table(gen, include_killing=True), x0, stops, True, horizon,
                 lambda final, clock, occ: np.column_stack([occ / horizon, final == n]))
    mean, se, jumps, max_jumps = _estimate(walk, n_traj, seed)
    return SimResult(
        n_trajectories=n_traj,
        occupation=mean[:n],
        occupation_se=se[:n],
        killed_fraction=float(mean[n]),
        killed_fraction_se=float(se[n]),
        jumps=jumps,
        max_jumps=max_jumps,
    )


def _require_killing_free(gen: GeneratorSpec, op: str) -> None:
    if not np.all(_killing_free(gen.killing_rates, _scale(gen.holding))):
        raise UnsupportedRegimeError(f"{op} requires a killing-free chain")


def hitting_probability(gen: GeneratorSpec, a: int, b: int, x0: int, n_traj: int, seed: int) -> Estimate:
    """Estimate P_x0(hit a before b) for a killing-free chain.

    The analytic value is u(x0) where u is the harmonic extension of the
    boundary data (1 at a, 0 at b); hitting probabilities do not depend on mu.
    """
    n_traj, seed = _count(n_traj), _index(seed, "seed")
    a, b, x0 = (_vertex(v, gen.n) for v in (a, b, x0))
    if a == b:
        raise ValidationError("hitting targets must be distinct")
    _require_killing_free(gen, "hitting probability")
    comp = next(c for c in components(gen.conductances) if x0 in c)
    if a not in comp or b not in comp:
        raise ValidationError(f"targets {a}, {b} are not both reachable from {x0}")
    if x0 == a:
        return Estimate(1.0, 0.0)
    if x0 == b:
        return Estimate(0.0, 0.0)

    stops = np.zeros((1, gen.n + 1), dtype=bool)
    stops[0, [a, b]] = True
    walk = _Walk(_jump_table(gen, include_killing=False), x0, stops, False, None,
                 lambda final, clock, occ: (final == a)[:, None].astype(float))
    mean, se, jumps, max_jumps = _estimate(walk, n_traj, seed)
    return Estimate(float(mean[0]), float(se[0]), jumps, max_jumps)


def commute_time(gen: GeneratorSpec, x: int, y: int, n_traj: int, seed: int) -> Estimate:
    """Estimate the commute time E_x T_y + E_y T_x of a killing-free chain.

    Each trajectory runs from x until it hits y and then continues until it
    returns to x; the analytic value is R(x, y) * mu(V).
    """
    n_traj, seed = _count(n_traj), _index(seed, "seed")
    x, y = _vertex(x, gen.n), _vertex(y, gen.n)
    if x == y:
        return Estimate(0.0, 0.0)
    _require_killing_free(gen, "commute time")
    comp = next(c for c in components(gen.conductances) if x in c)
    if y not in comp:
        raise ValidationError(f"vertex {y} is not reachable from {x}")

    stops = np.zeros((2, gen.n + 1), dtype=bool)
    stops[0, y] = stops[1, x] = True
    walk = _Walk(_jump_table(gen, include_killing=False), x, stops, True, None,
                 lambda final, clock, occ: clock[:, None])
    mean, se, jumps, max_jumps = _estimate(walk, n_traj, seed)
    return Estimate(float(mean[0]), float(se[0]), jumps, max_jumps)


def occupation_check(gen: GeneratorSpec, horizon: float, n_traj: int, seed: int, x0: int = 0) -> OccupationResult:
    """L1 distance between the empirical occupation and mu/mu(V).

    The band aggregates the per-state standard errors; the distance shrinks
    with the horizon since mu/mu(V) is the stationary law of the chain.
    """
    _require_killing_free(gen, "occupation check")
    comps = components(gen.conductances)
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
