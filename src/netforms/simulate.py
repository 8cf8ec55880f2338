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
the ones that finished. A trajectory is one state index: a query's phases
(out to y and back to x, for a commute) are folded into the jump table, so
state s = p * (n + 1) + x is vertex x in phase p, and a trajectory finishes
on entering a state past the table. Only a walk with a time horizon draws
holding times; in one without (hitting, commute) the clock adds their means,
E[T | jumps], unbiased and of no larger variance (conditional Monte Carlo:
Asmussen and Glynn, Stochastic Simulation, 2007, V.4). Block b draws from
its own counter-based stream, numpy Philox keyed by (seed, b), so its values
depend only on (seed, b, block length). Each block is reduced to its count,
sum and sum of squared deviations, and the blocks are combined in index
order (the pairwise update of Chan, Golub and LeVeque), so results are a
pure function of (generator, query, seed, n_traj) and memory does not grow
with n_traj.
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
    _csr_from_entries,
    _entries,
    _integer,
    _labels,
    _killing_free,
    _positive,
    _require_markov,
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

#: Trajectories per block; the bits of every estimate depend on it.
_BLOCK = 4096


@dataclass(frozen=True, eq=False, init=False)
class GeneratorSpec:
    """Jump/killing rates of the mu-symmetric chain of a form, as
    :func:`build_generator` gives them: its only constructor, so calling the
    class or ``dataclasses.replace`` on a spec raises ``TypeError``. Every
    array is read-only.

    Attributes
    ----------
    conductances : csr_array
        The flow matrix, canonical, with no diagonal: entry (x, y) > 0 is the
        flow mu(x) q_xy == mu(y) q_yx, stored once so detailed balance is
        exact; the jump rate is q_xy = c_xy / mu(x).
    mu : ndarray
        Everywhere-positive vertex masses.
    killing_rates : ndarray
        k_x = kappa_x / mu(x).
    holding : ndarray
        lambda_x = sum_y q_xy + k_x, finite.
    """

    conductances: csr_array
    mu: np.ndarray
    killing_rates: np.ndarray
    holding: np.ndarray

    def __init__(self, *args, **kwargs):
        raise TypeError("a GeneratorSpec comes only from build_generator(A, mu)")

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
    """Rates of the mu-symmetric continuous-time chain of a Markov form: the
    only constructor of :class:`GeneratorSpec`. To simulate given rates, build
    the form diag(sum_y c_xy + k_x mu(x)) - C and call this with mu. A mu(x)
    so small that a rate out of x overflows raises ``ValidationError``."""
    _require_markov(A)
    if mu.n != A.n:
        raise ValidationError(f"measure has {mu.n} atoms but the form has {A.n} vertices")
    w = mu.weights
    if not mu.everywhere_positive:
        bad = int(np.flatnonzero(w <= 0)[0])
        raise ValidationError(
            f"mu({bad}) = {float(w[bad])!r} is not positive; the symmetric process "
            "requires every point to have positive measure"
        )
    i, j, a = _entries(A)
    flow = (i != j) & (a < 0.0)  # the conductances -a, clamped at 0
    rows, cols, c = i[flow], j[flow], -a[flow]
    with np.errstate(over="ignore"):  # the rates are >= 0, so a finite lambda bounds them all
        k = np.maximum(killing_vector(A), 0.0) / w
        lam = np.bincount(rows, c / w[rows], minlength=A.n) + k
    if not np.isfinite(lam).all():
        bad = int(np.flatnonzero(~np.isfinite(lam))[0])
        raise ValidationError(f"mu({bad}) = {float(w[bad])!r} is too small: the rates out of vertex {bad} overflow")
    k.setflags(write=False)
    lam.setflags(write=False)
    gen = object.__new__(GeneratorSpec)
    vars(gen).update(conductances=_csr_from_entries(rows, cols, c, (A.n, A.n)), mu=w, killing_rates=k, holding=lam)
    return gen


class _JumpTable(NamedTuple):
    """Padded per-state jump law; state n is the cemetery, which has no exits.

    Column x of ``cum`` holds the cumulative jump probabilities of x over its
    targets in column x of ``tgt`` (ascending, the cemetery last), padded
    with inf. States index columns, so gathering a vector of states is one
    contiguous ``take`` per row. :func:`_fold` gives the same law on the
    states of a walk through phases, phases * (n + 1) columns wide, with
    each target a folded state.
    """

    cum: np.ndarray  # (d, states)
    tgt: np.ndarray  # (d, states)
    inv_holding: np.ndarray  # (states,) mean holding time; inf without exits


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


def _fold(table: _JumpTable, *ends) -> _JumpTable:
    """The jump law of a walk whose phase p ends on entering a vertex of
    ``ends[p]``, on one state index: s = p * (n + 1) + x is vertex x in phase
    p, and the target y = ``tgt[k, x]`` of (p, x, k) becomes state
    (p + [y in ends[p]]) * (n + 1) + y. Every state at or past the folded
    table's width, phases * (n + 1), has finished the last phase."""
    y = table.tgt
    tgt = np.hstack([(p + np.isin(y, e)) * y.shape[1] + y for p, e in enumerate(ends)])
    return _JumpTable(np.tile(table.cum, len(ends)), tgt, np.tile(table.inv_holding, len(ends)))


class _Walk(NamedTuple):
    """One query for the engine.

    A trajectory starts at vertex ``x0`` in phase 0 and steps through the
    states of ``table``, a jump table folded over the phases by
    :func:`_fold`, until it reaches a state past the table's width. With
    ``horizon`` set it also ends at that time (or in a state without exits)
    and its occupation time of each state is recorded; holding times are
    drawn only then, else the clock adds their means. ``values`` maps the
    block's final vertices (s mod (n + 1)), clocks and occupation times to
    one row of values per trajectory.
    """

    table: _JumpTable
    x0: int
    n: int
    horizon: float | None
    values: Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]


def _run_block(walk: _Walk, seed: int, b: int, m: int) -> tuple[np.ndarray, int, int]:
    """Values of the m trajectories of block b, their total and their
    longest jump count."""
    g = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
    cum, tgt, inv_holding = walk.table
    horizon = walk.horizon
    end = cum.shape[1]
    live = np.arange(m)
    s = np.full(m, walk.x0, dtype=np.intp)
    t = np.zeros(m)
    final = np.empty(m, dtype=np.intp)
    clock = np.zeros(m)
    occ = None if horizon is None else np.zeros((m, end))
    jumps = max_jumps = steps = 0
    while live.size:
        steps += 1
        dt = inv_holding.take(s)  # without a horizon the clock adds the mean holding time
        if horizon is not None:
            dt *= g.standard_exponential(live.size)
        u = g.random(live.size)
        k = (cum.take(s, axis=1) <= u).sum(axis=0)
        if horizon is None:
            s = tgt[k, s]
            moved = live.size
            done = s >= end
        else:
            out = ~(t + dt < horizon)  # past the horizon, or no exits
            occ[live, s] += np.where(out, horizon - t, dt)
            s = np.where(out, s, tgt[k, s])
            moved = live.size - int(np.count_nonzero(out))
            done = out | (s >= end)
        t += dt
        jumps += moved
        if moved:
            max_jumps = steps
        if np.count_nonzero(done):
            ids = live[done]
            final[ids] = s[done] % (walk.n + 1)
            clock[ids] = t[done]
            keep = ~done
            live, s, t = live[keep], s[keep], t[keep]
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


def _count_and_seed(n_traj, seed) -> tuple[int, int]:
    """A trajectory count >= 1 and a seed within the key range of Philox, [0, 2^64): block b of
    a run is keyed by (seed, b), so that no two seeds and no two blocks share a stream."""
    return _integer(n_traj, "n_traj", 1, _BLOCK * 2**64), _integer(seed, "seed", 0, 2**64 - 1)


def simulate(gen: GeneratorSpec, x0: int, horizon: float, n_traj: int, seed: int) -> SimResult:
    """Run trajectories up to a time horizon, tracking occupation and killing.

    Holding times are exponential with the state's holding parameter; jumps
    are selected proportionally to the jump rates, and killing moves the
    trajectory to the cemetery, ending it. Occupation fractions are
    time-averages over [0, horizon]; time after a kill belongs to the
    cemetery and is not credited to any state.
    """
    x0 = _vertex(x0, gen.n)
    horizon = _positive(horizon, "horizon")
    n_traj, seed = _count_and_seed(n_traj, seed)
    n = gen.n
    walk = _Walk(_fold(_jump_table(gen, include_killing=True), [n]), x0, n, horizon,
                 lambda final, clock, occ: np.column_stack([occ[:, :n] / horizon, final == n]))
    mean, se, jumps, max_jumps = _estimate(walk, n_traj, seed)
    return SimResult(n_traj, mean[:n], se[:n], float(mean[n]), float(se[n]), jumps, max_jumps)


def _require_killing_free(gen: GeneratorSpec, op: str) -> None:
    if not np.all(_killing_free(gen.killing_rates, _scale(gen.holding))):
        raise UnsupportedRegimeError(f"{op} requires a killing-free chain")


def _horizon_free(gen: GeneratorSpec, x0: int, ends: tuple, walked: np.ndarray, values,
                  n_traj: int, seed: int) -> Estimate:
    """Estimate of the one value per trajectory of a walk from x0 through
    the phases ``ends``, with no horizon, on the killing-free jump table. A
    walk that may step from a vertex of ``walked`` without exits (one whose
    every jump rate underflows to 0) is refused: it would never leave."""
    table = _jump_table(gen, include_killing=False)
    stuck = np.flatnonzero(walked & np.isinf(table.inv_holding[:-1]))
    if stuck.size:
        raise ValidationError(
            f"vertex {stuck[0]} has holding rate 0 (every jump rate out of it underflows to 0): "
            f"a walk from {x0} that enters it never leaves"
        )
    mean, se, jumps, max_jumps = _estimate(_Walk(_fold(table, *ends), x0, gen.n, None, values), n_traj, seed)
    return Estimate(float(mean[0]), float(se[0]), jumps, max_jumps)


def hitting_probability(gen: GeneratorSpec, a: int, b: int, x0: int, n_traj: int, seed: int) -> Estimate:
    """Estimate P_x0(hit a before b) for a killing-free chain.

    The analytic value is u(x0) where u is the harmonic extension of the
    boundary data (1 at a, 0 at b); hitting probabilities do not depend on mu.
    A vertex of x0's component other than a and b with no exits (every jump
    rate out of it underflows to 0) raises ``ValidationError``.
    """
    n_traj, seed = _count_and_seed(n_traj, seed)
    a, b, x0 = (_vertex(v, gen.n) for v in (a, b, x0))
    if a == b:
        raise ValidationError("hitting targets must be distinct")
    _require_killing_free(gen, "hitting probability")
    labels = _labels(gen.conductances, symmetric=True)
    if labels[a] != labels[x0] or labels[b] != labels[x0]:
        raise ValidationError(f"targets {a}, {b} are not both reachable from {x0}")
    if x0 == a:
        return Estimate(1.0, 0.0)
    if x0 == b:
        return Estimate(0.0, 0.0)

    walked = labels == labels[x0]
    walked[[a, b]] = False  # the walk stops there
    return _horizon_free(gen, x0, ([a, b],), walked, lambda final, clock, occ: (final == a)[:, None].astype(float),
                         n_traj, seed)


def commute_time(gen: GeneratorSpec, x: int, y: int, n_traj: int, seed: int) -> Estimate:
    """Estimate the commute time E_x T_y + E_y T_x of a killing-free chain.

    Each trajectory runs from x until it hits y and then continues until it
    returns to x; the analytic value is R(x, y) * mu(V). A trajectory reads
    its duration's mean given its jumps, the sum of 1 / lambda over the states
    it leaves, so ``stderr`` is that of this conditional estimator. A vertex
    of x's component with no exits raises ``ValidationError``.
    """
    n_traj, seed = _count_and_seed(n_traj, seed)
    x, y = _vertex(x, gen.n), _vertex(y, gen.n)
    _require_killing_free(gen, "commute time")
    if x == y:
        return Estimate(0.0, 0.0)
    labels = _labels(gen.conductances, symmetric=True)
    if labels[y] != labels[x]:
        raise ValidationError(f"vertex {y} is not reachable from {x}")
    return _horizon_free(gen, x, ([y], [x]), labels == labels[x], lambda final, clock, occ: clock[:, None],
                         n_traj, seed)


def occupation_check(gen: GeneratorSpec, horizon: float, n_traj: int, seed: int, x0: int = 0) -> OccupationResult:
    """L1 distance between the empirical occupation and mu/mu(V).

    The band aggregates the per-state standard errors; the distance shrinks
    with the horizon since mu/mu(V) is the stationary law of the chain.
    """
    _require_killing_free(gen, "occupation check")
    if _labels(gen.conductances, symmetric=True).any():
        comps = components(gen.conductances)
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
