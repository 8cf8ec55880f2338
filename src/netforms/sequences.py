"""Compatible increasing sequences of finite resistance forms.

A sequence of networks on nested vertex sets is compatible when each form is
the trace of the next one onto the image of its vertex set. For such a
sequence the energies of restrictions of a top-level function are
non-decreasing in the level, which is what makes the top-level energy a
monotone approximation of the limit energy.

Two builders are provided: the dyadic subdivision of the unit interval
(neighbor conductances 2^n, compatible exactly by the series law) and the
level-n Sierpinski gasket graphs (conductances scaled by 5/3 per level, the
standard renormalization; compatibility is verified numerically rather than
assumed).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .network import COMPAT_RELTOL, PROFILE_RELTOL, FormMatrix, Network, assemble, evaluate
from .network import _as_vector, _distinct, _entries, _index, _indices, _json_object, _read_json, _real, _scale
from .network import _tolerance, _writing
from .trace import trace

__all__ = [
    "CompatibleSequence",
    "CompatibilityReport",
    "check_compatibility",
    "energy_profile",
    "limit_energy_estimate",
    "build_dyadic_interval",
    "build_sierpinski_gasket",
    "calibrate_gasket_factor",
    "load_sequence",
    "save_sequence",
]

MAX_DYADIC_LEVELS = 20
MAX_GASKET_LEVELS = 8
GASKET_FACTOR = 5.0 / 3.0


@dataclass(frozen=True, eq=False)
class CompatibleSequence:
    """Nested networks with inclusion index maps between consecutive levels.

    ``inclusions[n][i]`` is the index in level n+1 of vertex i of level n;
    its entries follow the integer rule of vertex indices, so a float
    inclusion raises rather than being truncated. Form matrices are
    assembled lazily and cached.
    """

    networks: tuple
    inclusions: tuple
    _forms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        nets = tuple(self.networks)
        incs = tuple(_indices(m, f"inclusion {n}") for n, m in enumerate(self.inclusions))
        if len(nets) == 0:
            raise ValidationError("sequence must contain at least one level")
        if len(incs) != len(nets) - 1:
            raise ValidationError(
                f"expected {len(nets) - 1} inclusion maps for {len(nets)} levels, got {len(incs)}"
            )
        for n, m in enumerate(incs):
            lo, hi = nets[n].n, nets[n + 1].n
            if m.shape != (lo,):
                raise ValidationError(f"inclusion {n} must have length {lo}, got shape {m.shape}")
            if np.any(m < 0) or np.any(m >= hi):
                raise ValidationError(f"inclusion {n} has an index outside level {n + 1}")
            seen = np.zeros(hi, dtype=bool)
            seen[m] = True
            if np.count_nonzero(seen) != lo:
                raise ValidationError(f"inclusion {n} is not injective")
        object.__setattr__(self, "networks", nets)
        object.__setattr__(self, "inclusions", incs)

    @property
    def levels(self) -> int:
        return len(self.networks)

    def form(self, level: int) -> FormMatrix:
        if level not in self._forms:
            self._forms[level] = assemble(self.networks[level])
        return self._forms[level]

    def positions_at_top(self, level: int) -> np.ndarray:
        """Indices of level-``level`` vertices inside the top-level network."""
        idx = np.arange(self.networks[level].n)
        for m in self.inclusions[level:]:
            idx = m[idx]
        return idx

    def restrict(self, f, level: int) -> np.ndarray:
        """Restrict a top-level function to a coarser level via the inclusions."""
        fv = _as_vector(f, self.networks[-1].n, "f on the top level")
        return fv[self.positions_at_top(level)]


@dataclass(frozen=True, eq=False)
class CompatibilityReport:
    """Per-level trace deviations; truthy iff all are within tolerance."""

    deviations: np.ndarray
    scales: np.ndarray
    tol: float
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def _deviation(S: FormMatrix, F: FormMatrix) -> float:
    """max |S - F| over the entries of two forms of one size, zero where
    neither has one, read off their entry lists: over their one pattern when
    the two share it, else over the union of their keys."""
    (i, j, a), (p, q, b) = _entries(S), _entries(F)
    ka, kb = i * S.n + j, p * S.n + q
    if np.array_equal(ka, kb):
        return float(np.max(np.abs(a - b), initial=0.0))
    keys = _distinct(np.concatenate([ka, kb]))
    d = np.zeros(keys.size)
    d[np.searchsorted(keys, ka)] = a
    d[np.searchsorted(keys, kb)] -= b
    return float(np.max(np.abs(d), initial=0.0))


def check_compatibility(seq: CompatibleSequence, tol: float = COMPAT_RELTOL) -> CompatibilityReport:
    """Max entrywise deviation |trace(A_{n+1}, iota(V_n)) - A_n| per level.

    The sequence is accepted iff every deviation is at most ``tol`` times the
    magnitude of the finer matrix; ``tol`` must be finite and nonnegative.
    Both are read off the forms' entry lists, in O(|E| log |E|) per level;
    no extension operator is built.
    """
    tol = _tolerance(tol)
    devs = np.zeros(max(seq.levels - 1, 0))
    scales = np.zeros_like(devs)
    for n in range(seq.levels - 1):
        traced = trace(seq.form(n + 1), seq.inclusions[n]).traced_form
        devs[n] = _deviation(traced, seq.form(n))
        scales[n] = _scale(seq.form(n + 1))
    ok = bool(np.all(devs <= tol * scales))
    return CompatibilityReport(deviations=devs, scales=scales, tol=tol, ok=ok)


def energy_profile(seq: CompatibleSequence, f) -> np.ndarray:
    """Energies E_n(f|V_n) of the restrictions of a top-level function.

    Non-decreasing for compatible sequences; a warning is attached if the
    computed profile decreases beyond rounding, which signals incompatibility.
    """
    restricted = [_as_vector(f, seq.networks[-1].n, "f on the top level")]
    for m in reversed(seq.inclusions):  # each level's vector from the next finer one's
        restricted.append(restricted[-1][m])
    prof = np.array([evaluate(seq.form(n), g) for n, g in enumerate(reversed(restricted))])
    if prof.size > 1:
        slack = PROFILE_RELTOL * _scale(prof)
        if np.any(np.diff(prof) < -slack):
            warnings.warn(
                "energy profile is not non-decreasing; the sequence is likely incompatible",
                stacklevel=2,
            )
    return prof


def limit_energy_estimate(seq: CompatibleSequence, f) -> tuple[float, float]:
    """Top-level energy and the final increment as a convergence indicator."""
    if seq.levels < 3:
        raise ValidationError("limit energy estimate requires at least 3 levels")
    prof = energy_profile(seq, f)
    return float(prof[-1]), float(prof[-1] - prof[-2])


def build_dyadic_interval(levels: int) -> CompatibleSequence:
    """Dyadic subdivisions of [0, 1]: V_n = {k 2^-n}, neighbor conductances 2^n.

    Compatibility is exact by the series law: two conductances 2^(n+1) in
    series trace to 2^n.
    """
    levels = _index(levels, "levels")
    if levels < 0:
        raise ValidationError("levels must be >= 0")
    if levels > MAX_DYADIC_LEVELS:
        raise ValidationError(f"levels = {levels} exceeds the size guard {MAX_DYADIC_LEVELS}")
    nets = []
    incs = []
    for n in range(levels + 1):
        k = np.arange(2**n + 1)
        labels = tuple((k * 0.5**n).tolist())
        nets.append(Network.from_arrays(labels, k[:-1], k[1:], np.full(2**n, float(2**n))))
        if n > 0:
            incs.append(2 * np.arange(2 ** (n - 1) + 1))
    return CompatibleSequence(tuple(nets), tuple(incs))


def _refine_gasket_cells(cells: np.ndarray) -> np.ndarray:
    """One subdivision step on cells, shape (m, 3, 2): corners a, b, c as
    integer coordinates. Cell i becomes cells 3i, 3i+1, 3i+2 at twice the
    resolution: (a, ab, ca), (ab, b, bc), (ca, bc, c)."""
    a, b, c = 2 * cells[:, 0], 2 * cells[:, 1], 2 * cells[:, 2]
    ab, bc, ca = (a + b) // 2, (b + c) // 2, (c + a) // 2
    return np.stack([np.stack(t, axis=1) for t in ((a, ab, ca), (ab, b, bc), (ca, bc, c))], axis=1).reshape(-1, 3, 2)


def _gasket_network(cells: np.ndarray, conductance: float, width: int) -> tuple[Network, tuple, np.ndarray]:
    """The network of a cell list, vertices numbered in order of first
    appearance, the sorted keys x * width + y of its vertices with each
    key's vertex index, and the vertices' coordinates, shape (n, 2)."""
    keys = (cells[..., 0] * width + cells[..., 1]).ravel()
    uniq, first, at = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    index = np.empty(uniq.size, dtype=np.int64)
    index[order] = np.arange(uniq.size)
    corner = index[at].reshape(-1, 3)  # vertex index of each cell corner
    xy = cells.reshape(-1, 2)[first[order]]
    labels = tuple(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))
    u = corner[:, [0, 1, 2]].ravel()
    v = corner[:, [1, 2, 0]].ravel()
    net = Network.from_arrays(labels, u, v, np.full(u.size, conductance))
    return net, (uniq, index), xy


def build_sierpinski_gasket(levels: int, factor: float | None = None, calibrate: bool = False) -> CompatibleSequence:
    """Level-0..n graph approximations of the Sierpinski gasket.

    Level 0 is the unit triangle; each refinement replaces a cell by three
    half-size cells and multiplies every conductance by the renormalization
    factor (5/3 by default). With ``calibrate=True`` the factor is computed
    instead of being hard-coded, by :func:`calibrate_gasket_factor`, so that
    the level-1 trace onto the corners matches the unit triangle.
    """
    levels = _index(levels, "levels")
    if levels < 0:
        raise ValidationError("levels must be >= 0")
    if levels > MAX_GASKET_LEVELS:
        raise ValidationError(f"levels = {levels} exceeds the size guard {MAX_GASKET_LEVELS}")
    if calibrate:
        if factor is not None:
            raise ValidationError("pass either a factor or calibrate=True, not both")
        factor = calibrate_gasket_factor()
    rho = GASKET_FACTOR if factor is None else _real(factor, "factor")
    if rho <= 0:
        raise ValidationError("renormalization factor must be positive")

    nets = []
    incs = []
    cells = np.array([[[0, 0], [1, 0], [0, 1]]], dtype=np.int64)
    width = 2**levels + 1
    for n in range(levels + 1):
        net, (keys, index), xy = _gasket_network(cells, rho**n, width)
        nets.append(net)
        if n > 0:  # the level n-1 vertex (x, y) is (2x, 2y) here
            prev = 2 * prev_xy
            incs.append(index[np.searchsorted(keys, prev[:, 0] * width + prev[:, 1])])
        prev_xy = xy
        if n < levels:
            cells = _refine_gasket_cells(cells)
    return CompatibleSequence(tuple(nets), tuple(incs))


def calibrate_gasket_factor() -> float:
    """The per-level conductance factor that makes the level-1 gasket trace
    onto its corners reproduce the unit triangle, computed rather than
    hard-coded. The trace is homogeneous of degree 1 in the conductances, so
    the traced corner conductance at factor rho is rho times that at factor
    1, and the factor is 1 over the latter: one trace."""
    seq = build_sierpinski_gasket(1, factor=1.0)
    traced = trace(seq.form(1), seq.inclusions[0]).traced_form.matrix
    return 1.0 / float(-traced[0, 1])


def sequence_to_dict(seq: CompatibleSequence) -> dict:
    return {
        "levels": [net.to_dict() for net in seq.networks],
        "inclusions": [[int(i) for i in m] for m in seq.inclusions],
    }


def sequence_from_dict(d: dict) -> CompatibleSequence:
    """Sequence from its JSON object; inclusion indices pass the integer rule
    of :class:`CompatibleSequence`, so no value is silently coerced."""
    _json_object(d, "sequence", "levels", "inclusions")
    return CompatibleSequence(tuple(Network.from_dict(x) for x in d["levels"]), d["inclusions"])


def save_sequence(seq: CompatibleSequence, path) -> None:
    with _writing(path) as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1)
        fh.write("\n")


def load_sequence(path) -> CompatibleSequence:
    """Load and structurally validate a sequence from its JSON file."""
    return sequence_from_dict(_read_json(path))
