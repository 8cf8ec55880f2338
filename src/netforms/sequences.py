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
from scipy.optimize import brentq

from .errors import ValidationError
from .network import COMPAT_RELTOL, PROFILE_RELTOL, FormMatrix, Network, assemble, evaluate
from .network import _as_vector, _index, _json_numbers, _json_object, _scale
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

MAX_DYADIC_LEVELS = 13
MAX_GASKET_LEVELS = 8
GASKET_FACTOR = 5.0 / 3.0


@dataclass(frozen=True, eq=False)
class CompatibleSequence:
    """Nested networks with inclusion index maps between consecutive levels.

    ``inclusions[n][i]`` is the index in level n+1 of vertex i of level n.
    Form matrices are assembled lazily and cached, since deep dyadic levels
    are too large to hold densely all at once unless actually used.
    """

    networks: tuple
    inclusions: tuple
    _forms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        nets = tuple(self.networks)
        incs = tuple(np.asarray(m, dtype=int) for m in self.inclusions)
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
            if len(set(m.tolist())) != lo:
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


def check_compatibility(seq: CompatibleSequence, tol: float = COMPAT_RELTOL) -> CompatibilityReport:
    """Max entrywise deviation |trace(A_{n+1}, iota(V_n)) - A_n| per level.

    The sequence is accepted iff every deviation is at most ``tol`` times the
    magnitude of the finer matrix.
    """
    devs = np.zeros(max(seq.levels - 1, 0))
    scales = np.zeros_like(devs)
    for n in range(seq.levels - 1):
        traced = trace(seq.form(n + 1), seq.inclusions[n]).traced_form
        devs[n] = float(np.max(np.abs(traced.matrix - seq.form(n).matrix)))
        scales[n] = _scale(seq.form(n + 1).matrix)
    ok = bool(np.all(devs <= tol * scales))
    return CompatibilityReport(deviations=devs, scales=scales, tol=float(tol), ok=ok)


def energy_profile(seq: CompatibleSequence, f) -> np.ndarray:
    """Energies E_n(f|V_n) of the restrictions of a top-level function.

    Non-decreasing for compatible sequences; a warning is attached if the
    computed profile decreases beyond rounding, which signals incompatibility.
    """
    prof = np.array(
        [evaluate(seq.form(n), seq.restrict(f, n)) for n in range(seq.levels)]
    )
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
        m = 2**n
        labels = tuple(k * 0.5**n for k in range(m + 1))
        edges = [(k, k + 1, float(2**n)) for k in range(m)]
        nets.append(Network(labels, edges))
        if n > 0:
            incs.append(2 * np.arange(2 ** (n - 1) + 1))
    return CompatibleSequence(tuple(nets), tuple(incs))


def _refine_gasket_cells(cells):
    """One subdivision step on cells given as triples of integer coordinates."""
    new_cells = []
    for a, b, c in cells:
        a2 = (2 * a[0], 2 * a[1])
        b2 = (2 * b[0], 2 * b[1])
        c2 = (2 * c[0], 2 * c[1])
        ab = ((a2[0] + b2[0]) // 2, (a2[1] + b2[1]) // 2)
        bc = ((b2[0] + c2[0]) // 2, (b2[1] + c2[1]) // 2)
        ca = ((c2[0] + a2[0]) // 2, (c2[1] + a2[1]) // 2)
        new_cells.append((a2, ab, ca))
        new_cells.append((ab, b2, bc))
        new_cells.append((ca, bc, c2))
    return new_cells


def _gasket_network(cells, conductance: float) -> tuple[Network, dict]:
    index = {}
    for cell in cells:
        for p in cell:
            if p not in index:
                index[p] = len(index)
    labels = [None] * len(index)
    for p, i in index.items():
        labels[i] = p
    edges = []
    for a, b, c in cells:
        edges.append((index[a], index[b], conductance))
        edges.append((index[b], index[c], conductance))
        edges.append((index[c], index[a], conductance))
    return Network(tuple(labels), edges), index


def build_sierpinski_gasket(levels: int, factor: float | None = None, calibrate: bool = False) -> CompatibleSequence:
    """Level-0..n graph approximations of the Sierpinski gasket.

    Level 0 is the unit triangle; each refinement replaces a cell by three
    half-size cells and multiplies every conductance by the renormalization
    factor (5/3 by default). With ``calibrate=True`` the factor is found by a
    numerical search instead of being hard-coded; the search makes the
    level-1 trace onto the corners match the unit triangle.
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
    rho = GASKET_FACTOR if factor is None else float(factor)
    if rho <= 0:
        raise ValidationError("renormalization factor must be positive")

    nets = []
    incs = []
    cells = [((0, 0), (1, 0), (0, 1))]
    prev_index = None
    for n in range(levels + 1):
        net, index = _gasket_network(cells, rho**n)
        nets.append(net)
        if prev_index is not None:
            inc = np.array(
                [index[(2 * p[0], 2 * p[1])] for p in prev_labels], dtype=int
            )
            incs.append(inc)
        prev_labels = net.vertices
        prev_index = index
        if n < levels:
            cells = _refine_gasket_cells(cells)
    return CompatibleSequence(tuple(nets), tuple(incs))


def _corner_trace_conductance(rho: float) -> float:
    """Conductance between two corners of a once-refined triangle with edge
    conductances rho, traced onto the three corners."""
    seq = build_sierpinski_gasket(1, factor=rho)
    corners = seq.inclusions[0]
    traced = trace(seq.form(1), corners).traced_form.matrix
    return float(-traced[0, 1])


def calibrate_gasket_factor() -> float:
    """Numerically search the per-level conductance factor that makes the
    level-1 gasket trace onto its corners reproduce the unit triangle."""
    return float(brentq(lambda r: _corner_trace_conductance(r) - 1.0, 1.0, 3.0, xtol=1e-12))


def sequence_to_dict(seq: CompatibleSequence) -> dict:
    return {
        "levels": [net.to_dict() for net in seq.networks],
        "inclusions": [[int(i) for i in m] for m in seq.inclusions],
    }


def sequence_from_dict(d: dict) -> CompatibleSequence:
    """Sequence from its JSON object; inclusion indices must be JSON integers,
    so no value is silently coerced."""
    _json_object(d, "sequence", "levels", "inclusions")
    incs = [_json_numbers(m, f"inclusion {n}", integers=True) for n, m in enumerate(d["inclusions"])]
    nets = tuple(Network.from_dict(x) for x in d["levels"])
    return CompatibleSequence(nets, tuple(incs))


def save_sequence(seq: CompatibleSequence, path) -> None:
    with open(path, "w") as fh:
        json.dump(sequence_to_dict(seq), fh, indent=1)
        fh.write("\n")


def load_sequence(path) -> CompatibleSequence:
    """Load and structurally validate a sequence from its JSON file."""
    with open(path) as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON in {path} at byte offset {e.pos}: {e.msg}") from None
    return sequence_from_dict(d)
