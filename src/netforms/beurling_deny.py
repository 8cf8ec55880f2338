"""Jump/killing decomposition of finite symmetric Markov forms.

Every Markov form matrix splits uniquely into a jump part and a killing part:

    E(f, g) = sum_{x != y} J(x, y) (f(x) - f(y)) (g(x) - g(y)) + sum_x kappa_x f(x) g(x)

where the sum runs over ordered pairs, so J(x, y) = c_xy / 2. The factor of
two is the classic pitfall: J is half the conductance because each unordered
edge is visited twice. On a finite discrete space the strongly local part is
identically zero (every indicator is in the domain and every function is
locally constant near each point), so it is carried only as a zero marker.

Recomposition reproduces the input matrix exactly: both directions build the
diagonal from sums of the same floats in the same fixed order. The one
exception is a conductance c below 2^-1021 (about 4.45e-308, where c/2 is
subnormal) whose last bit is set: J = c/2 rounds, so c = 1.5e-323 recomposes
to 2e-323, and 5e-324, the smallest subnormal, halves to 0 and its edge is
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from .errors import ValidationError
from .network import RELTOL, FormMatrix, Network, killing_vector, _as_vector, _csr_from_entries, _entries
from .network import _laplacian, _readonly, _real, _require_markov, _scale, _symmetric

__all__ = [
    "JumpKillingDecomposition",
    "decompose",
    "recompose",
    "decomposition_to_network",
]


@dataclass(frozen=True, eq=False)
class JumpKillingDecomposition:
    """Jump kernel (on ordered pairs) as a canonical read-only CSR matrix,
    killing vector, and zero local marker. The constructor also takes the
    kernel as a dense array-like or as any scipy sparse matrix; a nonzero
    ``local_part`` raises ``ValidationError``.

    The signs of J and kappa are checked up to ``RELTOL`` times the magnitude
    of the recomposed form, max(1, 2 max|J|, max_x |2 sum_y J_xy + kappa_x|):
    the tolerance of :func:`is_markov` on that form, so a decomposition that
    :func:`decompose` returns passes the constructor again."""

    jump: csr_array
    kappa: np.ndarray
    local_part: float = 0.0

    def __post_init__(self):
        if _real(self.local_part, "local_part") != 0.0:
            raise ValidationError(f"local_part = {self.local_part!r} must be 0: a finite form has no local part")
        J = _symmetric(self.jump, "jump kernel")
        if J.diagonal().any():
            raise ValidationError("jump kernel must have zero diagonal")
        k = _as_vector(self.kappa, J.shape[0], "kappa")
        self._store(J, k, _entries(J)[0])

    @classmethod
    def _trusted(cls, jump: csr_array, kappa: np.ndarray, rows: np.ndarray) -> "JumpKillingDecomposition":
        """The decomposition of a canonical read-only CSR kernel that is finite,
        symmetric and zero on the diagonal by construction, given with the row
        index of each stored entry: only the sign checks run."""
        d = object.__new__(cls)
        d._store(jump, kappa, rows)
        return d

    def _store(self, J: csr_array, k: np.ndarray, i: np.ndarray) -> None:
        """Check the signs of the kernel, whose stored entries lie in rows
        ``i``, and of kappa, then set the fields."""
        j, v = J.indices, J.data
        diagonal = 2.0 * np.bincount(i, v, minlength=k.size) + k
        tol = RELTOL * max(_scale(2.0 * v), _scale(diagonal))
        if v.min(initial=0.0) < -tol:
            x = np.argmax(v < -tol)
            raise ValidationError(f"jump kernel entry ({i[x]},{j[x]}) = {float(v[x])!r} is negative")
        if k.min(initial=0.0) < -tol:
            i = int(np.flatnonzero(k < -tol)[0])
            raise ValidationError(f"kappa[{i}] = {float(k[i])!r} is negative")
        object.__setattr__(self, "jump", J)
        object.__setattr__(self, "kappa", _readonly(k))
        object.__setattr__(self, "local_part", 0.0)

    @property
    def n(self) -> int:
        return self.jump.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready dict listing each unordered pair once (x < y)."""
        x, y, j = _entries(self.jump)
        up = x < y
        entries = [{"x": a, "y": b, "value": v} for a, b, v in zip(x[up].tolist(), y[up].tolist(), j[up].tolist())]
        return {"J": entries, "kappa": [float(v) for v in self.kappa]}


def decompose(A: FormMatrix) -> JumpKillingDecomposition:
    """Split a Markov form matrix into jump and killing data.

    J(x, y) = -A_xy / 2 on ordered pairs and kappa is :func:`killing_vector`,
    the diagonal minus the conductance row sum. Raises a validation error
    citing the first violated sign condition if the matrix is not Markov.
    """
    _require_markov(A)
    i, j, a = _entries(A)
    off = i != j
    rows, cols, half = i[off], j[off], -a[off] / 2.0
    kept = half != 0.0  # the smallest subnormal conductance halves to zero
    rows, cols, half = rows[kept], cols[kept], half[kept]
    J = _csr_from_entries(rows, cols, half, (A.n, A.n))
    return JumpKillingDecomposition._trusted(J, killing_vector(A), rows)


def recompose(d: JumpKillingDecomposition) -> FormMatrix:
    """Rebuild the form matrix from jump and killing data.

    The diagonal is (conductance row sum) + kappa, by the same row-sum rule
    that :func:`decompose` subtracts, so a decompose/recompose roundtrip is
    bit-exact, except where :func:`decompose`'s J = c/2 rounds: a conductance
    below 2^-1021 with its last bit set (1.5e-323 comes back as 2e-323, and
    5e-324 halves to 0, so its edge is dropped).
    """
    i, j, v = _entries(d.jump)
    up = i < j  # the kernel is symmetric: its upper triangle, row-major, is canonical
    return _laplacian(i[up], j[up], 2.0 * v[up], d.kappa)


def decomposition_to_network(d: JumpKillingDecomposition, vertices=None) -> Network:
    """Realize a decomposition as a network (edges with c = 2 J, same killing)."""
    x, y, j = _entries(d.jump)
    edge = (x < y) & (j > 0.0)
    kappa = np.maximum(d.kappa, 0.0)
    return Network.from_arrays(vertices if vertices is not None else d.n, x[edge], y[edge], 2.0 * j[edge], kappa)
