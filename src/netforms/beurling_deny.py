"""Jump/killing decomposition of finite symmetric Markov forms.

Every Markov form matrix splits uniquely into a jump part and a killing part:

    E(f, g) = sum_{x != y} J(x, y) (f(x) - f(y)) (g(x) - g(y)) + sum_x kappa_x f(x) g(x)

where the sum runs over ordered pairs, so J(x, y) = c_xy / 2. The factor of
two is the classic pitfall: J is half the conductance because each unordered
edge is visited twice. On a finite discrete space the strongly local part is
identically zero (every indicator is in the domain and every function is
locally constant near each point), so it is carried only as a zero marker.

Recomposition reproduces the input matrix exactly: both directions build the
diagonal from sums of the same floats in the same fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .network import RELTOL, FormMatrix, Network, conductance_matrix
from .network import _laplacian, _readonly, _require_markov, _scale

__all__ = [
    "JumpKillingDecomposition",
    "decompose",
    "recompose",
    "decomposition_to_network",
]


@dataclass(frozen=True, eq=False)
class JumpKillingDecomposition:
    """Jump kernel (on ordered pairs), killing vector, and zero local marker."""

    jump: np.ndarray
    kappa: np.ndarray
    local_part: float = 0.0

    def __post_init__(self):
        J = np.asarray(self.jump, dtype=float)
        k = np.asarray(self.kappa, dtype=float)
        if J.ndim != 2 or J.shape[0] != J.shape[1]:
            raise ValidationError(f"jump kernel must be square, got shape {J.shape}")
        if k.shape != (J.shape[0],):
            raise ValidationError("kappa length must match the jump kernel size")
        if np.any(np.diag(J) != 0.0):
            raise ValidationError("jump kernel must have zero diagonal")
        if not np.array_equal(J, J.T):
            i, j = np.argwhere(J != J.T)[0]
            raise ValidationError(f"jump kernel is not symmetric at ({i},{j})")
        tol = RELTOL * max(_scale(J), _scale(k))
        if np.any(J < -tol):
            i, j = np.argwhere(J < -tol)[0]
            raise ValidationError(f"jump kernel entry ({i},{j}) = {float(J[i, j])!r} is negative")
        if np.any(k < -tol):
            i = int(np.flatnonzero(k < -tol)[0])
            raise ValidationError(f"kappa[{i}] = {float(k[i])!r} is negative")
        object.__setattr__(self, "jump", _readonly(J))
        object.__setattr__(self, "kappa", _readonly(k))
        object.__setattr__(self, "local_part", 0.0)

    @property
    def n(self) -> int:
        return self.jump.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready dict listing each unordered pair once (x < y)."""
        x, y = np.nonzero(np.triu(self.jump, 1))
        entries = [{"x": a, "y": b, "value": j} for a, b, j in zip(x.tolist(), y.tolist(), self.jump[x, y].tolist())]
        return {"J": entries, "kappa": [float(v) for v in self.kappa]}


def decompose(A: FormMatrix) -> JumpKillingDecomposition:
    """Split a Markov form matrix into jump and killing data.

    J(x, y) = -A_xy / 2 on ordered pairs and kappa is the row-sum vector.
    Raises a validation error citing the first violated sign condition if the
    matrix is not Markov.
    """
    _require_markov(A)
    C = conductance_matrix(A)
    kappa = np.diag(A.matrix) - np.sum(C, axis=1)
    return JumpKillingDecomposition(jump=C / 2.0, kappa=kappa)


def recompose(d: JumpKillingDecomposition) -> FormMatrix:
    """Rebuild the form matrix from jump and killing data.

    The diagonal is assembled as (conductance row sum) + kappa with the same
    summation order used by :func:`decompose`, so a decompose/recompose
    roundtrip is bit-exact.
    """
    return _laplacian(2.0 * d.jump, d.kappa)


def decomposition_to_network(d: JumpKillingDecomposition, vertices=None) -> Network:
    """Realize a decomposition as a network (edges with c = 2 J, same killing)."""
    x, y = np.nonzero(np.triu(d.jump, 1) > 0.0)
    edges = zip(x.tolist(), y.tolist(), (2.0 * d.jump[x, y]).tolist())
    kappa = np.maximum(d.kappa, 0.0)
    return Network(vertices if vertices is not None else d.n, edges, kappa)
