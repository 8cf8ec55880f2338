"""Traces of forms onto vertex subsets and the effective resistance metric.

The trace of a form onto a subset U is the form whose value at a boundary
function f is the minimum energy over all extensions of f to the whole vertex
set; it is computed as the Schur complement of the interior block. The unique
minimizer is the harmonic extension, and for killing-free connected networks
the two-point trace defines the effective resistance metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .errors import (
    InfiniteResistanceError,
    SingularBlockError,
    UnsupportedRegimeError,
    ValidationError,
)
from .network import SINGULAR_RCOND, FormMatrix, components, evaluate, killing_vector
from .network import _as_vector, _groups, _killing_free, _labels, _scale, _vertex

__all__ = [
    "TraceResult",
    "trace",
    "harmonic_extension",
    "effective_resistance",
    "resistance_matrix",
    "sup_formula_value",
]


@dataclass(frozen=True, eq=False)
class TraceResult:
    """Trace of a form onto a subset.

    Attributes
    ----------
    subset : ndarray
        The ordered index list U.
    traced_form : FormMatrix
        The Schur complement A_UU - A_UW A_WW^{-1} A_WU, indexed by U order.
    extension_operator : ndarray, shape (|W|, |U|)
        Maps boundary values to the interior values of the energy minimizer;
        W is the complement of U in ascending order.
    """

    subset: np.ndarray
    traced_form: FormMatrix
    extension_operator: np.ndarray

    @property
    def n_total(self) -> int:
        return len(self.subset) + self.extension_operator.shape[0]

    def complement(self) -> np.ndarray:
        mask = np.ones(self.n_total, dtype=bool)
        mask[self.subset] = False
        return np.flatnonzero(mask)


def _check_subset(U, n: int) -> np.ndarray:
    if np.ndim(np.asarray(U, dtype=object)) != 1 or len(U) == 0:  # a ragged list fails per entry
        raise ValidationError("subset must be a nonempty 1-d index list")
    U = np.array([_vertex(u, n) for u in U], dtype=int)
    if len(set(U.tolist())) != U.size:
        raise ValidationError("subset contains duplicate indices")
    return U


def _offending_components(A: FormMatrix, U: np.ndarray) -> list[list[int]]:
    """Components of the network that neither meet U nor carry killing."""
    labels = _labels(A.matrix)
    floating = _killing_free(np.bincount(labels, killing_vector(A)), _scale(A.matrix))
    floating[labels[U]] = False
    groups = _groups(labels)
    return [groups[c].tolist() for c in np.flatnonzero(floating)]


def _cholesky(M: np.ndarray, singular: Callable[[], str]):
    """Cholesky factor of a positive definite block, the package's one factorization.

    Raises SingularBlockError, with the message ``singular()`` gives, when the
    LAPACK reciprocal condition estimate is below ``SINGULAR_RCOND``.
    """
    try:
        cho = sla.cho_factor(M, lower=True)
    except np.linalg.LinAlgError:
        rcond, info = 0.0, 0
    else:  # LAPACK rejects an empty block, which needs no check
        pocon = lapack.get_lapack_funcs(("pocon",), (M,))[0]
        rcond, info = pocon(cho[0], np.linalg.norm(M, 1), uplo=b"L") if M.size else (1.0, 0)
    if info != 0 or rcond < SINGULAR_RCOND:
        raise SingularBlockError(f"{singular()} (rcond estimate {rcond:.3e})")
    return cho


def trace(A: FormMatrix, subset) -> TraceResult:
    """Trace (harmonic restriction) of a form onto a subset of vertices.

    Raises
    ------
    SingularBlockError
        If the interior block is singular, which happens exactly when some
        component is disconnected from the subset and carries no killing.
    """
    U = _check_subset(subset, A.n)
    mask = np.ones(A.n, dtype=bool)
    mask[U] = False
    W = np.flatnonzero(mask)
    M = A.matrix
    A_UU = M[np.ix_(U, U)]
    if W.size == 0:
        return TraceResult(
            subset=U,
            traced_form=FormMatrix(A_UU),
            extension_operator=np.zeros((0, U.size)),
        )
    A_WW = M[np.ix_(W, W)]
    A_WU = M[np.ix_(W, U)]

    def singular() -> str:
        bad = _offending_components(A, U)
        if bad:
            return f"components disconnected from the subset with no killing: {bad}"
        return "interior block is numerically singular"

    H = -sla.cho_solve(_cholesky(A_WW, singular), A_WU)
    S = A_UU + M[np.ix_(U, W)] @ H
    S = (S + S.T) / 2.0
    return TraceResult(subset=U, traced_form=FormMatrix(S), extension_operator=H)


def harmonic_extension(tr: TraceResult, f) -> np.ndarray:
    """Extend boundary values to the unique energy minimizer on all vertices.

    The result agrees with ``f`` exactly on the subset and carries the
    interior values ``H @ f``.
    """
    fv = _as_vector(f, len(tr.subset), "boundary values")
    g = np.empty(tr.n_total)
    g[tr.subset] = fv
    g[tr.complement()] = tr.extension_operator @ fv
    return g


def _require_conservative(A: FormMatrix, op: str) -> None:
    kappa = killing_vector(A)
    # killing-free means zero row sums, so negative ones count as killing too
    if not np.all(_killing_free(np.abs(kappa), _scale(A.matrix))):
        i = int(np.argmax(np.abs(kappa)))
        raise UnsupportedRegimeError(
            f"{op} is defined only for killing-free forms; row {i} has killing weight {float(kappa[i])!r}"
        )


def effective_resistance(A: FormMatrix, x: int, y: int) -> float:
    """Effective resistance between two vertices of a killing-free form.

    Normative definition: the two-point trace onto {x, y} is a single edge of
    conductance c, and R(x, y) = 1/c.
    """
    x, y = _vertex(x, A.n), _vertex(y, A.n)
    if x == y:
        raise ValidationError("effective resistance requires two distinct vertices")
    _require_conservative(A, "effective resistance")
    comp = next(c for c in components(A) if x in c)
    if y not in comp:
        raise InfiniteResistanceError(
            f"vertices {x} and {y} lie in different components; resistance is infinite"
        )
    # other components would float in the interior block, so trace inside x's
    S = trace(FormMatrix(A.matrix[np.ix_(comp, comp)]), np.searchsorted(comp, [x, y])).traced_form.matrix
    c_eff = -S[0, 1]
    if c_eff <= 0.0:
        raise InfiniteResistanceError(
            f"two-point trace between {x} and {y} has no positive conductance"
        )
    return 1.0 / c_eff


def resistance_matrix(A: FormMatrix) -> np.ndarray:
    """All-pairs effective resistance matrix of a connected killing-free form.

    Computed from the form grounded at vertex 0: G is the inverse of A
    without row and column 0 (and zero on them), and
    ``R(x, y) = G_xx + G_yy - 2 G_xy``; agrees with the two-point trace
    definition to within rounding. A numerically singular grounded form (a
    1e-20 bridge) raises SingularBlockError.
    """
    _require_conservative(A, "resistance matrix")
    comps = components(A)
    if len(comps) > 1:
        raise InfiniteResistanceError(
            f"network is disconnected; components: {[c.tolist() for c in comps]}"
        )
    cho = _cholesky(A.matrix[1:, 1:], lambda: "form grounded at vertex 0 is numerically singular")
    G = np.zeros((A.n, A.n))
    G[1:, 1:] = sla.cho_solve(cho, np.eye(A.n - 1))
    d = np.diag(G)
    R = d[:, None] + d[None, :] - 2.0 * G
    R = (R + R.T) / 2.0
    np.fill_diagonal(R, 0.0)
    return R


def sup_formula_value(A: FormMatrix, x: int, y: int, u) -> float:
    """Value (u(x) - u(y))^2 / E(u, u) of the variational resistance formula.

    Never exceeds the effective resistance; the harmonic extension of the
    indicator boundary data attains it.
    """
    x, y = _vertex(x, A.n), _vertex(y, A.n)
    uv = _as_vector(u, A.n, "u")
    energy = evaluate(A, uv, uv)
    if energy <= 0.0:
        raise ValidationError("E(u, u) = 0; the resistance ratio is undefined for this u")
    diff = uv[x] - uv[y]
    return float(diff * diff / energy)
