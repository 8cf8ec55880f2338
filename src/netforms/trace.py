"""Traces of forms onto vertex subsets and the effective resistance metric.

The trace of a form onto a subset U is the form whose value at a boundary
function f is the minimum energy over all extensions of f to the whole vertex
set; it is computed as the Schur complement of the interior block. The unique
minimizer is the harmonic extension, and for killing-free connected networks
the two-point trace defines the effective resistance metric.

A large interior is eliminated one connected component at a time (Kron
reduction, cell by cell as in the renormalization of self-similar networks):
components decouple in the interior block, so each one needs only its own
factor and the boundary columns it touches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack
from scipy.sparse import csr_array

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

#: Largest interior a trace eliminates as one block, and largest interior
#: component stacked with the components of its shape. At least 59, so no
#: trace of a network of at most 60 vertices splits.
STACK_MAX = 64


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
    rcond : float
        Smallest reciprocal condition number over the eliminated interior
        blocks: LAPACK's estimate for a factored block, the exact 1-norm value
        for a stacked one, and 1.0 for an empty interior.
    """

    subset: np.ndarray
    traced_form: FormMatrix
    extension_operator: np.ndarray
    rcond: float

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


def _guard(rcond: float, singular: Callable[[], str]) -> None:
    """Raise SingularBlockError, with the message ``singular()`` gives, when a
    block's reciprocal condition number is below ``SINGULAR_RCOND``."""
    if not rcond >= SINGULAR_RCOND:
        raise SingularBlockError(f"{singular()} (rcond estimate {rcond:.3e})")


def _cholesky(M: np.ndarray, singular: Callable[[], str]):
    """Cholesky factor of a positive definite block and its LAPACK reciprocal
    condition estimate; the package's one factorization, guarded by :func:`_guard`."""
    try:
        cho = sla.cho_factor(M, lower=True)
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:  # LAPACK rejects an empty block, which needs no check
        pocon = lapack.get_lapack_funcs(("pocon",), (M,))[0]
        rcond, info = pocon(cho[0], np.linalg.norm(M, 1), uplo=b"L") if M.size else (1.0, 0)
        rcond = rcond if info == 0 else 0.0
    _guard(rcond, singular)
    return cho, rcond


def _coupled(A_WW: np.ndarray) -> bool:
    """Whether an interior block has an off-diagonal entry."""
    return np.count_nonzero(A_WW) > np.count_nonzero(np.diagonal(A_WW))


def _split(M: np.ndarray, U: np.ndarray, W: np.ndarray):
    """The components of the interior block, grouped by shape.

    Yields, per group of components with ``k`` vertices and ``b`` boundary
    columns, the positions in W of their vertices, shape (m, k), and the
    ascending positions in U of the boundary vertices each one touches,
    shape (m, b).
    """
    pos = np.empty(M.shape[0], dtype=int)
    pos[U] = np.arange(U.size)
    pos[W] = np.arange(W.size)
    interior = np.zeros(M.shape[0], dtype=bool)
    interior[W] = True
    r, j = np.nonzero((M != 0)[W])  # r is a position in W, j a vertex
    keep = W[r] != j
    r, j = r[keep], j[keep]
    inner = interior[j]
    if np.any(inner):
        labels = _labels(csr_array((np.ones(np.count_nonzero(inner)), (r[inner], pos[j[inner]])), shape=(W.size, W.size)))
    else:  # isolated vertices, numbered as _labels numbers them
        labels = np.arange(W.size)
    comp, col = np.divmod(np.unique(labels[r[~inner]] * U.size + pos[j[~inner]]), U.size)
    size = np.bincount(labels)
    n_boundary = np.bincount(comp, minlength=size.size)
    members = np.argsort(labels, kind="stable")
    first = np.cumsum(size) - size
    first_col = np.cumsum(n_boundary) - n_boundary
    shapes = size * (U.size + 1) + n_boundary
    for shape in np.unique(shapes):
        k, b = divmod(int(shape), U.size + 1)
        cs = np.flatnonzero(shapes == shape)
        yield members[first[cs, None] + np.arange(k)], col[first_col[cs, None] + np.arange(b)]


def _stacked(A_ww: np.ndarray, B: np.ndarray, singular: Callable[[], str]):
    """Extensions -A_ww^{-1} B of a stack of small blocks, shapes (m, k, k)
    and (m, k, b), and the smallest exact 1-norm reciprocal condition.

    One LU solve against [B, I] gives both. It takes no square roots, so a
    1 x 1 block whose entry is a power of two is eliminated exactly."""
    k, b = B.shape[1:]
    try:
        np.linalg.cholesky(A_ww)  # positive definite, as _cholesky requires
        X = np.linalg.solve(A_ww, np.concatenate([B, np.broadcast_to(np.eye(k), A_ww.shape)], axis=2))
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        norm1 = np.max(np.sum(np.abs(A_ww), axis=1), axis=1) * np.max(np.sum(np.abs(X[:, :, b:]), axis=1), axis=1)
        rcond = float(np.min(1.0 / norm1))
    _guard(rcond, singular)
    return -X[:, :, :b], rcond


def _block(M: np.ndarray, Wc: np.ndarray, Uc: np.ndarray, singular: Callable[[], str]):
    """Eliminate one block c: its extension h_c = -A_cc^{-1} B_c, its term
    B_c^T h_c of the traced form, and its rcond.

    A coupled block is factored by :func:`_cholesky`; a diagonal one (isolated
    vertices) is divided by its entries, each an exact 1 x 1 block of rcond 1.
    """
    A_cc = M[np.ix_(Wc, Wc)]
    B = M[np.ix_(Wc, Uc)]
    if _coupled(A_cc):
        cho, rcond = _cholesky(A_cc, singular)
        h = -sla.cho_solve(cho, B)
    else:
        d = np.diagonal(A_cc)
        rcond = 1.0 if np.all(d > 0.0) else 0.0
        _guard(rcond, singular)
        h = -B / d[:, None]
    return h, M[np.ix_(Uc, Wc)] @ h, rcond


def _kron(M: np.ndarray, U: np.ndarray, W: np.ndarray, S: np.ndarray, singular: Callable[[], str]):
    """Eliminate a split interior component by component.

    Adds each component's term to ``S`` in place; returns the extension
    operator and the smallest rcond over the blocks.
    """
    H = np.zeros((W.size, U.size))
    rcond = 1.0
    for w, u in _split(M, U, W):
        Wg, Ug = W[w], U[u]
        if w.shape[0] == 1 or w.shape[1] > STACK_MAX:
            for wc, uc, Wc, Uc in zip(w, u, Wg, Ug):
                h, P, rc = _block(M, Wc, Uc, singular)
                S[np.ix_(uc, uc)] += P
                H[np.ix_(wc, uc)] = h
                rcond = min(rcond, rc)
            continue
        B = M[Wg[:, :, None], Ug[:, None, :]]
        h, rc = _stacked(M[Wg[:, :, None], Wg[:, None, :]], B, singular)
        # sum the terms of each entry before adding them to S: fewer roundings
        keys, at = np.unique(u[:, :, None] * U.size + u[:, None, :], return_inverse=True)
        S.flat[keys] += np.bincount(at.ravel(), (np.swapaxes(B, 1, 2) @ h).ravel())
        H[w[:, :, None], u[:, None, :]] = h
        rcond = min(rcond, rc)
    return H, rcond


def trace(A: FormMatrix, subset) -> TraceResult:
    """Trace (harmonic restriction) of a form onto a subset of vertices.

    An interior W of at most ``STACK_MAX`` vertices is one block. A larger
    one is split into the connected components of its block A_WW: the
    components of one shape, at most ``STACK_MAX`` vertices with the same
    number of boundary neighbours, share one batched solve, and any other
    component is one block. Each component c adds B_c^T h_c to the traced
    form, where B_c holds its boundary columns and h_c = -A_cc^{-1} B_c is
    its part of the extension operator. Isolated interior vertices are
    eliminated by exact divisions, so on the dyadic interval the series law
    holds bit for bit at every level.

    Raises
    ------
    SingularBlockError
        If an interior block is singular, which happens exactly when some
        component is disconnected from the subset and carries no killing.
    """
    U = _check_subset(subset, A.n)
    mask = np.ones(A.n, dtype=bool)
    mask[U] = False
    W = np.flatnonzero(mask)
    M = A.matrix

    def singular() -> str:
        bad = _offending_components(A, U)
        if bad:
            return f"components disconnected from the subset with no killing: {bad}"
        return "interior block is numerically singular"

    S = M[np.ix_(U, U)]
    if W.size == 0:
        H, rcond = np.zeros((0, U.size)), 1.0
    elif W.size <= STACK_MAX:
        H, P, rcond = _block(M, W, U, singular)
        S += P
    else:
        H, rcond = _kron(M, U, W, S, singular)
    S = (S + S.T) / 2.0
    return TraceResult(subset=U, traced_form=FormMatrix(S), extension_operator=H, rcond=rcond)


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
    cho, _ = _cholesky(A.matrix[1:, 1:], lambda: "form grounded at vertex 0 is numerically singular")
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
