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

from dataclasses import dataclass, field
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
from .network import DENSE_N_MAX, SINGULAR_RCOND, FormMatrix, components, evaluate, killing_vector
from .network import _as_vector, _check_dense, _csr_from_entries, _entries, _groups, _indices, _killing_free
from .network import _labels, _scale, _vertex

__all__ = [
    "TraceResult",
    "trace",
    "harmonic_extension",
    "effective_resistance",
    "resistance_matrix",
    "sup_formula_value",
]

#: Largest interior component that a trace stacks with the components of its
#: shape; a larger one is eliminated on its own.
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
    rcond : float
        Smallest reciprocal condition number over the eliminated interior
        blocks: LAPACK's estimate for a factored block, the exact 1-norm value
        for a stacked one, and 1.0 for an empty interior.
    interior : ndarray
        The complement W of U in ascending order.
    blocks : tuple
        The extension operator block by block: triples ``(w, u, h)`` of
        positions in W, shape (..., k), positions in U, shape (..., b), and
        h = -A_ww^{-1} B, shape (..., k, b), with one leading axis for a stack.
    extension_operator : ndarray, shape (|W|, |U|)
        Maps boundary values to the interior values of the energy minimizer.
        Dense and read-only, assembled from the blocks on first access after
        a check against ``DENSE_BYTES_MAX``; :func:`harmonic_extension`
        works from the blocks and never needs it.
    """

    subset: np.ndarray
    traced_form: FormMatrix
    rcond: float
    interior: np.ndarray
    blocks: tuple = field(repr=False)
    _extension: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def extension_operator(self) -> np.ndarray:
        if self._extension is None:
            _check_dense((self.interior.size, self.subset.size), "an extension operator")
            H = np.zeros((self.interior.size, self.subset.size))
            for w, u, h in self.blocks:
                H[w[..., :, None], u[..., None, :]] = h
            H.setflags(write=False)
            object.__setattr__(self, "_extension", H)
        return self._extension

    @property
    def n_total(self) -> int:
        return self.subset.size + self.interior.size

    def complement(self) -> np.ndarray:
        return self.interior


def _check_subset(subset, n: int) -> np.ndarray:
    U = _indices(subset, "subset")
    if U.size == 0:
        raise ValidationError("subset must be a nonempty 1-d index list")
    out = (U < 0) | (U >= n)
    if np.any(out):
        raise ValidationError(f"vertex {int(U[np.argmax(out)])} out of range for n={n}")
    return U


def _interior(U: np.ndarray, n: int) -> np.ndarray:
    """The complement W of U in ascending order; U must have no repeats."""
    mask = np.ones(n, dtype=bool)
    mask[U] = False
    W = np.flatnonzero(mask)
    if W.size + U.size != n:
        raise ValidationError("subset contains duplicate indices")
    W.setflags(write=False)
    return W


def _offending_components(A: FormMatrix, U: np.ndarray) -> list[list[int]]:
    """Components of the network that neither meet U nor carry killing."""
    labels = _labels(A)
    floating = _killing_free(np.bincount(labels, killing_vector(A)), _scale(A))
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


def _lookup(i: np.ndarray, j: np.ndarray, a: np.ndarray, n: int):
    """Entry reader of a form from its nonzero entries, row-major: ``get(r, c)``
    gives the entries at index arrays ``r``, ``c`` (broadcast together), zero
    where there is none."""
    keys = i * n + j  # ascending

    def get(r, c):
        q = np.asarray(r) * n + np.asarray(c)
        if keys.size == 0:
            return np.zeros(q.shape)
        p = np.minimum(np.searchsorted(keys, q), keys.size - 1)
        return np.where(keys[p] == q, a[p], 0.0)

    return get


def _split(i, j, pos, inner, n_u: int, n_w: int):
    """The components of the interior block, grouped by shape.

    ``i``, ``j`` are the stored entries of the form, row-major; ``pos`` maps a
    vertex to its position in U or in W and ``inner`` marks W. Yields, per
    group of components with ``k`` vertices and ``b`` boundary columns, the
    positions in W of their vertices, shape (m, k), and the ascending
    positions in U of the boundary vertices each one touches, shape (m, b).
    """
    sel = inner[i] & (i != j)
    r, j = pos[i[sel]], j[sel]  # r is a position in W, ascending; j a vertex
    ij = inner[j]
    if np.any(ij):
        labels = _labels(csr_array((np.ones(np.count_nonzero(ij)), (r[ij], pos[j[ij]])), shape=(n_w, n_w)))
    else:  # isolated vertices, numbered as _labels numbers them
        labels = np.arange(n_w)
    comp, col = np.divmod(np.unique(labels[r[~ij]] * n_u + pos[j[~ij]]), n_u)
    size = np.bincount(labels)
    n_boundary = np.bincount(comp, minlength=size.size)
    members = np.argsort(labels, kind="stable")
    first = np.cumsum(size) - size
    first_col = np.cumsum(n_boundary) - n_boundary
    shapes = size * (n_u + 1) + n_boundary
    for shape in np.unique(shapes):
        k, b = divmod(int(shape), n_u + 1)
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


def _block(A_cc: np.ndarray, B: np.ndarray, singular: Callable[[], str]):
    """Eliminate one block c: its extension h_c = -A_cc^{-1} B_c and its rcond.

    A coupled block is factored by :func:`_cholesky`; a diagonal one (isolated
    vertices) is divided by its entries, each an exact 1 x 1 block of rcond 1.
    """
    if _coupled(A_cc):
        cho, rcond = _cholesky(A_cc, singular)
        return -sla.cho_solve(cho, B), rcond
    d = np.diagonal(A_cc)
    rcond = 1.0 if np.all(d > 0.0) else 0.0
    _guard(rcond, singular)
    return -B / d[:, None], rcond


def _kron(A: FormMatrix, U: np.ndarray, W: np.ndarray, singular: Callable[[], str]):
    """Eliminate the interior of a sparse form, component by component.

    The interior is split into its components by :func:`_split`. Each
    component c contributes B_c^T h_c on its boundary columns; the
    contributions to an entry are summed before they are added to A_UU.
    Returns the traced form as a CSR matrix, the blocks (w, u, h) of the
    extension operator and the smallest rcond.
    """
    n, n_u = A.n, U.size
    i, j, a = _entries(A)
    get = _lookup(i, j, a, n)
    pos = np.empty(n, dtype=np.intp)
    pos[U] = np.arange(n_u)
    pos[W] = np.arange(W.size)
    inner = np.zeros(n, dtype=bool)
    inner[W] = True
    uu = ~inner[i] & ~inner[j]
    keys, terms = [pos[i[uu]] * n_u + pos[j[uu]]], [a[uu]]
    blocks = []
    rcond = 1.0
    for w, u in _split(i, j, pos, inner, n_u, W.size):
        Wg, Ug = W[w], U[u]
        if w.shape[0] == 1 or w.shape[1] > STACK_MAX:
            for wc, uc, Wc, Uc in zip(w, u, Wg, Ug):
                _check_dense((Wc.size, Wc.size + Uc.size), "an interior block")
                B = get(Wc[:, None], Uc[None, :])
                h, rc = _block(get(Wc[:, None], Wc[None, :]), B, singular)
                keys.append((uc[:, None] * n_u + uc[None, :]).ravel())
                terms.append((B.T @ h).ravel())
                blocks.append((wc, uc, h))
                rcond = min(rcond, rc)
            continue
        B = get(Wg[:, :, None], Ug[:, None, :])
        h, rc = _stacked(get(Wg[:, :, None], Wg[:, None, :]), B, singular)
        keys.append((u[:, :, None] * n_u + u[:, None, :]).ravel())
        terms.append((np.swapaxes(B, 1, 2) @ h).ravel())
        blocks.append((w, u, h))
        rcond = min(rcond, rc)
    # entry sums: A_UU first, then the summed block terms
    uniq, at = np.unique(np.concatenate(keys), return_inverse=True)
    n_uu = keys[0].size
    s = np.bincount(at[:n_uu], terms[0], uniq.size) + np.bincount(at[n_uu:], np.concatenate(terms[1:] or [[]]), uniq.size)
    r, c = np.divmod(uniq, n_u)
    s = (s + s[np.searchsorted(uniq, c * n_u + r)]) / 2.0  # the structure is symmetric
    return _csr_from_entries(r, c, s, n_u), tuple(blocks), rcond


def trace(A: FormMatrix, subset) -> TraceResult:
    """Trace (harmonic restriction) of a form onto a subset of vertices.

    A form of at most ``DENSE_N_MAX`` vertices is eliminated densely, as one
    block. On a larger one the interior W is eliminated on the CSR matrix,
    split into the connected components of its block A_WW. The components
    of one shape, at most ``STACK_MAX`` vertices with the same number of
    boundary neighbours, share one batched solve, and any other component is
    one block. Each component c adds B_c^T h_c to the traced form, where B_c
    holds its boundary columns and h_c = -A_cc^{-1} B_c is its block of the
    extension operator. Isolated interior vertices are eliminated by exact
    divisions, so on the dyadic interval the series law holds bit for bit at
    every level.

    Raises
    ------
    SingularBlockError
        If an interior block is singular, which happens exactly when some
        component is disconnected from the subset and carries no killing.
    """
    U = _check_subset(subset, A.n)
    W = _interior(U, A.n)

    def singular() -> str:
        bad = _offending_components(A, U)
        if bad:
            return f"components disconnected from the subset with no killing: {bad}"
        return "interior block is numerically singular"

    if A.n > DENSE_N_MAX:
        S, blocks, rcond = _kron(A, U, W, singular)
    else:
        M = A.matrix
        S = M[np.ix_(U, U)]
        blocks, rcond = (), 1.0
        if W.size:
            h, rcond = _block(M[np.ix_(W, W)], M[np.ix_(W, U)], singular)
            S += M[np.ix_(U, W)] @ h
            blocks = ((np.arange(W.size), np.arange(U.size), h),)
        S = (S + S.T) / 2.0
    return TraceResult(subset=U, traced_form=FormMatrix(S), rcond=rcond, interior=W, blocks=blocks)


def harmonic_extension(tr: TraceResult, f) -> np.ndarray:
    """Extend boundary values to the unique energy minimizer on all vertices.

    The result agrees with ``f`` exactly on the subset and carries the
    interior values ``H @ f``, computed block by block.
    """
    fv = _as_vector(f, len(tr.subset), "boundary values")
    g = np.empty(tr.n_total)
    g[tr.subset] = fv
    inner = np.empty(tr.interior.size)
    for w, u, h in tr.blocks:
        inner[w] = (h @ fv[u][..., None])[..., 0]
    g[tr.interior] = inner
    return g


def _require_conservative(A: FormMatrix, op: str) -> None:
    kappa = killing_vector(A)
    # killing-free means zero row sums, so negative ones count as killing too
    if not np.all(_killing_free(np.abs(kappa), _scale(A))):
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
    labels = _labels(A)
    if labels[x] != labels[y]:
        raise InfiniteResistanceError(
            f"vertices {x} and {y} lie in different components; resistance is infinite"
        )
    # the other components would float in the interior block, so they join the subset
    others = np.flatnonzero(labels != labels[x])
    S = trace(A, np.concatenate([[x, y], others])).traced_form
    c_eff = -float(S.csr[0, 1])
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
