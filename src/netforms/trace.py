"""Traces of forms onto vertex subsets and the effective resistance metric.

The trace of a form onto a subset U is the form whose value at a boundary
function f is the minimum energy over all extensions of f to the whole vertex
set; it is computed as the Schur complement of the interior block. The unique
minimizer is the harmonic extension, and for killing-free connected networks
the two-point trace defines the effective resistance metric.

A large interior is eliminated one connected component at a time (Kron
reduction, as in the renormalization of self-similar networks): each needs
only its own factor, dense up to ``DENSE_N_MAX`` vertices and sparse LU
above, and the boundary columns it touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import lapack
from scipy.sparse import csr_array
from scipy.sparse.linalg import LinearOperator, onenormest, splu

from .errors import (
    InfiniteResistanceError,
    SingularBlockError,
    UnsupportedRegimeError,
    ValidationError,
)
from .network import DENSE_N_MAX, SINGULAR_RCOND, FormMatrix, evaluate, killing_vector
from .network import _as_vector, _check_dense, _check_finite, _csr_from_dense, _csr_from_entries, _distinct, _entries
from .network import _groups, _indices, _killing_free, _labels, _scale, _vertex

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
    rcond : float
        Smallest reciprocal condition number over the eliminated interior
        blocks: LAPACK's estimate for a block factored alone (a small form's
        whole interior or a lone component), SuperLU's for a component above
        ``DENSE_N_MAX`` vertices, the exact 1-norm value for a stack of two or
        more components, and 1.0 for isolated vertices with a positive
        diagonal and for an empty interior.
    interior : ndarray
        The complement W of U in ascending order.
    extension_operator : csr_array, shape (|W|, |U|)
        H = -A_WW^{-1} A_WU, canonical and read-only. It maps boundary values to
        the interior values of the energy minimizer; for a Markov form, row x
        holds the chances that the walk from x first enters U at each vertex.
        It is built from the eliminated blocks on first read, by the function
        the constructor takes last, and then kept in that function's place,
        so a caller that reads only the traced form builds none and a result
        once read holds H alone.
    """

    subset: np.ndarray
    traced_form: FormMatrix
    rcond: float
    interior: np.ndarray
    _operator: Callable[[], csr_array] | csr_array = field(repr=False)

    @property
    def extension_operator(self) -> csr_array:
        H = self._operator
        if not isinstance(H, csr_array):  # the builder: H replaces it, so the blocks are freed
            H = H()
            object.__setattr__(self, "_operator", H)
        return H

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
    if out.any():
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


def _cholesky(M: np.ndarray, B: np.ndarray, singular: Callable[[], str]):
    """Solution X of M X = B for a positive definite block M, by its Cholesky
    factor, and LAPACK's reciprocal condition estimate of M: the package's one
    dense factorization, guarded by :func:`_guard`. LAPACK is called directly, with
    the routines and arguments of ``scipy.linalg.cho_factor``/``cho_solve``."""
    if M.size == 0:  # LAPACK rejects an empty block, which needs no check
        return np.empty(B.shape), 1.0
    c, info = lapack.dpotrf(M, lower=1, clean=0)
    rcond = 0.0
    if info == 0:
        rcond, info = lapack.dpocon(c, lapack.dlange("1", M), uplo="L")  # the 1-norm of M: column sums in order
        rcond = rcond if info == 0 else 0.0
    _guard(rcond, singular)
    return lapack.dpotrs(c, B, lower=1)[0], rcond


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
    """The components of the interior block, stacked by shape.

    ``i``, ``j`` are the stored entries of the form, row-major; ``pos`` maps a
    vertex to its position in U or in W and ``inner`` marks W. Yields, per
    stack of components with ``k`` vertices and ``b`` boundary columns, the
    positions in W of their vertices, shape (m, k), and the ascending
    positions in U of the boundary vertices each one touches, shape (m, b);
    a component above ``DENSE_N_MAX`` vertices is a stack of its own.
    """
    sel = inner[i] & (i != j)
    r, j = pos[i[sel]], j[sel]  # r is a position in W, ascending; j a vertex
    ij = inner[j]
    if ij.any():  # the entries stay row-major, as pos keeps the order of W
        support = _csr_from_entries(r[ij], pos[j[ij]], np.ones(np.count_nonzero(ij)), (n_w, n_w))
        labels = _labels(support, symmetric=True)  # the form's support, so symmetric
    else:  # isolated vertices, numbered as _labels numbers them
        labels = np.arange(n_w)
    comp, col = np.divmod(_distinct(labels[r[~ij]] * n_u + pos[j[~ij]]), n_u)
    size = np.bincount(labels)
    n_boundary = np.bincount(comp, minlength=size.size)
    # a component with b boundary columns adds b^2 keys and terms to _kron's entry sums, which
    # hold at most 7 arrays of that size at once (6.1 measured on a star traced onto its leaves)
    _check_dense((7, int(n_boundary @ n_boundary)), "the boundary-pair terms of the interior components")
    members = np.argsort(labels, kind="stable")
    first = np.cumsum(size) - size
    first_col = np.cumsum(n_boundary) - n_boundary
    shapes = size * (n_u + 1) + n_boundary
    for shape in _distinct(shapes):
        k, b = divmod(int(shape), n_u + 1)
        cs = np.flatnonzero(shapes == shape)
        w, u = members[first[cs, None] + np.arange(k)], col[first_col[cs, None] + np.arange(b)]
        yield from zip(w[:, None], u[:, None]) if k > DENSE_N_MAX else [(w, u)]


def _dense(A_ww: np.ndarray, B: np.ndarray, singular: Callable[[], str]):
    """Extensions -A_ww^{-1} B of a stack of blocks, shapes (m, k, k) and (m, k, b), and the
    smallest rcond: with no off-diagonal entry (isolated vertices) the exact -B/d of rcond 1,
    or 0 when some diagonal d is not positive; one block (m = 1) by :func:`_cholesky`; else
    the batched Cholesky check and one LU solve against [B, I], with the exact 1-norm rcond."""
    m, k, b = B.shape
    d = np.diagonal(A_ww, axis1=1, axis2=2)
    if np.count_nonzero(A_ww) == np.count_nonzero(d):
        rcond = 1.0 if (d > 0.0).all() else 0.0
        _guard(rcond, singular)
        return -B / d[..., None], rcond
    if m == 1:
        X, rcond = _cholesky(A_ww[0], B[0], singular)
        return -X[None], rcond
    try:
        np.linalg.cholesky(A_ww)  # positive definite, as _cholesky requires
        X = np.linalg.solve(A_ww, np.concatenate([B, np.broadcast_to(np.eye(k), A_ww.shape)], axis=2))
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        norm1 = np.abs(A_ww).sum(axis=1).max(axis=1) * np.abs(X[:, :, b:]).sum(axis=1).max(axis=1)
        rcond = float(np.min(1.0 / norm1))
    _guard(rcond, singular)
    return -X[:, :, :b], rcond


def _sparse_block(A: csr_array, Wc: np.ndarray, Uc: np.ndarray, singular: Callable[[], str]):
    """B_c and h_c = -A_cc^{-1} B_c, each a stack of one as :func:`_dense` returns them, and
    the rcond of a component above ``DENSE_N_MAX`` vertices, on its CSR rows. SuperLU pivots
    on the diagonal: A_cc is positive definite iff the row and column permutations agree and
    every pivot is positive. ``t=1`` draws no random numbers. A failed allocation in the
    factor or its solves raises ValidationError; SuperLU's other errors propagate."""
    rows = A[Wc]
    M = rows[:, Wc].T  # CSC, as SuperLU takes it; M is symmetric
    _check_dense((80 * M.nnz + Wc.size * Uc.size,), "a component's LU workspace (80 floats an entry) and solution")
    try:
        lu = splu(M, diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        definite = np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all()
        inverse = LinearOperator(M.shape, matvec=lu.solve, rmatvec=lu.solve, dtype=float)  # M is symmetric
        rcond = 1.0 / (float(onenormest(inverse, t=1)) * float(abs(M).sum(axis=0).max())) if definite else 0.0
        _guard(rcond, singular)
        B = rows[:, Uc].toarray()
        return B[None], -lu.solve(B)[None], rcond
    except (RuntimeError, MemoryError, SystemError) as err:
        if str(err) == "Factor is exactly singular":
            _guard(0.0, singular)
        # SuperLU reports the bytes it held at a failed allocation in a C int, which turns negative
        # above 2 GiB and then reads as "invalid arguments"; the guard's error is a RuntimeError too
        allocation = isinstance(err, MemoryError) or any(w in str(err).lower() for w in ("alloc", "memory"))
        if isinstance(err, SingularBlockError) or not (allocation or str(err) == "gstrf was called with invalid arguments"):
            raise
        raise ValidationError(f"out of memory eliminating an interior component of {Wc.size} vertices by sparse LU") from None


def _kron(A: FormMatrix, U: np.ndarray, W: np.ndarray, singular: Callable[[], str]):
    """Eliminate the interior of a sparse form, component by component.

    The interior is split into its components by :func:`_split`. Each
    component c contributes B_c^T h_c on its boundary columns; the
    contributions to an entry are summed before they are added to A_UU.
    Returns the traced form as CSR, a function that builds the extension
    operator from its blocks and the smallest rcond.
    """
    n, n_u = A.n, U.size
    i, j, a = _entries(A)
    pos = np.empty(n, dtype=np.intp)
    pos[U] = np.arange(n_u)
    pos[W] = np.arange(W.size)
    inner = np.zeros(n, dtype=bool)
    inner[W] = True
    uu = ~inner[i] & ~inner[j]
    keys, terms = [pos[i[uu]] * n_u + pos[j[uu]]], [a[uu]]
    get, blocks, rcond = _lookup(i, j, a, n), [], 1.0
    for w, u in _split(i, j, pos, inner, n_u, W.size):
        Wg, Ug = W[w], U[u]
        if w.shape[1] > DENSE_N_MAX:
            B, h, rc = _sparse_block(A.csr, Wg[0], Ug[0], singular)
        else:
            B = get(Wg[:, :, None], Ug[:, None, :])
            h, rc = _dense(get(Wg[:, :, None], Wg[:, None, :]), B, singular)
        keys.append((u[:, :, None] * n_u + u[:, None, :]).ravel())
        terms.append((np.swapaxes(B, 1, 2) @ h).ravel())
        blocks.append((w, u, h))
        rcond = min(rcond, rc)
    # entry sums, A_UU first; each list and array goes once read, which sets the peak _split counts
    n_uu, keys, terms = keys[0].size, np.concatenate(keys), np.concatenate(terms)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.concatenate([keys[:1] == keys[:1], keys[1:] != keys[:-1]])  # the first of each run of equal keys
    uniq, at = keys[first], np.empty_like(order)
    del keys
    at[order] = np.cumsum(first) - 1  # the inverse: the place of each key in uniq
    del order, first
    s = np.bincount(at[:n_uu], terms[:n_uu], uniq.size) + np.bincount(at[n_uu:], terms[n_uu:], uniq.size)
    del at, terms
    s = (s + s[np.searchsorted(uniq, uniq % n_u * n_u + uniq // n_u)]) / 2.0  # the structure is symmetric
    r, c = np.divmod(uniq, n_u)
    del uniq
    return _csr_from_entries(r, c, s, (n_u, n_u)), partial(_extension, blocks, W.size, n_u), rcond


def _extension(blocks, n_w: int, n_u: int) -> csr_array:
    """The extension operator as a CSR matrix from its blocks ``(w, u, h)``, with
    w and u as :func:`_split` yields them. Each row lies in one block, whose
    columns ascend, so a stable sort on the rows makes the order row-major."""
    parts = [(np.repeat(w, h.shape[2]), np.repeat(u[:, None, :], h.shape[1], axis=1), h) for w, u, h in blocks]
    empty = (np.empty(0, dtype=np.intp),) * 2 + (np.empty(0),)  # for an empty interior
    rows, cols, vals = (np.concatenate([a.ravel() for a in arrays]) for arrays in zip(*parts, empty))
    order = np.argsort(rows, kind="stable")
    return _csr_from_entries(rows[order], cols[order], vals[order], (n_w, n_u))


def _eliminate(A: FormMatrix, subset):
    """Check the subset U and eliminate its complement W: returns U, W, the
    traced form (an ndarray when eliminated densely, else CSR; see
    :func:`trace`), a function that builds the extension operator as CSR
    (only a trace needs it) and the smallest rcond. The dense elimination
    permutes the form's array once to [U, W] order and takes its four blocks
    as slices."""
    U = _check_subset(subset, A.n)
    W = _interior(U, A.n)

    def singular() -> str:
        bad = _offending_components(A, U)
        if bad:
            return f"components disconnected from the subset with no killing: {bad}"
        return "interior block is numerically singular"

    if A.n <= DENSE_N_MAX:
        order = np.concatenate([U, W])
        M = A.matrix.take(order, 0).take(order, 1)  # [U, W] order: each block is a slice
        n_u = U.size
        S = M[:n_u, :n_u]
        if not W.size:
            return U, W, (S + S.T) / 2.0, partial(_csr_from_dense, np.empty((0, n_u))), 1.0
        try:
            h, rcond = _dense(M[None, n_u:, n_u:], M[None, n_u:, :n_u], singular)
        except SingularBlockError:
            if _offending_components(A, U):  # singular in any elimination
                raise
            # the interior's rcond is at most each component's: try them one by one
        else:
            S += M[:n_u, n_u:] @ h[0]
            return U, W, (S + S.T) / 2.0, partial(_csr_from_dense, h[0]), rcond
    return (U, W, *_kron(A, U, W, singular))


def trace(A: FormMatrix, subset) -> TraceResult:
    """Trace (harmonic restriction) of a form onto a subset of vertices.

    A form of at most ``DENSE_N_MAX`` vertices is eliminated densely, as one
    block, unless that block fails the singularity guard. On a larger one, or
    after such a failure, the interior W is eliminated on the CSR matrix,
    split into the connected components of its block A_WW. Components of at
    most ``DENSE_N_MAX`` vertices are eliminated densely, one stack per shape
    (vertices and boundary neighbours), a lone one as a stack of one; a
    larger one is factored by SuperLU on its CSR rows, with no n_c² array.
    The one dense rule divides isolated vertices exactly, factors a single
    block by Cholesky and solves a stack of two or more in one batched LU.
    Each component c adds B_c^T h_c to the traced form, where B_c holds its
    boundary columns and h_c = -A_cc^{-1} B_c is its block of the extension
    operator; the result builds H as one CSR matrix on first read. Every
    isolated interior vertex, lone or stacked, is eliminated by one exact
    division: the dyadic series law holds bit for bit.

    Raises
    ------
    SingularBlockError
        If an interior block is singular, which happens exactly when some
        component is disconnected from the subset and carries no killing.
    """
    U, W, S, extension, rcond = _eliminate(A, subset)
    return TraceResult(U, FormMatrix._trusted(S), rcond, W, extension)


def harmonic_extension(tr: TraceResult, f) -> np.ndarray:
    """Extend boundary values to the unique energy minimizer on all vertices.

    The result agrees with ``f`` exactly on the subset and carries the
    interior values ``H @ f``, one sparse product with the extension operator.
    """
    fv = _as_vector(f, len(tr.subset), "boundary values")
    g = np.empty(tr.n_total)
    g[tr.subset] = fv
    g[tr.interior] = tr.extension_operator @ fv
    return g


def _require_conservative(A: FormMatrix, op: str) -> None:
    kappa = killing_vector(A)
    # killing-free means zero row sums, so negative ones count as killing too
    if not _killing_free(np.abs(kappa), _scale(A)).all():
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
    S = _eliminate(A, np.concatenate([[x, y], others]))[2]
    _check_finite(S)  # as the traced form would
    c_eff = -float(S[0, 1])
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
    labels = _labels(A)
    if labels.max() > 0:
        raise InfiniteResistanceError(
            f"network is disconnected; components: {[c.tolist() for c in _groups(labels)]}"
        )
    _check_dense((5, A.n, A.n), "the dense form, its factor, the identity, the solution and R")
    X, _ = _cholesky(A.matrix[1:, 1:], np.eye(A.n - 1), lambda: "form grounded at vertex 0 is numerically singular")
    d = X.diagonal()
    R = np.empty((A.n, A.n))
    np.subtract(d[:, None] + d, 2.0 * X, out=R[1:, 1:])
    R[0, 0], R[0, 1:], R[1:, 0] = 0.0, d, d  # G is zero on row and column 0
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
