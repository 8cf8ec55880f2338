"""Finite symmetric Dirichlet forms on weighted networks.

A network is a finite weighted graph with nonnegative per-vertex killing
weights. Its form matrix is the graph Laplacian plus the diagonal killing
matrix, so that

    E(f, g) = f^T A g
            = sum_{x<y} c_xy (f(x) - f(y)) (g(x) - g(y)) + sum_x kappa_x f(x) g(x).

A network holds its edges as arrays and a form holds one CSR matrix (or, when
the package builds it small, a dense array), so every operation on a form costs
O(|E|). Functions on the vertex set are plain 1-d numpy arrays indexed by the
vertex order of the owning network. All container types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterable
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_array, issparse
from scipy.sparse._base import MAXPRINT
from scipy.sparse.csgraph import connected_components

from .errors import ValidationError

__all__ = [
    "Network",
    "FormMatrix",
    "AtomicMeasure",
    "MarkovReport",
    "assemble",
    "evaluate",
    "unit_contraction",
    "truncate_one",
    "is_markov",
    "conductance_matrix",
    "killing_vector",
    "components",
    "form_to_csv",
]

# Tolerances, one definition per decision. A relative tolerance multiplies the
# magnitude _scale(x) of what it compares; the README's table lists the users.

#: Sign conditions and killing: the Markov check, the jump-kernel and killing
#: signs, killing-free forms and chains, and the quotient-form descent check.
RELTOL = 1e-10

#: Reciprocal-condition estimate below which the interior block of a trace is
#: treated as singular (a floating component).
SINGULAR_RCOND = 1e-13

#: Energy masses more negative than this (relative) are a hard error; within
#: it they are clamped to zero.
CLAMP_RELTOL = 1e-14

#: Cross-check tolerance between the closed-form energy measure and the
#: defining identity.
IDENTITY_RELTOL = 1e-12

#: Default tolerance of check_compatibility and of ``netforms seq check``.
COMPAT_RELTOL = 1e-9

#: Rounding slack below which a decrease of an energy profile is not flagged.
PROFILE_RELTOL = 1e-12

# Size guards.

#: Largest dense float64 array a form operation allocates: the dense view
#: ``FormMatrix.matrix`` and a trace's dense blocks (1 GiB; an n x n view
#: passes for n <= 11,585).
DENSE_BYTES_MAX = 2**30

#: Largest network whose form assemble and recompose build densely, that trace
#: eliminates densely (faster than component-wise here), and whose cross-check
#: products read the dense array. Row sums take one rule at every size.
DENSE_N_MAX = 64


def _scale(m) -> float:
    """Magnitude max(1, max|m|) that relative tolerances multiply; a form's
    magnitude is that of its nonzero entries, kept on the form."""
    if isinstance(m, FormMatrix):
        return m._memo("scale", lambda A: _scale(_entries(A)[2]))
    return max(1.0, float(np.abs(m).max(initial=0.0)))


def _real(x, what: str) -> float:
    """A real number as a float, by the package's one rule for numbers: Python
    and numpy integers and floats pass; bools, strings, bytes, None, any other
    object and an integer beyond the float range raise ValidationError."""
    if type(x) is float:
        return x
    if isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool):
        try:
            return float(x)
        except OverflowError:
            raise ValidationError(f"{what} is too large for a float") from None
    raise ValidationError(f"{what} must be a real number, got {x!r}")


def _reals(values, what: str) -> np.ndarray:
    """An array of real numbers as float64, by the rule of :func:`_real`: an
    integer or float array passes whole, anything else entry by entry, and
    ragged nesting raises."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "fiu":
        return np.asarray(values, dtype=float)
    ragged = f"{what} must be a rectangular array of real numbers"
    try:
        a = np.array(values, dtype=object)  # a copy, so that the entries can be replaced
    except ValueError:  # nested arrays of clashing shapes
        raise ValidationError(ragged) from None
    for k, x in enumerate(a.flat):
        if type(x) is not float:
            if isinstance(x, (list, tuple, np.ndarray)):  # nested deeper on some branch
                raise ValidationError(ragged)
            at = ", ".join(map(str, np.unravel_index(k, a.shape)))
            a.flat[k] = _real(x, f"{what}[{at}]" if at else what)
    return a.astype(float)


def _tolerance(tol) -> float:
    """A tolerance: a finite number >= 0, by the rule of :func:`_real`."""
    with suppress(ValidationError):
        if 0.0 <= (t := _real(tol, "tol")) < math.inf:
            return t
    raise ValidationError(f"tol must be a finite number >= 0, got {tol!r}")


def _check_dense(shape, what: str) -> None:
    """Raise ValidationError if a float64 array of ``shape`` exceeds DENSE_BYTES_MAX."""
    nbytes = 8 * math.prod(shape)
    if nbytes > DENSE_BYTES_MAX:
        raise ValidationError(
            f"{what} of shape {tuple(shape)} needs {nbytes} bytes, "
            f"above the size guard of {DENSE_BYTES_MAX} bytes"
        )


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _read_json(path):
    """The JSON value of a file; a file that cannot be read or parsed raises
    ValidationError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:  # e.pos counts characters
        offset = len(e.doc[: e.pos].encode("utf-8"))
        raise ValidationError(f"malformed JSON in {path} at byte offset {offset}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # bad UTF-8, an over-long integer, deep nesting
        raise ValidationError(f"malformed JSON in {path}: {type(e).__name__}: {e}") from None


@contextmanager
def _writing(path):
    """A text file opened for writing; an OSError (a missing directory, a
    directory in the way, a full disk) raises ValidationError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from None


def _json_object(d, what: str, *keys: str) -> None:
    """Check that a JSON value is an object whose ``keys`` hold lists."""
    if not isinstance(d, dict) or not set(keys) <= set(d):
        raise ValidationError(f"{what} JSON must be an object with {' and '.join(map(repr, keys))}")
    for key in keys:
        if not isinstance(d[key], list):
            raise ValidationError(f"{what} '{key}' must be a list, got {d[key]!r}")


def _as_vector(values, n: int, what: str) -> np.ndarray:
    """A finite function on n vertices; every vertex function enters here."""
    v = _reals(values, what)
    if v.shape != (n,):
        raise ValidationError(f"{what} must be a vector of length {n}, got shape {v.shape}")
    if not np.isfinite(v).all():
        bad = int(np.flatnonzero(~np.isfinite(v))[0])
        raise ValidationError(f"{what}[{bad}] = {float(v[bad])!r} is not finite")
    return v


def _index(v, what: str = "vertex index") -> int:
    """An integer; numpy integers pass, floats and bools do not, so 0.9 is not 0."""
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer, got {v!r}")


def _indices(values, what: str) -> np.ndarray:
    """A 1-d index array by the integer rule of :func:`_index`: an integer
    array passes whole, anything else entry by entry."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu" and values.ndim == 1:
        return values.astype(np.intp, copy=False)
    if np.ndim(np.asarray(values, dtype=object)) != 1:  # a ragged list fails per entry
        raise ValidationError(f"{what} must be a 1-d index list")
    out = [_index(x, f"{what} entry") for x in values]
    try:
        return np.array(out, dtype=np.intp)
    except OverflowError:
        raise ValidationError(f"{what} has an entry too large for an index") from None


def _vertex(v, n: int) -> int:
    """A vertex index in range(n), by the integer rule of :func:`_index`."""
    i = _index(v)
    if not 0 <= i < n:
        raise ValidationError(f"vertex {i} out of range for n={n}")
    return i


def _killing_free(kappa, scale: float) -> np.ndarray:
    """Whether each killing weight or rate is zero up to RELTOL * scale."""
    return ~(np.asarray(kappa) > RELTOL * scale)


class _EdgeArrays(NamedTuple):
    """Edge endpoints and conductances as three arrays; see Network.from_arrays."""

    u: np.ndarray
    v: np.ndarray
    c: np.ndarray


def _columns(u, v, c) -> _EdgeArrays | None:
    """Arrays of three edge columns if the endpoints are all Python ints and
    the conductances all Python ints or floats, that numpy can take; else None."""
    if set(map(type, u)) | set(map(type, v)) == {int} and set(map(type, c)) <= {int, float}:
        with suppress(OverflowError):  # an endpoint beyond int64 or an int beyond the float range
            return _EdgeArrays(np.array(u, dtype=np.int64), np.array(v, dtype=np.int64), np.array(c, dtype=float))
    return None


def _parse_edges(edges, n: int) -> _EdgeArrays:
    """Arrays of an iterable of (u, v, c) triples: endpoints by the integer
    rule of :func:`_index`, conductances by the number rule of :func:`_real`.
    A list of 3-tuples of Python ints and floats is read a column at a time;
    other edges, or numbers numpy cannot take, go one by one to name the first bad edge."""
    if type(edges) is list and edges and set(map(type, edges)) == {tuple} and set(map(len, edges)) == {3}:
        if (columns := _columns(*zip(*edges))) is not None:
            return columns
    us, vs, cs = [], [], []
    for k, e in enumerate(edges):
        try:
            u, v, c = e
        except (TypeError, ValueError):
            raise ValidationError(f"edge #{k}: expected a (u, v, c) triple, got {e!r}") from None
        try:
            u, v, c = _index(u), _index(v), _real(c, "conductance")
        except ValidationError as err:
            raise ValidationError(f"edge #{k}: {err}") from None
        us.append(u)
        vs.append(v)
        cs.append(c)
    try:
        return _EdgeArrays(np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64), np.array(cs))
    except OverflowError:  # an endpoint beyond int64 is out of range
        k = next(k for k, (u, v) in enumerate(zip(us, vs)) if not (0 <= u < n and 0 <= v < n))
        raise ValidationError(f"edge #{k}: endpoint out of range (u={us[k]}, v={vs[k]}, n={n})") from None


def _check_edges(u: np.ndarray, v: np.ndarray, c: np.ndarray, n: int) -> _EdgeArrays:
    """Validate edge arrays in one vectorized pass; return them canonical.

    Canonical edges have u < v and ascend in the key u*n + v. The first bad
    edge in input order is reported, with the first rule it breaks: no
    self-loop, endpoints in range, a finite positive conductance, no repeated
    unordered pair (found from the sorted keys).
    """
    if not (u.dtype.kind in "iu" and v.dtype.kind in "iu"):
        raise ValidationError("edge endpoints must be integer arrays")
    if not (u.ndim == v.ndim == c.ndim == 1 and u.size == v.size == c.size):
        raise ValidationError("edge arrays must be 1-d and of one length")
    u, v, c = u.astype(np.int64, copy=False), v.astype(np.int64, copy=False), c.astype(float, copy=False)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * n + hi
    loop = u == v
    out = (lo < 0) | (hi >= n)
    weak = ~(c > 0.0) | ~np.isfinite(c)
    order = np.argsort(key, kind="stable")
    dup = np.zeros(key.size, dtype=bool)
    dup[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = loop | out | weak | dup
    if bad.any():
        k = int(np.argmax(bad))
        if loop[k]:
            raise ValidationError(f"edge #{k}: self-loop at vertex {int(u[k])} is not allowed")
        if out[k]:
            raise ValidationError(f"edge #{k}: endpoint out of range (u={int(u[k])}, v={int(v[k])}, n={n})")
        if weak[k]:
            raise ValidationError(
                f"edge #{k}: conductance {float(c[k])!r} must be finite and > 0 (u={int(u[k])}, v={int(v[k])})"
            )
        first = int(np.flatnonzero(key == key[k])[0])
        raise ValidationError(f"edge #{k}: duplicate edge ({int(lo[k])}, {int(hi[k])}), first seen as edge #{first}")
    edges = _EdgeArrays(lo[order], hi[order], c[order])  # fresh arrays, made read-only in place
    for a in edges:
        a.setflags(write=False)
    return edges


class Network:
    """Finite weighted graph with killing weights.

    Parameters
    ----------
    vertices : int or sequence
        Vertex labels, or a count (labels then default to ``0..n-1``).
        Labels are metadata only; all indexing is positional.
    edges : iterable of (u, v, c)
        Undirected edges with strictly positive conductance ``c``.
        Self-loops and duplicate unordered pairs are rejected.
    killing : sequence, optional
        Nonnegative killing weight per vertex; defaults to zeros.

    The edges are held as read-only arrays ``u < v`` and ``c``, ascending in
    (u, v); ``edges`` lists them as triples. :meth:`from_arrays` takes the
    three arrays directly.
    """

    __slots__ = ("vertices", "u", "v", "c", "killing")

    def __init__(self, vertices, edges=(), killing=None):
        if not isinstance(vertices, Iterable):  # then a count, by the integer rule
            vertices = range(_index(vertices, "vertices"))
        labels = tuple(vertices)
        n = len(labels)
        if n == 0:
            raise ValidationError("network must have at least one vertex")
        u, v, c = edges if isinstance(edges, _EdgeArrays) else _parse_edges(edges, n)
        u, v, c = _check_edges(np.asarray(u), np.asarray(v), _reals(c, "conductances"), n)

        if killing is None:
            kap = np.zeros(n)
        else:
            kap = _as_vector(killing, n, "killing")
            if (kap < 0).any():
                bad = int(np.flatnonzero(kap < 0)[0])
                raise ValidationError(f"killing[{bad}] = {kap[bad]} must be >= 0")

        object.__setattr__(self, "vertices", labels)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "killing", _readonly(kap + 0.0))  # -0.0 to 0.0, so equal networks hash equal

    @classmethod
    def from_arrays(cls, vertices, u, v, c, killing=None) -> "Network":
        """Network from integer endpoint arrays and a conductance array."""
        return cls(vertices, _EdgeArrays(u, v, c), killing)

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edges(self) -> tuple:
        """The edges as (u, v, c) triples of Python numbers, u < v, ascending."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.c.tolist()))

    def conductance_matrix(self) -> np.ndarray:
        """Dense symmetric conductance matrix with zero diagonal."""
        _check_dense((self.n, self.n), "a dense conductance matrix")
        C = np.zeros((self.n, self.n))
        C[self.u, self.v] = self.c
        C[self.v, self.u] = self.c
        return C

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and np.array_equal(self.u, other.u)
            and np.array_equal(self.v, other.v)
            and np.array_equal(self.c, other.c)
            and np.array_equal(self.killing, other.killing)
        )

    def __hash__(self):
        return hash((self.vertices, self.u.tobytes(), self.v.tobytes(), self.c.tobytes(), self.killing.tobytes()))

    def __repr__(self):
        return f"Network(n={self.n}, edges={self.c.size}, total_killing={float(np.sum(self.killing))})"

    def to_dict(self) -> dict:
        """JSON-ready dict: vertices, 0-based edges, killing."""
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": u, "v": v, "c": c} for u, v, c in self.edges],
            "killing": self.killing.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        """Network from its JSON object; its numbers pass the same rules as
        the constructor's, so JSON booleans and strings are not numbers."""
        _json_object(d, "network", "vertices", "edges")
        labels = tuple(map(_label, d["vertices"]))
        edges = d["edges"]
        if type(edges) is list and edges and set(map(type, edges)) == {dict}:
            # a column at a time, with no tuple per edge: the garbage collector
            # would walk every object of a large loaded file for them
            with suppress(KeyError):  # an edge without one of the keys goes to the loop, which names it
                if (columns := _columns(*([e[key] for e in edges] for key in "uvc"))) is not None:
                    return cls(labels, columns, d.get("killing"))
        edges = []
        for k, e in enumerate(d["edges"]):
            if not isinstance(e, dict) or not {"u", "v", "c"} <= set(e):
                raise ValidationError(f"edge #{k}: expected an object with keys u, v, c")
            edges.append((e["u"], e["v"], e["c"]))
        return cls(labels, edges, d.get("killing"))


def _label(x):
    """A vertex label from JSON: lists, at any depth, become tuples, as
    ``to_dict`` wrote them."""
    return tuple(map(_label, x)) if isinstance(x, list) else x


def _csr(indptr, indices, data, shape) -> csr_array:
    """The package's one CSR builder: a read-only matrix over canonical arrays
    the package built itself (rows ascending, columns ascending within each
    row, no repeats, no stored zeros; float64 data, and both index arrays of
    one dtype, int32 or int64). It sets the attributes scipy's constructor
    sets, without its format check and without a copy, so the arrays become
    the matrix's own: hand it only arrays the package made, never a caller's."""
    M = csr_array.__new__(csr_array)
    M._shape, M.maxprint = shape, MAXPRINT
    M.indptr, M.indices, M.data = indptr, indices, data
    M.has_canonical_format = True
    for a in (M.data, M.indices, M.indptr):
        a.setflags(write=False)
    return M


def _csr_from_entries(rows, cols, vals, shape) -> csr_array:
    """CSR matrix of entries already in row-major order; zeros are dropped."""
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
    return _csr(indptr, cols.astype(np.int64, copy=False), vals.astype(float, copy=False), shape)


def _dense_entries(m: np.ndarray):
    """Row indices, column indices and values of the nonzero entries of a dense 2-d array, row-major,
    from one pass over it; all three C-contiguous, as ``connected_components`` needs the columns."""
    m = np.ascontiguousarray(m)
    k = np.flatnonzero(m)
    i, j = np.divmod(k, m.shape[1])
    return i, j, m.ravel()[k]


def _csr_from_dense(m: np.ndarray, entries=None) -> csr_array:
    """CSR matrix of the nonzero entries of a dense 2-d array: of the entries
    :func:`_dense_entries` reads off it, or has already read (``entries``)."""
    i, j, a = _dense_entries(m) if entries is None else entries
    return _csr(np.searchsorted(i, np.arange(m.shape[0] + 1)), j, a, m.shape)


def _distinct(a: np.ndarray) -> np.ndarray:
    """``np.unique(a)`` of integers by one sort, without numpy's slower hash table."""
    s = np.sort(a, axis=None)
    return s[np.concatenate([s[:1] == s[:1], s[1:] != s[:-1]])]  # the first of each run, none if empty


def _entries(A):
    """Row indices, column indices and values of the nonzero entries of a
    form or of a canonical CSR matrix, row-major. A form reads them once, off
    its CSR matrix when it has one, else off its dense array with no CSR
    matrix built, and keeps them read-only."""
    if isinstance(A, FormMatrix):
        return A._memo("entries", _stored_entries)
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)), A.indices, A.data


def _stored_entries(A: "FormMatrix"):
    """The nonzero entries of a form, as :func:`_entries` gives them."""
    return _dense_entries(A._dense) if A._sparse is None else _entries(A._sparse)


def _symmetric(matrix, what: str) -> csr_array:
    """A nonempty square matrix of real numbers, given dense or as any scipy
    sparse matrix, that is finite and exactly symmetric, as a canonical
    read-only CSR copy: the one check of every matrix that enters from
    outside (a form or a jump kernel), each error naming the first bad entry
    in row-major order."""
    M = matrix if issparse(matrix) else _reals(matrix, what)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise ValidationError(f"{what} must be square and nonempty, got shape {M.shape}")
    if M.dtype.kind not in "fiu":  # a sparse matrix passes the number rule as a whole
        raise ValidationError(f"{what} must hold real numbers, got dtype {M.dtype}")
    M = csr_array(M, dtype=float, copy=True)
    M.sum_duplicates()
    M.eliminate_zeros()
    i, j, v = _entries(M)
    if not np.isfinite(v).all():
        x = np.argmax(~np.isfinite(v))
        raise ValidationError(f"{what} entry ({i[x]},{j[x]}) = {float(v[x])!r} is not finite")
    T = M.tocsc()  # the CSR arrays of the transpose
    if not all(map(np.array_equal, (M.indptr, M.indices, M.data), (T.indptr, T.indices, T.data))):
        D = (M - M.T).tocoo()
        D.eliminate_zeros()
        x = np.lexsort((D.col, D.row))[0]
        i, j = int(D.row[x]), int(D.col[x])
        raise ValidationError(f"{what} is not symmetric at ({i},{j}): {float(M[i, j])!r} != {float(M[j, i])!r}")
    return _csr(M.indptr, M.indices, M.data, M.shape)


def _check_finite(m) -> None:
    """Raise ValidationError, naming the first row that has one, if a dense
    or CSR form matrix has a non-finite entry."""
    values = m.data if issparse(m) else m
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))[0]  # row-major, as the CSR entries are
        row = np.searchsorted(m.indptr, bad, side="right") - 1 if issparse(m) else bad // m.shape[1]
        raise ValidationError(f"form matrix contains non-finite entries, the first in row {int(row)}")


class FormMatrix:
    """Symmetric matrix realizing a bilinear form f^T A g.

    The public constructor takes a dense array-like or any scipy sparse
    matrix, checks a copy of it by the package's one check of a matrix from
    outside (a nonempty square shape of real numbers, finiteness and exact
    symmetry) and holds it as a canonical read-only CSR matrix ``csr``; zeros,
    signed or not, are dropped. Whether the matrix additionally satisfies the
    Markov sign conditions is checked separately by :func:`is_markov`. The
    dense view ``matrix`` is derived on first read, after checking it against
    ``DENSE_BYTES_MAX``. The matrix-vector products of the cross-checks in
    ``energy_measure`` and ``transfer_form`` read the dense view at most
    ``DENSE_N_MAX`` vertices and the CSR matrix above.

    A form derives each of its invariants at most once, on first use, and
    keeps it: the CSR matrix and the dense view, and in one memo table its
    nonzero entries, its magnitude, its :func:`killing_vector`, the component
    labels behind :func:`components` and the :func:`is_markov` report at the
    default tolerance; the arrays among them are read-only. The forms the
    package builds itself (:func:`assemble`, ``recompose``, ``trace``,
    ``transfer_form``) are symmetric and canonical by construction; they skip
    the symmetry and canonical-form checks and the copy, and keep only the
    finiteness check, since sums of finite entries can overflow. Only they
    can be held as a dense array, whose nonzero entries are read off in one
    pass and wrapped as the CSR matrix on first sparse use. Every CSR matrix
    the package makes, theirs and the copy this constructor checks, comes
    from the one trusted builder ``_csr``, which skips scipy's format check
    and never receives a caller's arrays.
    """

    __slots__ = ("_dense", "_sparse", "_memos")

    def __init__(self, matrix):
        self.__post_init__(matrix)

    def __post_init__(self, matrix):
        """Check and store the matrix: the validation every form built through
        the public constructor pays, kept apart from ``__init__`` so that a
        profiler can time it on its own (``perfbench/spans.py`` wraps it)."""
        self._store(None, _symmetric(matrix, "form matrix"))

    @classmethod
    def _trusted(cls, matrix) -> "FormMatrix":
        """The form of a square float64 matrix that is exactly symmetric by
        construction: an array the caller hands over, or a canonical
        read-only CSR matrix. Only the finiteness check runs."""
        _check_finite(matrix)
        form = object.__new__(cls)
        if issparse(matrix):
            form._store(None, matrix)
        else:
            matrix.setflags(write=False)
            form._store(matrix, None)
        return form

    def _store(self, dense, sparse) -> None:
        """Set the stored matrices; the memo table starts empty."""
        object.__setattr__(self, "_dense", dense)
        object.__setattr__(self, "_sparse", sparse)
        object.__setattr__(self, "_memos", {})

    def _memo(self, key: str, derive):
        """The invariant ``key``: ``derive(self)`` on first use, then the kept
        value. An array, alone or in a tuple, is kept read-only."""
        memos = self._memos
        if key not in memos:
            value = derive(self)
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
            memos[key] = value
        return memos[key]

    def __setattr__(self, name, value):
        raise AttributeError("FormMatrix is immutable")

    @property
    def n(self) -> int:
        return (self._dense if self._dense is not None else self._sparse).shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n view, read-only; raises ValidationError above DENSE_BYTES_MAX."""
        if self._dense is None:
            _check_dense((self.n, self.n), "a dense form matrix")
            object.__setattr__(self, "_dense", _readonly(self._sparse.toarray()))
        return self._dense

    @property
    def csr(self) -> csr_array:
        """The CSR matrix: canonical (sorted, no stored zeros) and read-only."""
        if self._sparse is None:
            object.__setattr__(self, "_sparse", _csr_from_dense(self._dense, _entries(self)))
        return self._sparse

    def __repr__(self):
        return f"FormMatrix(n={self.n})"


@dataclass(frozen=True, eq=False)
class MarkovReport:
    """Result of a Markov-property check; truthy iff the check passed."""

    ok: bool
    violations: tuple
    tol: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    """Nonnegative weights on an enumerated finite point set."""

    weights: np.ndarray
    total: float = field(init=False)

    def __post_init__(self):
        w = _reals(self.weights, "weights")
        if w.ndim != 1:
            raise ValidationError(f"measure weights must be a 1-d vector, got shape {w.shape}")
        if not np.isfinite(w).all():
            raise ValidationError("measure weights contain non-finite entries")
        if (w < 0).any():
            bad = int(np.flatnonzero(w < 0)[0])
            raise ValidationError(f"weight[{bad}] = {w[bad]} must be >= 0")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "total", float(np.sum(w)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def everywhere_positive(self) -> bool:
        return bool((self.weights > 0).all())


def assemble(net: Network) -> FormMatrix:
    """Assemble the form matrix of a network.

    Off-diagonal entries are the negated conductances; the diagonal is the
    conductance row sum plus the killing weight (see :func:`_laplacian`).
    """
    return _laplacian(net.u, net.v, net.c, net.killing)


def _laplacian(u, v, c, kappa) -> FormMatrix:
    """Form matrix of conductances c on the canonical upper triangle u < v and killing kappa. Row x's
    diagonal is its conductances summed from 0.0 in ascending column order, as :func:`killing_vector`
    sums the row, plus kappa_x, so a killing-free network's killing reads exactly 0. At most
    ``DENSE_N_MAX`` vertices the form is one dense array; above, CSR arrays at counted positions in
    O(|E|), row x the edges (u, x), diagonal, edges (x, v)."""
    n = kappa.shape[0]
    with np.errstate(over="ignore"):  # an overflowing row sum is left to the finiteness check
        diag = np.bincount(np.concatenate([v, u]), np.concatenate([c, c]), minlength=n) + kappa
    if n <= DENSE_N_MAX:
        A = np.zeros((n, n))
        A[u, v] = A[v, u] = -c
        np.fill_diagonal(A, diag)
        return FormMatrix._trusted(A)
    x = np.arange(n + 1)
    upper = np.searchsorted(u, x)  # upper entries in the rows before x
    lower = np.cumsum(np.bincount(v, minlength=n))  # lower entries in the rows up to x
    at = lower + upper[:-1] + x[:-1]  # the diagonal, after its row's lower triangle
    order = np.argsort(v, kind="stable")  # the lower entries by row, each row ascending in u
    low, up = np.arange(u.size) + (upper + x)[v[order]], np.arange(u.size) + (lower + x[1:])[u]
    indices, data = np.empty(2 * u.size + n, dtype=np.int64), np.empty(2 * u.size + n)
    indices[low], indices[at], indices[up] = u[order], x[:-1], v
    data[low], data[at], data[up] = -c[order], diag, -c
    indptr = np.concatenate([[0], lower + upper[1:] + np.cumsum(diag != 0.0)])
    if not diag.all():  # an isolated vertex without killing stores no diagonal; no -c is 0
        indices, data = indices[data != 0.0], data[data != 0.0]
    return FormMatrix._trusted(_csr(indptr, indices, data, (n, n)))


def evaluate(A: FormMatrix, f, g=None) -> float:
    """Evaluate the bilinear form f^T A g (g defaults to f)."""
    fv = _as_vector(f, A.n, "f")
    gv = fv if g is None else _as_vector(g, A.n, "g")
    return float(fv @ (A.csr @ gv))


def _check_product(A: FormMatrix, x: np.ndarray) -> np.ndarray:
    """The product A x of a cross-check that feeds only a tolerance test: on
    the dense array at most ``DENSE_N_MAX`` vertices, else on the CSR matrix.
    The gate is the size, not a cached dense view, so a large form keeps its
    O(|E|) product after its ``matrix`` was read."""
    return (A.matrix if A.n <= DENSE_N_MAX else A.csr) @ x


def unit_contraction(u) -> np.ndarray:
    """Clamp a function to [0, 1] componentwise."""
    return np.clip(_reals(u, "u"), 0.0, 1.0)


def truncate_one(u) -> np.ndarray:
    """Truncate a function at 1 componentwise (Stone operation u ∧ 1)."""
    return np.minimum(_reals(u, "u"), 1.0)


def is_markov(A: FormMatrix, tol: float | None = None) -> MarkovReport:
    """Check the Markov sign conditions: off-diagonals <= tol, row sums >= -tol.

    ``tol`` defaults to ``RELTOL * max(1, max|A|)``; a given one must be finite
    and nonnegative. Returns a report listing every violation; the report is
    truthy iff there are none. The report at the default tolerance is kept
    on the form, so a form is checked once however often it is asked.
    """
    if tol is not None:
        return _markov(A, _tolerance(tol))
    return A._memo("markov", lambda A: _markov(A, RELTOL * _scale(A)))


def _markov(A: FormMatrix, tol: float) -> MarkovReport:
    """The Markov check of :func:`is_markov` at a given tolerance."""
    i, j, a = _entries(A)
    bad = (a > tol) & (i != j)
    violations = [
        f"off-diagonal ({x},{y}) = {v!r} exceeds tolerance {tol!r}"
        for x, y, v in zip(i[bad].tolist(), j[bad].tolist(), a[bad].tolist())
    ] if bad.any() else []
    rows = killing_vector(A)
    for x in np.flatnonzero(rows < -tol):
        violations.append(f"row {x} sum = {float(rows[x])!r} is below -{tol!r}")
    return MarkovReport(ok=not violations, violations=tuple(violations), tol=tol)


def _require_markov(A: FormMatrix) -> None:
    """Raise a validation error citing the first violated sign condition."""
    report = is_markov(A)
    if not report:
        raise ValidationError(f"matrix is not Markov: {report.violations[0]}")


def conductance_matrix(A: FormMatrix) -> np.ndarray:
    """Recover the conductance matrix (negated off-diagonal part) of a form."""
    C = -A.matrix
    np.fill_diagonal(C, 0.0)
    return C


def killing_vector(A: FormMatrix) -> np.ndarray:
    """Row sums of the form matrix, at every size its diagonal plus its
    off-diagonal entries summed in ascending column order, read off its
    stored entries; they equal the killing weights up to rounding, and are
    exactly 0 on the form of a network without killing, whose diagonal
    :func:`assemble` sums in that order. The form sums them once and every
    call returns that one read-only array: copy it before editing it in place.
    """
    return A._memo("killing", _form_row_sums)


def _form_row_sums(A: FormMatrix) -> np.ndarray:
    """The row sums of :func:`killing_vector`."""
    i, j, a = _entries(A)
    off = i != j
    return np.bincount(i[~off], a[~off], minlength=A.n) + np.bincount(i[off], a[off], minlength=A.n)


def _labels(support, symmetric: bool = False) -> np.ndarray:
    """Component label per vertex of a form or of a square dense or sparse
    support array, numbered by smallest vertex: the package's one partition
    representation. A form computes its labels once and keeps them read-only.

    A symmetric support (every form's, and any the caller passes as
    ``symmetric``) takes scipy's strong-component path: there the strong
    components are the components, found without building the transpose."""
    if isinstance(support, FormMatrix):
        return support._memo("labels", lambda A: _labels(A.csr, symmetric=True))
    if symmetric:
        return connected_components(support, directed=True, connection="strong")[1]
    return connected_components(csr_array(support), directed=False)[1]


def _groups(labels) -> list[np.ndarray]:
    """Ascending member arrays of the labels 0, 1, ..., in label order: slices
    of one stable sort."""
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [order[a:b] for a, b in zip([0, *ends], ends)]


def components(A) -> list[np.ndarray]:
    """Connected components of the support graph (nonzero off-diagonals).

    ``A`` is a form matrix or any square array with the same support, such as
    a conductance matrix. Each component is ascending, and the components are
    ordered by their smallest vertex.
    """
    return _groups(_labels(A))


def _matrix_csv(m: np.ndarray) -> str:
    """Row-major CSV of a matrix, 17 significant digits (round-trippable)."""
    return "\n".join(",".join(format(x, ".17g") for x in row) for row in m) + "\n"


def form_to_csv(A: FormMatrix) -> str:
    """Row-major CSV of the full symmetric matrix, 17 significant digits."""
    return _matrix_csv(A.matrix)
