"""Finite symmetric Dirichlet forms on weighted networks.

A network is a finite weighted graph with nonnegative per-vertex killing
weights. Its form matrix is the graph Laplacian plus the diagonal killing
matrix, so that

    E(f, g) = f^T A g
            = sum_{x<y} c_xy (f(x) - f(y)) (g(x) - g(y)) + sum_x kappa_x f(x) g(x).

Functions on the vertex set are plain 1-d numpy arrays indexed by the vertex
order of the owning network. All container types are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array
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

#: Largest dense n x n float64 array assemble allocates (1 GiB: n <= 11,585).
DENSE_BYTES_MAX = 2**30


def _scale(m) -> float:
    """Magnitude max(1, max|m|) that relative tolerances multiply."""
    return max(1.0, float(np.max(np.abs(m))))


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_object(d, what: str, *keys: str) -> None:
    """Check that a JSON value is an object whose ``keys`` hold lists."""
    if not isinstance(d, dict) or not set(keys) <= set(d):
        raise ValidationError(f"{what} JSON must be an object with {' and '.join(map(repr, keys))}")
    for key in keys:
        if not isinstance(d[key], list):
            raise ValidationError(f"{what} '{key}' must be a list, got {d[key]!r}")


def _json_numbers(values, what: str, integers: bool = False) -> np.ndarray:
    """A JSON list of numbers (of integers with ``integers``) as an array.

    JSON booleans are not numbers here, so no value is silently coerced.
    """
    if not isinstance(values, list):
        raise ValidationError(f"{what} must be a list, got {values!r}")
    for i, x in enumerate(values):
        if not (_is_int(x) if integers else _is_number(x)):
            kind = "an integer" if integers else "a number"
            raise ValidationError(f"{what}, entry {i}: expected {kind}, got {x!r}")
    try:
        return np.asarray(values, dtype=int if integers else float)
    except OverflowError:
        raise ValidationError(f"{what} has an entry too large for {'an index' if integers else 'a float'}") from None


def _as_vector(values, n: int, what: str) -> np.ndarray:
    """A finite function on n vertices; every vertex function enters here."""
    try:
        v = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValidationError(f"{what} has an entry too large for a float") from None
    if v.shape != (n,):
        raise ValidationError(f"{what} must be a vector of length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
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


def _vertex(v, n: int) -> int:
    """A vertex index in range(n), by the integer rule of :func:`_index`."""
    i = _index(v)
    if not 0 <= i < n:
        raise ValidationError(f"vertex {i} out of range for n={n}")
    return i


def _killing_free(kappa, scale: float) -> np.ndarray:
    """Whether each killing weight or rate is zero up to RELTOL * scale."""
    return ~(np.asarray(kappa) > RELTOL * scale)


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
    """

    __slots__ = ("vertices", "edges", "killing")

    def __init__(self, vertices, edges=(), killing=None):
        if isinstance(vertices, (int, np.integer)):
            labels = tuple(range(int(vertices)))
        else:
            labels = tuple(vertices)
        n = len(labels)
        if n == 0:
            raise ValidationError("network must have at least one vertex")

        canon = []
        seen = {}
        for k, e in enumerate(edges):
            try:
                u, v, c = e
            except (TypeError, ValueError):
                raise ValidationError(f"edge #{k}: expected a (u, v, c) triple, got {e!r}") from None
            try:
                u, v = _index(u), _index(v)
            except ValidationError as err:
                raise ValidationError(f"edge #{k}: {err}") from None
            if u == v:
                raise ValidationError(f"edge #{k}: self-loop at vertex {u} is not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge #{k}: endpoint out of range (u={u}, v={v}, n={n})")
            try:
                c = float(c)
            except OverflowError:
                raise ValidationError(f"edge #{k}: conductance is too large for a float (u={u}, v={v})") from None
            if not np.isfinite(c) or c <= 0.0:
                raise ValidationError(f"edge #{k}: conductance {c!r} must be finite and > 0 (u={u}, v={v})")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise ValidationError(f"edge #{k}: duplicate edge ({u}, {v}), first seen as edge #{seen[(u, v)]}")
            seen[(u, v)] = k
            canon.append((u, v, c))
        canon.sort(key=lambda t: (t[0], t[1]))

        if killing is None:
            kap = np.zeros(n)
        else:
            kap = _as_vector(killing, n, "killing")
            if np.any(kap < 0):
                bad = int(np.flatnonzero(kap < 0)[0])
                raise ValidationError(f"killing[{bad}] = {kap[bad]} must be >= 0")

        object.__setattr__(self, "vertices", labels)
        object.__setattr__(self, "edges", tuple(canon))
        object.__setattr__(self, "killing", _readonly(kap))

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def conductance_matrix(self) -> np.ndarray:
        """Dense symmetric conductance matrix with zero diagonal."""
        C = np.zeros((self.n, self.n))
        for u, v, c in self.edges:
            C[u, v] = c
            C[v, u] = c
        return C

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and np.array_equal(self.killing, other.killing)
        )

    def __hash__(self):
        return hash((self.vertices, self.edges, self.killing.tobytes()))

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self.edges)}, total_killing={float(np.sum(self.killing))})"

    def to_dict(self) -> dict:
        """JSON-ready dict: vertices, 0-based edges, killing."""
        return {
            "vertices": list(self.vertices),
            "edges": [{"u": u, "v": v, "c": c} for u, v, c in self.edges],
            "killing": [float(k) for k in self.killing],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Network":
        """Network from its JSON object, with every field type-checked.

        JSON booleans are not numbers here, and vertex indices must be
        integers, so no value is silently coerced.
        """
        _json_object(d, "network", "vertices", "edges")
        labels = tuple(tuple(x) if isinstance(x, list) else x for x in d["vertices"])
        edges = []
        for k, e in enumerate(d["edges"]):
            if not isinstance(e, dict) or not {"u", "v", "c"} <= set(e):
                raise ValidationError(f"edge #{k}: expected an object with keys u, v, c")
            for key in ("u", "v"):
                if not _is_int(e[key]):
                    raise ValidationError(f"edge #{k}: {key} must be an integer vertex index, got {e[key]!r}")
            if not _is_number(e["c"]):
                raise ValidationError(f"edge #{k}: conductance c must be a number, got {e['c']!r}")
            edges.append((e["u"], e["v"], e["c"]))
        killing = d.get("killing")
        if killing is not None:
            killing = _json_numbers(killing, "network 'killing'")
        return cls(labels, edges, killing)


@dataclass(frozen=True, eq=False)
class FormMatrix:
    """Dense symmetric matrix realizing a bilinear form f^T A g.

    Construction enforces exact symmetry and finiteness; whether the matrix
    additionally satisfies the Markov sign conditions is checked separately
    by :func:`is_markov`.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"form matrix must be square, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("form matrix contains non-finite entries")
        if not np.array_equal(m, m.T):
            i, j = np.argwhere(m != m.T)[0]
            raise ValidationError(
                f"form matrix is not symmetric: A[{i},{j}]={float(m[i, j])!r} != A[{j},{i}]={float(m[j, i])!r}"
            )
        object.__setattr__(self, "matrix", _readonly(m))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

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
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise ValidationError(f"measure weights must be a 1-d vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("measure weights contain non-finite entries")
        if np.any(w < 0):
            bad = int(np.flatnonzero(w < 0)[0])
            raise ValidationError(f"weight[{bad}] = {w[bad]} must be >= 0")
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "total", float(np.sum(w)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    @property
    def everywhere_positive(self) -> bool:
        return bool(np.all(self.weights > 0))


def assemble(net: Network) -> FormMatrix:
    """Assemble the form matrix of a network.

    Off-diagonal entries are the negated conductances; the diagonal is the
    conductance row sum plus the killing weight. A network whose dense
    matrix would exceed ``DENSE_BYTES_MAX`` raises ValidationError.
    """
    nbytes = 8 * net.n * net.n
    if nbytes > DENSE_BYTES_MAX:
        raise ValidationError(
            f"a dense form matrix on {net.n} vertices needs {nbytes} bytes, "
            f"above the size guard of {DENSE_BYTES_MAX} bytes"
        )
    return _laplacian(net.conductance_matrix(), net.killing)


def _laplacian(C: np.ndarray, kappa) -> FormMatrix:
    """Form matrix of conductances C and killing kappa, for assemble and recompose."""
    A = -C + 0.0  # adding 0.0 normalizes -0.0 entries
    idx = np.arange(C.shape[0])
    A[idx, idx] = np.sum(C, axis=1) + kappa
    return FormMatrix(A)


def evaluate(A: FormMatrix, f, g=None) -> float:
    """Evaluate the bilinear form f^T A g (g defaults to f)."""
    fv = _as_vector(f, A.n, "f")
    gv = fv if g is None else _as_vector(g, A.n, "g")
    return float(fv @ A.matrix @ gv)


def unit_contraction(u) -> np.ndarray:
    """Clamp a function to [0, 1] componentwise."""
    return np.clip(np.asarray(u, dtype=float), 0.0, 1.0)


def truncate_one(u) -> np.ndarray:
    """Truncate a function at 1 componentwise (Stone operation u ∧ 1)."""
    return np.minimum(np.asarray(u, dtype=float), 1.0)


def is_markov(A: FormMatrix, tol: float | None = None) -> MarkovReport:
    """Check the Markov sign conditions: off-diagonals <= tol, row sums >= -tol.

    ``tol`` defaults to ``RELTOL * max(1, max|A|)``. Returns a report listing every
    violation; the report is truthy iff there are none.
    """
    m = A.matrix
    if tol is None:
        tol = RELTOL * _scale(m) if m.size else 0.0
    tol = float(tol)
    violations = []
    off = m.copy()
    np.fill_diagonal(off, 0.0)
    for i, j in np.argwhere(off > tol):
        violations.append(f"off-diagonal ({i},{j}) = {float(m[i, j])!r} exceeds tolerance {tol!r}")
    rows = np.sum(m, axis=1)
    for i in np.flatnonzero(rows < -tol):
        violations.append(f"row {i} sum = {float(rows[i])!r} is below -{tol!r}")
    return MarkovReport(ok=not violations, violations=tuple(violations), tol=tol)


def _require_markov(A: FormMatrix) -> None:
    """Raise a validation error citing the first violated sign condition."""
    report = is_markov(A)
    if not report:
        raise ValidationError(f"matrix is not Markov: {report.violations[0]}")


def conductance_matrix(A: FormMatrix) -> np.ndarray:
    """Recover the conductance matrix (negated off-diagonal part) of a form."""
    C = -A.matrix
    C = C.copy()
    np.fill_diagonal(C, 0.0)
    return C


def killing_vector(A: FormMatrix) -> np.ndarray:
    """Row sums of the form matrix; equals the killing weights up to rounding."""
    return np.sum(A.matrix, axis=1)


def _labels(support) -> np.ndarray:
    """Component label per vertex of a square dense or sparse support array,
    numbered by smallest vertex: the package's one partition representation."""
    return connected_components(csr_array(support), directed=False)[1]


def _groups(labels) -> list[np.ndarray]:
    """Ascending member arrays of the labels 0, 1, ..., in label order."""
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels)))[:-1]


def components(A) -> list[np.ndarray]:
    """Connected components of the support graph (nonzero off-diagonals).

    ``A`` is a form matrix or any square array with the same support, such as
    a conductance matrix. Each component is ascending, and the components are
    ordered by their smallest vertex.
    """
    return _groups(_labels(A.matrix if isinstance(A, FormMatrix) else A))


def _matrix_csv(m: np.ndarray) -> str:
    """Row-major CSV of a matrix, 17 significant digits (round-trippable)."""
    return "\n".join(",".join(format(x, ".17g") for x in row) for row in m) + "\n"


def form_to_csv(A: FormMatrix) -> str:
    """Row-major CSV of the full symmetric matrix, 17 significant digits."""
    return _matrix_csv(A.matrix)
