"""Point embeddings by finite function algebras, quotients, and pushforwards.

A finite list of bounded generator functions embeds each point as its tuple of
generator values. Points with identical tuples collapse to one equivalence
class; measures push forward by summing atom weights over classes, and the
embedding is an L2-isometry onto the quotient. When the generators separate
points the embedding is injective and everything is a relabeling.

Equality of generator tuples is exact by default. A tolerance can be supplied
explicitly, but silent tolerance merging would change the quotient, so it is
off unless asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array

from .errors import DescentError, NotInAlgebraError, ValidationError
from .network import RELTOL, AtomicMeasure, FormMatrix
from .network import _as_vector, _check_dense, _entries, _groups, _labels, _readonly, _real, _reals, _scale

__all__ = [
    "AlgebraSpec",
    "EmbeddingResult",
    "PushforwardMeasure",
    "VanishingReport",
    "ClosureEstimate",
    "embed",
    "vanishes_nowhere",
    "pushforward",
    "l2_isometry_check",
    "transfer_form",
    "quotient_function",
    "lift_function",
    "spectrum_closure_estimate",
]

#: Flagging threshold for the closure diagnostic: a net point is a candidate
#: compactification point when at least this many images fall within epsilon
#: of it and no single image covers them all within epsilon/2.
LIMIT_POINT_MIN_IMAGES = 10

#: Entries of the block x points x generators difference array that the
#: tolerance path of :func:`embed` holds at a time.
_PAIR_BUDGET = 1 << 20


@dataclass(frozen=True, eq=False)
class AlgebraSpec:
    """Finite point list plus generator functions given as value vectors."""

    points: tuple
    generators: np.ndarray

    def __init__(self, points, generators):
        pts = tuple(points)
        if len(pts) == 0:
            raise ValidationError("algebra spec needs at least one point")
        G = _reals(generators, "generators")
        if G.ndim != 2:
            raise ValidationError("generators must be a 2-d array (one row per generator)")
        if G.shape[0] == 0:
            raise ValidationError("algebra spec needs at least one generator")
        if G.shape[1] != len(pts):
            raise ValidationError(
                f"each generator must have one value per point ({len(pts)}), got {G.shape[1]}"
            )
        if not np.all(np.isfinite(G)):
            i, j = np.argwhere(~np.isfinite(G))[0]
            raise ValidationError(f"generator {i} has a non-finite value at point {j}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "generators", _readonly(G))

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_generators(self) -> int:
        return self.generators.shape[0]


@dataclass(frozen=True, eq=False)
class EmbeddingResult:
    """Images in R^k plus the partition into classes of equal image."""

    images: np.ndarray
    classes: tuple
    separated: bool
    class_of: np.ndarray

    @property
    def n_points(self) -> int:
        return self.images.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def representatives(self) -> np.ndarray:
        return np.unique(self.class_of, return_index=True)[1]


@dataclass(frozen=True, eq=False)
class VanishingReport:
    ok: bool
    witnesses: tuple

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class PushforwardMeasure:
    """Atom per equivalence class; total mass is preserved exactly.

    ``total`` is computed as the same fixed-order sum over the original point
    weights that :class:`AtomicMeasure` caches, so it equals the source total
    bit-for-bit.
    """

    atoms: np.ndarray
    total: float

    def __post_init__(self):
        object.__setattr__(self, "atoms", _readonly(_reals(self.atoms, "atoms")))

    @property
    def n_classes(self) -> int:
        return self.atoms.shape[0]


def embed(spec: AlgebraSpec, tol: float = 0.0) -> EmbeddingResult:
    """Map each point to its tuple of generator values and group equal images.

    With ``tol > 0`` the classes are the transitive closure of "images differ
    by at most ``tol`` in sup norm"; the default is exact equality. Either way
    classes are numbered in the order of their smallest member.
    """
    images = spec.generators.T.copy()
    tol = _real(tol, "tolerance")
    if not tol >= 0:  # also rejects nan
        raise ValidationError(f"tolerance must be >= 0, got {tol!r}")
    if tol == 0.0:
        # one key per image: the bytes of its row, with -0.0 made 0.0 so that
        # bytes are equal exactly when the (finite) values are
        rows = images + 0.0
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
        first: dict = {}
        class_of = np.array([first.setdefault(key, len(first)) for key in keys], dtype=int)
    else:
        # merge each block's within-tol pairs into the running labels; the
        # label graph numbers merged classes by smallest label, so by smallest member
        class_of = np.arange(spec.n_points)
        rows = max(1, _PAIR_BUDGET // images.size)
        for s in range(0, spec.n_points, rows):
            near = np.max(np.abs(images[s : s + rows, None, :] - images[None, s:, :]), axis=2) <= tol
            i, j = np.nonzero(near)
            m = int(class_of.max()) + 1
            pairs = coo_array((np.ones(i.size), (class_of[i + s], class_of[j + s])), shape=(m, m))
            class_of = _labels(pairs)[class_of].astype(int)
    class_of.setflags(write=False)
    classes = tuple(tuple(c.tolist()) for c in _groups(class_of))
    return EmbeddingResult(
        images=_readonly(images),
        classes=classes,
        separated=len(classes) == spec.n_points,
        class_of=class_of,
    )


def vanishes_nowhere(spec: AlgebraSpec) -> VanishingReport:
    """True iff every point has some generator with a nonzero value there."""
    nonzero = np.any(spec.generators != 0.0, axis=0)
    witnesses = tuple(int(i) for i in np.flatnonzero(~nonzero))
    return VanishingReport(ok=not witnesses, witnesses=witnesses)


def pushforward(mu: AtomicMeasure, emb: EmbeddingResult) -> PushforwardMeasure:
    """Sum atom weights over equivalence classes; total mass is preserved."""
    if mu.n != emb.n_points:
        raise ValidationError(
            f"measure has {mu.n} atoms but the embedding has {emb.n_points} points"
        )
    atoms = np.bincount(emb.class_of, mu.weights, minlength=emb.n_classes)
    return PushforwardMeasure(atoms=atoms, total=float(np.sum(mu.weights)))


def quotient_function(f, emb: EmbeddingResult) -> np.ndarray:
    """Values of a class-constant function on the quotient (one per class)."""
    fv = _as_vector(f, emb.n_points, "f")
    fhat = fv[emb.representatives()]
    faulty = emb.class_of[fv != fhat[emb.class_of]]
    if faulty.size:
        ci = int(np.min(faulty))
        raise NotInAlgebraError(
            f"f is not constant on class {ci} (points {emb.classes[ci]}); "
            "it does not define a function on the quotient"
        )
    return fhat


def lift_function(fhat, emb: EmbeddingResult) -> np.ndarray:
    """Pull a function on classes back to a class-constant function on points."""
    return _as_vector(fhat, emb.n_classes, "fhat")[emb.class_of]


def l2_isometry_check(f, mu: AtomicMeasure, emb: EmbeddingResult) -> tuple[float, float, float]:
    """L2 norms of a class-constant function upstairs and on the quotient.

    Returns (lhs, rhs, |lhs - rhs|); the two sides agree to rounding, and
    exactly when the embedding is separated.
    """
    if mu.n != emb.n_points:
        raise ValidationError("measure and embedding sizes differ")
    fv = _as_vector(f, emb.n_points, "f")
    fhat = quotient_function(fv, emb)
    push = pushforward(mu, emb)
    lhs = float(np.sqrt(np.sum(fv * fv * mu.weights)))
    rhs = float(np.sqrt(np.sum(fhat * fhat * push.atoms)))
    return lhs, rhs, abs(lhs - rhs)


def transfer_form(A: FormMatrix, emb: EmbeddingResult) -> FormMatrix:
    """Quotient form matrix: block sums of A over the class partition.

    The quotient matrix satisfies E(f, g) = E_hat(fhat, ghat) for all
    class-constant f, g. The identity is re-verified on random class-constant
    probe pairs; a failure (which cannot occur for exact block sums, short of
    numerical breakdown) raises a descent error naming a witness pair.
    """
    if A.n != emb.n_points:
        raise ValidationError(f"form has {A.n} vertices but the embedding has {emb.n_points} points")
    m = emb.n_classes
    k = emb.class_of
    _check_dense((m, m), "a dense quotient form")
    i, j, a = _entries(A)
    Ahat = np.bincount(k[i] * m + k[j], a, minlength=m * m).reshape(m, m)
    Ahat = (Ahat + Ahat.T) / 2.0
    out = FormMatrix._trusted(Ahat)

    rng = np.random.default_rng(0)
    fh, gh = np.swapaxes(rng.standard_normal((8, 2, m)), 0, 1)  # eight probe pairs, one per row
    up = np.sum(fh[:, k] * (A.csr @ gh[:, k].T).T, axis=1)
    down = np.sum((fh @ Ahat) * gh, axis=1)
    bad = np.abs(up - down) > RELTOL * _scale(A) * A.n * np.maximum(1.0, np.abs(up))
    if np.any(bad):
        t = int(np.argmax(bad))
        raise DescentError(
            f"form does not descend to the quotient: witness pair gives {float(up[t])!r} upstairs "
            f"vs {float(down[t])!r} on classes"
        )
    return out


@dataclass(frozen=True, eq=False)
class ClosureEstimate:
    """Greedy epsilon-net of the image cloud with limit-point candidate flags.

    Diagnostic only: a flagged net point has many images nearby that are not
    explained by any single image, the finite-truncation shadow of a
    compactification point.
    """

    net_points: np.ndarray
    flagged: np.ndarray
    counts: np.ndarray


def spectrum_closure_estimate(spec: AlgebraSpec, epsilon: float) -> ClosureEstimate:
    """Greedy epsilon-net over the embedded images with accumulation flags.

    A net point is flagged when its epsilon-ball contains at least
    LIMIT_POINT_MIN_IMAGES images and no single image lies within epsilon/2
    of all of them, i.e. the nearby mass does not collapse to one image.
    """
    epsilon = _real(epsilon, "epsilon")
    if not 0 < epsilon < np.inf:
        raise ValidationError(f"epsilon must be finite and > 0, got {epsilon!r}")
    images = embed(spec).images
    n = images.shape[0]
    net_idx: list[int] = []
    for i in range(n):
        if not net_idx:
            net_idx.append(i)
            continue
        d = np.linalg.norm(images[net_idx] - images[i], axis=1)
        if np.min(d) >= epsilon:
            net_idx.append(i)
    net = images[net_idx]

    flags = np.zeros(len(net_idx), dtype=bool)
    counts = np.zeros(len(net_idx), dtype=int)
    for k, p in enumerate(net):
        dist = np.linalg.norm(images - p, axis=1)
        ball = np.flatnonzero(dist <= epsilon)
        counts[k] = ball.size
        if ball.size < LIMIT_POINT_MIN_IMAGES:
            continue
        cluster = images[ball]
        # candidate covering images: anything near the ball can cover it
        near = np.flatnonzero(dist <= 1.5 * epsilon)
        cover = np.linalg.norm(cluster[None, :, :] - images[near][:, None, :], axis=2)
        covered = bool(np.any(np.max(cover, axis=1) <= epsilon / 2.0))
        flags[k] = not covered
    return ClosureEstimate(net_points=_readonly(net), flagged=flags, counts=counts)
