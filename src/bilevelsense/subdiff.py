"""Finite-generator convex sets and numerical subgradient oracles.

Polytopes are kept in V-representation throughout: a read-only (k, dim)
array of vertices plus one of ray generators.  Estimate sets downstream
arise naturally as generator unions and Minkowski sums, and desk-scale
dimensions (<= 4) make containment by a small least-distance program
cheaper and more robust than facet enumeration.

The projector is a fully corrective Frank-Wolfe (min-norm-point) scheme:
affine minimization over the current support, line search dropping
negative weights, and an exact linear minimization oracle over vertices
and rays.  On polyhedral data it terminates finitely and delivers
machine-precision distances.  It runs over one generator matrix
G = [V; R] with one weight vector.  Its support lists vertex rows, then
ray rows, each group in the order it entered: a new vertex goes in after
the last vertex and a new ray at the end.  That order is the column order
of every affine solve, so it fixes the result's last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    BudgetError,
    DimensionMismatchError,
    EmptySetError,
    EvaluationError,
    InfeasibleError,
    InfeasiblePointError,
    NotPolyhedralError,
)
from .model import affine_coefficients, used_indices


def _rows(points, dim) -> np.ndarray:
    """points as a read-only float64 (k, dim) array; dim None takes the
    length of the points.  A read-only float64 2-D array is taken as it is,
    so frozen generators are shared; anything else is copied first, so no
    caller's array is frozen; k points of no coordinates stay a (k, 0)
    array.  Raises DimensionMismatchError when numpy cannot stack the
    points (their lengths or nestings differ), or a flat list does not
    split into points of dim coordinates; a coordinate that is not a
    number raises numpy's ValueError."""
    if (isinstance(points, np.ndarray) and points.ndim == 2
            and points.dtype == np.float64 and not points.flags.writeable):
        return points
    rows = points if isinstance(points, np.ndarray) else list(points)
    try:
        arr = np.array(rows, dtype=float)
    except ValueError:
        try:  # without a dtype, strings stack and ragged lists do not
            np.array(rows)
        except ValueError:
            raise DimensionMismatchError("points of different shapes") from None
        raise
    dim = arr.shape[-1] if dim is None else dim
    if arr.size == 0 and arr.shape[1:] != (dim,):
        arr = np.zeros((0, dim))
    elif arr.ndim == 1:
        if not dim or arr.size % dim:
            raise DimensionMismatchError(
                f"{arr.size} coordinates do not split into points of {dim}")
        arr = arr.reshape(-1, dim)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Polytope:
    """conv(vertices) + cone(rays) in R^dim; no vertices means empty.

    vertices and rays are read-only float64 (k, dim) arrays, one generator
    per row; the constructor takes any sequence of points."""

    dim: int
    vertices: np.ndarray = ()
    rays: np.ndarray = ()

    def __post_init__(self):
        verts, rays = _rows(self.vertices, self.dim), _rows(self.rays, self.dim)
        if verts.shape[1] != self.dim:
            raise DimensionMismatchError("vertex dimension mismatch")
        if rays.shape[1] != self.dim:
            raise DimensionMismatchError("ray dimension mismatch")
        if len(rays) and not (np.abs(rays) > 0.0).any(axis=1).all():
            raise EmptySetError("ray generators must be nonzero")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "rays", rays)

    @staticmethod
    def from_generators(dim, vertices, rays=()) -> "Polytope":
        return Polytope.from_generators_indexed(dim, vertices, rays)[0]

    @staticmethod
    def from_generators_indexed(dim, vertices, rays=()):
        """(polytope, vertex sources, ray sources): the generators deduplicated
        keeping each one's first occurrence, zero rays dropped, and for each
        kept vertex and ray the index of the input generator it came from."""
        verts = _rows(vertices, dim)
        rays_arr = _rows(rays, dim)
        vkeep = _first_rows(verts)
        rkeep = _first_rows(rays_arr)
        if rkeep:
            nonzero = np.abs(rays_arr).max(axis=1) > 0.0
            rkeep = [q for q in rkeep if nonzero[q]]
        return (Polytope(dim, _kept(verts, vkeep), _kept(rays_arr, rkeep)),
                vkeep, rkeep)

    @staticmethod
    def singleton(point) -> "Polytope":
        return Polytope(len(point), (point,))

    @staticmethod
    def zero(dim) -> "Polytope":
        return Polytope(dim, np.zeros((1, dim)))

    @staticmethod
    def empty(dim) -> "Polytope":
        return Polytope(dim, ())

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0


def _first_rows(arr: np.ndarray):
    """Indices of the first occurrence of each distinct row, in order."""
    first = {}
    for q, key in enumerate(map(tuple, arr.tolist())):
        first.setdefault(key, q)
    return list(first.values())


def _kept(arr: np.ndarray, keep):
    """The rows keep of the read-only arr; arr itself when that is all."""
    return arr if len(keep) == len(arr) else arr.take(keep, axis=0)


def _check_dims(p: Polytope, q: Polytope):
    if p.dim != q.dim:
        raise DimensionMismatchError(f"dim {p.dim} vs {q.dim}")


def minkowski_sum(p: Polytope, q: Polytope) -> Polytope:
    """Pairwise vertex sums, ray union.  Empty operands propagate empty."""
    _check_dims(p, q)
    if p.is_empty or q.is_empty:
        return Polytope.empty(p.dim)
    verts = (p.vertices[:, None, :] + q.vertices[None, :, :]).reshape(-1, p.dim)
    return Polytope.from_generators(p.dim, verts,
                                    np.concatenate([p.rays, q.rays]))


def scale(p: Polytope, lam: float) -> Polytope:
    if lam < 0:
        raise ValueError("scale factor must be nonnegative")
    if p.is_empty:
        return Polytope.empty(p.dim)
    if lam == 0.0:
        return Polytope.zero(p.dim)
    return Polytope.from_generators(p.dim, lam * p.vertices, lam * p.rays)


def negate(p: Polytope) -> Polytope:
    """Generator-level reflection; exact, no arithmetic beyond sign flips."""
    return Polytope(p.dim, -p.vertices, -p.rays)


def hull(polytopes_or_points, dim: Optional[int] = None) -> Polytope:
    """Convex hull of a union of polytopes, or of raw points."""
    items = list(polytopes_or_points)
    if items and isinstance(items[0], Polytope):
        dims = {p.dim for p in items}
        if len(dims) > 1:
            raise DimensionMismatchError("mixed dimensions in hull")
        d = dims.pop()
        return Polytope.from_generators(
            d, np.concatenate([p.vertices for p in items]),
            np.concatenate([p.rays for p in items]))
    if dim is None:
        if not items:
            raise EmptySetError("hull of nothing needs an explicit dim")
        dim = len(items[0])
    return Polytope.from_generators(dim, items)


# -- least-distance projector -------------------------------------------------


def _affine_solve(B: np.ndarray, simplex_mask: np.ndarray, z: np.ndarray):
    """min ||B theta - z||^2 subject to sum(theta[simplex]) = 1 (signs free)."""
    k = B.shape[1]
    G = B.T @ B
    a = simplex_mask.astype(float)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = G
    kkt[:k, k] = a
    kkt[k, :k] = a
    rhs = np.concatenate([B.T @ z, [1.0]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    return sol[:k]


def _project(V: np.ndarray, R: np.ndarray, z: np.ndarray):
    """Nearest point of conv(V)+cone(R) to z, after at most 400 outer
    iterations.

    Returns (distance, point, vertex weights, ray weights), the weights
    as the two parts of one vector over the rows of [V; R].
    """
    nv = V.shape[0]
    if nv == 0:
        return math.inf, None, None, None
    scale_ref = 1.0 + float(np.max(np.abs(V))) + float(np.max(np.abs(z), initial=0.0))
    if R.size:
        scale_ref = max(scale_ref, 1.0 + float(np.max(np.abs(R))))
    eps = 1e-12 * scale_ref
    G = np.concatenate([V, R])
    start = int(np.argmin(np.sum((V - z) ** 2, axis=1)))
    support = [start]
    w = np.zeros(len(G))
    w[start] = 1.0

    for _ in range(400):
        # inner loop: affine-minimize over the support, prune negatives
        for _inner in range(4 * len(support) + 8):
            B = np.column_stack(G[support])
            mask = np.array(support) < nv
            theta = _affine_solve(B, mask, z)
            if np.min(theta) >= -1e-13:
                theta = np.clip(theta, 0.0, None)
                ssum = theta[mask].sum()
                if ssum > 0:
                    theta[mask] /= ssum
                w = np.zeros(len(G))
                w[support] = theta
                p = B @ theta
                break
            # line search toward the affine solution keeping weights >= 0
            cur = w[support]
            delta = theta - cur
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(delta < -1e-16, cur / -delta, np.inf)
            t = min(1.0, float(np.min(steps)))
            cur = np.clip(cur + t * delta, 0.0, None)
            kept = cur > 1e-14
            w[support] = np.where(kept, cur, 0.0)
            if not kept[mask].any():  # keep one vertex to carry the simplex
                best = int(np.argmax(cur[mask]))
                kept[best] = True
                w[support[best]] = 1.0
            support = [q for q, keep in zip(support, kept) if keep]
            verts = [q for q in support if q < nv]
            w[verts] /= sum(w[q] for q in verts)
            p = np.column_stack(G[support]) @ w[support]

        grad = p - z
        # linear minimization oracle: rays first (cone directions), then vertices
        scores = G @ grad
        ray = nv + int(np.argmin(scores[nv:])) if R.size else None
        vert = int(np.argmin(scores[:nv]))
        if ray is not None and scores[ray] < -eps and ray not in support:
            support.append(ray)
        elif scores[vert] < float(grad @ p) - eps and vert not in support:
            support.insert(sum(q < nv for q in support), vert)
        else:
            break

    return float(np.linalg.norm(p - z)), p, w[:nv], w[nv:]


def _point(p: Polytope, v) -> np.ndarray:
    z = np.asarray(v, dtype=float)
    if z.shape != (p.dim,):
        raise DimensionMismatchError("point dimension mismatch")
    return z


def distance(p: Polytope, v) -> float:
    """Euclidean distance from point v to the set; +inf for the empty set."""
    return _project(p.vertices, p.rays, _point(p, v))[0]


def project(p: Polytope, v):
    """Nearest point and its generator weights: (distance, point, lam, mu)."""
    return _project(p.vertices, p.rays, _point(p, v))


def contains(p: Polytope, v) -> bool:
    """Whether v lies in the set, within a distance of 1e-9."""
    return distance(p, v) <= 1e-9


# -- sampling oracles ---------------------------------------------------------

# fd-oracle settings shared by value stationarity and the pointbased
# solution-map qualification
FD_RADIUS = 1e-5
FD_STEP = 1e-3
FD_DIRS = 6
# Two fd gradient estimates within this max-norm distance of a cluster's
# mean join that cluster (`fd_subgradient_samples`).
FD_MERGE_TOL = 1e-6


@dataclass(frozen=True)
class FdClusters:
    """Clustered central-difference gradient estimates of a sampled function."""

    clusters: Tuple[Tuple[float, ...], ...]
    spreads: Tuple[float, ...]
    n_skipped: int

    def __iter__(self):
        return (np.array(c) for c in self.clusters)

    def __len__(self):
        return len(self.clusters)

    def arrays(self):
        return [np.array(c) for c in self.clusters]


def fd_subgradient_samples(
    h: Callable,
    xbar,
    n_dirs: int = 16,
    radius: float = 1e-3,
    step: Optional[float] = None,
    seed: int = 0,
) -> FdClusters:
    """Limiting-gradient estimates of h near xbar.

    Offsets xbar + radius*u with u drawn uniformly on the sphere from a
    deterministic seed; at each offset a central difference per coordinate
    (step defaults to radius/20).  Offsets whose stencil leaves dom h
    (InfeasibleError) are skipped, which is what makes one-sided domain
    boundaries observable.  Estimates within FD_MERGE_TOL (max-norm) merge
    into clusters reported by their means.

    When h has an `ahead` method (a `valuefn.value_function`), it is called
    once with every stencil point before the first sample, so that h can
    sweep them together.  A sample's BudgetError or MemoryError is raised
    as it is, and any other error but InfeasibleError as EvaluationError.
    """
    xbar = np.asarray(xbar, dtype=float)
    n = xbar.size
    if radius <= 0:
        raise ValueError("radius must be positive")
    h_step = radius / 20.0 if step is None else float(step)
    rng = np.random.default_rng(seed)
    if n == 1:
        dirs = np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(n_dirs)])
    else:
        dirs = rng.normal(size=(n_dirs, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    def safe_eval(pt):
        try:
            return h(pt)
        except InfeasibleError:
            return None
        except (EvaluationError, BudgetError, MemoryError):
            raise
        except Exception as exc:  # noqa: BLE001 - surface as EvaluationError
            raise EvaluationError(str(exc)) from exc

    # per direction: the offset point and the (x + step, x - step) pair of
    # each coordinate
    stencils = []
    for u in dirs:
        x0 = xbar + radius * u
        pairs = []
        for c in range(n):
            xp = x0.copy()
            xm = x0.copy()
            xp[c] += h_step
            xm[c] -= h_step
            pairs.append((xp, xm))
        stencils.append((x0, pairs))
    # a value function sweeps the stencil's points together once it knows
    # them (`valuefn.value_function`); any other callable is asked point by
    # point
    ahead = getattr(h, "ahead", None)
    if ahead is not None:
        ahead([pt for _, pairs in stencils for pair in pairs for pt in pair])

    estimates = []
    skipped = 0
    for x0, pairs in stencils:
        grad = np.zeros(n)
        ok = True
        f0 = None
        for c, (xp, xm) in enumerate(pairs):
            fp = safe_eval(xp)
            fm = safe_eval(xm)
            if fp is not None and fm is not None:
                grad[c] = (fp - fm) / (2.0 * h_step)
                continue
            # dom boundary: one-sided difference through the offset point
            # when exactly one side of the stencil is feasible
            if f0 is None:
                f0 = safe_eval(x0)
            if f0 is None or (fp is None and fm is None):
                ok = False
                break
            if fp is not None:
                grad[c] = (fp - f0) / h_step
            else:
                grad[c] = (f0 - fm) / h_step
        if ok:
            estimates.append(grad)
        else:
            skipped += 1

    clusters: list = []  # [sum, count, members]
    for g in estimates:
        placed = False
        for cl in clusters:
            mean = cl[0] / cl[1]
            if np.max(np.abs(g - mean)) <= FD_MERGE_TOL:
                cl[0] += g
                cl[1] += 1
                cl[2].append(g)
                placed = True
                break
        if not placed:
            clusters.append([g.copy(), 1, [g]])
    means = tuple(tuple((cl[0] / cl[1]).tolist()) for cl in clusters)
    spreads = tuple(
        float(max(np.max(np.abs(m - cl[0] / cl[1])) for m in cl[2]))
        for cl in clusters
    )
    return FdClusters(means, spreads, skipped)


def lipschitz_estimate(
    h: Callable,
    xbar,
    radius: float,
    n_pairs: int = 200,
) -> float:
    """Empirical Lipschitz modulus of h on the ball around xbar.

    Max of |h(a)-h(b)|/||a-b|| over sample pairs drawn from seed 0;
    returns +inf when any evaluation is infeasible (the modulus is then
    meaningless on the full ball).
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if n_pairs < 100:
        raise ValueError("n_pairs must be >= 100")
    xbar = np.asarray(xbar, dtype=float)
    n = xbar.size
    rng = np.random.default_rng(0)
    best = 0.0
    for _ in range(n_pairs):
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        a = xbar + radius * rng.uniform() ** (1.0 / n) * u
        b = xbar + radius * rng.uniform() ** (1.0 / n) * v
        gap = np.linalg.norm(a - b)
        if gap < 1e-12:
            continue
        try:
            ratio = abs(h(a) - h(b)) / gap
        except InfeasibleError:
            return math.inf
        best = max(best, float(ratio))
    return best


def normal_cone_polyhedral(theta1, xbar) -> Polytope:
    """Normal cone to {x : theta1(x) <= 0} at xbar for affine theta1.

    For a convex polyhedral set the limiting and convexified normal cones
    coincide: the cone generated by the gradients of the active
    constraints (within a relative 1e-8 of zero), {0} when none are
    active.  The cone lives in the space of xbar; a constraint that reads
    a coordinate past xbar's is a DimensionMismatchError.
    """
    xbar = np.asarray(xbar, dtype=float)
    n = xbar.size
    rays = []
    for j, t in enumerate(theta1):
        past = max(used_indices(t)[0], default=0)
        if past > n:
            raise DimensionMismatchError(
                f"upper constraint {j + 1} reads x{past}, but the point has "
                f"{n} coordinates")
        coeffs = affine_coefficients(t, n, 0)
        if coeffs is None:
            raise NotPolyhedralError("upper-level constraint is not affine")
        c0, cx, _ = coeffs
        val = c0 + float(cx @ xbar)
        if val > 1e-8 * (1.0 + abs(val)):
            raise InfeasiblePointError(f"theta1 violated at xbar (value {val})")
        if val >= -1e-8 * (1.0 + abs(val)) and np.max(np.abs(cx)) > 0:
            rays.append(cx.copy())
    return Polytope.from_generators(n, [np.zeros(n)], rays)
