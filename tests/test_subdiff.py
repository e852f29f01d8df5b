import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelsense.errors import (
    BudgetError,
    DimensionMismatchError,
    InfeasibleError,
    InfeasiblePointError,
    NotPolyhedralError,
)
from bilevelsense.model import Expr, clarke_generators, eabs
from bilevelsense.subdiff import (
    Polytope,
    _rows,
    contains,
    distance,
    fd_subgradient_samples,
    hull,
    lipschitz_estimate,
    minkowski_sum,
    negate,
    normal_cone_polyhedral,
    scale,
)


def interval(lo, hi):
    return Polytope.from_generators(1, [[lo], [hi]])


class TestAlgebra:
    def test_minkowski_intervals(self):
        s = minkowski_sum(interval(-1, 1), interval(0, 2))
        assert distance(s, [-1.0]) == pytest.approx(0.0, abs=1e-12)
        assert distance(s, [3.0]) == pytest.approx(0.0, abs=1e-12)
        assert distance(s, [3.5]) == pytest.approx(0.5, abs=1e-9)
        assert distance(s, [-1.5]) == pytest.approx(0.5, abs=1e-9)

    def test_negate_generators_exact(self):
        p = Polytope.from_generators(2, [[1.0, 0.0], [0.0, 1.0]], [[2.0, 3.0]])
        q = negate(p)
        # == alone cannot see a lost -0.0, so the sign bits are compared too
        for got, want in ((q.vertices, [[-1.0, -0.0], [-0.0, -1.0]]),
                          (q.rays, [[-2.0, -3.0]])):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_points_of_no_coordinates_keep_their_count(self):
        # k points of R^0 are a (k, 0) array; an empty list is (0, dim)
        assert _rows([np.zeros(0)] * 3, 0).shape == (3, 0)
        assert _rows(np.zeros((2, 0)), None).shape == (2, 0)
        assert _rows([], 0).shape == (0, 0)
        assert _rows([], 2).shape == (0, 2)
        assert Polytope.from_generators(0, [[]]).vertices.shape == (1, 0)

    def test_distance_unit_square(self):
        sq = Polytope.from_generators(
            2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert distance(sq, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-10)
        assert distance(sq, [0.5, 0.5]) == 0.0

    def test_scale(self):
        p = scale(interval(-1, 2), 3.0)
        assert distance(p, [-3.0]) == pytest.approx(0.0, abs=1e-12)
        assert distance(p, [6.0]) == pytest.approx(0.0, abs=1e-12)
        z = scale(interval(-1, 2), 0.0)
        assert z.vertices.tolist() == [[0.0]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_sum(interval(0, 1), Polytope.zero(2))

    def test_ragged_points_are_a_dimension_mismatch(self):
        ragged = [[1.0, 2.0], [1.0]]
        flat = [1.0, 2.0, 3.0]  # a flat list that is not whole points
        for build in (lambda: Polytope(2, ragged),
                      lambda: Polytope.from_generators(2, ragged),
                      lambda: Polytope.from_generators(2, [[0.0, 0.0]], ragged),
                      lambda: hull(ragged, 2),
                      lambda: hull(ragged),
                      lambda: Polytope(2, flat),
                      lambda: Polytope.from_generators(2, [[0.0, 0.0]], flat)):
            with pytest.raises(DimensionMismatchError):
                build()
        with pytest.raises(ValueError):  # not a number, not a mismatch
            Polytope(2, [[1.0, "a"]])
        assert Polytope(3, flat).vertices.tolist() == [flat]

    def test_nested_ragged_points_are_a_dimension_mismatch(self):
        # both points have two entries, but one nests them, so numpy cannot
        # stack them although their lengths agree
        nested = [[[1.0], [2.0]], [1.0, 2.0]]
        for build in (lambda: Polytope(2, nested),
                      lambda: Polytope.from_generators(2, [[0.0, 0.0]], nested),
                      lambda: hull(nested, 2),
                      lambda: Polytope(2, [[[1.0], [2.0, 3.0]]])):
            with pytest.raises(DimensionMismatchError):
                build()

    def test_empty_propagates(self):
        e = Polytope.empty(1)
        assert minkowski_sum(e, interval(0, 1)).is_empty
        assert distance(e, [0.0]) == math.inf

    def test_rays_reach_far_points(self):
        cone = Polytope.from_generators(1, [[0.0]], [[-1.0]])
        assert distance(cone, [-50.0]) == pytest.approx(0.0, abs=1e-9)
        assert distance(cone, [2.0]) == pytest.approx(2.0, abs=1e-9)

    def test_distance_with_rays_2d(self):
        # {(-2, 0)} + cone{(-1, 0)}: half-line going left
        p = Polytope.from_generators(2, [[-2.0, 0.0]], [[-1.0, 0.0]])
        assert distance(p, [0.0, 0.0]) == pytest.approx(2.0, abs=1e-9)
        assert distance(p, [-7.0, 1.0]) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=7
    ),
)
def test_self_containment(pts):
    p = Polytope.from_generators(2, [list(t) for t in pts])
    for t in pts:
        assert distance(p, list(t)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.floats(-3, 3), st.floats(-3, 3)), min_size=1, max_size=6
    ),
    a=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
    b=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
)
def test_distance_one_lipschitz(pts, a, b):
    p = Polytope.from_generators(2, [list(t) for t in pts])
    da, db = distance(p, list(a)), distance(p, list(b))
    gap = math.dist(a, b)
    assert abs(da - db) <= gap + 1e-9
    assert da >= 0.0


def test_contains_iff_distance_zero():
    p = Polytope.from_generators(2, [[0, 0], [1, 0], [0, 1]])
    assert contains(p, [0.25, 0.25])
    assert not contains(p, [1.0, 1.0])


class TestFdSamples:
    def test_abs_clusters(self):
        res = fd_subgradient_samples(
            lambda x: abs(float(x[0])), [0.0], n_dirs=8, radius=1e-3)
        got = sorted(c[0] for c in res.clusters)
        assert got == pytest.approx([-1.0, 1.0], abs=1e-6)

    def test_smooth_square(self):
        res = fd_subgradient_samples(
            lambda x: float(x[0]) ** 2, [1.0], n_dirs=8, radius=1e-5)
        flat = [c[0] for c in res.clusters]
        assert all(abs(v - 2.0) < 1e-4 for v in flat)

    def test_infeasible_side_skipped(self):
        def h(x):
            if x[0] < 0:
                raise InfeasibleError("left of domain")
            return -2.0 * float(x[0])

        res = fd_subgradient_samples(h, [0.0], n_dirs=8, radius=1e-3)
        assert res.n_skipped > 0
        assert sorted(c[0] for c in res.clusters) == pytest.approx([-2.0], abs=1e-9)

    @pytest.mark.parametrize("exc", [BudgetError("over budget"),
                                     MemoryError("no room")],
                             ids=["budget", "memory"])
    def test_a_budget_or_memory_error_is_raised_unwrapped(self, exc):
        # a plain callable has no `ahead`, so the error comes from a sample
        def h(x):
            raise exc

        with pytest.raises(type(exc)) as info:
            fd_subgradient_samples(h, [0.0], n_dirs=2, radius=1e-3)
        assert info.value is exc

    def test_clusters_inside_generator_hull(self):
        # fd clusters of a convex piecewise-linear function stay within
        # 1e-6 of the generator hull of the matching expression
        e = eabs(Expr.x(1))
        gens = clarke_generators(e, [0.0], [])
        p = hull([g for g in gens], dim=1)
        res = fd_subgradient_samples(
            lambda x: abs(float(x[0])), [0.0], n_dirs=10, radius=1e-4)
        for c in res.clusters:
            assert distance(p, list(c)) <= 1e-6


class TestLipschitz:
    def test_linear(self):
        mod = lipschitz_estimate(lambda x: 3.0 * float(x[0]), [0.0], 0.5)
        assert mod == pytest.approx(3.0, abs=1e-9)

    def test_abs(self):
        mod = lipschitz_estimate(lambda x: abs(float(x[0])), [0.0], 0.5)
        assert mod == pytest.approx(1.0, abs=1e-6)

    def test_infinite_flag(self):
        def h(x):
            raise InfeasibleError("nothing here")

        assert lipschitz_estimate(h, [0.0], 0.5) == math.inf


class TestNormalCone:
    def test_halfline(self):
        # X = {x >= 0}: at 0 the cone is (-inf, 0]
        cone = normal_cone_polyhedral([-Expr.x(1)], [0.0])
        assert cone.rays.tolist() == [[-1.0]]
        assert distance(cone, [-4.0]) == pytest.approx(0.0, abs=1e-9)
        assert distance(cone, [1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_interior_point(self):
        cone = normal_cone_polyhedral([-Expr.x(1)], [2.0])
        assert cone.rays.shape == (0, 1)
        assert cone.vertices.tolist() == [[0.0]]

    def test_corner(self):
        cone = normal_cone_polyhedral(
            [-Expr.x(1), -Expr.x(2)], [0.0, 0.0])
        assert sorted(cone.rays.tolist()) == [[-1.0, -0.0], [-0.0, -1.0]]

    def test_nonaffine_rejected(self):
        with pytest.raises(NotPolyhedralError):
            normal_cone_polyhedral([Expr.x(1) ** 2 - 1.0], [0.0])

    def test_infeasible_point(self):
        with pytest.raises(InfeasiblePointError):
            normal_cone_polyhedral([-Expr.x(1)], [-1.0])

    def test_a_constraint_past_the_point_is_a_dimension_mismatch(self):
        # the cone's dimension is the point's: x2 at a one-coordinate point
        # used to raise IndexError, and an explicit n = 2 numpy's matmul
        # ValueError
        with pytest.raises(DimensionMismatchError,
                           match=r"^upper constraint 1 reads x2, but the point has 1 coordinates$"):
            normal_cone_polyhedral([Expr.x(2) - 1.0], [0.3])
        assert normal_cone_polyhedral([], [0.3]).dim == 1


# -- byte gate for the projector ------------------------------------------------
#
# A test-side copy of the projector as it was when it kept vertex and ray
# weights in two parallel sets of lists and arrays.  The library's one
# weight vector over [V; R] must give the same distance, point and weights,
# bit for bit and sign of zero included: the support's column order (vertex
# rows, then ray rows, each group in entry order) fixes every affine solve,
# and a vertex weight sum in another order rounds differently.

from bilevelsense.subdiff import _affine_solve, _project  # noqa: E402


def reference_project(V, R, z):
    nv = V.shape[0]
    if nv == 0:
        return math.inf, None, None, None
    scale_ref = 1.0 + float(np.max(np.abs(V))) + float(np.max(np.abs(z), initial=0.0))
    if R.size:
        scale_ref = max(scale_ref, 1.0 + float(np.max(np.abs(R))))
    eps = 1e-12 * scale_ref
    d2 = np.sum((V - z) ** 2, axis=1)
    start = int(np.argmin(d2))
    support_v, support_r = [start], []
    lam, mu = np.zeros(nv), np.zeros(R.shape[0])
    lam[start] = 1.0
    p = V[start].copy()
    for _ in range(400):
        for _inner in range(4 * (len(support_v) + len(support_r)) + 8):
            cols = [V[i] for i in support_v] + [R[j] for j in support_r]
            B = np.column_stack(cols) if cols else np.zeros((V.shape[1], 0))
            mask = np.array([True] * len(support_v) + [False] * len(support_r),
                            dtype=bool)
            theta = _affine_solve(B, mask, z)
            if theta.size == 0:
                break
            if np.min(theta) >= -1e-13:
                theta = np.clip(theta, 0.0, None)
                ssum = theta[mask].sum()
                if ssum > 0:
                    theta[mask] /= ssum
                lam, mu = np.zeros(nv), np.zeros(R.shape[0])
                for w, i in zip(theta[: len(support_v)], support_v):
                    lam[i] = w
                for w, j in zip(theta[len(support_v):], support_r):
                    mu[j] = w
                p = B @ theta
                break
            cur = np.array([lam[i] for i in support_v] + [mu[j] for j in support_r])
            delta = theta - cur
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(delta < -1e-16, cur / -delta, np.inf)
            t = min(1.0, float(np.min(steps)))
            cur = np.clip(cur + t * delta, 0.0, None)
            keep_v, keep_r = [], []
            for w, i in zip(cur[: len(support_v)], support_v):
                lam[i] = w
                if w > 1e-14:
                    keep_v.append(i)
                else:
                    lam[i] = 0.0
            for w, j in zip(cur[len(support_v):], support_r):
                mu[j] = w
                if w > 1e-14:
                    keep_r.append(j)
                else:
                    mu[j] = 0.0
            if not keep_v:
                best = support_v[int(np.argmax(cur[: len(support_v)]))]
                keep_v = [best]
                lam[best] = max(lam[best], 1e-300)
            support_v, support_r = keep_v, keep_r
            cols = [V[i] for i in support_v] + [R[j] for j in support_r]
            weights = np.array([lam[i] for i in support_v] + [mu[j] for j in support_r])
            ssum = sum(lam[i] for i in support_v)
            if ssum > 0:
                for i in support_v:
                    lam[i] /= ssum
                weights = np.array([lam[i] for i in support_v] + [mu[j] for j in support_r])
            p = np.column_stack(cols) @ weights
        grad = p - z
        added = False
        if R.size:
            ray_scores = R @ grad
            jbest = int(np.argmin(ray_scores))
            if ray_scores[jbest] < -eps and jbest not in support_r:
                support_r.append(jbest)
                added = True
        if not added:
            vert_scores = V @ grad
            ibest = int(np.argmin(vert_scores))
            if vert_scores[ibest] < float(grad @ p) - eps and ibest not in support_v:
                support_v.append(ibest)
                added = True
        if not added:
            break
    return float(np.linalg.norm(p - z)), p, lam, mu


def _draw_generators(family, dim, nv, nr, seed):
    """(V, R, z) of one family: Gaussian, an integer lattice with repeated
    vertices, z inside the set, or nearly coincident vertices and nearly
    parallel rays at a scale of 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    if family == "gaussian":
        return rng.normal(size=(nv, dim)), rng.normal(size=(nr, dim)), 3.0 * rng.normal(size=dim)
    if family == "lattice":
        V = rng.integers(-2, 3, size=(nv, dim)).astype(float)
        V = np.concatenate([V, V[: rng.integers(0, nv + 1)]])
        R = rng.integers(-2, 3, size=(nr, dim)).astype(float)
        return V, R[np.abs(R).max(axis=1) > 0], rng.integers(-3, 4, size=dim).astype(float)
    if family == "inside":
        V, R = rng.normal(size=(nv, dim)), rng.normal(size=(nr, dim))
        return V, R, rng.dirichlet(np.ones(nv)) @ V + rng.uniform(0, 1, size=nr) @ R
    s = 10.0 ** rng.integers(-6, 7)
    V = s * (rng.normal(size=dim) + 1e-9 * s * rng.normal(size=(nv, dim)))
    R = s * rng.normal(size=(nr, dim))
    if nr > 1:
        R[-1] = R[0] * (1 + 1e-12)
    return V, R, s * rng.normal(size=dim)


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(family=st.sampled_from(["gaussian", "lattice", "inside", "scaled"]),
       dim=st.integers(1, 5), nv=st.integers(1, 7), nr=st.integers(0, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_the_projector_matches_its_two_list_form_bit_for_bit(family, dim, nv,
                                                              nr, seed):
    V, R, z = _draw_generators(family, dim, nv, nr, seed)
    got, want = _project(V, R, z), reference_project(V, R, z)
    for name, g, w in zip(("distance", "point", "lam", "mu"), got, want):
        assert _same_bits(g, w), (name, g, w)
