import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelsense.errors import (
    DimensionMismatchError,
    InfeasibleError,
    InfeasiblePointError,
    NotPolyhedralError,
)
from bilevelsense.model import Expr, clarke_generators, eabs
from bilevelsense.subdiff import (
    Polytope,
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
