import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bilevelsense.errors import InfeasiblePointError, NotApplicableError
from bilevelsense.model import BilevelProgram, Expr, clarke_generators, neg
from bilevelsense.sensitivity import (
    DEFAULT_TOL_ACTIVE,
    Caps,
    MultiplierSet,
    TaggedSet,
    _inclusion_system,
    _inclusion_xset,
    _InclusionSystem,
    _solve_inclusion,
    _subsample,
    _tagged_set,
    _union,
    estimate_optimistic,
    estimate_pessimistic,
    estimate_simple_convex,
    lambda_o_set,
    lambda_set,
    stationary_cover_hull,
)
from bilevelsense.subdiff import (
    Polytope,
    distance,
    fd_subgradient_samples,
    hull,
    minkowski_sum,
    negate,
    scale,
)
from bilevelsense.valuefn import GridSpec, lower_solutions, value_function

from instances import exact, instance_free_follower
from test_valuefn import SHARED_GRID, piecewise_affine_programs

X1 = Expr.x(1)
Y1 = Expr.y(1)

GRID = GridSpec()
FINE = GridSpec(points_per_dim=201, refine_depth=5)
CAPS = Caps()


def multiplier_stationarity_residual(prog, xbar, y, ms):
    """Independent re-check of a multiplier generator: distance from 0 to
    the defining stationarity hull, built with polytope algebra only."""
    n = prog.n
    residuals = []
    for vert in ms.vertices:
        if ms.kind == "lambda":
            gamma = np.array(vert)
            base = hull([g[n:] for g in clarke_generators(prog.f, xbar, y)],
                        dim=prog.m)
            total = base
            for i, gi in enumerate(prog.g):
                if gamma[i] > 0:
                    gi_hull = hull(
                        [g[n:] for g in clarke_generators(gi, xbar, y)],
                        dim=prog.m)
                    total = minkowski_sum(total, scale(gi_hull, gamma[i]))
        else:
            r, beta = vert[0], np.array(vert[1:])
            total = hull([g[n:] for g in clarke_generators(prog.F, xbar, y)],
                         dim=prog.m)
            if r > 0:
                f_hull = hull(
                    [g[n:] for g in clarke_generators(prog.f, xbar, y)],
                    dim=prog.m)
                total = minkowski_sum(total, scale(f_hull, r))
            for i, gi in enumerate(prog.g):
                if beta[i] > 0:
                    gi_hull = hull(
                        [g[n:] for g in clarke_generators(gi, xbar, y)],
                        dim=prog.m)
                    total = minkowski_sum(total, scale(gi_hull, beta[i]))
        residuals.append(distance(total, np.zeros(prog.m)))
    return max(residuals) if residuals else 0.0


class TestLambdaSet:
    def test_instance_a_halfpoint(self, prog_a):
        # active g1 = y - x, grad_y f = -1, grad_y g1 = 1: unique gamma (1, 0)
        ms = lambda_set(prog_a, [0.5], [0.5])
        assert ms.vertices.tolist() == [[1.0, 0.0]]
        assert ms.rays.shape == (0, 2)
        assert ms.active == (0,)

    def test_empty_without_active_constraints(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=neg(Y1), g=(Y1 - 10.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        ms = lambda_set(prog, [0.0], [0.0])
        assert ms.is_empty

    def test_zero_objective_gives_origin(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=Expr.const(0.0), g=(Y1 - 10.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        ms = lambda_set(prog, [0.0], [0.0])
        assert ms.vertices.tolist() == [[0.0]]

    def test_a_follower_without_constraints_keeps_its_one_multiplier(self):
        # p = 0: Lambda at a stationary y is {()}, one vertex of no
        # coordinates; it used to come out empty
        ms = lambda_set(instance_free_follower(), [0.3], [0.3])
        assert not ms.is_empty
        assert ms.vertices.shape == (1, 0)
        assert ms.rays.shape == (0, 0)
        assert lambda_set(instance_free_follower(), [0.3], [0.5]).is_empty

    def test_infeasible_point_rejected(self, prog_a):
        with pytest.raises(InfeasiblePointError):
            lambda_set(prog_a, [0.5], [1.5])

    def test_interpolated_vertex_found(self):
        # f = |y|: generators {-1, +1}; active g with grad_y = 1 gives
        # Lambda = [0, 1]; pure branch selections alone would miss gamma=0
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=Expr("abs", (Y1,)), g=(Y1,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        ms = lambda_set(prog, [0.0], [0.0])
        verts = sorted(v[0] for v in ms.vertices)
        assert verts == pytest.approx([0.0, 1.0])

    def test_stationarity_residual_invariant(self, prog_a, prog_c):
        for prog, x, y in ((prog_a, [0.5], [0.5]), (prog_c, [1.0], [1.0])):
            ms = lambda_set(prog, x, y)
            assert multiplier_stationarity_residual(prog, x, y, ms) <= 1e-9

    def test_sign_and_complementarity_exact(self, prog_a):
        ms = lambda_set(prog_a, [0.5], [0.5])
        for v in ms.vertices:
            assert all(c >= 0 for c in v)
            for i in range(len(v)):
                if i not in ms.active:
                    assert v[i] == 0.0


def test_one_active_set_rule_keeps_both_messages(prog_a, prog_a_constrained):
    # the lower-level constraints g and the upper-level theta1 share one
    # rule; each violation keeps its own message
    from bilevelsense.sensitivity import _active_indices

    with pytest.raises(InfeasiblePointError) as err:
        _active_indices(prog_a, [0.5], [1.5], 1e-8)
    assert str(err.value) == "constraint 1 violated at (x, y): value 1.0"
    with pytest.raises(InfeasiblePointError) as err:
        _active_indices(prog_a_constrained, [-0.5], [], 1e-8, upper=True)
    assert str(err.value) == "upper constraint 1 violated at xbar (value 0.5)"
    assert _active_indices(prog_a_constrained, [0.0], [], 1e-8, upper=True) == [0]
    assert _active_indices(prog_a_constrained, [0.5], [], 1e-8, upper=True) == []


def _reference_subsample(points, cap):
    """The tuple form of `_subsample`: sorted float tuples, then a seen-set."""
    pts = [tuple(p) for p in points.tolist()]
    if len(pts) <= cap:
        return [list(p) for p in sorted(pts)]
    rest = sorted(pts[1:])
    idx = np.unique(np.round(np.linspace(0, len(rest) - 1, cap - 1)).astype(int))
    out, seen = [], set()
    for p in [pts[0]] + [rest[i] for i in idx]:
        if p not in seen:
            seen.add(p)
            out.append(list(p))
    return out


@st.composite
def distinct_clouds(draw):
    """Distinct points (no two equal, so no two differ only in the sign of
    a zero) on a coarse lattice, whose ties exercise every sort key, and
    some zeros negative; in the order drawn, which plays best-first."""
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m), min_size=1,
                          max_size=30, unique=True))
    signs = draw(st.lists(st.booleans(), min_size=len(cells) * m,
                          max_size=len(cells) * m))
    pts = np.array(cells, dtype=float) * 0.25
    flat = pts.reshape(-1)
    flat[(flat == 0.0) & np.array(signs)] = -0.0
    return pts, draw(st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(case=distinct_clouds())
def test_subsample_matches_the_sorted_tuples(case):
    # one stable lexsort picks the rows sorted tuples picked, zeros' signs
    # included; the seen-set never fires on distinct points
    from bilevelsense.sensitivity import _subsample

    points, cap = case
    assert exact(_subsample(points, cap)) == exact(_reference_subsample(points, cap))


class TestLambdaOSet:
    def test_instance_a_halfpoint(self, prog_a):
        # vertex (r, beta) = (0, (1, 0)) and ray direction (1, (1, 0))
        ms = lambda_o_set(prog_a, [0.5], [0.5])
        assert [0.0, 1.0, 0.0] in ms.vertices.tolist()
        assert len(ms.vertices) == 1
        assert len(ms.rays) == 1
        assert list(ms.rays[0]) == pytest.approx([1.0, 1.0, 0.0], abs=1e-12)

    def test_zero_upper_data(self):
        prog = BilevelProgram(
            n=1, m=1, F=Expr.const(0.0), f=neg(Y1), g=(Y1 - 10.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        ms = lambda_o_set(prog, [0.0], [0.0])
        # r is forced to zero: no active constraint can absorb r * (-1)
        assert ms.vertices.tolist() == [[0.0, 0.0]]
        assert ms.rays.shape == (0, 2)

    def test_pessimistic_reduction_instance_c(self, prog_c):
        # on the negated-upper program at (1, 1): grad_y(-F) = -1, active
        # g2 = y - 1 with grad 1, so beta_2 = 1 with a free r-ray
        ms = lambda_o_set(prog_c.negated_upper(), [1.0], [1.0])
        assert [0.0, 0.0, 1.0] in ms.vertices.tolist()
        assert [1.0, 0.0, 0.0] in ms.rays.tolist()

    def test_stationarity_residual(self, prog_a):
        ms = lambda_o_set(prog_a, [0.5], [0.5])
        assert multiplier_stationarity_residual(prog_a, [0.5], [0.5], ms) <= 1e-9


class TestStationaryCover:
    def test_instance_a(self, prog_a):
        sol = lower_solutions(prog_a, [0.5], GRID)
        cover = stationary_cover_hull(prog_a, [0.5], sol)
        # unique covector: grad_y f = -1 forces u1 = 1, x-part = -1
        assert distance(cover.polytope, [-1.0]) <= 1e-9
        assert distance(cover.polytope, [0.0]) > 0.5
        assert cover.vertex_meta[0]["u"][0] == pytest.approx(1.0)

    @pytest.mark.parametrize("case", ["pinned", "c_at_0", "c_at_1"])
    def test_metadata_describes_kept_generators(self, case, prog_c):
        # the hull drops repeated generators; entry q of each metadata list
        # must still be the (y, u) that realizes vertex / ray q.  Smooth
        # data, so each gradient is the single Clarke generator.
        from instances import instance_pinned

        prog, x = {"pinned": (instance_pinned(), [0.0]),
                   "c_at_0": (prog_c, [0.0]), "c_at_1": (prog_c, [1.0])}[case]
        sol = lower_solutions(prog, x, GRID)
        cover = stationary_cover_hull(prog, x, sol)
        poly = cover.polytope
        assert len(cover.vertex_meta) == len(poly.vertices)
        assert len(cover.ray_meta) == len(poly.rays)
        n = prog.n
        for gens, metas, with_f in ((poly.vertices, cover.vertex_meta, True),
                                    (poly.rays, cover.ray_meta, False)):
            for gen, meta in zip(gens, metas):
                y = list(meta["y"])
                total = (clarke_generators(prog.f, x, y)[0] if with_f
                         else np.zeros(n + prog.m))
                for u_i, g_i in zip(meta["u"], prog.g):
                    if u_i:
                        total = total + u_i * clarke_generators(g_i, x, y)[0]
                assert np.allclose(total[:n], gen, atol=1e-9)
                assert np.allclose(total[n:], 0.0, atol=1e-9)

    @pytest.mark.parametrize("case", ["pinned", "c_at_0", "c_at_1"])
    def test_the_hull_keeps_the_first_of_the_union(self, case, prog_c):
        # the hull is the union of the per-y sets deduplicated keep-first,
        # each kept generator with its first occurrence's metadata
        from instances import instance_pinned

        prog, x = {"pinned": (instance_pinned(), [0.0]),
                   "c_at_0": (prog_c, [0.0]), "c_at_1": (prog_c, [1.0])}[case]
        sol = lower_solutions(prog, x, GRID)
        union = _union(prog.n, [
            _inclusion_xset(prog, x, y, DEFAULT_TOL_ACTIVE)
            for y in _subsample(sol.points, CAPS.max_solution_samples)])
        poly, vkeep, rkeep = Polytope.from_generators_indexed(
            prog.n, union.polytope.vertices, union.polytope.rays)
        cover = stationary_cover_hull(prog, x, sol)
        assert np.array_equal(cover.polytope.vertices, poly.vertices)
        assert np.array_equal(cover.polytope.rays, poly.rays)
        assert cover.vertex_meta == tuple(union.vertex_meta[q] for q in vkeep)
        assert cover.ray_meta == tuple(union.ray_meta[q] for q in rkeep)
        # every sampled y gives the same covector, so the hull drops repeats
        assert len(cover.vertex_meta) < len(union.vertex_meta)


def _per_t_sets(prog, x):
    """Each sampled t's inclusion sets over the r-grid, as pessimistic
    variant i solves them (the negated-upper system with F, one stack per
    t), in the order of t."""
    negp = prog.negated_upper()
    ts = _subsample(lower_solutions(negp, x, GRID).points,
                    CAPS.max_solution_samples)
    return [_solve_inclusion(_inclusion_system(negp, x, t, DEFAULT_TOL_ACTIVE,
                                               include_F=True), CAPS.r_grid())
            for t in sorted(ts)]


@pytest.mark.parametrize("case", ["c_at_0", "c_at_1", "c_at_-1", "pinned"])
def test_the_union_lays_every_vertex_then_every_ray(case, prog_c):
    # instance C at x = +-1 leaves most t with an empty set; the pinned
    # instance gives each t a ray
    from instances import instance_pinned

    prog, x = {"c_at_0": (prog_c, [0.0]), "c_at_1": (prog_c, [1.0]),
               "c_at_-1": (prog_c, [-1.0]),
               "pinned": (instance_pinned("pessimistic"), [0.0])}[case]
    per_t = _per_t_sets(prog, x)
    empty = TaggedSet(Polytope.empty(prog.n), (), ())
    for k in range(len(CAPS.r_grid())):
        sets = [sets_t[k] for sets_t in per_t]
        union = _union(prog.n, [empty] + sets)
        full = [t for t in sets if not t.polytope.is_empty]
        verts = [v for t in full for v in t.polytope.vertices.tolist()]
        rays = [d for t in full for d in t.polytope.rays.tolist()]
        assert union.polytope.vertices.tolist() == verts
        assert union.polytope.rays.tolist() == rays
        assert union.vertex_meta == sum((t.vertex_meta for t in full), ())
        assert union.ray_meta == sum((t.ray_meta for t in full), ())
        assert union.generators.tolist() == verts + rays
    flat = [t for sets_t in per_t for t in sets_t]
    has_empty = any(t.polytope.is_empty for t in flat)
    has_ray = any(len(t.polytope.rays) for t in flat)
    assert (has_empty, has_ray) == {
        "c_at_0": (False, False), "c_at_1": (True, False),
        "c_at_-1": (True, False), "pinned": (False, True)}[case]


def test_the_union_of_empty_sets_is_empty():
    union = _union(2, [TaggedSet(Polytope.empty(2), (), ())] * 2)
    assert union.polytope.is_empty
    assert union.generators.shape == (0, 2)
    assert union.vertex_meta == union.ray_meta == ()


def test_a_ray_projecting_below_the_threshold_is_dropped():
    # an f column and a g_1 column with x-parts e_1 and e_2: a ray's x-part
    # is its weight vector.  A ray whose x-part has max-norm 5e-10 is kept
    # and one at 5e-13 is dropped, on either side of the 1e-12 threshold.
    system = _InclusionSystem(2, 1, 1, (0.25,), False, np.zeros((2, 2)),
                              np.eye(2), (("f", None), ("g", 0)), (0,))
    tagged = _tagged_set(system, [np.array([1.0, 0.0])],
                         [np.array([0.0, 5e-10]), np.array([0.0, 5e-13]),
                          np.array([3e-13, 4e-13])])
    assert tagged.polytope.vertices.tolist() == [[1.0, 0.0]]
    assert tagged.vertex_meta == ({"u": (0.0,), "y": (0.25,)},)
    assert tagged.polytope.rays.tolist() == [[0.0, 5e-10]]
    assert tagged.ray_meta == ({"u": (5e-10,), "y": (0.25,)},)


class TestEstimates:
    def test_convex_exact_cancellation_instance_a(self, prog_a):
        est = estimate_optimistic(prog_a, [0.5], "convex", GRID, CAPS)
        assert distance(est.polytope, [0.0]) <= 1e-9
        assert est.truncated  # the (r, beta) ray was capped

    @pytest.mark.parametrize("estimate", [estimate_optimistic, estimate_pessimistic])
    def test_convex_without_lower_level_constraints(self, estimate):
        # p = 0: every sampled multiplier set used to come out empty, so the
        # convex estimate raised EmptyEstimateError; phi_o'(0.3) = -0.4
        grid = GridSpec(points_per_dim=41, refine_depth=2)
        est = estimate(instance_free_follower(), [0.3], "convex", grid, CAPS)
        assert distance(est.polytope, [-0.4]) <= 1e-12
        assert np.all(np.abs(est.polytope.vertices + 0.4) <= 2e-3)

    @pytest.mark.parametrize("name,x,gens", [("a", [0.5], 3), ("b", [0.0], 2)])
    def test_convex_builds_one_system_per_sampled_y(self, monkeypatch, name, x,
                                                    gens, prog_a, prog_b):
        # one include_F inclusion system per sampled y gives both multiplier
        # sets and the x-part hulls: the Clarke generators of each (F, f or
        # active g_i, x, y) are taken once.  A at 0.5 samples one y with g1
        # active; B at 0 samples one y with no active constraint.
        from bilevelsense import sensitivity

        calls = []
        generators = sensitivity.clarke_generators

        def counting(e, xbar, y, tol_active=None):
            calls.append((e, tuple(xbar), tuple(y)))
            return generators(e, xbar, y, tol_active)

        monkeypatch.setattr(sensitivity, "clarke_generators", counting)
        prog = {"a": prog_a, "b": prog_b}[name]
        estimate_optimistic(prog, x, "convex", GRID, CAPS)
        assert len(calls) == len(set(calls)) == gens

    def test_semicompact_matches_derivative_instance_a(self, prog_a):
        for x in (0.3, 0.5, 0.8):
            est = estimate_optimistic(prog_a, [x], "semicompact", GRID, CAPS)
            target = 4.0 * x - 2.0
            assert distance(est.polytope, [target]) <= 1e-6

    def test_semicontinuous_matches_derivative_instance_a(self, prog_a):
        est = estimate_optimistic(prog_a, [0.5], "semicontinuous", GRID, CAPS)
        assert distance(est.polytope, [0.0]) <= 1e-6

    def test_semicompact_covers_interval_instance_b(self, prog_b):
        # phi_o(x) = |x| + clip(x): subdifferential at 0 is [0, 2]
        est = estimate_optimistic(prog_b, [0.0], "semicompact", GRID, CAPS)
        for target in np.linspace(0.0, 2.0, 9):
            assert distance(est.polytope, [target]) <= 1e-8

    def test_pessimistic_covers_interval_instance_c(self, prog_c):
        est = estimate_pessimistic(prog_c, [0.0], "semicompact", GRID, CAPS)
        for target in np.linspace(0.0, 1.0, 9):
            assert distance(est.polytope, [target]) <= 1e-8

    def test_pessimistic_equals_optimistic_for_singleton_s(self, prog_a):
        # S singleton everywhere: the double reflection collapses
        p_est = estimate_pessimistic(prog_a, [0.5], "semicompact", GRID, CAPS)
        o_est = estimate_optimistic(prog_a, [0.5], "semicompact", GRID, CAPS)
        for v in o_est.polytope.vertices:
            assert distance(p_est.polytope, list(v)) <= 1e-9
        for v in p_est.polytope.vertices:
            assert distance(o_est.polytope, list(v)) <= 1e-9

    def test_constant_upper_objective(self):
        prog = BilevelProgram(
            n=1, m=1, F=Expr.const(2.5), f=Expr.const(0.0),
            g=(neg(Y1), Y1 - 1.0),
            box_x=((-1, 1),), box_y=((-2, 2),))
        for variant in ("semicompact", "convex", "semicontinuous"):
            est = estimate_optimistic(prog, [0.2], variant, GRID, CAPS)
            assert distance(est.polytope, [0.0]) <= 1e-9
            assert len(est.polytope.rays) == 0 or all(
                distance(est.polytope, [0.0]) <= 1e-9 for _ in est.polytope.rays)

    def test_caps_monotonicity(self, prog_b):
        small = Caps(r_max=2.0, log_r_max=0, max_solution_samples=4)
        big = Caps(r_max=10.0, log_r_max=1, max_solution_samples=12)
        e_small = estimate_optimistic(prog_b, [0.0], "semicompact", GRID, small)
        e_big = estimate_optimistic(prog_b, [0.0], "semicompact", GRID, big)
        for v in e_small.polytope.vertices:
            assert distance(e_big.polytope, list(v)) <= 1e-12


class TestOracleContainment:
    # fd oracle tuning: radius small enough that the curvature shift
    # (|phi''| * radius) stays inside the tolerance, step large enough
    # that grid snapping noise (finest cell / step) divides out; central
    # differences are exact on quadratic pieces regardless of step.
    ORACLE = GridSpec(points_per_dim=201, refine_depth=6)
    FD = dict(n_dirs=6, radius=1e-5, step=1e-3)

    def test_fd_clusters_inside_estimates(self, prog_a, prog_c):
        slack = 1e-4 + 2.0 * self.ORACLE.finest_cell(prog_a.box_y) * 2.0
        h = value_function(prog_a, "phi_o", self.ORACLE)
        for x in (0.3, 0.7, 1.2):
            clusters = fd_subgradient_samples(h, [x], **self.FD)
            est = estimate_optimistic(prog_a, [x], "semicompact", self.ORACLE, CAPS)
            for c in clusters.arrays():
                assert distance(est.polytope, list(c)) <= slack
        hp = value_function(prog_c, "phi_p", self.ORACLE)
        clusters = fd_subgradient_samples(hp, [0.0], n_dirs=6,
                                          radius=1e-3, step=1e-5)
        est = estimate_pessimistic(prog_c, [0.0], "semicompact", self.ORACLE, CAPS)
        assert len(clusters) == 2
        for c in clusters.arrays():
            assert distance(est.polytope, list(c)) <= slack


class TestSimpleConvex:
    def test_quadratic_tracking(self):
        # F = (x-1)^2 + y^2, f = y^2, no g: S = {0}; d_x F(0, 0) = -2
        prog = BilevelProgram(
            n=1, m=1, F=(X1 - 1.0) ** 2 + Y1**2, f=Y1**2, g=(),
            box_x=((-2, 2),), box_y=((-1, 1),))
        est = estimate_simple_convex(prog, [0.0], GRID, CAPS)
        assert distance(est.polytope, [-2.0]) <= 1e-6

    def test_f_independent_of_x(self):
        prog = BilevelProgram(
            n=1, m=1, F=Y1**2, f=Y1**2, g=(),
            box_x=((-2, 2),), box_y=((-1, 1),))
        est = estimate_simple_convex(prog, [0.7], GRID, CAPS)
        assert distance(est.polytope, [0.0]) <= 1e-9

    def test_x_in_lower_data_rejected(self, prog_a):
        with pytest.raises(NotApplicableError):
            estimate_simple_convex(prog_a, [0.5], GRID, CAPS)

    def test_nonconvex_rejected(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1 * Y1, f=neg(Y1**2), g=(),
            box_x=((-1, 1),), box_y=((-1, 1),))
        with pytest.raises(NotApplicableError):
            estimate_simple_convex(prog, [0.0], GRID, CAPS)


def test_smooth_f_difference_term_is_exactly_zero():
    # generator-level cancellation: for a singleton x-gradient hull the
    # symmetric difference set is exactly {0} and scaling keeps it there
    p = Polytope.singleton([0.75])
    diff = minkowski_sum(p, negate(p))
    assert diff.vertices.tolist() == [[0.0]]
    assert scale(diff, 7.0).vertices.tolist() == [[0.0]]


def test_estimate_constant_upper_is_zero_pessimistic(prog_c):
    from bilevelsense.model import BilevelProgram, Expr, neg as _neg

    prog = BilevelProgram(
        n=1, m=1, F=Expr.const(4.0), f=Expr.const(0.0),
        g=(_neg(Y1), Y1 - 1.0),
        box_x=((-1, 1),), box_y=((-2, 2),), mode="pessimistic")
    est = estimate_pessimistic(prog, [0.3], "semicompact", GRID, CAPS)
    assert distance(est.polytope, [0.0]) <= 1e-9


def _simplex_lattice(k, steps):
    """Lattice points of the (k-1)-simplex with the given subdivision."""
    return [np.array(c) / steps
            for c in itertools.product(range(steps + 1), repeat=k)
            if sum(c) == steps]


def test_simplex_discretization_cross_check(prog_b):
    # the hull-of-affine-images estimate is attained at simplex vertices;
    # interior lattice points of the tuple-weight simplex must land inside
    from bilevelsense.sensitivity import (
        _inclusion_system,
        _solve_inclusion,
        grid_blur,
        stationary_cover_hull,
    )
    from bilevelsense.valuefn import lower_solutions

    xbar = [0.0]
    est = estimate_optimistic(prog_b, xbar, "semicompact", GRID, CAPS)
    blur = grid_blur(GRID, prog_b)
    sol = lower_solutions(prog_b, xbar, GRID)
    cover = stationary_cover_hull(prog_b, xbar, sol, blur, CAPS,
                                  stat_tol=blur).polytope
    cover_pts = [np.array(v) for v in cover.vertices][:3]
    samples = sol.points[:2]
    for ypt in samples:
        for r in (0.0, 1.0, 10.0):
            inc = _solve_inclusion(_inclusion_system(prog_b, xbar, list(ypt), blur,
                                                     include_F=True), (r,), blur)[0]
            if inc.polytope.is_empty:
                continue
            for weights in _simplex_lattice(len(cover_pts), 5):
                agg = sum(w * q for w, q in zip(weights, cover_pts))
                for a in inc.polytope.vertices:
                    xstar = np.array(a) - r * agg
                    assert distance(est.polytope, list(xstar)) <= 1e-9


# -- one inclusion system per sampled y, and the exact V-rep memo ----------------


@pytest.mark.parametrize("variant", ["semicompact", "semicontinuous"])
def test_inclusion_generators_do_not_scale_with_the_r_grid(monkeypatch, prog_a,
                                                           prog_b, variant):
    # r moves only the right-hand side, so the Clarke generators of each
    # (sampled y, expression) are taken once per system, not once per r
    from bilevelsense import sensitivity

    calls = []

    def counting(e, x, y, tol_active=None):
        calls.append((e, tuple(y)))
        return clarke_generators(e, x, y, tol_active)

    monkeypatch.setattr(sensitivity, "clarke_generators", counting)
    for prog, x in ((prog_a, [0.5]), (prog_b, [0.0])):
        counts = []
        for caps in (Caps(), Caps(log_r_min=-6, log_r_max=3)):
            calls.clear()
            estimate_optimistic(prog, x, variant, GRID, caps)
            counts.append(len(calls))
        assert len(caps.r_grid()) > len(Caps().r_grid())
        assert counts[0] == counts[1]
        # the covector system and the inclusion system of one y each take
        # its generators once
        assert len(calls) <= 2 * len(set(calls))


def _outcomes(prog, x, grid):
    """Every estimate variant at x, as arrays or as the error raised."""
    from bilevelsense.errors import ToolkitError

    out = []
    for mode, variant in (("o", "semicompact"), ("o", "convex"),
                          ("o", "semicontinuous"), ("p", "semicompact")):
        fn = estimate_optimistic if mode == "o" else estimate_pessimistic
        try:
            est = fn(prog, x, variant, grid, CAPS)
        except ToolkitError as exc:
            out.append((type(exc).__name__, str(exc)))
            continue
        out.append((np.array(est.polytope.vertices, dtype=float),
                    np.array(est.polytope.rays, dtype=float),
                    est.truncated, est.notes))
    return out


def _assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert len(a) == len(b)
        for u, v in zip(a, b):
            if isinstance(u, np.ndarray):
                assert u.shape == v.shape
                assert np.array_equal(u, v)
                assert np.array_equal(np.signbit(u), np.signbit(v))
            else:
                assert u == v


def _same_with_and_without_vrep_memo(monkeypatch, prog, x, grid):
    from bilevelsense import _polyalg

    _polyalg._vrep.cache_clear()
    cold = _outcomes(prog, x, grid)
    warm = _outcomes(prog, x, grid)
    with monkeypatch.context() as mp:
        # every standard_vrep call enumerates afresh
        mp.setattr(_polyalg, "_vrep", _polyalg._vrep.__wrapped__)
        fresh = _outcomes(prog, x, grid)
    _assert_same_outcomes(cold, fresh)
    _assert_same_outcomes(warm, fresh)


@pytest.mark.parametrize("case", [("a", [0.5]), ("a", [1.2]), ("b", [0.0]),
                                  ("b", [0.4]), ("c", [0.0]), ("c", [-0.5])])
def test_estimates_identical_with_and_without_vrep_memo(monkeypatch, case,
                                                        prog_a, prog_b, prog_c):
    name, x = case
    prog = {"a": prog_a, "b": prog_b, "c": prog_c}[name]
    _same_with_and_without_vrep_memo(monkeypatch, prog, x, GRID)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=piecewise_affine_programs())
def test_drawn_estimates_identical_with_and_without_vrep_memo(monkeypatch, case):
    prog, x = case
    _same_with_and_without_vrep_memo(monkeypatch, prog, x, SHARED_GRID)


# -- the multiplier sets read the one lifted system -------------------------------
#
# Test-side copies of the column builders that lambda_set and lambda_o_set
# used before they read `_inclusion_system`.  The library must hand
# standard_vrep the same (A, b), byte for byte and signed zeros included,
# and return the same sets.


def _reference_multiplier_set(prog, xbar, y, tol_active, stat_tol, kind):
    from bilevelsense.sensitivity import (
        _active_indices,
        _dedup_rows,
        _normalize_ray,
        _vrep_fallback,
    )

    xbar = [float(v) for v in np.atleast_1d(xbar)]
    y = [float(v) for v in np.atleast_1d(y)]
    active = _active_indices(prog, xbar, y, tol_active)
    n, m, p = prog.n, prog.m, prog.p
    cols, meta = [], []
    if kind == "lambda_o":
        for gvec in clarke_generators(prog.F, xbar, y, tol_active):
            cols.append(np.concatenate([gvec[n:], [1.0]]))
            meta.append(("F", None))
    f_tag, f_sum = ("r", 0.0) if kind == "lambda_o" else ("f", 1.0)
    for gvec in clarke_generators(prog.f, xbar, y, tol_active):
        cols.append(np.concatenate([gvec[n:], [f_sum]]))
        meta.append((f_tag, None))
    for i in active:
        for gvec in clarke_generators(prog.g[i], xbar, y, tol_active):
            cols.append(np.concatenate([gvec[n:], [0.0]]))
            meta.append(("g", i))
    A = np.column_stack(cols)
    b = np.concatenate([np.zeros(m), [1.0]])
    (verts, rays), = _vrep_fallback(A, b[None], stat_tol)
    shift = 1 if kind == "lambda_o" else 0

    def project(w):
        out = np.zeros(shift + p)
        for wv, (tag, i) in zip(w, meta):
            if tag == "r":
                out[0] += wv
            elif tag == "g":
                out[shift + i] += wv
        return out

    vert_pts = _dedup_rows([project(w) for w in verts])
    ray_pts = _dedup_rows([_normalize_ray(project(w)) for w in rays
                           if np.max(np.abs(project(w))) > 1e-12])
    return MultiplierSet(kind, shift + p,
                         tuple(tuple(v.tolist()) for v in vert_pts),
                         tuple(tuple(r.tolist()) for r in ray_pts),
                         tuple(active))


def _recorded_vrep_inputs(monkeypatch):
    """Every (A, b) handed to standard_vrep from sensitivity, as bytes."""
    from bilevelsense import sensitivity

    calls = []
    vrep = sensitivity.standard_vrep

    def recorded(A, b, *args, **kwargs):
        calls.append((A.dtype.str, A.shape, A.tobytes(), b.dtype.str,
                      b.tobytes(), args, sorted(kwargs.items())))
        return vrep(A, b, *args, **kwargs)

    monkeypatch.setattr(sensitivity, "standard_vrep", recorded)
    return calls


def _assert_multiplier_sets_match_reference(monkeypatch, prog, x, grid):
    from bilevelsense.sensitivity import _subsample, grid_blur

    calls = _recorded_vrep_inputs(monkeypatch)
    blur = grid_blur(grid, prog)
    ys = _subsample(lower_solutions(prog, x, grid).points, 4)
    checked = 0
    for y in ys:
        # the defaults, and the tolerances the estimates run them with
        for tol_active, stat_tol in ((1e-8, None), (max(1e-8, blur), blur)):
            for fn, kind in ((lambda_set, "lambda"), (lambda_o_set, "lambda_o")):
                calls.clear()
                got = fn(prog, x, list(y), tol_active, stat_tol)
                got_calls = list(calls)
                calls.clear()
                want = _reference_multiplier_set(prog, x, list(y), tol_active,
                                                 stat_tol, kind)
                assert got_calls and got_calls == calls
                assert exact(got) == exact(want)  # signed zeros too
                checked += 1
    assert checked


@pytest.mark.parametrize("case", [("a", [0.5]), ("a", [0.0]), ("a", [1.2]),
                                  ("b", [0.0]), ("b", [0.4]), ("c", [0.0]),
                                  ("c", [-0.5]), ("c", [0.3])])
def test_multiplier_sets_match_the_hand_built_columns(monkeypatch, case, prog_a,
                                                      prog_b, prog_c):
    name, x = case
    prog = {"a": prog_a, "b": prog_b, "c": prog_c}[name]
    for p in (prog, prog.negated_upper()):
        _assert_multiplier_sets_match_reference(monkeypatch, p, x, GRID)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=piecewise_affine_programs())
def test_drawn_multiplier_sets_match_the_hand_built_columns(monkeypatch, case):
    # the pessimistic estimates run the optimistic machinery on the
    # negated-upper program, so both programs are checked
    prog, x = case
    for p in (prog, prog.negated_upper()):
        _assert_multiplier_sets_match_reference(monkeypatch, p, x, SHARED_GRID)
