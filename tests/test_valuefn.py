import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bilevelsense.errors import InfeasibleError, UnsupportedDimensionError
from bilevelsense.model import (
    BilevelProgram,
    Expr,
    eabs,
    emax,
    eval_expr,
    neg,
    parse_program,
)
from bilevelsense.valuefn import (
    GridSpec,
    _dedup_points,
    _solve_lower,
    _sweep,
    curve_to_csv,
    lower_solutions,
    lower_value,
    optimistic_solutions,
    optimistic_value,
    pessimistic_solutions,
    pessimistic_value,
    pessimistic_value_direct,
    sample_curve,
)

from conftest import brute_force_lower

GRID = GridSpec()
FINE = GridSpec(points_per_dim=201, refine_depth=5)


class TestLowerValue:
    def test_instance_a_halfpoint(self, prog_a):
        # brute-force oracle: S(x) = {x} for x >= 0, phi(0.5) = -0.5
        oracle_phi, *_ = brute_force_lower(prog_a, [0.5])
        assert oracle_phi == pytest.approx(-0.5, abs=1e-3)
        assert lower_value(prog_a, [0.5], GRID) == pytest.approx(-0.5, abs=1e-4)

    def test_constant_objective(self, prog_c):
        assert lower_value(prog_c, [0.7], GRID) == 0.0

    def test_infeasible(self):
        text = """
[dims]
n = 1
m = 1
[upper]
objective = x1
[lower]
objective = y1
constraint = y1 + 5
constraint = -5 - y1
[box]
x1 = -1, 1
y1 = -2, 2
[mode]
optimistic
"""
        prog = parse_program(text)
        with pytest.raises(InfeasibleError):
            lower_value(prog, [0.0], GRID)

    def test_x_outside_feasibility(self, prog_a):
        # K(x) empty for x < 0
        with pytest.raises(InfeasibleError):
            lower_value(prog_a, [-0.5], GRID)


class TestSolutions:
    def test_singleton_tracking(self, prog_a):
        sol = lower_solutions(prog_a, [0.5], GRID)
        assert len(sol) == 1
        assert sol.points[0][0] == pytest.approx(0.5, abs=sol.finest_cell)

    def test_flat_objective_covers_interval(self, prog_c):
        sol = lower_solutions(prog_c, [0.3], GRID)
        pts = sorted(p[0] for p in sol.points)
        assert pts[0] == pytest.approx(0.0, abs=1e-9)
        assert pts[-1] == pytest.approx(1.0, abs=1e-9)
        gaps = np.diff(pts)
        assert np.max(gaps) < 0.05

    def test_infeasible_raises(self, prog_a):
        with pytest.raises(InfeasibleError):
            lower_solutions(prog_a, [-1.0], GRID)


class TestTwoLevelValues:
    def test_instance_c_origin(self, prog_c):
        assert optimistic_value(prog_c, [0.0], GRID) == pytest.approx(0.0, abs=1e-12)
        assert pessimistic_value(prog_c, [0.0], GRID) == pytest.approx(0.0, abs=1e-12)

    def test_instance_c_at_one(self, prog_c):
        # S(1) = [0, 1]; extremes of y -> y
        assert optimistic_value(prog_c, [1.0], GRID) == pytest.approx(0.0, abs=1e-9)
        assert pessimistic_value(prog_c, [1.0], GRID) == pytest.approx(1.0, abs=1e-9)

    def test_instance_a_halfpoint(self, prog_a):
        # S singleton {0.5}: F = 0.25 + 0.25
        vo = optimistic_value(prog_a, [0.5], GRID)
        vp = pessimistic_value(prog_a, [0.5], GRID)
        assert vo == pytest.approx(0.5, abs=1e-4)
        assert vp == pytest.approx(0.5, abs=1e-4)

    def test_sign_identity_exact(self, prog_a, prog_b, prog_c):
        for prog, xs in (
            (prog_a, np.linspace(0.0, 1.0, 11)),
            (prog_b, np.linspace(-1.0, 1.0, 11)),
            (prog_c, np.linspace(-1.0, 1.0, 11)),
        ):
            negp = prog.negated_upper()
            for x in xs:
                vp = pessimistic_value(prog, [x], GRID)
                vo_neg = optimistic_value(negp, [x], GRID)
                assert abs(vp + vo_neg) <= 1e-12
                assert abs(vp - pessimistic_value_direct(prog, [x], GRID)) <= 1e-12

    def test_solution_set_extremes(self, prog_c):
        so = optimistic_solutions(prog_c, [1.0], GRID)
        sp = pessimistic_solutions(prog_c, [1.0], GRID)
        assert [p[0] for p in so.points] == pytest.approx([0.0], abs=1e-9)
        assert [p[0] for p in sp.points] == pytest.approx([1.0], abs=1e-9)
        assert sp.value == pytest.approx(1.0, abs=1e-9)

    def test_singleton_s_collapses(self, prog_a):
        so = optimistic_solutions(prog_a, [0.5], GRID)
        sp = pessimistic_solutions(prog_a, [0.5], GRID)
        assert len(so) == len(sp) == 1
        assert so.points[0][0] == pytest.approx(sp.points[0][0], abs=1e-12)


class TestInvariants:
    def test_sandwich(self, prog_c):
        for x in np.linspace(-1, 1, 7):
            vo = optimistic_value(prog_c, [x], GRID)
            vp = pessimistic_value(prog_c, [x], GRID)
            sol = lower_solutions(prog_c, [x], GRID)
            for p in sol.arrays():
                Fv = eval_expr(prog_c.F, [x], list(p))
                assert vo - 1e-9 <= Fv <= vp + 1e-9

    def test_phi_lower_bounds_f(self, prog_a):
        phi = lower_value(prog_a, [0.8], GRID)
        sol = lower_solutions(prog_a, [0.8], GRID)
        for p in sol.arrays():
            fv = eval_expr(prog_a.f, [0.8], list(p))
            assert phi <= fv + sol.tol_val

    def test_refinement_monotonicity(self, prog_a, prog_c):
        # phi always improves with depth; the two-level values are
        # monotone wherever the optimality band is depth-stable (flat f,
        # or S pinned on the coarse lattice).
        for prog, x in ((prog_a, [0.37]), (prog_c, [0.61])):
            shallow = GridSpec(points_per_dim=101, refine_depth=0)
            deep = GridSpec(points_per_dim=101, refine_depth=3)
            assert lower_value(prog, x, deep) <= lower_value(prog, x, shallow) + 1e-12
        for depth_a, depth_b in ((0, 1), (1, 3)):
            ga = GridSpec(points_per_dim=201, refine_depth=depth_a)
            gb = GridSpec(points_per_dim=201, refine_depth=depth_b)
            assert optimistic_value(prog_c, [0.61], gb) <= optimistic_value(prog_c, [0.61], ga) + 1e-12
            assert pessimistic_value(prog_c, [0.61], gb) >= pessimistic_value(prog_c, [0.61], ga) - 1e-12
            assert optimistic_value(prog_a, [0.5], gb) <= optimistic_value(prog_a, [0.5], ga) + 1e-12
            assert pessimistic_value(prog_a, [0.5], gb) >= pessimistic_value(prog_a, [0.5], ga) - 1e-12


class TestCurves:
    def test_pessimistic_curve_matches_positive_part(self, prog_c):
        rows = sample_curve(prog_c, "phi_p", GRID, x_range=(-1.0, 1.0, 21))
        cell = 2.0 * GRID.coarse_cell(prog_c.box_y)
        for row in rows:
            assert row.status == "ok"
            assert row.value == pytest.approx(max(row.x[0], 0.0), abs=cell)

    def test_optimistic_curve_closed_form(self, prog_a):
        rows = sample_curve(prog_a, "phi_o", GRID, x_range=(0.0, 1.0, 21))
        for row in rows:
            x = row.x[0]
            assert row.value == pytest.approx((x - 1) ** 2 + x**2, abs=1e-4)

    def test_constant_objective_curves(self):
        text = INSTANCE_CONST
        prog = parse_program(text)
        rows_o = sample_curve(prog, "phi_o", GRID, x_range=(-1, 1, 5))
        rows_p = sample_curve(prog, "phi_p", GRID, x_range=(-1, 1, 5))
        for ro, rp in zip(rows_o, rows_p):
            assert ro.value == pytest.approx(3.0, abs=1e-12)
            assert rp.value == pytest.approx(3.0, abs=1e-12)

    def test_infeasible_rows_flagged(self, prog_a):
        rows = sample_curve(prog_a, "phi", GRID, x_range=(-0.5, 0.5, 5))
        statuses = [r.status for r in rows]
        assert "infeasible" in statuses and "ok" in statuses

    def test_csv_format(self, prog_c):
        rows = sample_curve(prog_c, "phi_p", GRID, x_range=(0.0, 1.0, 3))
        text = curve_to_csv(rows, prog_c.n)
        lines = text.strip().splitlines()
        assert lines[0] == "x1,value,status"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and first[2] == "ok"

    def test_dimension_guard(self):
        prog = BilevelProgram(
            n=3, m=1,
            F=Expr.x(1), f=Expr.y(1),
            box_x=((-1, 1),) * 3, box_y=((-1, 1),),
        )
        with pytest.raises(UnsupportedDimensionError):
            sample_curve(prog, "phi")

    def test_collinearity_on_affine_instance(self):
        # piecewise linearity of phi for all-affine data: three-point test
        # away from breakpoints
        from instances import make_affine_instance

        prog = make_affine_instance(11)
        rows = sample_curve(prog, "phi", FINE, x_range=(-0.9, 0.9, 31))
        vals = [r.value for r in rows]
        for i in range(1, len(vals) - 1):
            mid_dev = abs(vals[i] - 0.5 * (vals[i - 1] + vals[i + 1]))
            assert mid_dev <= 1e-6


INSTANCE_CONST = """
[dims]
n = 1
m = 1
[upper]
objective = 3
[lower]
objective = 0
constraint = -y1
constraint = y1 - 1
[box]
x1 = -1, 1
y1 = -2, 2
[mode]
optimistic
"""


# -- solution-set dedup against an all-pairs greedy -----------------------------


def greedy_dedup_all_pairs(points, resolution):
    """Reference: keep a point unless some kept point is within resolution
    in the max norm; every candidate is compared with every kept point."""
    kept = []
    for p in points:
        if all(max(abs(a - b) for a, b in zip(p, q)) > resolution for q in kept):
            kept.append(p)
    return kept


def _lattice(box, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    return [tuple(float(v) for v in combo)
            for combo in np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(box), -1).T]


@st.composite
def solution_clouds(draw):
    """Coarse lattice plus 21-point refinement windows of +-1 cell around
    seeds, clipped at the box edge (half the usual spacing there), plus
    near-duplicates about 1e-17 or one ulp apart, in a drawn order."""
    m = draw(st.sampled_from([1, 2]))
    lo = draw(st.floats(-1.5, 0.0))
    hi = lo + draw(st.floats(0.25, 3.0))
    box = [(lo, hi)] * m
    count = draw(st.integers(3, 40 if m == 1 else 6))
    cell = (hi - lo) / (count - 1)
    coarse = _lattice(box, count)
    points = list(coarse)
    n_windows = draw(st.integers(1, 4 if m == 1 else 1))
    for _ in range(n_windows):
        # seeds on the box edge give the clipped windows
        seed = coarse[draw(st.sampled_from([0, len(coarse) - 1,
                                            draw(st.integers(0, len(coarse) - 1))]))]
        window = [(max(lo, s - cell), min(hi, s + cell)) for s in seed]
        points += _lattice(window, 21)
    for _ in range(draw(st.integers(0, 6))):
        p = points[draw(st.integers(0, len(points) - 1))]
        j = draw(st.integers(0, m - 1))
        shift = draw(st.sampled_from(["up", "down", "tiny", "-tiny"]))
        v = {"up": np.nextafter(p[j], np.inf), "down": np.nextafter(p[j], -np.inf),
             "tiny": p[j] + 1e-17, "-tiny": p[j] - 1e-17}[shift]
        points.append(p[:j] + (float(v),) + p[j + 1:])
    order = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(points))
    points = [points[i] for i in order]
    resolution = draw(st.sampled_from([0.999 * cell, cell, 0.999 * cell / 10,
                                       cell / 10, cell / 20, 0.5 * cell]))
    return points, resolution


@settings(max_examples=60, deadline=None)
@given(cloud=solution_clouds())
def test_dedup_matches_all_pairs_greedy(cloud):
    points, resolution = cloud
    kept = _dedup_points(np.array(points), resolution)
    assert [tuple(float(v) for v in p) for p in kept] == \
        greedy_dedup_all_pairs(points, resolution)


def test_dedup_drops_points_exactly_at_resolution():
    pts = np.array([[0.0], [0.25], [0.5], [0.5 + 1e-17], [0.75 + 2 ** -40]])
    kept = _dedup_points(pts, 0.25)
    assert [float(p[0]) for p in kept] == [0.0, 0.5, 0.75 + 2 ** -40]


def test_cached_sweep_arrays_are_read_only(prog_c):
    _, pool_y, pool_f, pool_F = _solve_lower(
        prog_c.m, prog_c.f, prog_c.g, prog_c.box_y, prog_c.F, (0.3,), GRID)
    for arr in (pool_y, pool_f, pool_F):
        with pytest.raises(ValueError):
            arr[0] = 7.0


# -- one sweep per lower-level problem ------------------------------------------

SHARED_GRID = GridSpec(points_per_dim=11, refine_depth=2, refine_points=11)

CALLS = (lower_value, optimistic_value, pessimistic_value,
         pessimistic_value_direct, lower_solutions, optimistic_solutions,
         pessimistic_solutions)


def _affine(rng, n, m):
    e = Expr.const(float(rng.integers(-4, 5)) / 4)
    for i in range(1, n + 1):
        e = e + float(rng.integers(-4, 5)) / 4 * Expr.x(i)
    for j in range(1, m + 1):
        e = e + float(rng.integers(-4, 5)) / 4 * Expr.y(j)
    return e


@st.composite
def piecewise_affine_programs(draw):
    """Seeded n, m <= 2 programs with max/abs kinks in F, f and g.  Every
    constraint is at most 0 at y = 0 for all x in the box, and y = 0 is on
    the sweep lattice, so every x is feasible.  F carries zero to two
    top-level negations."""
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = emax(_affine(rng, n, m), _affine(rng, n, m)) + eabs(_affine(rng, n, m))
    for _ in range(draw(st.integers(0, 2))):
        F = neg(F)
    # a constant f makes S(x) the whole feasible set
    f = eabs(_affine(rng, n, m)) if rng.random() < 0.5 else Expr.const(0.0)
    g = []
    for _ in range(draw(st.integers(0, 2))):
        # at y = 0 each affine piece is at most n + 1 for x in the box
        g.append(emax(_affine(rng, n, m), _affine(rng, n, m)) - float(n + 1))
    x = [float(v) for v in rng.uniform(-1.0, 1.0, n)]
    prog = BilevelProgram(n=n, m=m, F=F, f=f, g=tuple(g),
                          box_x=((-1.0, 1.0),) * n, box_y=((-1.0, 1.0),) * m)
    return prog, x


def _fresh(fn, prog, x):
    _solve_lower.cache_clear()
    return repr(fn(prog, x, SHARED_GRID))


@settings(max_examples=25, deadline=None)
@given(case=piecewise_affine_programs())
def test_negated_twin_shares_one_sweep(case):
    prog, x = case
    negp = prog.negated_upper()
    # a swept program's twin adds no sweep, for values and solution sets
    _solve_lower.cache_clear()
    optimistic_value(prog, x, SHARED_GRID)
    misses = _solve_lower.cache_info().misses
    pessimistic_value(prog, x, SHARED_GRID)
    pessimistic_solutions(prog, x, SHARED_GRID)
    assert _solve_lower.cache_info().misses == misses
    # every result is bit-identical (repr keeps the sign of zero) to the
    # same call on an empty cache, whichever twin is swept first
    fresh = [_fresh(fn, p, x) for p in (prog, negp) for fn in CALLS]
    for order in ((prog, negp), (negp, prog)):
        _solve_lower.cache_clear()
        got = {p: [repr(fn(p, x, SHARED_GRID)) for fn in CALLS] for p in order}
        assert got[prog] + got[negp] == fresh
        assert _solve_lower.cache_info().misses == 1
    for p in (prog, negp):
        assert pessimistic_value(p, x, SHARED_GRID) == \
            pessimistic_value_direct(p, x, SHARED_GRID)


@settings(max_examples=25, deadline=None)
@given(case=piecewise_affine_programs())
def test_twin_pool_is_the_negated_sweep(case):
    # the shared pool holds the points a sweep of the negated program on
    # its own would pool (only their order differs), and the twin's pool_F
    # is bit for bit neg(F) evaluated there, and read-only
    prog, x = case
    negp = prog.negated_upper()
    _, pool_y, pool_f, pool_F = _sweep(negp, x, SHARED_GRID)
    with pytest.raises(ValueError):
        pool_F[0] = 7.0
    direct = np.broadcast_to(np.asarray(eval_expr(
        negp.F, x, [pool_y[:, j] for j in range(negp.m)]), dtype=float),
        pool_F.shape)
    assert np.array_equal(pool_F, direct)
    assert np.array_equal(np.signbit(pool_F), np.signbit(direct))
    own = _solve_lower(negp.m, negp.f, negp.g, negp.box_y, negp.F,
                       tuple(x), SHARED_GRID)

    def rows(y, fv, Fv):
        table = np.column_stack([y, fv, Fv])
        return table[np.lexsort(table.T[::-1])]

    assert np.array_equal(rows(pool_y, pool_f, pool_F), rows(*own[1:]))
