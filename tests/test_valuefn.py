import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilevelsense.errors import (
    BudgetError,
    DimensionMismatchError,
    DomainError,
    InfeasibleError,
    UnsupportedDimensionError,
)
from bilevelsense.model import (
    BilevelProgram,
    Expr,
    eabs,
    eexp,
    elog,
    emax,
    emin,
    eval_expr,
    neg,
    parse_program,
)
from bilevelsense import Caps, valuefn
from bilevelsense.subdiff import FD_DIRS, FD_RADIUS, FD_STEP, fd_subgradient_samples
from bilevelsense.valuefn import (
    TOL_FEAS,
    GridSpec,
    SolutionSet,
    _dedup_points,
    _level_seeds,
    _refine_seeds,
    _solution_set,
    _solve_lower,
    _sweep,
    curve_to_csv,
    lower_solutions,
    lower_value,
    optimistic_solutions,
    optimistic_value,
    pessimistic_solutions,
    pessimistic_value,
    sample_curve,
    value_function,
)

from conftest import brute_force_lower, pessimistic_value_direct
from instances import exact, instance_a, instance_b, instance_c

GRID = GridSpec()
FINE = GridSpec(points_per_dim=201, refine_depth=5)
Y1, X1 = Expr.y(1), Expr.x(1)


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
            for p in sol.points.tolist():
                Fv = eval_expr(prog_c.F, [x], p)
                assert vo - 1e-9 <= Fv <= vp + 1e-9

    def test_phi_lower_bounds_f(self, prog_a):
        phi = lower_value(prog_a, [0.8], GRID)
        sol = lower_solutions(prog_a, [0.8], GRID)
        for p in sol.points.tolist():
            fv = eval_expr(prog_a.f, [0.8], p)
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


# -- solution-set dedup against an all-pairs greedy ----------------------------


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
    """Coarse lattice plus refinement windows of +-1 cell around seeds (21
    points per axis, 7 at m = 3), clipped at the box edge (half the usual
    spacing there), plus near-duplicates about 1e-17 or one ulp apart, in a
    drawn order.  The resolutions include the window spacings, so that a
    clipped window is a chain of near points whose survivors the order
    decides."""
    m = draw(st.sampled_from([1, 2, 3]))
    lo = draw(st.floats(-1.5, 0.0))
    hi = lo + draw(st.floats(0.25, 3.0))
    box = [(lo, hi)] * m
    count = draw(st.integers(3, {1: 40, 2: 6, 3: 4}[m]))
    cell = (hi - lo) / (count - 1)
    coarse = _lattice(box, count)
    points = list(coarse)
    n_windows = draw(st.integers(1, 4 if m == 1 else 1))
    window_points = 21 if m < 3 else 7
    for _ in range(n_windows):
        # seeds on the box edge give the clipped windows
        seed = coarse[draw(st.sampled_from([0, len(coarse) - 1,
                                            draw(st.integers(0, len(coarse) - 1))]))]
        window = [(max(lo, s - cell), min(hi, s + cell)) for s in seed]
        points += _lattice(window, window_points)
    for _ in range(draw(st.integers(0, 6))):
        p = points[draw(st.integers(0, len(points) - 1))]
        j = draw(st.integers(0, m - 1))
        shift = draw(st.sampled_from(["up", "down", "tiny", "-tiny"]))
        v = {"up": np.nextafter(p[j], np.inf), "down": np.nextafter(p[j], -np.inf),
             "tiny": p[j] + 1e-17, "-tiny": p[j] - 1e-17}[shift]
        points.append(p[:j] + (float(v),) + p[j + 1:])
    order = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).permutation(len(points))
    points = [points[i] for i in order]
    step = 2 * cell / (window_points - 1)  # a window's spacing, cell / 10 at 21
    resolution = draw(st.sampled_from([0.999 * cell, cell, 0.999 * step,
                                       step, step / 2, 0.5 * cell]))
    return points, resolution


@settings(max_examples=60, deadline=None)
@given(cloud=solution_clouds())
def test_dedup_matches_all_pairs_greedy(cloud):
    points, resolution = cloud
    kept = _dedup_points(np.array(points), resolution)
    assert [tuple(float(v) for v in p) for p in kept] == \
        greedy_dedup_all_pairs(points, resolution)


@pytest.mark.parametrize("field", ["points_per_dim", "refine_depth",
                                   "refine_points", "max_seeds"])
@pytest.mark.parametrize("bad", [2.5, 3.0, float("nan"), "5"])
def test_grid_spec_rejects_counts_that_are_not_integers(field, bad):
    # 11.5 points per axis or a NaN depth used to pass, then raise
    # TypeError at the first sweep
    with pytest.raises(ValueError, match=rf"^{field} must be an integer$"):
        GridSpec(**{field: bad})
    assert getattr(GridSpec(**{field: np.int64(5)}), field) == 5


def test_grid_spec_rejects_a_negative_max_seeds():
    # a refinement level picks up to max_seeds + 2 seeds per x
    with pytest.raises(ValueError, match="max_seeds"):
        GridSpec(max_seeds=-1)


@pytest.mark.parametrize("points", [-1, 0, 1])
def test_grid_spec_rejects_fewer_than_two_refine_points(points):
    # -1 used to end in numpy's linspace error inside the first refinement
    # level, 0 meshed no window and 1 only each window's low corner
    with pytest.raises(ValueError, match=r"^refine_points must be >= 2$"):
        GridSpec(refine_points=points)
    assert GridSpec(refine_points=2).refine_points == 2


@pytest.mark.parametrize("field, bad", [
    ("r_max", -1.0), ("r_max", float("nan")), ("r_max", float("inf")),
    ("u_max", -0.5), ("u_max", float("nan")), ("u_max", float("inf")),
    ("log_r_max", 309), ("log_r_max", 400),
    ("max_solution_samples", 0), ("max_solution_samples", -2),
    ("log_r_min", 0.5), ("log_r_max", float("nan")), ("log_r_max", 1.0),
    ("max_solution_samples", 2.5),
])
def test_caps_rejects_values_its_searches_cannot_use(field, bad):
    # r_max = -1 certified with a residual its recheck put at inf, a sample
    # cap below 1 and a NaN r_max ended in numpy's and scipy's ValueErrors,
    # and log_r_max = 400 in an OverflowError inside r_grid; a log_r_min of
    # 0.5 or a NaN or 1.0 log_r_max raised TypeError inside r_grid
    rule = {"log_r_max": "<= 308", "max_solution_samples": ">= 1"}
    message = f"{field} must be {rule.get(field, 'finite and >= 0')}"
    if field not in ("r_max", "u_max") and not isinstance(bad, int):
        message = f"{field} must be an integer"
    with pytest.raises(ValueError, match=rf"^{message}$"):
        Caps(**{field: bad})
    edge = {"log_r_min": 0, "log_r_max": 308,
            "max_solution_samples": 1}.get(field, 0.0)
    assert getattr(Caps(**{field: edge}), field) == edge


def bucket_loop_dedup(points, resolution):
    """Reference: the greedy as a loop over the points, each compared with
    the kept points in its 3^m neighbouring buckets of width 2 * resolution
    (the library's form before it resolved the greedy over near pairs)."""
    cells = np.floor(points / (2.0 * resolution))
    offsets = list(itertools.product((-1, 0, 1), repeat=points.shape[1]))
    buckets, kept = {}, []
    for q, (p, cell) in enumerate(zip(points, cells.tolist())):
        near = [k for off in offsets
                for k in buckets.get(tuple(c + o for c, o in zip(cell, off)), ())]
        if near and not np.all(np.max(np.abs(points[near] - p), axis=1) > resolution):
            continue
        kept.append(q)
        buckets.setdefault(tuple(cell), []).append(q)
    return points[kept]


def test_dedup_of_a_flat_default_grid_solution_set_matches_the_bucket_loop(monkeypatch):
    # S(x) of a flat m = 2 follower at the default grid is every coarse
    # point plus the refinement windows, about 40,000 points before dedup
    seen = []

    def spy(points, resolution):
        seen.append((points, resolution))
        return _dedup_points(points, resolution)

    monkeypatch.setattr(valuefn, "_dedup_points", spy)
    sol = lower_solutions(replace(FLAT_2D, F=Expr.y(2)), [0.25], GRID)
    (points, resolution), = seen
    assert len(points) > 40000
    want = bucket_loop_dedup(points, resolution)
    assert np.array_equal(sol.points, want)
    assert np.array_equal(np.signbit(sol.points), np.signbit(want))


@pytest.mark.parametrize("upper", ["nan", "inf", "minus_inf"])
def test_an_upper_value_that_is_not_finite_raises(upper):
    # F = inf - inf (NaN), inf or -inf at every feasible y: phi_o and phi_p
    # are not finite, and S_o(x) would select no point (NaN, -inf) or the
    # whole band (inf); each value and solution call that reads F raises,
    # and S(x) and phi, which do not read F, are still returned
    big = Y1 * 1e308 * 1e308
    F = {"nan": big - big, "inf": big, "minus_inf": neg(big)}[upper]
    prog = BilevelProgram(n=1, m=1, F=F, f=Expr.const(0.0),
                          box_x=((-1.0, 1.0),), box_y=((0.5, 1.0),))
    _solve_lower.cache_clear()
    _solution_set.cache_clear()
    with np.errstate(over="ignore", invalid="ignore"):
        for fn in (optimistic_value, pessimistic_value, optimistic_solutions,
                   pessimistic_solutions):
            with pytest.raises(DomainError, match="value is not finite"):
                fn(prog, [0.0], SHARED_GRID)
        assert lower_value(prog, [0.0], SHARED_GRID) == 0.0
        assert len(lower_solutions(prog, [0.0], SHARED_GRID).points) > 0


def test_dedup_drops_points_exactly_at_resolution():
    pts = np.array([[0.0], [0.25], [0.5], [0.5 + 1e-17], [0.75 + 2 ** -40]])
    kept = _dedup_points(pts, 0.25)
    assert [float(p[0]) for p in kept] == [0.0, 0.5, 0.75 + 2 ** -40]


# -- one sweep per lower-level problem -----------------------------------------

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


# -- the batched sweep against an independent per-window sweep -----------------


def _ref_values(e, x, ys):
    cols = [ys[:, j] for j in range(ys.shape[1])]
    return np.broadcast_to(np.asarray(eval_expr(e, list(x), cols), dtype=float),
                           (len(ys),))


def _ref_grid(box, count):
    axes = [np.linspace(lo, hi, count) for lo, hi in box]
    return np.array(list(itertools.product(*axes)), dtype=float).reshape(-1, len(box))


def reference_seeds(ys, fs, Fs, k):
    """The first k points of one full (f, lexicographic y, index) sort, then
    the first lexicographic minimiser and maximiser of F over the band
    f <= phi + 1e-6 (1 + |phi|) as np.argmin/np.argmax over the whole band
    in lexicographic order pick them (a NaN wins), each kept unless within
    1e-15 of a kept seed."""
    picks = list(np.lexsort(tuple(ys.T[::-1]) + (fs,))[:k])
    phi = float(np.min(fs))
    band = sorted(np.flatnonzero(fs <= phi + 1e-6 * (1.0 + abs(phi))),
                  key=lambda i: tuple(ys[i]))
    if band:
        picks += [band[int(np.argmin(Fs[band]))], band[int(np.argmax(Fs[band]))]]
    seeds = []
    for i in picks:
        if all(np.max(np.abs(s - ys[i])) >= 1e-15 for s in seeds):
            seeds.append(ys[i])
    return seeds


def reference_sweep(prog, x, grid):
    """Per-window sweep: every window is meshed, filtered and evaluated on
    its own, clipped to the box with Python's max/min, around seeds from a
    full sort.  (pool_y, pool_f, pool_F), or None when nothing is feasible."""
    def feasible(ys):
        keep = np.ones(len(ys), dtype=bool)
        for gi in prog.g:
            keep &= _ref_values(gi, x, ys) <= TOL_FEAS
        return ys[keep]

    ys = feasible(_ref_grid(prog.box_y, grid.points_per_dim))
    if not len(ys):
        return None
    fs, Fs = _ref_values(prog.f, x, ys), _ref_values(prog.F, x, ys)
    cell = [(hi - lo) / (grid.points_per_dim - 1) for lo, hi in prog.box_y]
    for _ in range(grid.refine_depth):
        for seed in reference_seeds(ys, fs, Fs, grid.max_seeds):
            window = [(max(lo, s - c), min(hi, s + c))
                      for (lo, hi), s, c in zip(prog.box_y, seed, cell)]
            new = feasible(_ref_grid(window, grid.refine_points))
            ys = np.vstack([ys, new])
            fs = np.concatenate([fs, _ref_values(prog.f, x, new)])
            Fs = np.concatenate([Fs, _ref_values(prog.F, x, new)])
        cell = [c / 10.0 for c in cell]
    return ys, fs, Fs


SWEEP_GRIDS = (SHARED_GRID,
               GridSpec(points_per_dim=9, refine_depth=3, refine_points=7, max_seeds=2))

# minima at 0 and at the box edge 1: from about level 16 on the window at 1
# is narrower than an ulp while the one at 0 is not, so one level holds
# windows with zero and nonzero steps
TWO_MINIMA = BilevelProgram(
    n=1, m=1, F=Expr.y(1), f=emin(eabs(Expr.y(1)), eabs(Expr.y(1) - 1.0)),
    box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))
DEEP_GRID = GridSpec(points_per_dim=5, refine_depth=18, refine_points=11)

# the box ends at -0.0, and the window around the seed -0.25 ends at
# -0.25 + 0.25 = +0.0: Python's min keeps the box's -0.0
SIGNED_ZERO_EDGE = BilevelProgram(
    n=1, m=1, F=Expr.y(1), f=eabs(Expr.y(1) + Expr.x(1)),
    box_x=((-1.0, 1.0),), box_y=((-1.0, -0.0),))


# upper objectives whose band extremes tie: everywhere, on half the box, and
# between -0.0 (y1 < 0) and +0.0 (y1 >= 0)
TIED_UPPER = {
    "const": Expr.const(0.0),
    "tied": emax(Expr.y(1), Expr.const(0.0)),
    "signed_zero": Expr.y(1) * 0.0,
}


@st.composite
def sweep_cases(draw):
    """piecewise_affine_programs, optionally reshaped so the seeds sit on
    the box edge (clipped windows), f is constant (ties at the k-th value,
    duplicate pool rows), or a constraint cuts the windows around the
    lower-level minimiser; and F optionally tied (TIED_UPPER)."""
    prog, x = draw(piecewise_affine_programs())
    shape = draw(st.sampled_from(["drawn", "edge", "flat", "cut"]))
    if shape == "edge":
        prog = replace(prog, f=eabs(Expr.y(1) - 1.0))
    elif shape == "flat":
        prog = replace(prog, f=Expr.const(0.0))
    elif shape == "cut":
        cut = draw(st.floats(-0.9, 0.9))
        prog = replace(prog, f=neg(Expr.y(1)), g=prog.g + (Expr.y(1) - cut,))
    upper = draw(st.sampled_from(["drawn", *TIED_UPPER]))
    if upper != "drawn":
        prog = replace(prog, F=TIED_UPPER[upper])
    return prog, x, draw(st.sampled_from(SWEEP_GRIDS))


FLAT_2D = BilevelProgram(
    n=1, m=2, F=Expr.y(1), f=Expr.const(0.0),
    box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),) * 2)


@settings(max_examples=80, deadline=None)
@given(case=sweep_cases())
@example(case=(TWO_MINIMA, [0.0], DEEP_GRID))
@example(case=(replace(FLAT_2D, F=TIED_UPPER["const"]), [0.0], SHARED_GRID))
@example(case=(replace(FLAT_2D, F=TIED_UPPER["tied"]), [0.0], SHARED_GRID))
@example(case=(replace(FLAT_2D, F=TIED_UPPER["signed_zero"]), [0.0], SHARED_GRID))
@example(case=(SIGNED_ZERO_EDGE, [0.0], GridSpec(points_per_dim=5, refine_depth=2,
                                                 refine_points=5)))
def test_sweep_matches_per_window_reference(case):
    # the sweep returns the band of the whole reference pool: pruning the
    # pool between levels left every seed, and so every pooled window, as
    # the unpruned reference picks them
    prog, x, grid = case
    _solve_lower.cache_clear()
    got = _solve_lower(prog.m, prog.f, prog.g, prog.box_y, prog.F, tuple(x), grid)
    _assert_is_the_reference_band(got, reference_sweep(prog, x, grid))


def _assert_is_the_reference_band(got, want):
    assert (got is None) == (want is None)
    if got is None:
        return
    phi = float(np.min(want[1]))
    assert got[0] == phi
    band = want[1] <= phi + 1e-6 * (1.0 + abs(phi))
    for a, b in zip(got[1:], (w[band] for w in want)):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


def _assert_same_sweep(got, want):
    """Two sweep results (or raised DomainErrors) equal bit for bit."""
    if isinstance(want, DomainError) or want is None:
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert repr(got[0]) == repr(want[0])
    for a, b in zip(got[1:], want[1:]):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))


# -- a batch of x swept together -----------------------------------------------

def _batch(prog, xs, grid):
    return valuefn._sweep_batch(prog.m, prog.f, prog.g, prog.box_y, prog.F,
                                [tuple(x) for x in xs], grid)


@st.composite
def sweep_batches(draw):
    """sweep_cases with the constraint x1 <= 1.5 added, so that x1 = 2
    is infeasible, and a batch of 2-24 x: the drawn x, then x in the box,
    on its edge or with signed zero coordinates, infeasible x and repeats
    of earlier x."""
    prog, x, grid = draw(sweep_cases())
    prog = replace(prog, g=prog.g + (X1 - 1.5,))
    coord = st.one_of(st.floats(-1.0, 1.0, allow_subnormal=False),
                      st.sampled_from([-1.0, 1.0, 0.0, -0.0]))
    xs = [x]
    for _ in range(draw(st.integers(1, 23))):
        kind = draw(st.sampled_from(["drawn", "drawn", "repeat", "infeasible"]))
        if kind == "repeat":
            xs.append(draw(st.sampled_from(xs)))
            continue
        point = [draw(coord) for _ in range(prog.n)]
        if kind == "infeasible":
            point[0] = 2.0
        xs.append(point)
    return prog, xs, grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=sweep_batches())
@example(case=(TWO_MINIMA, [[0.0], [-0.0], [1.0], [0.5], [0.0]], DEEP_GRID))
def test_a_batch_sweeps_each_x_as_the_reference_does(case):
    # each x of a batch gets, bit for bit, what it gets swept alone and
    # what the per-window reference sweep gives
    prog, xs, grid = case
    got = _batch(prog, xs, grid)
    assert len(got) == len(xs)
    for x, res in zip(xs, got):
        _assert_same_sweep(res, _batch(prog, [x], grid)[0])
        _assert_is_the_reference_band(res, reference_sweep(prog, x, grid))


# f and F read exp and log of x-only subtrees, which a batch evaluates per
# row of an array where an x alone evaluates them on floats
TRANSCENDENTAL = BilevelProgram(
    n=2, m=1, F=elog(Expr.x(2) + 2.0) * Y1 + eexp(X1 * 0.37),
    f=eabs(Y1 - eexp(X1) * 0.3) + elog(X1 * X1 + 1.1) * Y1 * 0.01,
    box_x=((-1.0, 1.0),) * 2, box_y=((-1.0, 1.0),))


def test_a_batch_reads_transcendental_x_subtrees_as_one_x_does():
    xs = [[v, w] for v in (-0.9, -0.31, 0.0, 0.123456789, 0.7)
          for w in (-0.5, 0.33)]
    got = _batch(TRANSCENDENTAL, xs, SHARED_GRID)
    for x, res in zip(xs, got):
        _assert_same_sweep(res, _batch(TRANSCENDENTAL, [x], SHARED_GRID)[0])
        _assert_is_the_reference_band(res, reference_sweep(TRANSCENDENTAL, x,
                                                           SHARED_GRID))


# -- the evaluator's column gather ---------------------------------------------


def _row_gather_evaluate(f, g, F, x, mesh):
    """The sweep's evaluator as it was when it took the feasible rows in
    one boolean row gather, mesh[keep], and evaluated f and F on the
    strided columns of that copy: the reference the column gather must
    match bit for bit."""
    per_row = isinstance(x, np.ndarray)
    keep = np.ones(len(mesh), dtype=bool)
    cols = list(mesh.T)
    for gi in g:
        keep &= np.asarray(eval_expr(gi, x, cols), dtype=float) <= TOL_FEAS
    y = mesh[keep]
    if not len(y):
        return y, np.zeros(0), np.zeros(0), keep
    if per_row:
        x = x[:, keep]
    cols = list(y.T)
    return (y, *(np.broadcast_to(np.asarray(eval_expr(e, x, cols), dtype=float),
                                 (len(y),)) for e in (f, F)), keep)


# box edges and window corners that put +0.0 and -0.0 on the meshes
SIGNED_EDGES = [(-1.0, 1.0), (-1.0, -0.0), (-0.0, 1.0), (0.0, 0.5), (-0.0, 0.0),
                (-0.25, 0.0)]
SIGNED_COORDS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.3, 0.75, 1.0])


@st.composite
def evaluator_cases(draw):
    """(f, g, F, x, mesh, mask) for m = 1, 2 or 3 and n = 2: f and F read
    every y and x through exp, log, powers, division, abs, max and min (or
    F is a constant); the mesh is a memoised coarse grid (x one point), an
    np.tile stack of one (x per row) or `_mesh` windows (either x); mask
    is "all", "none" or "some", the rows g keeps.  On a tiled stack "some"
    keeps a drawn random subset of the rows: g reads x2, which is -1 on
    the kept rows and 1 elsewhere."""
    m = draw(st.integers(1, 3))
    ys = [Expr.y(j + 1) for j in range(m)]
    x2 = Expr.x(2)
    f = (eexp(ys[0] * 0.5 - X1) + elog(ys[-1] * ys[-1] + 1.1)
         + (ys[-1] + x2) ** 3 + emax(ys[0], x2) / (ys[m // 2] * ys[m // 2] + 2.0))
    F = draw(st.sampled_from([eabs(ys[0] - X1) * ys[-1] + emin(ys[0], ys[-1]),
                              Expr.const(0.5)]))
    kind = draw(st.sampled_from(["coarse", "tile", "window"]))
    count = draw(st.integers(2, 6))
    if kind == "window":
        boxes = draw(st.integers(1, 3))
        lo = np.array([[draw(SIGNED_COORDS) for _ in range(m)] for _ in range(boxes)])
        width = np.array([[draw(st.sampled_from([0.0, 0.0, 0.25, 0.5]))
                           for _ in range(m)] for _ in range(boxes)])
        mesh = valuefn._mesh(lo, lo + width, count)
    else:
        box = tuple(draw(st.sampled_from(SIGNED_EDGES)) for _ in range(m))
        mesh = valuefn._coarse_mesh(box, count)
        if kind == "tile":
            mesh = np.tile(mesh, (draw(st.integers(2, 4)), 1))
    per_row = kind == "tile" or (kind == "window" and draw(st.booleans()))
    mask = draw(st.sampled_from(["all", "none", "some"]))
    if per_row:
        rows = len(mesh)
        chosen = np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
        x = np.array([[draw(SIGNED_COORDS) for _ in range(rows)],
                      np.where(chosen, -1.0, 1.0)])
    else:
        x = [draw(SIGNED_COORDS), draw(SIGNED_COORDS)]
    if mask == "all":
        g = ()
    elif mask == "none":
        g = (ys[0] * 0.0 + 1.0,)
    elif per_row and kind == "tile":
        g = (x2,)
    else:
        coeffs = [draw(st.sampled_from([-1.0, 0.5, 1.0])) for _ in range(m)]
        g = (sum((c * y for c, y in zip(coeffs[1:], ys[1:])), coeffs[0] * ys[0])
             + X1 * 0.25 - draw(st.sampled_from([-0.5, 0.0, 0.25])),)
    return f, g, F, x, mesh, mask


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=evaluator_cases())
def test_the_column_gather_matches_the_row_gather_bit_for_bit(case):
    f, g, F, x, mesh, mask = case
    got = valuefn._evaluate(f, g, F, x, mesh)
    want = _row_gather_evaluate(f, g, F, x, mesh)
    keep = want[3]
    assert mask != "all" or keep.all()
    assert mask != "none" or not keep.any()
    assert got[0].shape == want[0].shape == (int(keep.sum()), mesh.shape[1])
    assert got[0].dtype == want[0].dtype == float
    assert got[0].flags.c_contiguous
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert got[3].dtype == bool and np.array_equal(got[3], keep)


# f divides by zero at y1 = 0.125, which no coarse point (step 0.25) but
# the first windows around the minimiser y1 = 0 (step 0.125) meet: at
# x1 = 0 the sweep raises on a refinement level, and at x1 = 0.75 and
# x1 = -0.75 (minimisers 0.75 and -0.75) it does not
DIVIDING = BilevelProgram(
    n=1, m=1, F=Y1, f=eabs(Y1 - X1) + Expr.const(1e-9) / (Y1 - 0.125),
    box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))
DIVIDING_GRID = GridSpec(points_per_dim=9, refine_depth=2, refine_points=5,
                         max_seeds=1)


def test_a_domain_error_at_one_x_is_raised_at_that_x_only():
    xs = [[0.75], [0.0], [-0.75]]
    lower_value(DIVIDING, [0.0], replace(DIVIDING_GRID, refine_depth=0))
    got = _batch(DIVIDING, xs, DIVIDING_GRID)
    assert isinstance(got[1], DomainError)
    for x, res in zip(xs, got):
        _assert_same_sweep(res, _batch(DIVIDING, [x], DIVIDING_GRID)[0])
    for i in (0, 2):
        _assert_is_the_reference_band(got[i], reference_sweep(DIVIDING, xs[i],
                                                              DIVIDING_GRID))
    # announced together, each x raises or answers at its own request
    _solve_lower.cache_clear()
    with value_function(DIVIDING, "phi", DIVIDING_GRID).ahead(xs):
        assert lower_value(DIVIDING, xs[0], DIVIDING_GRID) == got[0][0]
        with pytest.raises(DomainError, match="division by zero"):
            lower_value(DIVIDING, xs[1], DIVIDING_GRID)
        assert lower_value(DIVIDING, xs[2], DIVIDING_GRID) == got[2][0]
    info = _solve_lower.cache_info()
    assert (info.misses, info.currsize) == (3, 2)


def test_stacked_levels_hold_at_most_the_bound(monkeypatch):
    # one x's level holds at most 2 + 2 windows of 5 points, so a stack of
    # more than 20 rows holds more than one x; under a bound of 45 each
    # level is split, and the split batch equals the unsplit one
    prog = replace(DIVIDING, f=eabs(Y1 - X1))
    grid = replace(DIVIDING_GRID, max_seeds=2)
    xs = [[v] for v in np.linspace(-1.0, 1.0, 13).tolist()]
    whole = _batch(prog, xs, grid)
    rows = []
    mesh = valuefn._mesh

    def counting(lo, hi, count):
        out = mesh(lo, hi, count)
        rows.append(len(out))
        return out

    monkeypatch.setattr(valuefn, "_mesh", counting)
    monkeypatch.setattr(valuefn, "MAX_STACKED_POINTS", 45)
    valuefn._coarse_mesh.cache_clear()
    split = _batch(prog, xs, grid)
    valuefn._coarse_mesh.cache_clear()
    assert 20 < max(rows) <= 45
    # the coarse mesh, then more than one stack per level
    assert len(rows) >= 1 + grid.refine_depth * 2
    for a, b in zip(split, whole):
        _assert_same_sweep(a, b)


# f reads x, so each x of a batch has its own pool from level 0 on
STACKED = BilevelProgram(n=1, m=1, F=X1 * Y1, f=eabs(Y1 - X1 * 0.5) + 0.1 * Y1 * Y1,
                         box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))


def test_a_batch_stacks_its_coarse_grids_and_one_x_reads_the_memo(monkeypatch):
    # at m = 1 a stack holds the 201-point coarse grids of 40 x (8,040
    # rows), tiled from the one memoised grid, so 50 x take two level-0
    # stacks; each x gets, bit for bit, what it gets swept alone, and an x
    # alone takes its coarse grid from the memo
    xs = [[v] for v in np.linspace(-1.0, 1.0, 50).tolist()]
    rows, meshed = [], []
    evaluate, mesh = valuefn._evaluate, valuefn._mesh

    def counting_evaluate(f, g, F, x, grid_rows):
        rows.append(len(grid_rows))
        return evaluate(f, g, F, x, grid_rows)

    def counting_mesh(lo, hi, count):
        meshed.append(count)
        return mesh(lo, hi, count)

    monkeypatch.setattr(valuefn, "_evaluate", counting_evaluate)
    monkeypatch.setattr(valuefn, "_mesh", counting_mesh)
    valuefn._coarse_mesh.cache_clear()
    for grid in (GridSpec(refine_depth=0), GRID):
        rows.clear()
        got = _batch(STACKED, xs, grid)
        assert rows[:2] == [40 * 201, 10 * 201]
        assert max(rows) <= valuefn.MAX_STACKED_POINTS
        if not grid.refine_depth:
            assert rows == [40 * 201, 10 * 201]
        for x, res in zip(xs, got):
            hits = valuefn._coarse_mesh.cache_info().hits
            rows.clear()
            _assert_same_sweep(res, _batch(STACKED, [x], grid)[0])
            assert rows[0] == 201
            assert valuefn._coarse_mesh.cache_info().hits == hits + 1
    # the 201-point grid was meshed once, on the first stack's memo miss
    assert meshed.count(201) == 1
    valuefn._coarse_mesh.cache_clear()


def test_a_domain_error_on_a_stacked_coarse_level_is_raised_at_that_x_only():
    # f divides by y1 - x1 + 0.5, which is zero on the coarse lattice (step
    # 0.25) at x1 = 0.25 only; the three coarse grids are one stack
    prog = replace(DIVIDING, f=eabs(Y1 - X1) + Expr.const(1e-9) / (Y1 - X1 + 0.5))
    xs = [[0.1], [0.25], [-0.3]]
    got = _batch(prog, xs, DIVIDING_GRID)
    assert isinstance(got[1], DomainError)
    for x, res in zip(xs, got):
        _assert_same_sweep(res, _batch(prog, [x], DIVIDING_GRID)[0])
    for i in (0, 2):
        _assert_is_the_reference_band(got[i], reference_sweep(prog, xs[i],
                                                              DIVIDING_GRID))


def test_an_announced_stencil_keeps_each_x_s_hits_and_misses(monkeypatch):
    # an n = 1 fd call asks 12 times for 4 distinct points: 4 misses and 8
    # hits, announced (one batch of 4) or not (4 batches of one), with the
    # same clusters
    batches = []
    sweep_batch = valuefn._sweep_batch

    def counting(m, f, g, box_y, F, x_keys, grid):
        batches.append(len(x_keys))
        return sweep_batch(m, f, g, box_y, F, x_keys, grid)

    monkeypatch.setattr(valuefn, "_sweep_batch", counting)
    h = value_function(instance_a(), "phi_o", SHARED_GRID)
    runs = []
    for oracle in (h, lambda x: h(x)):
        _solve_lower.cache_clear()
        batches.clear()
        clusters = fd_subgradient_samples(
            oracle, [0.5], n_dirs=FD_DIRS, radius=FD_RADIUS, step=FD_STEP).clusters
        info = _solve_lower.cache_info()
        runs.append(((info.misses, info.hits), list(batches), repr(clusters)))
    assert runs[0][0] == runs[1][0] == (4, 8)
    assert (runs[0][1], runs[1][1]) == ([4], [1, 1, 1, 1])
    assert runs[0][2] == runs[1][2]


# -- seed selection against a full sort ----------------------------------------

_NAN, _INF = float("nan"), float("inf")

SEED_POOLS = {
    # four points tie with the 3rd smallest f, in no lexicographic order
    "ties_at_kth": ([[0.5, 0.0], [0.1, 0.2], [0.3, 0.0], [0.1, 0.1], [0.2, 0.0],
                     [0.0, 0.9], [0.4, 0.4]],
                    [1.0, 2.0, 2.0, 2.0, 0.5, 2.0, 3.0], 3),
    "duplicate_rows": ([[0.2, 0.0], [0.1, 0.0], [0.2, 0.0], [0.1, 0.0], [0.3, 0.3],
                        [0.1, 0.0]],
                       [1.0, 1.0, 1.0, 1.0, 0.0, 1.0], 3),
    "fewer_than_k": ([[0.3, 0.1], [0.1, 0.2], [0.2, 0.0]], [1.0, 1.0, 0.0], 5),
    "inf_and_nan_kth_inf": ([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0],
                             [0.4, 0.0], [0.5, 0.0], [0.6, 0.0]],
                            [_NAN, _INF, 1.0, -_INF, _NAN, 2.0, _INF], 5),
    "inf_and_nan_kth_nan": ([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0],
                             [0.4, 0.0], [0.5, 0.0], [0.6, 0.0]],
                            [_NAN, _INF, 1.0, -_INF, _NAN, 2.0, _INF], 6),
    "signed_zeros": ([[0.2, 0.0], [0.1, 0.0], [0.0, 0.5], [0.3, 0.0]],
                     [0.0, -0.0, 1.0, -0.0], 2),
}

# (y rows, F) with a constant f, so the whole pool is the band; the rows are
# in no lexicographic order
BAND_POOLS = {
    "constant_F": ([[0.3, 0.0], [0.1, 0.5], [0.1, 0.2], [0.2, 0.0]],
                   [1.0, 1.0, 1.0, 1.0]),
    "tied_F": ([[0.3, 0.0], [0.1, 0.5], [0.0, 0.9], [0.1, 0.2], [0.2, 0.0]],
               [2.0, 0.0, 2.0, 0.0, 1.0]),
    "signed_zero_F": ([[0.3, 0.0], [0.1, 0.5], [0.1, 0.2], [0.2, 0.0]],
                      [0.0, -0.0, -0.0, 0.0]),
    "signed_zero_y": ([[0.0, 0.5], [-0.0, 0.5], [0.0, -0.0], [-0.0, 0.0]],
                      [1.0, 1.0, 2.0, 2.0]),
    "nan_F": ([[0.3, 0.0], [0.1, 0.5], [0.2, 0.0], [0.1, 0.2], [0.0, 0.9]],
              [-1.0, _NAN, 3.0, _NAN, 0.5]),
    "inf_F": ([[0.3, 0.0], [0.1, 0.5], [0.2, 0.0], [0.1, 0.2]],
              [_INF, -_INF, _INF, -_INF]),
}


def _assert_same_seeds(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("name", sorted(SEED_POOLS))
def test_refine_seeds_match_a_full_sort(name):
    ys, fs, k = SEED_POOLS[name]
    ys, fs = np.array(ys), np.array(fs)
    Fs = ys[:, 0] - ys[:, 1]
    _assert_same_seeds(_refine_seeds(ys, fs, Fs, float(fs.min()), k),
                       reference_seeds(ys, fs, Fs, k))


@pytest.mark.parametrize("name", sorted(BAND_POOLS))
def test_band_extremes_match_a_full_sort(name):
    ys, Fs = (np.array(a) for a in BAND_POOLS[name])
    fs = np.zeros(len(ys))
    _assert_same_seeds(_refine_seeds(ys, fs, Fs, float(fs.min()), 1),
                       reference_seeds(ys, fs, Fs, 1))


@settings(max_examples=200, deadline=None)
@given(batch=st.lists(st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, 2.0, _INF,
                                                          -_INF, _NAN]),
                                         st.sampled_from([-1.0, 0.0, -0.0, 0.5]),
                                         st.sampled_from([0.0, 1.0]),
                                         st.sampled_from([0.0, -0.0, 1.0, 2.0, _NAN])),
                               min_size=1, max_size=12),
                      min_size=1, max_size=6),
       k=st.integers(1, 6))
def test_refine_seeds_match_a_full_sort_on_drawn_pools(batch, k):
    # each pool alone, and every pool of the batch in one level pass
    pools = []
    for rows in batch:
        fs, y1, y2, Fs = (np.array(col) for col in zip(*rows))
        pools.append([np.column_stack([y1, y2]), fs, Fs, float(fs.min())])
    level = _level_seeds(pools, k)
    assert len(level) == len(pools)
    for (ys, fs, Fs, phi), seeds in zip(pools, level):
        want = reference_seeds(ys, fs, Fs, k)
        _assert_same_seeds(_refine_seeds(ys, fs, Fs, phi, k), want)
        _assert_same_seeds(seeds, want)


# -- what the sweep memo holds -------------------------------------------------

NM2 = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "nm2.blp"


def test_sweep_memo_holds_only_the_band():
    # each entry is the band f <= phi + 1e-6 (1 + |phi|) of its sweep, not
    # every feasible grid point: on nm2 (m = 2, flat in y2) the 25 entries
    # of a 5 x 5 curve hold about 157 kB, where whole pools held 19.8 MB
    prog = parse_program(NM2.read_text())
    _solve_lower.cache_clear()
    rows = sample_curve(prog, "phi", GRID, points_per_axis=5)
    assert _solve_lower.cache_info().currsize == len(rows) == 25
    held = 0
    for row in rows:
        phi, ys, fs, Fs = _sweep(prog, list(row.x), GRID)
        assert row.value == phi
        band = np.count_nonzero(fs <= phi + 1e-6 * (1.0 + abs(phi)))
        assert len(ys) == len(fs) == len(Fs) == band > 0
        held += ys.nbytes + fs.nbytes + Fs.nbytes
    info = _solve_lower.cache_info()
    assert (info.hits, info.misses) == (25, 25)
    assert held < 1 << 20


POINT_FUNCTIONS = (lower_value, optimistic_value, pessimistic_value,
                   pessimistic_value_direct, lower_solutions,
                   optimistic_solutions, pessimistic_solutions)


@pytest.mark.parametrize("fn", POINT_FUNCTIONS, ids=lambda fn: fn.__name__)
def test_a_point_with_the_wrong_number_of_coordinates_is_refused(fn):
    # nm2 has n = 2: one coordinate short used to raise IndexError, one too
    # many to sweep (and memoise) at a point the program does not have
    prog = parse_program(NM2.read_text())
    _solve_lower.cache_clear()
    _solution_set.cache_clear()
    for x in ([0.1], [0.1, 0.2, 0.3]):
        with pytest.raises(DimensionMismatchError):
            fn(prog, x, GRID)
    assert _solve_lower.cache_info().currsize == 0
    assert _solution_set.cache_info().currsize == 0


def test_a_ragged_solution_set_is_a_dimension_mismatch():
    # np.shape used to raise numpy's inhomogeneous-shape ValueError
    with pytest.raises(DimensionMismatchError):
        SolutionSet([[1.0, 2.0], [1.0]], 0.0, 1e-6, 0.01)
    assert SolutionSet([[1.0, 2.0]], 0.0, 1e-6, 0.01).points.shape == (1, 2)
    assert SolutionSet([], 0.0, 1e-6, 0.01).points.shape == (0, 0)


# -- a lower-level optimum that is not a number ---------------------------------


def _follower(f):
    return BilevelProgram(n=1, m=1, F=X1 + Y1, f=f, box_x=((-1.0, 1.0),),
                          box_y=((-1.0, 1.0),))


# inf - inf is NaN for y1 above about 0.71
NAN_FOLLOWER = _follower(eexp(1000.0 * Y1) - eexp(1000.0 * Y1) + (Y1 - X1) ** 2)
# -exp(1000) is -inf at y1 = 1, so phi is -inf and the band bound is NaN
MINUS_INF_FOLLOWER = _follower(neg(eexp(1000.0 * Y1)))
# exp(1000) is inf at every y, so phi is +inf and the band would hold
# every feasible point
PLUS_INF_FOLLOWER = _follower(eexp(1000.0 + Y1 * 0.0) + (Y1 - X1) ** 2)
# finite on the coarse lattice -1, -0.5, ..., 1 (0 below y1 = 0.62, inf at
# 1), NaN (inf * 0) on (0.62, 0.75), which the first window around the
# minimiser 0.5 meets at 0.6 + 0.1
LATE_NAN_FOLLOWER = _follower((Y1 - 0.5) ** 2 + eexp(1e4 * (Y1 - 0.55))
                              * emax(0.0, Y1 - 0.75))
LATE_NAN_GRID = GridSpec(points_per_dim=5, refine_depth=1, refine_points=11)


@pytest.mark.parametrize("fn", CALLS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("prog,grid,phi", [
    (NAN_FOLLOWER, SHARED_GRID, "nan"),
    (MINUS_INF_FOLLOWER, SHARED_GRID, "-inf"),
    (PLUS_INF_FOLLOWER, SHARED_GRID, "inf"),
    (LATE_NAN_FOLLOWER, LATE_NAN_GRID, "nan"),
], ids=["nan", "minus_inf", "plus_inf", "nan_after_a_level"])
def test_an_optimum_that_is_not_a_number_raises(fn, prog, grid, phi):
    _solve_lower.cache_clear()
    _solution_set.cache_clear()
    with np.errstate(all="ignore"):
        with pytest.raises(DomainError, match=rf"^lower-level optimum is {phi} "
                                              r"at x=\[0\.5\]$"):
            fn(prog, [0.5], grid)


def test_a_late_nan_is_finite_on_the_coarse_lattice():
    with np.errstate(all="ignore"):
        assert lower_value(LATE_NAN_FOLLOWER, [0.5],
                           replace(LATE_NAN_GRID, refine_depth=0)) == 0.0


# -- cost of one sweep and of an infeasible x ----------------------------------


@pytest.mark.parametrize("depth,k", [(0, 0), (2, 1), (3, 2)])
def test_sweep_evaluates_each_expression_once_per_level(monkeypatch, depth, k):
    # constraints that hold on the whole box, so every level pools points
    y1, y2 = Expr.y(1), Expr.y(2)
    g = (y1 + y2 - 10.0, y1 - y2 - 10.0)[:k]
    calls = []

    def counting(e, x, y):
        calls.append(e)
        return eval_expr(e, x, y)

    monkeypatch.setattr(valuefn, "eval_expr", counting)
    _solve_lower.cache_clear()
    grid = GridSpec(points_per_dim=21, refine_depth=depth, refine_points=5)
    _solve_lower(2, eabs(y1 - 0.3) + eabs(y2), g, ((-1.0, 1.0), (-1.0, 1.0)),
                 emax(y1, y2), (0.0,), grid)
    assert len(calls) == (1 + depth) * (k + 2)


def test_infeasible_x_is_swept_once(prog_a):
    _solve_lower.cache_clear()
    messages = []
    for _ in range(3):
        with pytest.raises(InfeasibleError) as err:
            lower_value(prog_a, [-0.5], GRID)
        messages.append(str(err.value))
    assert messages == ["no feasible lower-level point at x=[-0.5]"] * 3
    info = _solve_lower.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # the pessimistic twin shares the cached verdict
    with pytest.raises(InfeasibleError):
        pessimistic_value(prog_a, [-0.5], GRID)
    assert _solve_lower.cache_info().misses == 1


def test_an_infeasible_x_never_evaluates_f():
    # nothing in the box meets y1 <= x1 - 1 at x1 = 0, where f divides by x1
    prog = BilevelProgram(n=1, m=1, F=Y1, f=Y1 / X1, g=(Y1 - X1 + 1.0,),
                          box_x=((-1.0, 1.0),), box_y=((0.0, 1.0),))
    _solve_lower.cache_clear()
    with pytest.raises(InfeasibleError):
        lower_value(prog, [0.0], GRID)


# -- the solution-set memo -----------------------------------------------------

SOLUTION_CALLS = (lower_solutions, optimistic_solutions, pessimistic_solutions)


def _solution_sets(prog, x, grid):
    return [fn(p, x, grid) for p in (prog, prog.negated_upper())
            for fn in SOLUTION_CALLS]


def _assert_solution_hit_equals_fresh(prog, x, grid):
    _solution_set.cache_clear()
    _solve_lower.cache_clear()
    fresh = _solution_sets(prog, x, grid)
    hits = _solution_set.cache_info().hits
    again = _solution_sets(prog, x, grid)
    assert _solution_set.cache_info().hits == hits + len(again)
    # bit for bit, which keeps the sign of every zero
    assert [exact(s) for s in again] == [exact(s) for s in fresh]
    # a set computed on empty memos for this request alone is the same one
    for pos, s in enumerate(fresh):
        _solution_set.cache_clear()
        _solve_lower.cache_clear()
        p = (prog, prog.negated_upper())[pos // 3]
        assert exact(SOLUTION_CALLS[pos % 3](p, x, grid)) == exact(s)


@pytest.mark.parametrize("make,x", [(instance_a, [0.5]), (instance_a, [0.0]),
                                    (instance_b, [0.3]), (instance_c, [0.0]),
                                    (instance_c, [-0.4])])
def test_solution_memo_hit_equals_a_fresh_set(make, x):
    _assert_solution_hit_equals_fresh(make(), x, SHARED_GRID)


@settings(max_examples=20, deadline=None)
@given(case=piecewise_affine_programs())
def test_solution_memo_hit_equals_a_fresh_set_on_drawn_programs(case):
    prog, x = case
    _assert_solution_hit_equals_fresh(prog, x, SHARED_GRID)


def test_solution_keys_stay_apart(prog_c):
    _solution_set.cache_clear()
    x = [0.3]
    requests = [
        (optimistic_solutions, prog_c, SHARED_GRID),
        (lower_solutions, prog_c, SHARED_GRID),
        (optimistic_solutions, prog_c.negated_upper(), SHARED_GRID),
        (optimistic_solutions, prog_c, GRID),
    ]
    got = []
    for i, (fn, prog, grid) in enumerate(requests, start=1):
        got.append(fn(prog, x, grid))
        assert _solution_set.cache_info().misses == i
    # S_o of F = x * y at x > 0 is {0}; its twin's (the worst case) is {1}
    assert got[0].points.tolist() == [[0.0]]
    assert len(got[2]) == 1 and got[2].points[0][0] == pytest.approx(1.0)
    assert len(got[1]) > 1
    # pessimistic_solutions reads its twin's entry, and the mode, upper
    # constraints and box_x are not part of the key
    pessimistic_solutions(prog_c, x, SHARED_GRID)
    optimistic_solutions(replace(prog_c, mode="optimistic",
                                 box_x=((-5.0, 5.0),)), x, SHARED_GRID)
    info = _solution_set.cache_info()
    assert (info.hits, info.misses) == (2, len(requests))


def test_twins_share_one_lower_solution_set(prog_c):
    # S(x) reads only the band's f values, which a program and its
    # negated-upper twin share bit for bit, so both read one entry
    x = [0.3]
    negp = prog_c.negated_upper()
    _solution_set.cache_clear()
    fresh = lower_solutions(negp, x, SHARED_GRID)
    _solution_set.cache_clear()
    got = lower_solutions(prog_c, x, SHARED_GRID)
    assert lower_solutions(negp, x, SHARED_GRID) is got
    assert lower_solutions(negp.negated_upper(), x, SHARED_GRID) is got
    info = _solution_set.cache_info()
    assert (info.hits, info.misses) == (2, 1)
    assert np.array_equal(got.points, fresh.points)
    assert (got.value, got.tol_val, got.finest_cell) == \
        (fresh.value, fresh.tol_val, fresh.finest_cell)


def test_infeasible_solution_sets_are_not_memoised(prog_a):
    _solution_set.cache_clear()
    _solve_lower.cache_clear()
    for fn in SOLUTION_CALLS * 2:
        with pytest.raises(InfeasibleError):
            fn(prog_a, [-0.5], GRID)
    assert _solution_set.cache_info().currsize == 0
    # the sweep memo answers every repeat
    assert _solve_lower.cache_info().misses == 1


# -- signed zeros in x ---------------------------------------------------------

SIGNED_X = parse_program("""
[dims]
n = 1
m = 1
[upper]
objective = x1 * y1
[lower]
objective = (y1 - 0.5)^2
[box]
x1 = -1, 1
y1 = -1, 1
""")
SIGNED_X_GRID = GridSpec(points_per_dim=11, refine_depth=1)


def _signed_x_results(x):
    return [repr(optimistic_value(SIGNED_X, [x], SIGNED_X_GRID)),
            repr(pessimistic_value(SIGNED_X, [x], SIGNED_X_GRID)),
            exact(optimistic_solutions(SIGNED_X, [x], SIGNED_X_GRID)),
            exact(pessimistic_solutions(SIGNED_X, [x], SIGNED_X_GRID))]


@pytest.mark.parametrize("order", [(0.0, -0.0), (-0.0, 0.0)])
def test_signed_zero_x_reads_its_own_sweep(order):
    # F = x * y at y = 0.5 is 0.0 at x = 0.0 and -0.0 at x = -0.0; each
    # request gets what a sweep at its own x gives, whatever ran first
    fresh = []
    for x in order:
        _solve_lower.cache_clear()
        _solution_set.cache_clear()
        fresh.append(_signed_x_results(x))
    assert [r[0] for r in fresh] == [repr(x) for x in order]
    _solve_lower.cache_clear()
    _solution_set.cache_clear()
    assert [_signed_x_results(x) for x in order] == fresh
    assert _solve_lower.cache_info().misses == 2


def _signed_box(hi):
    return parse_program(f"""
[dims]
n = 1
m = 1
[upper]
objective = y1
[lower]
objective = 0 - y1
[box]
x1 = -1, 1
y1 = -1, {hi!r}
""")


def _signed_box_results(prog):
    return [exact(fn(prog, [0.5], SIGNED_X_GRID))
            for fn in (lower_solutions, optimistic_solutions,
                       pessimistic_solutions, optimistic_value)]


@pytest.mark.parametrize("order", [(-0.0, 0.0), (0.0, -0.0)])
def test_signed_zero_box_bound_reads_its_own_sweep(order):
    # f = -y1 puts S(x) on the upper bound, which the mesh takes with its
    # sign; the two programs are equal, yet each gets what a sweep of its
    # own box gives, whatever ran first
    progs = [_signed_box(hi) for hi in order]
    assert progs[0] == progs[1]

    def clear():
        _solve_lower.cache_clear()
        _solution_set.cache_clear()
        valuefn._coarse_mesh.cache_clear()

    fresh, lower = [], []
    for prog in progs:
        clear()
        fresh.append(_signed_box_results(prog))
        lower.append(lower_solutions(prog, [0.5], SIGNED_X_GRID).points)
    # S(x) is the one point y1 = 0 on the upper bound, with that bound's sign
    assert [p.tolist() for p in lower] == [[[0.0]], [[0.0]]]
    assert [bool(np.signbit(p[0, 0])) for p in lower] == \
        [bool(np.signbit(hi)) for hi in order]
    clear()
    assert [_signed_box_results(p) for p in progs] == fresh
    assert _solve_lower.cache_info().misses == 2


# -- the refinement-level grid budget ------------------------------------------

def _follower_program(m):
    f = eabs(Expr.y(1) - 0.3)
    for j in range(2, m + 1):
        f = f + eabs(Expr.y(j))
    return BilevelProgram(n=1, m=m, F=Expr.y(1), f=f, g=(),
                          box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),) * m)


@pytest.fixture
def mesh_calls(monkeypatch):
    """Counts per _mesh call; each call meshes 3 points per axis instead, so
    that a grid at the bound is swept without its memory."""
    calls = []
    mesh = valuefn._mesh

    def counting(lo, hi, count):
        calls.append(count)
        return mesh(lo, hi, 3)

    monkeypatch.setattr(valuefn, "_mesh", counting)
    valuefn._coarse_mesh.cache_clear()
    _solve_lower.cache_clear()
    yield calls
    valuefn._coarse_mesh.cache_clear()
    _solve_lower.cache_clear()


@pytest.mark.parametrize("m,max_seeds,top", [(1, 2, 2 ** 22), (2, 2, 2 ** 11),
                                              (1, 5, 2396745), (2, 5, 1548)])
def test_refinement_level_just_above_the_bound_raises(m, max_seeds, top,
                                                      mesh_calls):
    # top points per axis is the largest refinement level the bound admits;
    # with four windows (two seeds and the two F extremes) it is the bound
    windows = max_seeds + 2
    bound = valuefn.MAX_GRID_POINTS
    assert windows * top ** m <= bound < windows * (top + 1) ** m
    assert (windows * top ** m == valuefn.MAX_GRID_POINTS) == (max_seeds == 2)
    prog = _follower_program(m)
    below = GridSpec(points_per_dim=5, refine_depth=1, refine_points=top,
                     max_seeds=max_seeds)
    assert lower_value(prog, [0.0], below) == pytest.approx(0.0, abs=0.5)
    assert mesh_calls == [5, top]
    mesh_calls.clear()
    _solve_lower.cache_clear()
    valuefn._coarse_mesh.cache_clear()
    above = replace(below, refine_points=top + 1)
    for _ in range(2):
        with pytest.raises(BudgetError, match=(
                f"refinement level of {windows} x {top + 1}\\^{m} points "
                f"exceeds {valuefn.MAX_GRID_POINTS} points")):
            lower_value(prog, [0.0], above)
    assert mesh_calls == []
    # refine depth 0 meshes no refinement level, so there is nothing to bound
    lower_value(prog, [0.0], replace(above, refine_depth=0))
    assert mesh_calls == [5]


def test_default_grid_sweeps_three_followers(mesh_calls):
    lower_value(_follower_program(3), [0.0], GRID)
    assert mesh_calls == [201, 21, 21, 21]
