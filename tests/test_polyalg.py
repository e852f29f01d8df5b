import copy
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bilevelsense import _polyalg
from bilevelsense._polyalg import standard_vrep
from bilevelsense.certify import (
    certify_optimistic,
    certify_pessimistic,
    recheck_certificate,
)
from bilevelsense.errors import BudgetError
from bilevelsense.model import Expr, eabs, neg, parse_program
from bilevelsense.sensitivity import _vrep_fallback
from bilevelsense.valuefn import GridSpec
from instances import instance_a
from test_valuefn import piecewise_affine_programs

# Lifted estimate system: one stationarity row, then the F-weight and
# f-weight sum rows; columns 3 and 4 cancel in the first row, so the
# recession cone has a ray.  r < 0 leaves the system without a vertex.
A = np.array([
    [1.0, -2.0, 0.5, 1.0, -1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 1.0, 0.0, 0.0],
])
R_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0)


def _b(r):
    return np.array([0.0, 1.0, r])


def _clear_memos():
    _polyalg._vrep.cache_clear()


def _same(vrep_a, vrep_b):
    return all(len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
               for x, y in zip(vrep_a, vrep_b))


def test_r_grid_reuse_matches_fresh_enumeration():
    _clear_memos()
    warm = [standard_vrep(A, _b(r)) for r in R_VALUES]
    warm.append(standard_vrep(A, _b(0.3), res_tol=1e-6))
    assert any(verts and rays for verts, rays in warm)
    assert any(not verts for verts, _ in warm)
    for r, got in zip(R_VALUES, warm):
        _clear_memos()
        assert _same(got, standard_vrep(A, _b(r)))
    _clear_memos()
    assert _same(warm[-1], standard_vrep(A, _b(0.3), res_tol=1e-6))


def test_returned_generators_are_shared_read_only():
    _clear_memos()
    verts, rays = standard_vrep(A, _b(1.0))
    assert verts and rays
    first = ([v.copy() for v in verts], [r.copy() for r in rays])
    for arr in (*verts, *rays):
        with pytest.raises(ValueError):
            arr[:] = 99.0
    again = standard_vrep(A, _b(1.0))
    assert _polyalg._vrep.cache_info().hits == 1
    assert _same(first, again)
    # the lists are the caller's own, the arrays in them are shared
    again[0].clear()
    assert _same(first, standard_vrep(A, _b(1.0)))


def test_ray_budget_checked_without_vertices(monkeypatch):
    # 1 x 4 system: the vertex system scans 1 + 4 = 5 bases, the ray system
    # (one more row) 1 + 4 + 6 = 11; b < 0 has no vertex
    A1 = np.ones((1, 4))
    b1 = np.array([-1.0])
    _clear_memos()
    monkeypatch.setattr(_polyalg, "MAX_BASES", 5)
    with pytest.raises(BudgetError):
        standard_vrep(A1, b1)
    monkeypatch.setattr(_polyalg, "MAX_BASES", 11)
    assert standard_vrep(A1, b1) == ([], [])
    monkeypatch.setattr(_polyalg, "MAX_BASES", 5)
    with pytest.raises(BudgetError):
        standard_vrep(A1, b1)


def rank_test_reference(A, b, res_tol=1e-9):
    """Basic-solution enumeration with a fresh matrix_rank per subset."""
    from itertools import combinations
    n_rows, n_cols = A.shape
    scale = 1.0 + np.max(np.abs(A), initial=0.0) + np.max(np.abs(b), initial=0.0)
    out = []
    for size in range(1, min(n_rows, n_cols) + 1):
        for J in combinations(range(n_cols), size):
            AJ = A[:, J]
            if np.linalg.matrix_rank(AJ, tol=1e-10 * scale) < size:
                continue
            if size == n_rows:
                try:
                    wJ = np.linalg.solve(AJ, b)
                    wJ += np.linalg.solve(AJ, b - AJ @ wJ)
                except np.linalg.LinAlgError:
                    continue
            else:
                wJ, *_ = np.linalg.lstsq(AJ, b, rcond=None)
            if np.min(wJ) >= -1e-10 * scale and \
                    np.max(np.abs(AJ @ wJ - b)) <= res_tol * scale:
                w = np.zeros(n_cols)
                w[list(J)] = np.clip(wJ, 0.0, None)
                if not any(np.array_equal(np.round(w, 11), np.round(v, 11)) for v in out):
                    out.append(w)
    return out


def reference_vertices(A, b, res_tol=1e-9):
    """rank_test_reference with the zero vertex basic_vertices puts first
    when b itself is within the residual tolerance."""
    out = rank_test_reference(A, b, res_tol)
    if np.max(np.abs(b)) <= res_tol * (1.0 + np.max(np.abs(A)) + np.max(np.abs(b))):
        zero = np.zeros(A.shape[1])
        out = [zero] + [w for w in out if np.any(np.round(w, 11) != zero)]
    return out


def test_memoised_rank_test_matches_matrix_rank():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_rows = int(rng.integers(1, 4))
        A = rng.integers(-2, 3, size=(n_rows, int(rng.integers(2, 7)))).astype(float)
        A[:, -1] = A[:, 0] * 0.5  # a dependent pair in every matrix
        # b inside the cone, b anywhere, and b on the dependent pair's column
        for b in (A @ rng.uniform(0, 1, A.shape[1]), rng.normal(size=n_rows), 0.7 * A[:, 0]):
            got, = _polyalg.basic_vertices(A, b[None])
            want = reference_vertices(A, b)
            assert len(got) == len(want)
            assert all(np.array_equal(u, v) for u, v in zip(got, want))


def test_memo_keeps_strict_relaxed_and_budgets_apart(monkeypatch):
    # two equal rows with right-hand sides 1e-8 apart: no exact solution,
    # but one within a relaxed residual tolerance
    A2 = np.ones((2, 2))
    b2 = np.array([1.0, 1.0 + 1e-8])
    _clear_memos()
    res_tols = [None, 1e-6]
    warm = [standard_vrep(A2, b2, res_tol=t) for t in res_tols]
    assert _polyalg._vrep.cache_info().misses == len(res_tols)
    assert not warm[0][0] and warm[1][0]
    # the ray system scans 1 + 2 + 1 = 4 bases: under a bound of 3 neither
    # entry is read, and the bound is checked at every call
    monkeypatch.setattr(_polyalg, "MAX_BASES", 3)
    for t in res_tols:
        with pytest.raises(BudgetError):
            standard_vrep(A2, b2, res_tol=t)
    monkeypatch.undo()
    for t, got in zip(res_tols, warm):
        _clear_memos()
        assert _same(got, standard_vrep(A2, b2, res_tol=t))
    # -0.0 and 0.0 in b key an entry each (tests/test_memo.py) and get one
    # answer
    assert _same(standard_vrep(A, np.array([0.0, 1.0, 0.5])),
                 standard_vrep(A, np.array([-0.0, 1.0, 0.5])))


def test_memoised_system_over_budget_raises_every_time(monkeypatch):
    _clear_memos()
    verts, _ = standard_vrep(A, _b(1.0))
    assert verts
    # the ray system of the 3 x 5 system scans 1 + 5 + 10 + 10 + 5 = 31 bases
    monkeypatch.setattr(_polyalg, "MAX_BASES", 30)
    for _ in range(3):
        with pytest.raises(BudgetError):
            standard_vrep(A, _b(1.0))
    monkeypatch.setattr(_polyalg, "MAX_BASES", 31)
    assert standard_vrep(A, _b(1.0))[0]


# -- one enumeration per stack of right-hand sides ----------------------------
#
# The (rows, columns) shapes of the systems the estimates and certificates
# enumerate: lifted inclusion and multiplier systems and their ray systems.
VREP_SHAPES = ((3, 3), (4, 3), (2, 3), (2, 2), (3, 2), (2, 1), (3, 1))
STAT_TOL = 1e-6


def _same_bits(u, v):
    return (u.shape == v.shape and np.array_equal(u, v)
            and np.array_equal(np.signbit(u), np.signbit(v)))


def _same_list(us, vs):
    return len(us) == len(vs) and all(_same_bits(u, v) for u, v in zip(us, vs))


def _draw(rng, shape):
    """Halves in [-2, 2] (exact zeros among them) mixed with normal draws."""
    return np.where(rng.random(shape) < 0.5, rng.integers(-4, 5, shape) / 2.0,
                    rng.normal(size=shape))


def test_batched_linear_algebra_equals_its_per_call_form():
    # basic_vertices solves a column subset A_J for a stack of right-hand
    # sides at once.  On this machine's BLAS each row must get the bits of
    # the per-b call: a multi-column lstsq, a stacked solve with its
    # refinement step, and a stacked matmul.  (A 2-D right-hand side in
    # solve, or a 2-D matrix product, does not give them.)
    rng = np.random.default_rng(2021)
    for rows, cols in VREP_SHAPES:
        for size in range(1, min(rows, cols) + 1):
            for _ in range(150):
                AJ = _draw(rng, (rows, size))
                B = _draw(rng, (int(rng.integers(1, 8)), rows))
                Bs = B[:, :, None]
                if size < rows:
                    W = np.linalg.lstsq(AJ, B.T, rcond=None)[0]
                    W = W.T.reshape(len(B), size, 1)
                    for b, w in zip(B, W):
                        assert _same_bits(w[:, 0],
                                          np.linalg.lstsq(AJ, b, rcond=None)[0])
                else:
                    try:
                        W = np.linalg.solve(AJ, Bs)
                        W += np.linalg.solve(AJ, Bs - AJ @ W)
                    except np.linalg.LinAlgError:
                        with pytest.raises(np.linalg.LinAlgError):
                            np.linalg.solve(AJ, B[0])
                        continue
                    for b, w in zip(B, W):
                        w1 = np.linalg.solve(AJ, b)
                        w1 += np.linalg.solve(AJ, b - AJ @ w1)
                        assert _same_bits(w[:, 0], w1)
                for w, r in zip(W, AJ @ W):
                    assert _same_bits(r[:, 0], AJ @ w[:, 0])


@st.composite
def vrep_stacks(draw):
    """(A, B): a system of a shape in VREP_SHAPES and a stack of 1-8
    right-hand sides.  B mixes lifted ones [0; 1; r] over an r-grid, cone
    points A w with w >= 0, free draws and zeros; with a repeated row of
    A, a cone point moved 1e-8 off that row's copy has no strict solution
    but a relaxed one."""
    rows, cols = draw(st.sampled_from(VREP_SHAPES))
    entry = st.one_of(st.integers(-2, 2).map(float),
                      st.sampled_from([0.5, -0.5, 1e-9]),
                      st.floats(-3.0, 3.0, allow_nan=False))
    A = np.array(draw(st.lists(entry, min_size=rows * cols,
                               max_size=rows * cols))).reshape(rows, cols)
    repeated = rows > 1 and draw(st.booleans())
    if repeated:
        A[-1] = A[0]
    weights = st.lists(st.sampled_from([0.0, 0.25, 1.0, 2.0]),
                       min_size=cols, max_size=cols).map(np.array)

    def lifted(r):
        return np.concatenate([np.zeros(rows - 2), [1.0, r]]) if rows > 1 \
            else np.array([r])

    def off_cone(w):
        b = A @ w
        b[-1] += 1e-8 if repeated else 0.0
        return b

    row = st.one_of(
        st.sampled_from([0.0, 1e-3, 0.1, 1.0, 10.0]).map(lifted),
        weights.map(lambda w: A @ w),
        weights.map(off_cone),
        st.lists(entry, min_size=rows, max_size=rows).map(np.array),
        st.just(np.zeros(rows)))
    B = np.array(draw(st.lists(row, min_size=1, max_size=8)))
    return A, B


def _fallback_reference(A, b, stat_tol):
    """Strict, then relaxed when strict finds no vertex, one b at a time;
    rays from the normalised recession system, nonzero ones only."""
    verts = reference_vertices(A, b)
    if not verts:
        verts = reference_vertices(A, b, stat_tol)
    if not verts:
        return [], []
    aug = np.vstack([A, np.ones(A.shape[1])])
    rays = [r for r in reference_vertices(aug, np.eye(len(aug))[-1])
            if np.max(np.abs(r)) > 0]
    return verts, rays


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=vrep_stacks())
@example(case=(np.ones((2, 2)),
               np.array([[1.0, 1.0 + 1e-8], [1.0, 1.0], [0.0, 0.0],
                         [1.0, 1.0 - 1e-8]])))
def test_a_stack_is_enumerated_as_each_row_alone(case):
    A, B = case
    _clear_memos()
    stacked = _polyalg.basic_vertices(A, B)
    assert len(stacked) == len(B)
    for q, b in enumerate(B):
        assert _same_list(stacked[q], _polyalg.basic_vertices(A, B[q:q + 1])[0])
        assert _same_list(stacked[q], reference_vertices(A, b))
    # the relaxed pass runs on the sub-stack of rows strict left empty
    _clear_memos()
    got = _vrep_fallback(A, B, STAT_TOL)
    assert len(got) == len(B)
    for q, b in enumerate(B):
        want = _fallback_reference(A, b, STAT_TOL)
        assert _same_list(got[q][0], want[0]) and _same_list(got[q][1], want[1])
        _clear_memos()
        alone, = _vrep_fallback(A, B[q:q + 1], STAT_TOL)
        assert _same_list(alone[0], want[0]) and _same_list(alone[1], want[1])


# -- the LP memo ---------------------------------------------------------------

SMALL = GridSpec(points_per_dim=41, refine_depth=2)
VARIANTS = [(fn, v) for fn in (certify_optimistic, certify_pessimistic)
            for v in ("i", "ii", "iii")]

# y1 pinned to x1 by y1 <= x1 and the follower's -y1: every x1 in (0, 1]
# has the same active constraint, and every datum is affine, so every
# multiplier LP of one such point is an LP of any other
PINNED_AFFINE = parse_program("""
[dims]
n = 1
m = 1
[upper]
objective = x1 - y1
[lower]
objective = -y1
constraint = y1 - x1
constraint = -y1
[box]
x1 = -1, 1
y1 = -2, 2
[mode]
optimistic
""")


def _certify_all(prog, x, grid):
    return [fn(prog, x, v, grid) for fn, v in VARIANTS]


def _same_lp(a, b):
    """Equal (success, fun, x), bit for bit, the sign of a zero included."""
    (sa, fa, xa), (sb, fb, xb) = a, b
    if sa != sb or repr(fa) != repr(fb) or (xa is None) != (xb is None):
        return False
    return xa is None or (np.array_equal(xa, xb)
                          and np.array_equal(np.signbit(xa), np.signbit(xb)))


def _certified_lps(prog, x, grid):
    """Every LP the six variants hand to _lp at x, with its answer."""
    seen = []
    solve = _polyalg._lp

    def recording(*args):
        got = solve(*args)
        seen.append((copy.deepcopy(args),
                     got[:2] + (None if got[2] is None else got[2].copy(),)))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_polyalg, "_lp", recording)
        _certify_all(prog, x, grid)
    return seen


def _assert_lp_hits_equal_fresh_solves(prog, x, grid):
    _polyalg._lp.cache_clear()
    seen = _certified_lps(prog, x, grid)
    assert seen
    for args, got in seen:
        _polyalg._lp.cache_clear()
        cold = _polyalg._lp(*args)
        warm = _polyalg._lp(*args)
        assert _polyalg._lp.cache_info().hits == 1
        assert _same_lp(cold, got) and _same_lp(warm, cold)


def test_lp_hit_equals_a_fresh_solve_on_instance_a():
    _assert_lp_hits_equal_fresh_solves(instance_a(), [0.5], GridSpec())


@settings(max_examples=2, deadline=None)
@given(case=piecewise_affine_programs())
def test_lp_hit_equals_a_fresh_solve_on_drawn_programs(case):
    prog, x = case
    _assert_lp_hits_equal_fresh_solves(prog, x, SMALL)


def test_lp_keys_stay_apart():
    # the signs of zeros are the memo property's (tests/test_memo.py)
    c, A, rhs = np.array([1.0, 2.0]), np.array([[1.0, 1.0]]), np.array([1.0])
    lb, ub = np.zeros(2), np.full(2, np.inf)
    requests = [
        (c, A, rhs, rhs, lb, ub),
        # the same A and right-hand side as a le row
        (c, A, np.array([-np.inf]), rhs, lb, ub),
        # a free lower bound and a finite one
        (c, A, rhs, rhs, np.array([-np.inf, 0.0]), ub),
    ]
    _polyalg._lp.cache_clear()
    answers = []
    for i, args in enumerate(requests, start=1):
        answers.append(_polyalg._lp(*args))
        assert answers[-1][0]
        assert _polyalg._lp.cache_info().misses == i
    # x1 + x2 = 1 is solved at (1, 0), x1 + x2 <= 1 at (0, 0)
    assert answers[0][1] == 1.0 and answers[1][1] == 0.0
    for args in requests:
        _polyalg._lp(*args)
    info = _polyalg._lp.cache_info()
    assert (info.hits, info.misses) == (len(requests), len(requests))


def test_mutating_a_returned_solution_leaves_the_memo_intact():
    # a solution is shared read-only, so a write raises and the memo keeps
    # what it holds
    def builder():
        lp = _polyalg.LPBuilder()
        a, b = lp.var(ub=1.0), lp.var(ub=2.0)
        lp.le({a: 1.0, b: 1.0}, 2.5)
        return lp

    _polyalg._lp.cache_clear()
    val, sol = builder().maximize({0: 1.0, 1: 1.0})
    want = sol.copy()
    with pytest.raises(ValueError):
        sol[:] = 99.0
    val2, sol2 = builder().maximize({0: 1.0, 1: 1.0})
    assert _polyalg._lp.cache_info().hits == 1
    assert val2 == val == 2.5 and np.array_equal(sol2, want)
    # and through the soft-row solve, whose solution is a view of x
    lp = builder()
    lp.soft({0: 1.0}, 0.5)
    t, w = lp.minimize_max_violation()
    w_want = w.copy()
    with pytest.raises(ValueError):
        w[:] = -7.0
    lp = builder()
    lp.soft({0: 1.0}, 0.5)
    assert lp.minimize_max_violation()[0] == t
    assert np.array_equal(w_want, lp.minimize_max_violation()[1])


def _counting_solves(monkeypatch):
    """A list that grows by one on each HiGHS solve `_lp` makes."""
    calls = []
    solve = _polyalg._highs_lp

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(_polyalg, "_highs_lp", counted)
    return calls


def test_failed_solves_are_memoised_and_exceptions_are_not(monkeypatch):
    calls = _counting_solves(monkeypatch)
    infeasible = (np.array([1.0]), np.array([[1.0]]), np.array([-1.0]),
                  np.array([-1.0]), np.array([0.0]), np.array([np.inf]))
    _polyalg._lp.cache_clear()
    for _ in range(2):
        assert _polyalg._lp(*infeasible) == (False, None, None)
    assert len(calls) == 1

    def broken(*args):
        calls.append(1)
        raise ValueError("solver failure")

    monkeypatch.setattr(_polyalg, "_highs_lp", broken)
    calls.clear()
    ok = (np.array([1.0]), np.zeros((0, 1)), np.zeros(0), np.zeros(0),
          np.array([0.0]), np.array([1.0]))
    for _ in range(2):
        with pytest.raises(ValueError, match="solver failure"):
            _polyalg._lp(*ok)
    assert len(calls) == 2
    assert _polyalg._lp.cache_info().currsize == 1


def test_a_second_point_of_the_same_piece_solves_no_lp(monkeypatch):
    calls = _counting_solves(monkeypatch)
    _polyalg._lp.cache_clear()
    first = _certify_all(PINNED_AFFINE, [0.5], GridSpec())
    assert calls
    calls.clear()
    second = _certify_all(PINNED_AFFINE, [0.75], GridSpec())
    assert len(calls) == 0
    assert [c.status for c in first] == [c.status for c in second] == \
        ["Certified"] * 6


# -- properties of the certificates on drawn programs --------------------------

@st.composite
def certifiable_programs(draw):
    """piecewise_affine_programs with the y-box added as lower-level
    constraints, so that a solution on the box edge has multipliers, and
    k * |x_i - xbar_i| added to F, so that xbar can be stationary.  With
    k = 4 most drawn points certify, with k = 1 some are refuted."""
    prog, x = draw(piecewise_affine_programs())
    k = draw(st.sampled_from((1.0, 4.0)))
    F = prog.F
    for i, xi in enumerate(x, start=1):
        F = F + k * eabs(Expr.x(i) - xi)
    box = []
    for j in range(1, prog.m + 1):
        box += [Expr.y(j) - 1.0, neg(Expr.y(j)) - 1.0]
    return replace(prog, F=F, g=prog.g + tuple(box)), x


@settings(max_examples=8, deadline=None)
@given(case=certifiable_programs())
def test_drawn_certificates_recheck_and_ignore_the_lp_memo(case):
    prog, x = case
    cold = []
    for fn, v in VARIANTS:
        _polyalg._lp.cache_clear()
        cold.append(fn(prog, x, v, SMALL))
    hits = _polyalg._lp.cache_info().hits
    warm = _certify_all(prog, x, SMALL)
    assert _polyalg._lp.cache_info().hits > hits
    assert [json.dumps(c.to_json_dict()) for c in warm] == \
        [json.dumps(c.to_json_dict()) for c in cold]
    for cert in cold:
        if cert.status == "Certified":
            assert recheck_certificate(prog, cert) <= cert.tol_eff
