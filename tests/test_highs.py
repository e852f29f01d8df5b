"""The direct HiGHS solve behind `_polyalg._lp` against linprog.

`_polyalg._highs_lp` hands HiGHS the model of `_lp` (c, A with the ub rows
first, row_lo, row_hi, lb, ub) through scipy's binding, without linprog's
per-solve option checks.  These tests keep linprog as the reference, given
the same LP as A_ub, b_ub, A_eq, b_eq and bounds: the same (success, fun,
x) bit for bit on drawn LPs and on every LP of the golden certifications,
the same post-check at its tolerance, the same ValueError on data that is
not finite, and the same HighsOptions.
"""

import ast
import copy
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize._linprog_util import _check_result

from bilevelsense import _polyalg
from bilevelsense._memo import REGISTRY
from test_certify_golden import CASES, run_case
from test_polyalg import _same_lp

SRC = Path(__file__).resolve().parent.parent / "src" / "bilevelsense"


def _linprog(c, A, row_lo, row_hi, lb, ub):
    """(success, fun, x) of linprog on the model of `_lp`: the rows whose
    row_lo is -inf as A_ub and b_ub, the others (row_lo == row_hi) as A_eq
    and b_eq, and zip(lb, ub) as the bounds."""
    le = row_lo == -math.inf
    res = scipy.optimize.linprog(c, A_ub=A[le], b_ub=row_hi[le], A_eq=A[~le],
                                 b_eq=row_hi[~le], bounds=list(zip(lb, ub)),
                                 method="highs")
    if not res.success:
        return False, None, None
    return True, float(res.fun), np.array(res.x)


def _assert_same_solve(args):
    want = _linprog(*copy.deepcopy(args))
    got = _polyalg._highs_lp(*args)
    assert _same_lp(got, want), (args, got, want)
    assert got[2] is None or (got[2].dtype == want[2].dtype
                              and got[2].shape == want[2].shape)
    return got


# -- the binding ---------------------------------------------------------------

def test_the_installed_scipy_exposes_the_highs_names():
    # the names `_highs_lp` reads: a scipy that moves them fails here
    from scipy.optimize._highspy import _core as h

    for name in ("_Highs", "HighsLp", "HighsOptions", "HighsStatus",
                 "HighsDebugLevel"):
        assert hasattr(h, name), name
    assert hasattr(h.HighsModelStatus, "kOptimal")
    assert hasattr(h.HighsStatus, "kError")
    assert hasattr(h.MatrixFormat, "kColwise")
    assert hasattr(h.simplex_constants.SimplexStrategy, "kSimplexStrategyDual")
    # linprog maps infinite bounds to kHighsInf; they are the same float
    assert h.kHighsInf == math.inf


def _fields(options):
    return {name: getattr(options, name) for name in dir(options)
            if not name.startswith("_") and not callable(getattr(options, name))}


def test_the_options_are_the_ones_linprog_passes(monkeypatch):
    from scipy.optimize._highspy import _core as h

    made = []
    options_type = h.HighsOptions

    def recorded():
        made.append(options_type())
        return made[-1]

    monkeypatch.setattr(h, "HighsOptions", recorded)
    scipy.optimize.linprog([1.0], bounds=[(0.0, 1.0)], method="highs")
    monkeypatch.undo()
    ours = _fields(_polyalg._highs()[1])
    assert len(made) == 1 and len(ours) > 50
    assert _fields(made[0]) == ours
    assert _fields(options_type()) != ours  # the five values are set


# -- drawn LPs -----------------------------------------------------------------

INF = math.inf
ENTRIES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 3.0))
LOWER = st.sampled_from((0.0, -0.0, -1.0, 1.0, -INF))
UPPER = st.sampled_from((0.0, -0.0, 1.0, 2.0, INF))


@st.composite
def small_lps(draw):
    """(c, A, row_lo, row_hi, lb, ub) as LPBuilder hands them to `_lp`:
    the ub rows first, then the eq rows, either set possibly empty, with
    signed zeros and infinite and crossed bounds: infeasible and unbounded
    LPs among them."""
    n = draw(st.integers(1, 3))

    def vector(k, entries=ENTRIES):
        return np.array(draw(st.lists(entries, min_size=k, max_size=k)),
                        dtype=float)

    n_ub, n_eq = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    c = vector(n)
    A = vector((n_ub + n_eq) * n).reshape(n_ub + n_eq, n)
    row_hi = vector(n_ub + n_eq)
    row_lo = row_hi.copy()
    row_lo[:n_ub] = -INF
    return c, A, row_lo, row_hi, vector(n, LOWER), vector(n, UPPER)


def _model(*values):
    """The model of `_lp` from nested lists: six float arrays."""
    return tuple(np.array(v, dtype=float) for v in values)


INFEASIBLE = _model([1.0], [[1.0]], [-1.0], [-1.0], [0.0], [INF])
UNBOUNDED = _model([-1.0, 0.0], [[1.0, -1.0]], [-INF], [1.0], [0.0, 0.0],
                   [INF, INF])
CROSSED = _model([1.0], np.zeros((0, 1)), [], [], [1.0], [0.0])
EMPTY_UB = _model([1.0, -0.0], [[1.0, 1.0]], [1.0], [1.0], [0.0, -0.0],
                  [INF, 2.0])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(args=small_lps())
@example(args=INFEASIBLE)
@example(args=UNBOUNDED)
@example(args=CROSSED)
@example(args=EMPTY_UB)
def test_the_direct_solve_matches_linprog_on_drawn_lps(args):
    _assert_same_solve(args)


def test_the_pinned_lps_fail_and_succeed_as_drawn():
    # the examples above reach each outcome, not only successes
    for args in (INFEASIBLE, UNBOUNDED, CROSSED):
        assert _assert_same_solve(args) == (False, None, None)
    assert _assert_same_solve(EMPTY_UB)[0]


# -- the golden certifications -------------------------------------------------

def test_the_direct_solve_matches_linprog_on_every_golden_lp(monkeypatch):
    # every LP the golden certifications hand to `_lp`, recorded as
    # tests/test_cq.py records them, once each; with every memo cleared,
    # so that no memo of an earlier test hides an LP
    for memo in REGISTRY.values():
        memo.cache_clear()
    seen = {}
    lp = _polyalg._lp

    def recorded(*args):
        key = repr([(a.dtype.str, a.shape, a.tobytes()) for a in args])
        seen.setdefault(key, copy.deepcopy(args))
        return lp(*args)

    monkeypatch.setattr(_polyalg, "_lp", recorded)
    for key in CASES:
        run_case(key)
    monkeypatch.undo()
    assert len(seen) > 50, len(seen)
    outcomes = {_assert_same_solve(args)[0] for args in seen.values()}
    assert outcomes == {True, False}


# -- the post-check ------------------------------------------------------------

TOL = 10 * math.sqrt(1e-9)  # _check_result's tolerance at linprog's tol
BELOW, ABOVE = -math.inf, math.inf


def _post_check_cases():
    lb, ub = np.array([0.0, -1.0]), np.array([1.0, np.inf])
    x, fun = np.array([0.5, 0.0]), 0.25
    slack, con = np.array([0.0, 2.0]), np.array([0.0])
    base = dict(x=x, fun=fun, slack=slack, con=con, lb=lb, ub=ub)
    yield "feasible", base

    def edited(name, index, value):
        arr = base[name].copy()
        arr[index] = value
        return {**base, name: arr}

    edges = [("x", 0, lb[0] - TOL, BELOW), ("x", 0, ub[0] + TOL, ABOVE),
             ("x", 1, lb[1] - TOL, BELOW), ("slack", 0, -TOL, BELOW),
             ("slack", 1, -TOL, BELOW), ("con", 0, TOL, ABOVE),
             ("con", 0, -TOL, BELOW)]
    for name, index, edge, outward in edges:
        yield f"{name}[{index}] on the edge", edited(name, index, edge)
        yield f"{name}[{index}] past the edge", edited(
            name, index, np.nextafter(edge, outward))
    for name in ("x", "slack", "con"):
        yield f"nan in {name}", edited(name, 0, np.nan)
    yield "nan fun", {**base, "fun": math.nan}


@pytest.mark.parametrize("case", list(_post_check_cases()), ids=lambda c: c[0])
def test_the_post_check_is_linprogs(case):
    _, v = case
    bounds = np.column_stack([v["lb"], v["ub"]])
    status, _ = _check_result(v["x"], v["fun"], 0, v["slack"], v["con"],
                              bounds, 1e-9, "", None)
    assert _polyalg._within_tolerance(**v) == (status == 0)


def test_the_post_check_cases_reach_both_answers():
    answers = [_polyalg._within_tolerance(**v) for _, v in _post_check_cases()]
    assert answers.count(True) == 8 and answers.count(False) == 11


def test_the_direct_solve_checks_what_linprog_checks(monkeypatch):
    # the post-check reads the x, fun, ub slack, eq residual and bounds
    # that linprog's _check_result reads, and its answer decides success
    import scipy.optimize._linprog as linprog_module

    args = _model([1.0, -1.0, 0.5],
                  [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0], [1.0, -0.0, 1.0]],
                  [-INF, -INF, 1.0], [2.0, 1.0, 1.0], [0.0, -INF, -0.0],
                  [INF, 1.5, 2.0])
    theirs, ours = [], []
    check_result = linprog_module._check_result

    def their_check(x, fun, status, slack, con, bounds, *rest):
        theirs.append((x, fun, slack, con, bounds[:, 0], bounds[:, 1]))
        return check_result(x, fun, status, slack, con, bounds, *rest)

    within = _polyalg._within_tolerance

    def our_check(*checked):
        ours.append(checked)
        return within(*checked)

    monkeypatch.setattr(linprog_module, "_check_result", their_check)
    monkeypatch.setattr(_polyalg, "_within_tolerance", our_check)
    assert _assert_same_solve(args)[0]
    (want,), (got,) = theirs, ours
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a),
                                                       np.signbit(b))
    monkeypatch.setattr(_polyalg, "_within_tolerance", lambda *checked: False)
    assert _polyalg._highs_lp(*args) == (False, None, None)


# -- data that is not finite ---------------------------------------------------

# (argument, index) of c, and of A and row_hi in the ub row and in the eq
# row, named by the linprog argument each lands in
NOT_FINITE_AT = {"c": (0, 0), "A_ub": (1, (0, 1)), "b_ub": (3, 0),
                 "A_eq": (1, (1, 0)), "b_eq": (3, 1)}


@pytest.mark.parametrize("bad", [INF, -INF, math.nan])
@pytest.mark.parametrize("where", list(NOT_FINITE_AT))
def test_data_that_is_not_finite_raises_on_both_paths(where, bad):
    args = list(_model([1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [-INF, 0.0],
                       [2.0, 0.0], [0.0, 0.0], [INF, INF]))
    arg, index = NOT_FINITE_AT[where]
    args[arg][index] = bad
    with pytest.raises(ValueError):
        _linprog(*args)
    with pytest.raises(ValueError):
        _polyalg._highs_lp(*args)
    _polyalg._lp.cache_clear()
    with pytest.raises(ValueError):
        _polyalg._lp(*args)
    assert _polyalg._lp.cache_info().currsize == 0


def test_no_library_code_calls_linprog():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            assert name != "linprog", path.name
            if isinstance(node, ast.ImportFrom):
                assert "linprog" not in {a.name for a in node.names}, path.name
