import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from bilevelsense import cq, valuefn
from bilevelsense._polyalg import LPBuilder
from bilevelsense.certify import (
    certify_optimistic,
    certify_pessimistic,
    certify_value_stationarity,
)
from bilevelsense.errors import InfeasiblePointError, NotApplicableError
from bilevelsense.model import BilevelProgram, Expr, neg
from bilevelsense.sensitivity import Caps
from bilevelsense.cq import (
    CQVerdict,
    check_codcq_convex,
    check_gen_mfcq,
    check_inner_regularity,
    check_pointbased_cq,
    check_polyhedral_calmness,
    check_polyhedral_calmness_all,
    cq_bundle,
    recheck_mfcq_witness,
    recheck_pointbased_witness,
)
from bilevelsense.valuefn import GridSpec

from instances import (
    instance_a,
    instance_a_constrained,
    instance_b,
    instance_c,
    instance_cqk_degenerate,
    instance_mfcq_degenerate,
)
from test_valuefn import piecewise_affine_programs

X1 = Expr.x(1)
Y1 = Expr.y(1)

GRID = GridSpec()


class TestCalmness:
    def test_instance_a_guaranteed(self, prog_a):
        k = check_polyhedral_calmness(prog_a, "K")
        s = check_polyhedral_calmness(prog_a, "S")
        assert k.status == "Guaranteed"
        assert s.status == "Guaranteed"

    def test_nonaffine_f_unknown(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=(X1 - Y1) ** 2, g=(neg(Y1),),
            box_x=((-1, 1),), box_y=((-1, 1),))
        assert check_polyhedral_calmness(prog, "S").status == "Unknown"
        assert check_polyhedral_calmness(prog, "K").status == "Guaranteed"

    def test_upper_constraints(self, prog_a_constrained):
        assert check_polyhedral_calmness(prog_a_constrained, "X").status == "Guaranteed"

    def test_all_returns_three(self, prog_b):
        verdicts = check_polyhedral_calmness_all(prog_b)
        assert [v.kind for v in verdicts] == [
            "PolyhedralCalmness[K]", "PolyhedralCalmness[S]",
            "PolyhedralCalmness[X]"]
        # |y - x| is piecewise affine but not affine: Unknown, never Fails
        assert verdicts[1].status == "Unknown"


class TestPointbased:
    def test_instance_a_k_holds(self, prog_a):
        v = check_pointbased_cq(prog_a, "K", [0.5], [0.5])
        assert v.status == "Holds"

    def test_instance_a_s_holds_interior(self, prog_a):
        v = check_pointbased_cq(prog_a, "S", [0.5], [0.5])
        assert v.status == "Holds"

    def test_leader_coupled_constraint_fails(self):
        # lower constraint x <= 0 active at x = 0: its gradient has a
        # nonzero x-part and zero y-part, so x* != 0 is admissible
        prog = instance_cqk_degenerate()
        v = check_pointbased_cq(prog, "K", [0.0], [0.0])
        assert v.status == "Fails"
        assert abs(np.array(v.witness["xstar"])).max() > v.tol
        assert recheck_pointbased_witness(prog, v, [0.0], [0.0])

    def test_instance_a_s_fails_at_domain_corner(self, prog_a):
        # at x = 0 both lower constraints pinch: the solution-map
        # qualification admits x* = -u2
        v = check_pointbased_cq(prog_a, "S", [0.0], [0.0])
        assert v.status == "Fails"
        assert recheck_pointbased_witness(prog_a, v, [0.0], [0.0])

    def test_no_active_constraints_holds(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=neg(Y1), g=(Y1 - 10.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        v = check_pointbased_cq(prog, "K", [0.0], [0.0])
        assert v.status == "Holds"


class TestGenMFCQ:
    def test_single_active_gradient_holds(self, prog_a):
        v = check_gen_mfcq(prog_a, [0.5], [0.5])
        assert v.status == "Holds"

    def test_opposite_gradients_fail(self):
        prog = instance_mfcq_degenerate()
        v = check_gen_mfcq(prog, [0.0], [0.0])
        assert v.status == "Fails"
        gamma = np.array(v.witness["gamma"])
        assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
        assert recheck_mfcq_witness(prog, v, [0.0], [0.0])

    def test_no_active_holds_vacuously(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=neg(Y1), g=(Y1 - 10.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        assert check_gen_mfcq(prog, [0.0], [0.0]).status == "Holds"

    def test_a_shared_generator_credits_a_constraint_that_has_it(self):
        # g1 and g2 have the one generator (0, -1), which the hull keeps
        # once: each hull weight goes to a constraint owning its generator,
        # so the witness's directions vanish and its own re-check accepts it
        prog = BilevelProgram(
            n=1, m=1, F=X1, f=Y1, g=(neg(Y1), neg(Y1) + 0.0 * X1, Y1),
            box_x=((-1, 1),), box_y=((-1, 1),))
        v = check_gen_mfcq(prog, [0.0], [0.0])
        assert v.status == "Fails"
        gamma = np.array(v.witness["gamma"])
        assert gamma.sum() == pytest.approx(1.0, abs=1e-9)
        assert gamma[2] == pytest.approx(0.5, abs=1e-9)
        total = np.sum([np.array(d) for d in v.witness["g_dirs"].values()], axis=0)
        assert np.max(np.abs(total)) <= v.tol
        assert recheck_mfcq_witness(prog, v, [0.0], [0.0])


class TestInnerRegularity:
    def test_instance_a_semicompact_holds(self, prog_a):
        v = check_inner_regularity(prog_a, "semicompact", [0.5], radius=0.05,
                                   grid=GRID)
        assert v.status == "Holds"

    def test_instance_c_semicontinuous_fails_at_flip(self, prog_c):
        # worst-case solutions flip from {1} (x > 0) to {0} (x < 0):
        # dist(ybar = 1, S(x)) does not vanish
        v = check_inner_regularity(prog_c, "semicontinuous", [0.0],
                                   ybar=[1.0], radius=0.1, grid=GRID)
        assert v.status == "Fails"
        assert v.witness["x"][0] < 0

    def test_fixed_singleton_both_hold(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1 + Y1, f=(Y1 - 0.25) ** 2, g=(),
            box_x=((-1, 1),), box_y=((-2, 2),))
        a = check_inner_regularity(prog, "semicompact", [0.0], radius=0.05,
                                   grid=GRID)
        b = check_inner_regularity(prog, "semicontinuous", [0.0],
                                   ybar=[0.25], radius=0.05, grid=GRID)
        assert a.status == "Holds"
        assert b.status == "Holds"

    @pytest.mark.parametrize("kind,ybar", [("semicompact", None),
                                           ("semicontinuous", [1.0])])
    def test_each_shell_is_swept_in_one_batch(self, prog_c, monkeypatch, kind,
                                              ybar):
        # every shell announces its 8 points (at n = 1 these are x -+ rho),
        # so one miss sweeps both and each point's own request hits; the
        # verdict is that of unannounced requests
        batches = []
        sweep_batch = valuefn._sweep_batch

        def counting(m, f, g, box_y, F, x_keys, grid):
            batches.append(len(x_keys))
            return sweep_batch(m, f, g, box_y, F, x_keys, grid)

        monkeypatch.setattr(valuefn, "_sweep_batch", counting)
        runs = []
        for announce in (True, False):
            if not announce:
                monkeypatch.setattr(cq, "_ahead", lambda *args: None)
            valuefn._solve_lower.cache_clear()
            cq._inner_regularity.cache_clear()
            valuefn._solution_set.cache_clear()
            batches.clear()
            verdict = check_inner_regularity(prog_c, kind, [0.3], ybar=ybar,
                                             radius=0.1, grid=SMALL)
            info = valuefn._solve_lower.cache_info()
            runs.append((verdict, (info.hits, info.misses), list(batches)))
        (announced, counts, sizes), (alone, alone_counts, alone_sizes) = runs
        assert announced == alone
        shells = 1 if kind == "semicompact" else 2
        # one miss at xbar and one per shell; each shell's two points hit
        assert counts == (2 * shells, 1 + shells)
        assert alone_counts == (0, 1 + 2 * shells)
        assert sizes == [1] + [2] * shells
        assert alone_sizes == [1] * (1 + 2 * shells)


class TestCodCQ:
    def test_affine_in_y_guaranteed(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1 * Y1, f=Y1**2, g=(Y1 - 1.0, neg(Y1) - 1.0),
            box_x=((-1, 1),), box_y=((-2, 2),))
        assert check_codcq_convex(prog, [0.0], [0.0]).status == "Guaranteed"

    def test_nonlinear_unknown(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1 * Y1, f=Y1**2, g=(Y1**2 - 1.0,),
            box_x=((-1, 1),), box_y=((-2, 2),))
        assert check_codcq_convex(prog, [0.0], [0.0]).status == "Unknown"

    def test_x_in_g_not_applicable(self, prog_a):
        with pytest.raises(NotApplicableError):
            check_codcq_convex(prog_a, [0.5], [0.5])


class TestBundle:
    def test_instance_a_bundle(self, prog_a):
        bundle = cq_bundle(prog_a, [0.5], "semicompact", GRID)
        statuses = {v.kind: v.status for v in bundle}
        assert statuses["PolyhedralCalmness[K]"] == "Guaranteed"
        assert statuses["CQ_K"] == "Holds"
        assert statuses["GenMFCQ"] == "Holds"
        assert statuses["InnerSemicompact"] == "Holds"

    def test_verdicts_deterministic(self, prog_c):
        b1 = cq_bundle(prog_c, [0.3], "semicompact", GRID, seed=5)
        b2 = cq_bundle(prog_c, [0.3], "semicompact", GRID, seed=5)
        assert [v.to_dict() for v in b1] == [v.to_dict() for v in b2]


# -- the verdict memos ---------------------------------------------------------

SMALL = GridSpec(points_per_dim=41, refine_depth=2)
MEMOS = (cq._pointbased_cq, cq._inner_regularity, valuefn._solution_set)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _hits():
    return [memo.cache_info().hits for memo in MEMOS]


def _checks(prog, x, grid):
    """Both pointbased checks and both regularity checks at (x, y0), as
    cq_bundle runs them, with their verdicts as dicts."""
    y0 = list(cq._mode_solutions(prog, x, grid).points[0])
    out = [check_pointbased_cq(prog, which, x, y0, grid=grid)
           for which in ("K", "S")]
    out.append(check_inner_regularity(prog, "semicompact", x, grid=grid))
    out.append(check_inner_regularity(prog, "semicontinuous", x, ybar=y0,
                                      grid=grid))
    return [v.to_dict() for v in out]


def _assert_hit_equals_fresh(prog, x, grid):
    _clear_memos()
    fresh = _checks(prog, x, grid)
    hits = _hits()
    again = _checks(prog, x, grid)
    assert again == fresh
    # the repeat is answered by the memos: two pointbased and two
    # regularity hits, and a solution-set hit for y0
    assert [a - b for a, b in zip(_hits(), hits)][:2] == [2, 2]
    assert _hits()[2] > hits[2]
    # and a check that ran alone on empty memos agrees with the one the
    # bundle's neighbours had warmed
    for pos, which in enumerate(("K", "S")):
        _clear_memos()
        y0 = list(cq._mode_solutions(prog, x, grid).points[0])
        assert check_pointbased_cq(prog, which, x, y0,
                                   grid=grid).to_dict() == fresh[pos]


@pytest.mark.parametrize("make,x", [
    (instance_a, [0.5]), (instance_a, [0.0]), (instance_a_constrained, [0.5]),
    (instance_b, [0.0]), (instance_b, [0.3]),
    (instance_c, [0.0]), (instance_c, [0.3]),
    (lambda: replace(instance_c(), mode="optimistic"), [0.3]),
])
def test_memo_hit_equals_a_fresh_check(make, x):
    _assert_hit_equals_fresh(make(), x, SMALL)


@settings(max_examples=15, deadline=None)
@given(case=piecewise_affine_programs())
def test_memo_hit_equals_a_fresh_check_on_drawn_programs(case):
    prog, x = case
    for p in (prog, replace(prog, mode="pessimistic")):
        _assert_hit_equals_fresh(p, x, SMALL)


def test_pointbased_keys_stay_apart(prog_a):
    # every input that can change a verdict opens its own entry
    _clear_memos()
    base = dict(caps=Caps(), grid=SMALL, seed=0)
    variants = [
        (prog_a, base),
        (prog_a, {**base, "seed": 1}),
        (prog_a, {**base, "caps": Caps(r_max=5.0)}),
        (prog_a, {**base, "grid": GridSpec(points_per_dim=41, refine_depth=3)}),
        (replace(prog_a, mode="pessimistic"), base),
        (prog_a.negated_upper(), base),
    ]
    got = []
    for i, (prog, kwargs) in enumerate(variants, start=1):
        got.append(check_pointbased_cq(prog, "S", [0.0], [0.0], **kwargs))
        assert cq._pointbased_cq.cache_info().misses == i
    assert got[1].seed == 1
    assert check_pointbased_cq(prog_a, "K", [0.0], [0.0], **base).kind == "CQ_K"
    # (the signs of zeros in the point are the memo property's,
    # tests/test_memo.py)
    info = cq._pointbased_cq.cache_info()
    assert (info.hits, info.misses) == (0, len(variants) + 1)


def test_regularity_keys_stay_apart(prog_c):
    _clear_memos()
    base = dict(radius=0.1, n_samples=8, grid=SMALL, seed=0)
    variants = [
        (prog_c, "semicompact", None, base),
        (prog_c, "semicontinuous", [1.0], base),
        (prog_c, "semicontinuous", [0.0], base),
        (prog_c, "semicompact", None, {**base, "radius": 0.2}),
        (prog_c, "semicompact", None, {**base, "n_samples": 4}),
        (prog_c, "semicompact", None, {**base, "seed": 3}),
        (prog_c, "semicompact", None, {**base, "grid": GridSpec(41, 3)}),
        (replace(prog_c, mode="optimistic"), "semicontinuous", [1.0], base),
        (prog_c.negated_upper(), "semicontinuous", [1.0], base),
    ]
    got = []
    for i, (prog, kind, ybar, kwargs) in enumerate(variants, start=1):
        got.append(check_inner_regularity(prog, kind, [0.0], ybar=ybar, **kwargs))
        assert cq._inner_regularity.cache_info().misses == i
    assert got[3].tol == 0.2 and got[5].seed == 3
    # both solution maps of F = x * y flip at x = 0, the worst-case one away
    # from ybar = 1 on x < 0, the best-case one on x > 0
    assert got[1].witness["x"][0] < 0.0 < got[7].witness["x"][0]
    assert cq._inner_regularity.cache_info().hits == 0


def test_failed_checks_are_not_memoised(prog_a):
    _clear_memos()
    for _ in range(2):
        with pytest.raises(InfeasiblePointError):
            check_inner_regularity(prog_a, "semicompact", [-1.0], grid=SMALL)
        with pytest.raises(ValueError):
            check_inner_regularity(prog_a, "semicontinuous", [0.5], grid=SMALL)
    assert cq._inner_regularity.cache_info().currsize == 0


def test_mutating_a_witness_leaves_the_memo_intact(prog_c):
    _clear_memos()
    prog = instance_cqk_degenerate()
    first = check_pointbased_cq(prog, "K", [0.0], [0.0])
    want = copy.deepcopy(first.to_dict())
    assert first.witness["g_dirs"]
    first.witness["xstar"] = (99.0,)
    for i in list(first.witness["g_dirs"]):
        first.witness["g_dirs"][i] = (99.0, 99.0)
    first.witness["g_dirs"][7] = ()
    again = check_pointbased_cq(prog, "K", [0.0], [0.0])
    assert cq._pointbased_cq.cache_info().hits == 1
    assert again.to_dict() == want
    assert recheck_pointbased_witness(prog, again, [0.0], [0.0])

    flip = check_inner_regularity(prog_c, "semicontinuous", [0.0], ybar=[1.0],
                                  grid=GRID)
    want = copy.deepcopy(flip.to_dict())
    flip.witness["x"] = (5.0,)
    flip.witness.clear()
    assert check_inner_regularity(prog_c, "semicontinuous", [0.0], ybar=[1.0],
                                  grid=GRID).to_dict() == want
    assert cq._inner_regularity.cache_info().hits == 1


VALUE_GRID = GridSpec(points_per_dim=201, refine_depth=6)


@pytest.mark.parametrize("make,x", [(instance_a_constrained, [0.5]),
                                    (instance_c, [0.3])])
def test_seven_variants_pay_for_each_bundle_once(make, x, monkeypatch):
    """Certifying one point under all seven variants solves no more
    pointbased-CQ LPs than the two distinct bundles there need once each:
    the default grid's (optimistic and pessimistic i/ii/iii) and value
    stationarity's finer grid."""
    prog = make()
    calls = []
    maximize = LPBuilder.maximize

    def counted(self, coeffs):
        calls.append(1)
        return maximize(self, coeffs)

    monkeypatch.setattr(LPBuilder, "maximize", counted)
    budget = 0
    for grid in (GridSpec(), VALUE_GRID):
        _clear_memos()
        cq_bundle(prog, x, "semicompact", grid)
        budget += len(calls)
        calls.clear()
    assert budget > 0
    _clear_memos()
    for variant in ("i", "ii", "iii"):
        certify_optimistic(prog, x, variant)
        certify_pessimistic(prog, x, variant)
    certify_value_stationarity(prog, x)
    assert len(calls) <= budget


# -- the pointbased LP is declared through the one multiplier-LP builder ---------
#
# A test-side copy of the LP assembly check_pointbased_cq used before it
# declared its LPs through `sensitivity._System`.  The library must hand the
# solver the same arrays, byte for byte and signed zeros included, and
# return the same verdicts.


def _reference_pointbased_cq(prog, which, xbar, y, tol=1e-8, caps=Caps(),
                             grid=GridSpec(), tol_active=1e-8, seed=0):
    from bilevelsense.model import clarke_generators
    from bilevelsense.sensitivity import _active_indices
    from bilevelsense.subdiff import FD_DIRS, FD_RADIUS, FD_STEP
    from bilevelsense.subdiff import fd_subgradient_samples
    from bilevelsense.valuefn import value_function

    xbar_l = [float(v) for v in np.atleast_1d(xbar)]
    y_l = [float(v) for v in np.atleast_1d(y)]
    n, m = prog.n, prog.m
    active = _active_indices(prog, xbar_l, y_l, tol_active)
    phi_gens = []
    if which == "S":
        h = value_function(prog, "phi", grid)
        clusters = fd_subgradient_samples(
            h, xbar_l, n_dirs=FD_DIRS, radius=FD_RADIUS, step=FD_STEP,
            seed=seed)
        if clusters.spreads and max(clusters.spreads) > 10.0 * tol + 1e-6:
            return CQVerdict(
                f"CQ_{which}", "Unknown", tol,
                detail="fd clustering of the lower value function is ambiguous",
                seed=seed)
        phi_gens = [-np.array(c) for c in clusters.clusters]
    best_val, best = 0.0, None
    for coord in range(n):
        for sign in (1.0, -1.0):
            lp = LPBuilder()
            g_cols = []
            for i in active:
                for gvec in clarke_generators(prog.g[i], xbar_l, y_l, tol_active):
                    g_cols.append((lp.var(), i, gvec))
            f_cols, p_cols, r_var = [], [], None
            if which == "S":
                r_var = lp.var(ub=None)
                for gvec in clarke_generators(prog.f, xbar_l, y_l, tol_active):
                    f_cols.append((lp.var(), gvec))
                for pv in phi_gens:
                    p_cols.append((lp.var(), np.concatenate([pv, np.zeros(m)])))
                lp.eq({**{v: 1.0 for v, _ in f_cols}, r_var: -1.0}, 0.0)
                lp.eq({**{v: 1.0 for v, _ in p_cols}, r_var: -1.0}, 0.0)
            norm_row = {v: 1.0 for v, _, _ in g_cols}
            if r_var is not None:
                norm_row[r_var] = 1.0
            if not norm_row:
                return CQVerdict(f"CQ_{which}", "Holds", tol,
                                 detail="no active multipliers admissible",
                                 seed=seed)
            lp.eq(norm_row, 1.0)
            for row in range(m):
                coeffs = {v: g[n + row] for v, _, g in g_cols}
                for v, g in f_cols:
                    coeffs[v] = g[n + row]
                for v, g in p_cols:
                    coeffs[v] = coeffs.get(v, 0.0) + g[n + row]
                lp.eq(coeffs, 0.0)
            obj = {v: sign * g[coord] for v, _, g in g_cols}
            for v, g in f_cols:
                obj[v] = sign * g[coord]
            for v, g in p_cols:
                obj[v] = obj.get(v, 0.0) + sign * g[coord]
            val, sol = lp.maximize(obj)
            if val is None or val <= best_val:
                continue
            best_val = val
            u = np.zeros(prog.p)
            gdir = {}
            xstar = np.zeros(n)
            for v, i, g in g_cols:
                u[i] += sol[v]
                gdir[i] = gdir.get(i, np.zeros(n + m)) + sol[v] * g
                xstar += sol[v] * g[:n]
            fvec, phivec, rv = np.zeros(n + m), np.zeros(n), 0.0
            if which == "S":
                rv = float(sol[r_var])
                for v, g in f_cols:
                    fvec += sol[v] * g
                for v, g in p_cols:
                    phivec += sol[v] * g[:n]
                xstar += fvec[:n] + phivec
            best = {"xstar": tuple(xstar.tolist()), "u": tuple(u.tolist()),
                    "r": rv,
                    "g_dirs": {i: tuple(v.tolist()) for i, v in gdir.items()},
                    "f_vec": tuple(fvec.tolist()),
                    "phi_vec": tuple(phivec.tolist())}
    if best_val <= tol:
        return CQVerdict(f"CQ_{which}", "Holds", tol,
                         detail=f"max |x*| over normalized slice = {best_val:.3e}",
                         seed=seed)
    return CQVerdict(f"CQ_{which}", "Fails", tol, witness=best,
                     detail=f"x* with |x*|_inf = {best_val:.3e} admissible",
                     seed=seed)


def _bytes(a):
    return a.dtype.str, a.shape, a.tobytes()


def _recorded_lp_inputs(monkeypatch):
    """Every LP handed to `_polyalg._lp`, as bytes (which keep the sign of
    zero)."""
    from bilevelsense import _polyalg

    calls = []
    lp = _polyalg._lp

    def recorded(c, A, row_lo, row_hi, lb, ub):
        calls.append([_bytes(c), _bytes(A), _bytes(row_lo), _bytes(row_hi),
                      _bytes(lb), _bytes(ub)])
        return lp(c, A, row_lo, row_hi, lb, ub)

    monkeypatch.setattr(_polyalg, "_lp", recorded)
    return calls


def _assert_pointbased_matches_reference(monkeypatch, prog, x, grid):
    """Both checks at (x, y0) as cq_bundle runs them; returns the number of
    LPs solved."""
    calls = _recorded_lp_inputs(monkeypatch)
    solved = 0
    y0 = list(cq._mode_solutions(prog, x, grid).points[0])
    for which in ("K", "S"):
        cq._pointbased_cq.cache_clear()
        calls.clear()
        got = check_pointbased_cq(prog, which, x, y0, grid=grid)
        got_calls = list(calls)
        calls.clear()
        want = _reference_pointbased_cq(prog, which, x, y0, grid=grid)
        assert got_calls == calls
        assert got.to_dict() == want.to_dict()
        assert repr(got.to_dict()) == repr(want.to_dict())  # signed zeros too
        solved += len(got_calls)
    return solved


def _signed_zero_follower():
    """f = -y1 with two followers: f's one generator is (-0.0, -1.0, -0.0),
    so the y2 stationarity row of CQ_S holds a -0.0 entry of f."""
    return BilevelProgram(
        n=1, m=2, F=X1 + Expr.y(2), f=neg(Y1), g=(Y1 - X1,),
        box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),) * 2)


@pytest.mark.parametrize("make,x", [
    (instance_a, [0.5]), (instance_a, [0.0]), (instance_a, [2.0]),
    (instance_a_constrained, [0.5]), (instance_b, [0.0]), (instance_b, [0.3]),
    (instance_c, [0.0]), (instance_c, [0.3]), (instance_cqk_degenerate, [0.0]),
    (_signed_zero_follower, [0.25]),
])
def test_pointbased_lps_match_the_hand_built_assembly(monkeypatch, make, x):
    prog = make()
    solved = [_assert_pointbased_matches_reference(monkeypatch, p, x, SMALL)
              for p in (replace(prog, mode="optimistic"),
                        replace(prog, mode="pessimistic"))]
    assert all(solved)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=piecewise_affine_programs())
def test_drawn_pointbased_lps_match_the_hand_built_assembly(monkeypatch, case):
    prog, x = case
    for p in (prog, replace(prog, mode="pessimistic")):
        _assert_pointbased_matches_reference(monkeypatch, p, x, SMALL)
