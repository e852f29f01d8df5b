import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

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
    base = dict(tol=1e-8, caps=Caps(), grid=SMALL, tol_active=1e-8, seed=0)
    variants = [
        (prog_a, base),
        (prog_a, {**base, "tol": 1e-3}),
        (prog_a, {**base, "tol": 0}),
        (prog_a, {**base, "tol": 0.0}),
        (prog_a, {**base, "tol": -0.0}),
        (prog_a, {**base, "seed": 1}),
        (prog_a, {**base, "caps": Caps(r_max=5.0)}),
        (prog_a, {**base, "grid": GridSpec(points_per_dim=41, refine_depth=3)}),
        (prog_a, {**base, "tol_active": 1e-6}),
        (replace(prog_a, mode="pessimistic"), base),
        (prog_a.negated_upper(), base),
    ]
    got = []
    for i, (prog, kwargs) in enumerate(variants, start=1):
        got.append(check_pointbased_cq(prog, "S", [0.0], [0.0], **kwargs))
        assert cq._pointbased_cq.cache_info().misses == i
    assert got[1].tol == 1e-3 and got[5].seed == 1
    assert [repr(v.tol) for v in got[2:5]] == ["0", "0.0", "-0.0"]
    assert check_pointbased_cq(prog_a, "K", [0.0], [0.0], **base).kind == "CQ_K"
    # a signed zero in the point is part of the key as well
    check_pointbased_cq(prog_a, "S", [-0.0], [0.0], **base)
    check_pointbased_cq(prog_a, "S", [0.0], [-0.0], **base)
    info = cq._pointbased_cq.cache_info()
    assert (info.hits, info.misses) == (0, len(variants) + 3)


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
