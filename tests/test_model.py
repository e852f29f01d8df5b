import math

import numpy as np
import pytest

from bilevelsense.errors import (
    BudgetError,
    DomainError,
    ParseError,
    SemanticsError,
    VariableIndexError,
)
from bilevelsense.model import (
    MAX_EXPR_DEPTH,
    BilevelProgram,
    Expr,
    affine_coefficients,
    clarke_generators,
    eabs,
    ediv,
    eexp,
    elog,
    emax,
    emin,
    eval_expr,
    kink_count,
    neg,
    parse_program,
    smooth_branches,
)

X1 = Expr.x(1)
Y1 = Expr.y(1)

MINIMAL_FILE = """
[dims]
n = 1
m = 1
[upper]
objective = (y1 - 1)^2 + x1^2
[lower]
objective = -y1
constraint = y1 - x1
constraint = -y1
[box]
x1 = -5, 5
y1 = -2, 2
[mode]
optimistic
"""


def central_diff(e, x, y, step=1e-5):
    """Independent gradient oracle: central differences per coordinate."""
    x = list(x)
    y = list(y)
    out = []
    for i in range(len(x)):
        xp, xm = list(x), list(x)
        xp[i] += step
        xm[i] -= step
        out.append((eval_expr(e, xp, y) - eval_expr(e, xm, y)) / (2 * step))
    for j in range(len(y)):
        yp, ym = list(y), list(y)
        yp[j] += step
        ym[j] -= step
        out.append((eval_expr(e, x, yp) - eval_expr(e, x, ym)) / (2 * step))
    return np.array(out)


class TestEval:
    def test_abs(self):
        assert eval_expr(eabs(X1), [-2.0], [0.0]) == 2.0

    def test_max_with_zero(self):
        assert eval_expr(emax(Y1, Expr.const(0.0)), [0.0], [-3.0]) == 0.0

    def test_quadratic(self):
        e = (Y1 - 1.0) ** 2 + X1**2
        assert eval_expr(e, [0.5], [0.5]) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized(self):
        e = emax(X1 * Y1, Expr.const(0.0))
        ys = np.linspace(-1, 1, 5)
        vals = eval_expr(e, [2.0], [ys])
        assert np.allclose(vals, np.maximum(2.0 * ys, 0.0))

    def test_log_domain_error(self):
        with pytest.raises(DomainError):
            eval_expr(elog(X1), [-1.0], [0.0])

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr(ediv(Expr.const(1.0), X1), [0.0], [0.0])

    def test_pow_zero_exponent(self):
        assert eval_expr(X1**0, [3.0], [0.0]) == 1.0


class TestSmoothBranches:
    def test_abs_at_kink(self):
        branches = smooth_branches(eabs(X1), [0.0], [], tol_active=1e-8)
        grads = sorted(b.gradient[0] for b in branches)
        assert grads == [-1.0, 1.0]

    def test_abs_off_kink_single_branch(self):
        branches = smooth_branches(eabs(X1), [2.0], [])
        assert len(branches) == 1
        assert branches[0].gradient[0] == 1.0

    def test_max_product_branches(self):
        # max(x1*y1, 0) at (0, 1): hand differentiation of each selection
        # gives (y1, x1) = (1, 0) on the product branch and (0, 0) on the
        # constant branch.
        e = emax(X1 * Y1, Expr.const(0.0))
        branches = smooth_branches(e, [0.0], [1.0], tol_active=1e-8)
        grads = sorted(tuple(b.gradient) for b in branches)
        assert grads == [(0.0, 0.0), (1.0, 0.0)]

    def test_branch_value_matches_eval_at_exact_kink(self):
        e = eabs(X1) + emax(Y1, Expr.const(0.0))
        val = eval_expr(e, [0.0], [0.0])
        for b in smooth_branches(e, [0.0], [0.0]):
            assert abs(b.value - val) <= 1e-12

    def test_single_branch_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        e = eabs(X1 - Y1) + emax(X1, 2.0 * Y1) + (X1 * Y1) ** 2
        checked = 0
        while checked < 50:
            x = [float(rng.uniform(-2, 2))]
            y = [float(rng.uniform(-2, 2))]
            branches = smooth_branches(e, x, y)
            if len(branches) != 1:
                continue
            fd = central_diff(e, x, y)
            assert np.max(np.abs(branches[0].gradient - fd)) < 1e-6
            checked += 1

    def test_budget_guard(self):
        e = eabs(X1)
        for _ in range(17):
            e = e + eabs(X1)
        assert kink_count(e) > 16
        with pytest.raises(BudgetError):
            smooth_branches(e, [0.0], [])


class TestClarkeGenerators:
    def test_abs_at_zero(self):
        gens = clarke_generators(eabs(X1), [0.0], [])
        assert sorted(g[0] for g in gens) == [-1.0, 1.0]

    def test_smooth_singleton(self):
        gens = clarke_generators(X1**2 + eexp(Y1), [1.0], [0.5])
        assert len(gens) == 1
        assert np.allclose(gens[0], [2.0, math.exp(0.5)])

    def test_max_of_three_slopes(self):
        # max(x, -x, 0.5x) at 0: generators cover the active slopes
        # {-1, 0.5, 1}; their hull is [-1, 1], the exact generalized
        # gradient of a max of linear functions.
        e = emax(emax(X1, neg(X1)), 0.5 * X1)
        gens = sorted(g[0] for g in clarke_generators(e, [0.0], []))
        assert gens == [-1.0, 0.5, 1.0]

    def test_negation_symmetry_exact(self):
        e = eabs(X1 - Y1) + emax(X1 * Y1, Expr.const(0.25)) - 3.0 * Y1
        for pt in ([0.5, 0.5], [0.0, 0.0], [1.0, 0.25]):
            gens = clarke_generators(e, [pt[0]], [pt[1]])
            gens_neg = clarke_generators(neg(e), [pt[0]], [pt[1]])
            assert len(gens) == len(gens_neg)
            for a, b in zip(gens, gens_neg):
                assert np.array_equal(-a, b)


class TestParser:
    def test_minimal_file(self):
        prog = parse_program(MINIMAL_FILE)
        assert prog.n == 1 and prog.m == 1
        assert prog.p == 2 and prog.k == 0
        assert prog.mode == "optimistic"
        assert eval_expr(prog.F, [0.5], [0.5]) == pytest.approx(0.5)
        assert eval_expr(prog.f, [0.0], [2.0]) == -2.0

    def test_out_of_range_variable(self):
        bad = MINIMAL_FILE.replace("constraint = -y1", "constraint = y2")
        with pytest.raises(VariableIndexError):
            parse_program(bad)

    def test_y_in_upper_constraint(self):
        bad = MINIMAL_FILE.replace(
            "objective = (y1 - 1)^2 + x1^2",
            "objective = (y1 - 1)^2 + x1^2\nconstraint = -x1 + y1",
        )
        with pytest.raises(SemanticsError):
            parse_program(bad)

    def test_syntax_error_carries_position(self):
        bad = MINIMAL_FILE.replace("objective = -y1", "objective = -y1 +* 2")
        with pytest.raises(ParseError) as err:
            parse_program(bad)
        assert err.value.line is not None

    def test_comments_ignored(self):
        prog = parse_program(MINIMAL_FILE.replace(
            "[mode]", "# trailing comment\n[mode]  # section"))
        assert prog.mode == "optimistic"

    def test_pessimistic_mode(self):
        prog = parse_program(MINIMAL_FILE.replace("optimistic", "pessimistic"))
        assert prog.mode == "pessimistic"

    def test_fractional_exponent_rejected(self):
        bad = MINIMAL_FILE.replace("x1^2", "x1^1.5")
        with pytest.raises(ParseError):
            parse_program(bad)

    def test_missing_box_entry(self):
        bad = MINIMAL_FILE.replace("y1 = -2, 2\n", "")
        with pytest.raises(ParseError):
            parse_program(bad)

    def test_precedence(self):
        prog = parse_program(MINIMAL_FILE.replace(
            "objective = (y1 - 1)^2 + x1^2", "objective = 2 + 3 * x1^2"))
        assert eval_expr(prog.F, [2.0], [0.0]) == 14.0

    # expressions nested k levels deeper than the leaf y1
    DEEP = {
        "sum_chain": lambda k: "y1" + " + y1" * k,
        "product_chain": lambda k: "y1" + " * y1" * k,
        "parentheses": lambda k: "(" * k + "y1" + ")" * k,
        "signs": lambda k: "-+" * (k // 2) + "-" * (k % 2) + "y1",
        "calls": lambda k: "exp(" * k + "y1" + ")" * k,
    }

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_nesting_depth_bound(self, shape):
        def upper(k):
            return MINIMAL_FILE.replace("objective = (y1 - 1)^2 + x1^2",
                                        "objective = " + self.DEEP[shape](k))
        parse_program(upper(MAX_EXPR_DEPTH - 1))
        with pytest.raises(ParseError) as err:
            parse_program(upper(MAX_EXPR_DEPTH))
        assert str(err.value).startswith(
            f"expression nested deeper than {MAX_EXPR_DEPTH} levels (line ")
        # ten times the bound fails the same way, not with RecursionError
        with pytest.raises(ParseError):
            parse_program(upper(10 * MAX_EXPR_DEPTH))


class TestProgramValidation:
    def test_infinite_box_rejected(self):
        with pytest.raises(SemanticsError):
            BilevelProgram(
                n=1, m=1, F=X1, f=Y1,
                box_x=((0.0, math.inf),), box_y=((0.0, 1.0),),
            )

    def test_negated_upper(self):
        prog = parse_program(MINIMAL_FILE)
        negp = prog.negated_upper()
        assert eval_expr(negp.F, [0.5], [0.5]) == -eval_expr(prog.F, [0.5], [0.5])
        assert negp.f is prog.f


class TestAffineDetection:
    def test_affine(self):
        coeffs = affine_coefficients(2.0 * X1 - Y1 + 3.0, 1, 1)
        c0, cx, cy = coeffs
        assert c0 == 3.0 and cx[0] == 2.0 and cy[0] == -1.0

    def test_not_affine(self):
        assert affine_coefficients(X1 * Y1, 1, 1) is None
        assert affine_coefficients(eabs(X1), 1, 1) is None

    def test_constant_product_affine(self):
        coeffs = affine_coefficients(Expr.const(2.0) * (X1 + 1.0), 1, 1)
        assert coeffs is not None and coeffs[1][0] == 2.0


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=80, deadline=None)
@given(
    xv=st.floats(-2, 2, allow_nan=False),
    yv=st.floats(-2, 2, allow_nan=False),
    c=st.floats(-1.5, 1.5, allow_nan=False),
)
def test_branch_count_and_consistency(xv, yv, c):
    # every active branch count is bounded by 2^kinks, and at smooth
    # points the single branch reproduces the exact evaluation
    e = eabs(X1 - c) + emax(Y1, Expr.const(c)) * emin(X1, Y1)
    branches = smooth_branches(e, [xv], [yv])
    assert 1 <= len(branches) <= 2 ** kink_count(e)
    val = eval_expr(e, [xv], [yv])
    if len(branches) == 1:
        assert branches[0].value == pytest.approx(val, abs=1e-12)
    neg_gens = clarke_generators(neg(e), [xv], [yv])
    gens = clarke_generators(e, [xv], [yv])
    for a, b in zip(gens, neg_gens):
        assert np.array_equal(-a, b)
