import copy
import math
import pickle
import random
import re
from typing import NamedTuple

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

    @pytest.mark.parametrize("e,x", [(eexp(800.0 * X1), 0.95),
                                     (X1**2, 1e308)],
                             ids=["exp", "pow"])
    def test_scalar_overflow_is_a_domain_error(self, e, x):
        # the numpy pass gives inf here; the scalar passes' math.exp and **
        # raise OverflowError, which is not a toolkit error
        with np.errstate(over="ignore"):
            assert eval_expr(e, [x], []) == np.inf
        with pytest.raises(DomainError, match="overflow"):
            smooth_branches(e, [x], [])

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

    # expressions nested k levels deeper than the leaf y1, and what F is
    # at x1 = 0, y1 = -0.5 when k is even
    DEEP = {
        "parentheses": (lambda k: "(" * k + "y1" + ")" * k, -0.5),
        "signs": (lambda k: "-+" * (k // 2) + "-" * (k % 2) + "y1", -0.5),
        "calls": (lambda k: "abs(" * k + "y1" + ")" * k, 0.5),
    }

    @pytest.mark.parametrize("shape", sorted(DEEP))
    def test_nesting_depth_bound(self, shape):
        # the parser keeps its open parentheses, calls and signs on an
        # explicit stack, so only memory bounds the nesting: 15,000 levels,
        # 100 times the recursive parser's old bound of 150, parse and
        # evaluate
        text, value = self.DEEP[shape]
        prog = parse_program(MINIMAL_FILE.replace(
            "objective = (y1 - 1)^2 + x1^2", "objective = " + text(15000)))
        assert eval_expr(prog.F, [0.0], [-0.5]) == value
        assert kink_count(prog.F) == (15000 if shape == "calls" else 0)

    CHAINS = {
        "sum_chain": (" + ", lambda k: float(k)),
        "product_chain": (" * ", lambda k: 1.0),
    }

    @pytest.mark.parametrize("shape", sorted(CHAINS))
    def test_an_operator_chain_adds_no_depth(self, shape):
        # the parser reads a chain in a loop, and every walk runs over the
        # tape, so a 3,000-term chain parses and evaluates
        op, value = self.CHAINS[shape]
        k = 3000
        prog = parse_program(MINIMAL_FILE.replace(
            "objective = (y1 - 1)^2 + x1^2",
            "objective = (" + op.join(["y1"] * k) + ")"))
        assert eval_expr(prog.F, [0.0], [1.0]) == value(k)


    @staticmethod
    def _nested(k, text):
        return "(" * k + text + ")" * k

    @pytest.mark.parametrize("objective", [
        _nested(1500, "y1") + " + -y1",
        "-y1 + " + _nested(1500, "y1"),
        _nested(1500, "y1 - x1") + " + (y1 - x1)",
        "(y1 - x1) + " + _nested(1500, "y1 - x1"),
    ], ids=["deep_leaf_first", "shallow_leaf_first", "deep_sum_first",
            "shallow_sum_first"])
    def test_an_equal_subtree_keeps_each_of_its_depths(self, objective):
        # one interned node can sit both deep and shallow in a tree: parsed
        # at either depth it is the same node
        prog = parse_program(MINIMAL_FILE.replace(
            "objective = (y1 - 1)^2 + x1^2", "objective = " + objective))
        left, right = (c._peel_negations()[0] for c in prog.F.children)
        assert left is right is ((Y1 - X1) if "x1" in objective else Y1)

    @pytest.mark.parametrize("objective,message,col", [
        ("(" * 1500 + "y1" + ")" * 1499, "unexpected end of expression", 3002),
        ("(" * 1500 + "y1" + ")" * 1500 + ")", "unexpected token ')'", 3003),
        ("-" * 1500 + "abs(y1 ^ x1)", "exponent must be an integer literal",
         1510),
        ("max(" * 1500 + "y1" + ", y1)" * 1499 + ")",
         "max takes 2 argument(s)", 1),
    ], ids=["open", "closed_twice", "exponent", "arity"])
    def test_an_error_deep_inside_reports_its_column(self, objective, message,
                                                     col):
        line = "objective = " + objective
        with pytest.raises(ParseError) as err:
            parse_program(MINIMAL_FILE.replace(
                "objective = (y1 - 1)^2 + x1^2", line))
        assert str(err.value) == (
            f"{message} (line 6, col {len('objective = ') + col})")

    @pytest.mark.parametrize("line,col", [
        ("objective = y1 +* 2", 17),
        ("objective=y1 +* 2", 15),
        ("objective =  y1 +* 2", 18),
        ("   objective = y1 +* 2", 20),
    ], ids=["one_blank", "no_blank", "two_blanks", "indented"])
    def test_an_error_reports_the_column_of_its_character(self, line, col):
        # the blanks between "=" and the expression count
        text = MINIMAL_FILE.replace("objective = (y1 - 1)^2 + x1^2", line)
        with pytest.raises(ParseError) as err:
            parse_program(text)
        assert line[col - 1] == "*"
        assert (err.value.line, err.value.col) == (6, col)

    @pytest.mark.parametrize("line,col", [
        ("n =  one", 6),
        ("  n = one", 7),
    ])
    def test_a_dims_error_reports_the_column_of_its_value(self, line, col):
        with pytest.raises(ParseError) as err:
            parse_program(MINIMAL_FILE.replace("n = 1", line))
        assert line[col - 1] == "o"
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.parametrize("first,second,said", [
        ("n = 1", "n = 2", "[dims] n"),
        ("m = 1", "m = 1", "[dims] m"),
        ("objective = (y1 - 1)^2 + x1^2", "objective = x1 + y1",
         "[upper] objective"),
        ("objective = -y1", "objective = y1", "[lower] objective"),
        ("y1 = -2, 2", "y1 = 0, 1", "[box] y1"),
        ("x1 = -5, 5", "x01 = -5, 5", "[box] x1"),
        ("optimistic", "pessimistic", "[mode]"),
    ], ids=["n", "m", "upper_objective", "lower_objective", "box_entry",
            "box_entry_spelt_twice", "mode"])
    def test_a_key_given_twice_is_refused_at_its_line(self, first, second,
                                                      said):
        # the last value used to win silently
        text = MINIMAL_FILE.replace(first + "\n", f"{first}\n{second}\n", 1)
        with pytest.raises(ParseError) as err:
            parse_program(text)
        line = text.splitlines().index(first) + 2
        assert str(err.value) == f"{said} given twice (line {line}, col 1)"

    @pytest.mark.parametrize("entry", ["y2 = 0, 1", "x0 = 0, 1", "x3 = 1, 2"])
    def test_a_box_entry_for_an_undeclared_coordinate_is_refused(self, entry):
        # it used to be ignored
        text = MINIMAL_FILE.replace("[mode]", entry + "\n[mode]")
        with pytest.raises(ParseError) as err:
            parse_program(text)
        line = text.splitlines().index(entry) + 1
        assert str(err.value) == (
            f"[box] entry for {entry[:2]}, which [dims] does not declare "
            f"(line {line}, col 1)")

    @pytest.mark.parametrize("line", ["mode = pessimistic", "MODE=Pessimistic"])
    def test_a_mode_line_may_say_mode_equals_the_word(self, line):
        prog = parse_program(MINIMAL_FILE.replace("optimistic\n", line + "\n"))
        assert prog.mode == "pessimistic"

    @pytest.mark.parametrize("line, message", [
        ("objective = x = pessimistic", "unknown key 'objective' in [mode]"),
        ("pessimistic = mode", "unknown key 'pessimistic' in [mode]"),
        ("= pessimistic", "unknown key '' in [mode]"),
        ("mode = x = pessimistic", "unknown mode 'x = pessimistic'"),
    ])
    def test_any_other_mode_line_is_refused_at_its_line(self, line, message):
        text = MINIMAL_FILE.replace("optimistic\n", line + "\n")
        with pytest.raises(ParseError) as err:
            parse_program(text)
        lineno = text.splitlines().index(line) + 1
        assert str(err.value) == f"{message} (line {lineno}, col 1)"

    @pytest.mark.parametrize("old, entry, col", [
        ("x1 = -5, 5", "x1 = 1, 0", 6),
        ("x1 = -5, 5", "x1 = 0, inf", 6),
        ("x1 = -5, 5", "x1 = nan, 1", 6),
        ("y1 = -2, 2", "y1 =   -inf,2", 8),
    ])
    def test_a_bad_box_interval_is_refused_at_its_entry(self, old, entry, col):
        text = MINIMAL_FILE.replace(old, entry)
        with pytest.raises(SemanticsError) as err:
            parse_program(text)
        line = text.splitlines().index(entry) + 1
        assert (err.value.line, err.value.col) == (line, col)
        assert str(err.value) == (
            f"boxes must be finite nonempty intervals (line {line}, col {col})")


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


class TestNegatedTwinMemo:
    """The negated-upper twin is built once and kept on its program; the
    memo is not part of the program's value."""

    def test_the_twin_is_built_once(self):
        prog = parse_program(MINIMAL_FILE)
        assert prog.negated_upper() is prog.negated_upper()
        # the twin of the twin negates again, as a fresh program would
        twin2 = prog.negated_upper().negated_upper()
        assert twin2 is prog.negated_upper().negated_upper()
        assert twin2.F is neg(neg(prog.F)) and twin2 != prog

    def test_equality_and_hash_ignore_the_memo(self):
        prog, other = parse_program(MINIMAL_FILE), parse_program(MINIMAL_FILE)
        before = hash(prog)
        prog.negated_upper()
        assert prog == other and hash(prog) == hash(other) == before
        assert prog.negated_upper() == other.negated_upper()
        assert hash(prog.negated_upper()) == hash(other.negated_upper())
        assert {prog: 1}[other] == 1

    def test_replace_builds_its_own_twin(self):
        from dataclasses import replace

        prog = parse_program(MINIMAL_FILE)
        twin = prog.negated_upper()
        moved = replace(prog, box_x=((-4.0, 4.0),))
        assert moved.negated_upper() is not twin
        assert moved.negated_upper().box_x == ((-4.0, 4.0),)
        assert replace(prog).negated_upper() is not twin
        assert replace(prog).negated_upper() == twin

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda p: pickle.loads(pickle.dumps(p)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_carry_no_memo(self, clone):
        fresh = parse_program(MINIMAL_FILE)
        prog = parse_program(MINIMAL_FILE)
        twin = prog.negated_upper()
        for p in (fresh, prog):
            c = clone(p)
            assert c == p and hash(c) == hash(p)
            assert "_twin" not in vars(c)
            assert c.negated_upper() == twin
            assert c.negated_upper() is c.negated_upper()
        assert clone(prog).negated_upper() is not twin
        # the pickled bytes are those of a program that never built a twin
        assert pickle.dumps(prog) == pickle.dumps(fresh)


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


# -- interned nodes ----------------------------------------------------------


class TestInterning:
    def test_an_equal_node_is_the_live_node(self):
        assert Expr("add", (X1, Y1)) is X1 + Y1
        assert Expr("const", value=1.5) is Expr.const(1.5)
        assert Expr("yvar", index=1) is Y1
        assert emax(X1, 0.5) == Expr("max", (X1, Expr.const(0.5)))
        assert hash(elog(X1, safe=True)) == hash(elog(X1, safe=True))
        assert elog(X1, safe=True) is not elog(X1)

    def test_the_key_holds_the_sign_bit_and_type_of_a_value(self):
        assert Expr.const(0.0) is not Expr.const(-0.0)
        assert Expr.const(0.0) != Expr.const(-0.0)
        assert Expr("const", value=1) is not Expr("const", value=1.0)
        assert math.copysign(1.0, Expr.const(-0.0).value) == -1.0

    def test_copies_and_pickles_are_the_interned_node(self):
        e = eabs(X1 - 0.5) * Y1 + emin(X1, Y1) ** 2
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e
        assert copy.deepcopy({"witness": [e]})["witness"][0] is e
        assert pickle.loads(pickle.dumps(e)) is e

    @pytest.mark.parametrize("args,kwargs,message", [
        (("sqrt", (X1,)), {}, "unknown node kind 'sqrt'"),
        (("add", (X1,)), {}, "add expects 2 children"),
        (("const", (X1,)), {}, "const expects 0 children"),
        (("pow", (X1,)), {"exponent": -1},
         "pow exponent must be a nonnegative integer"),
        (("pow", (X1,)), {"exponent": 1.5},
         "pow exponent must be a nonnegative integer"),
        (("xvar",), {"index": 0}, "variable indices are 1-based"),
    ])
    def test_node_validation(self, args, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Expr(*args, **kwargs)

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            X1.index = 2

    def test_a_shared_subtree_counts_once_per_position(self):
        # |x| + |x| holds one interned abs node twice; kink counts and branch
        # ids count tree positions, so 0 stays among the generators
        a = eabs(X1)
        e = a + a
        assert e.children[0] is e.children[1]
        assert kink_count(e) == 2
        assert [b.branch_id for b in smooth_branches(e, [0.0], [])] == [
            "1+/3+", "1-/3+", "1+/3-", "1-/3-"]
        assert sorted(g[0] for g in clarke_generators(e, [0.0], [])) == [
            -2.0, 0.0, 2.0]

    def test_signed_zero_constants_keep_their_own_memo_entries(self):
        # F = c * y1 at c = -0.0 is -0.0 at every point; a memo keyed on a
        # program equal to the c = 0.0 one would answer 0.0
        from bilevelsense import valuefn

        def prog(c):
            return BilevelProgram(n=1, m=1, F=Expr.const(c) * Y1,
                                  f=(Y1 - X1) ** 2, box_x=((-1.0, 1.0),),
                                  box_y=((-1.0, 1.0),))

        grid = valuefn.GridSpec(points_per_dim=21, refine_depth=1)
        valuefn._solve_lower.cache_clear()
        assert math.copysign(1.0, valuefn.optimistic_value(
            prog(0.0), [0.5], grid)) == 1.0
        assert math.copysign(1.0, valuefn.optimistic_value(
            prog(-0.0), [0.5], grid)) == -1.0

    def test_a_deep_programmatic_chain(self):
        # built in code, nothing bounds the depth: 3,000 nested additions
        def build():
            chain = Y1
            for k in range(3000):
                chain = chain + Expr.const(float(k % 3)) * X1
            return chain

        chain = build()
        assert {chain: 1}[chain] == 1 and hash(chain) == hash(build())
        assert build() is chain
        assert eval_expr(chain, [0.5], [1.0]) == 1501.0
        assert np.array_equal(eval_expr(chain, [0.5], [np.array([1.0, -1.0])]),
                              [1501.0, 1499.0])
        c0, cx, cy = affine_coefficients(chain, 1, 1)
        assert (c0, cx.tolist(), cy.tolist()) == (0.0, [3000.0], [1.0])
        gens = clarke_generators(eabs(chain), [0.0], [0.0])
        assert sorted(g.tolist() for g in gens) == [[-3000.0, -1.0],
                                                    [3000.0, 1.0]]
        assert kink_count(eabs(chain)) == 1
        assert copy.deepcopy(chain) is chain
        assert pickle.loads(pickle.dumps(chain)) is chain
        assert repr(chain).count("Expr(") == chain._positions

    def test_a_long_parsed_chain_pickles_and_shows(self):
        # a 3,000-term objective parses; its program pickles back to the
        # same interned nodes and has a repr
        prog = parse_program(MINIMAL_FILE.replace(
            "objective = -y1", "objective = -y1" + " + 0.0001*y1" * 2999))
        assert prog.f._positions > 3 * 2999
        again = pickle.loads(pickle.dumps(prog))
        assert again == prog and again.f is prog.f
        assert repr(prog).startswith("BilevelProgram(n=1, m=1, F=Expr(")
        # y1 once in F, 3,000 times in f and twice in g
        assert repr(prog).count("Expr(kind='yvar'") == 3003

    def test_a_shared_subtree_pickles_once(self):
        # 40 doublings are 41 nodes; the pickle holds each node once, not
        # each of the 2^41 - 1 tree positions
        e = Expr.y(2) * 0.625
        for _ in range(40):
            e = e + e
        data = pickle.dumps(e)
        assert len(data) < 4096
        assert pickle.loads(data) is e

    def test_a_tape_above_the_budget_is_refused_before_it_is_built(self):
        # 30 doublings of y1 are 31 interned nodes but 2^31 - 1 tree
        # positions; every walk refuses the tape without building a step
        import time
        import tracemalloc

        e = Y1
        for _ in range(30):
            e = e + e
        tracemalloc.start()
        try:
            start = time.perf_counter()
            for walk in (lambda: eval_expr(e, [0.0], [1.0]),
                         lambda: smooth_branches(e, [0.0], [1.0]),
                         lambda: kink_count(e),
                         lambda: affine_coefficients(e, 1, 1),
                         lambda: BilevelProgram(n=1, m=1, F=e, f=Y1,
                                                box_x=((0.0, 1.0),),
                                                box_y=((0.0, 1.0),))):
                with pytest.raises(BudgetError, match=str(2 ** 31 - 1)):
                    walk()
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_the_tape_budget_is_inclusive(self, monkeypatch):
        from bilevelsense import model

        assert model.MAX_TAPE_STEPS == 2 ** 20
        # fresh nodes (x2 is not used elsewhere), so no tape is cached yet
        e = Expr.x(2) * 0.375
        for _ in range(4):
            e = e + e
        assert e._positions == 2 ** 6 - 1
        monkeypatch.setattr(model, "MAX_TAPE_STEPS", 2 ** 6 - 1)
        assert eval_expr(e, [0.0, 2.0], []) == 12.0
        e = e + e
        with pytest.raises(BudgetError):
            eval_expr(e, [0.0, 2.0], [])


# -- bit identity with the recursive walkers the tape replaced -----------------
#
# Test-side copies of the recursive evaluators, branch enumeration and affine
# decomposition that model.py used before its tape; the tape passes must give
# the same values (type, bits and sign of zero), branch ids, gradients and
# exceptions on drawn trees over every node kind.


def _ref_walk(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def _ref_eval(e, xs, ys):
    k = e.kind
    if k == "const":
        return e.value
    if k == "xvar":
        return xs[e.index - 1]
    if k == "yvar":
        return ys[e.index - 1]
    if k == "neg":
        return -_ref_eval(e.children[0], xs, ys)
    if k == "add":
        return _ref_eval(e.children[0], xs, ys) + _ref_eval(e.children[1], xs, ys)
    if k == "sub":
        return _ref_eval(e.children[0], xs, ys) - _ref_eval(e.children[1], xs, ys)
    if k == "mul":
        return _ref_eval(e.children[0], xs, ys) * _ref_eval(e.children[1], xs, ys)
    if k == "div":
        num = _ref_eval(e.children[0], xs, ys)
        den = _ref_eval(e.children[1], xs, ys)
        if np.any(np.asarray(den) == 0.0):
            raise DomainError("division by zero")
        return num / den
    if k == "pow":
        base = _ref_eval(e.children[0], xs, ys)
        if e.exponent == 0:
            return np.ones_like(np.asarray(base, dtype=float)) if np.ndim(base) else 1.0
        return np.power(base, e.exponent)
    if k == "exp":
        return np.exp(_ref_eval(e.children[0], xs, ys))
    if k == "log":
        arg = _ref_eval(e.children[0], xs, ys)
        if np.any(np.asarray(arg) <= 0.0):
            raise DomainError("log of a nonpositive value")
        return np.log(arg)
    if k == "abs":
        return np.abs(_ref_eval(e.children[0], xs, ys))
    if k == "max":
        return np.maximum(_ref_eval(e.children[0], xs, ys),
                          _ref_eval(e.children[1], xs, ys))
    if k == "min":
        return np.minimum(_ref_eval(e.children[0], xs, ys),
                          _ref_eval(e.children[1], xs, ys))
    raise AssertionError(k)


def _ref_scan_choices(e, xs, ys, base_tol):
    choices = []
    pos = [0]

    def rec(node):
        my_pos = pos[0]
        pos[0] += 1
        k = node.kind
        if k == "const":
            return node.value
        if k == "xvar":
            return xs[node.index - 1]
        if k == "yvar":
            return ys[node.index - 1]
        vals = [rec(c) for c in node.children]
        if k == "neg":
            return -vals[0]
        if k == "add":
            return vals[0] + vals[1]
        if k == "sub":
            return vals[0] - vals[1]
        if k == "mul":
            return vals[0] * vals[1]
        if k == "div":
            if vals[1] == 0.0:
                raise DomainError("division by zero")
            return vals[0] / vals[1]
        if k == "pow":
            return vals[0] ** node.exponent
        if k == "exp":
            return math.exp(vals[0])
        if k == "log":
            if vals[0] <= 0.0:
                raise DomainError("log of a nonpositive value")
            return math.log(vals[0])
        if k == "abs":
            u = vals[0]
            if abs(u) <= base_tol * (1.0 + abs(u)):
                opts = ("+", "-")
            else:
                opts = ("+",) if u > 0 else ("-",)
            choices.append((my_pos, opts))
            return abs(u)
        if k in ("max", "min"):
            u, v = vals
            scale = 1.0 + max(abs(u), abs(v))
            if abs(u - v) <= base_tol * scale:
                opts = ("L", "R")
            elif (u > v) == (k == "max"):
                opts = ("L",)
            else:
                opts = ("R",)
            choices.append((my_pos, opts))
            return max(u, v) if k == "max" else min(u, v)
        raise AssertionError(k)

    rec(e)
    return choices


def _ref_branch_eval(e, xs, ys, sel, nvar):
    pos = [0]
    n = len(xs)

    def rec(node):
        my_pos = pos[0]
        pos[0] += 1
        k = node.kind
        if k == "const":
            return node.value, np.zeros(nvar)
        if k == "xvar":
            g = np.zeros(nvar)
            g[node.index - 1] = 1.0
            return xs[node.index - 1], g
        if k == "yvar":
            g = np.zeros(nvar)
            g[n + node.index - 1] = 1.0
            return ys[node.index - 1], g
        if k == "neg":
            v, g = rec(node.children[0])
            return -v, -g
        if k in ("add", "sub", "mul", "div"):
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
            if k == "add":
                return v1 + v2, g1 + g2
            if k == "sub":
                return v1 - v2, g1 - g2
            if k == "mul":
                return v1 * v2, v2 * g1 + v1 * g2
            if v2 == 0.0:
                raise DomainError("division by zero")
            return v1 / v2, (g1 * v2 - v1 * g2) / (v2 * v2)
        if k == "pow":
            v, g = rec(node.children[0])
            p = node.exponent
            if p == 0:
                return 1.0, np.zeros(nvar)
            return v**p, p * v ** (p - 1) * g
        if k == "exp":
            v, g = rec(node.children[0])
            ev = math.exp(v)
            return ev, ev * g
        if k == "log":
            v, g = rec(node.children[0])
            if v <= 0.0:
                raise DomainError("log of a nonpositive value")
            return math.log(v), g / v
        if k == "abs":
            v, g = rec(node.children[0])
            if sel[my_pos] == "+":
                return v, g
            return -v, -g
        if k in ("max", "min"):
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
            if sel[my_pos] == "L":
                return v1, g1
            return v2, g2
        raise AssertionError(k)

    return rec(e)


def _ref_smooth_branches(e, x, y, tol_active=None):
    base_tol = 1e-8 if tol_active is None else float(tol_active)
    if sum(1 for node in _ref_walk(e) if node.kind in ("abs", "max", "min")) > 16:
        raise BudgetError("expression has more than 16 kink nodes")
    xs = tuple(float(v) for v in x)
    ys = tuple(float(v) for v in y)
    choices = _ref_scan_choices(e, xs, ys, base_tol)
    active = [c for c in choices if len(c[1]) > 1]
    forced = {p: opts[0] for p, opts in choices if len(opts) == 1}
    branches = []
    for mask in range(1 << len(active)):
        sel = dict(forced)
        bid_parts = []
        for bit, (p, opts) in enumerate(active):
            choice = opts[(mask >> bit) & 1]
            sel[p] = choice
            bid_parts.append(f"{p}{choice}")
        value, grad = _ref_branch_eval(e, xs, ys, sel, len(xs) + len(ys))
        branches.append(("/".join(bid_parts) or "smooth", value, grad))
    return branches


def _ref_affine(e, n, m):
    def rec(node):
        k = node.kind
        if k == "const":
            return node.value, np.zeros(n), np.zeros(m)
        if k == "xvar":
            cx = np.zeros(n)
            cx[node.index - 1] = 1.0
            return 0.0, cx, np.zeros(m)
        if k == "yvar":
            cy = np.zeros(m)
            cy[node.index - 1] = 1.0
            return 0.0, np.zeros(n), cy
        if k == "neg":
            r = rec(node.children[0])
            return None if r is None else (-r[0], -r[1], -r[2])
        if k in ("add", "sub"):
            a = rec(node.children[0])
            b = rec(node.children[1])
            if a is None or b is None:
                return None
            s = 1.0 if k == "add" else -1.0
            return a[0] + s * b[0], a[1] + s * b[1], a[2] + s * b[2]
        if k == "mul":
            a = rec(node.children[0])
            b = rec(node.children[1])
            if a is None or b is None:
                return None
            if not a[1].any() and not a[2].any():
                return a[0] * b[0], a[0] * b[1], a[0] * b[2]
            if not b[1].any() and not b[2].any():
                return b[0] * a[0], b[0] * a[1], b[0] * a[2]
            return None
        if k == "div":
            a = rec(node.children[0])
            b = rec(node.children[1])
            if a is None or b is None or b[1].any() or b[2].any():
                return None
            if b[0] == 0.0:
                return None
            return a[0] / b[0], a[1] / b[0], a[2] / b[0]
        if k == "pow":
            a = rec(node.children[0])
            if a is None:
                return None
            if node.exponent == 0:
                return 1.0, np.zeros(n), np.zeros(m)
            if node.exponent == 1:
                return a
            if not a[1].any() and not a[2].any():
                return a[0] ** node.exponent, np.zeros(n), np.zeros(m)
            return None
        return None

    return rec(e)


class _Raised(NamedTuple):
    type: type
    message: str


def _outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return _Raised(type(exc), str(exc))


def _assert_same(got, want):
    """Equal structure; numbers and arrays of one type, bit for bit, with
    the sign of every zero."""
    if isinstance(want, _Raised) or isinstance(got, _Raised):
        assert got == want
    elif isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want), (got, want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    elif want is None or isinstance(want, str):
        assert got == want
    else:
        assert type(got) is type(want), (got, want)
        assert np.array_equal(got, want, equal_nan=True), (got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want)), (got, want)


_POINTS = [0.0, -0.0, 0.5, -0.5, 1.0, -2.0, 0.3, -0.7]


def _grow(sub):
    pairs = st.tuples(sub, sub)
    return st.one_of(
        sub.map(neg), sub.map(eexp), sub.map(eabs),
        st.tuples(sub, st.booleans()).map(lambda t: elog(*t)),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: t[0] ** t[1]),
        pairs.map(lambda p: p[0] + p[1]), pairs.map(lambda p: p[0] - p[1]),
        pairs.map(lambda p: p[0] * p[1]), pairs.map(lambda p: ediv(*p)),
        pairs.map(lambda p: ediv(p[0], eexp(p[1]))),  # a nonzero denominator
        pairs.map(lambda p: emax(*p)), pairs.map(lambda p: emin(*p)),
        # shared subtrees and exact kink ties
        sub.map(lambda c: c + c), sub.map(lambda c: emax(c, neg(c))),
        sub.map(lambda c: emin(c, c)), sub.map(lambda c: eabs(c - c)),
    )


_TREES = st.recursive(
    st.one_of(st.sampled_from(_POINTS + [2.0, 0.1, 3.0]).map(Expr.const),
              st.floats(-2, 2, allow_nan=False).map(Expr.const),
              st.integers(1, 2).map(Expr.x), st.integers(1, 2).map(Expr.y)),
    _grow, max_leaves=10).flatmap(
        lambda e: st.sampled_from([e, e, e, e ** 0, neg(e ** 0)]))
_PAIRS = st.lists(st.sampled_from(_POINTS), min_size=2, max_size=2)


def _ref_repr(e):
    """The repr a frozen dataclass generates for Expr, recursively."""
    kids = "".join(f"{_ref_repr(c)}, " for c in e.children)
    kids = kids[:-2] if len(e.children) > 1 else kids[:-1]
    return (f"Expr(kind={e.kind!r}, children=({kids}), value={e.value!r}, "
            f"index={e.index!r}, exponent={e.exponent!r}, safe={e.safe!r})")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(e=_TREES)
def test_repr_and_pickle_match_the_recursive_forms(e):
    assert repr(e) == _ref_repr(e)
    assert pickle.loads(pickle.dumps(e)) is e


@settings(max_examples=250, deadline=None, derandomize=True)
@given(e=_TREES, x=_PAIRS, y=_PAIRS)
def test_tape_passes_match_the_recursive_walkers(e, x, y):
    cols = [np.array(_POINTS), np.array(_POINTS[::-1])]
    for yy in (y, cols):
        _assert_same(_outcome(lambda: eval_expr(e, x, yy)),
                     _outcome(lambda: _ref_eval(e, tuple(x), tuple(yy))))
    if kink_count(e) <= 6:  # up to 64 branches; the budget has its own test
        got = _outcome(lambda: [(b.branch_id, b.value, b.gradient)
                                for b in smooth_branches(e, x, y)])
        _assert_same(got, _outcome(lambda: _ref_smooth_branches(e, x, y)))
    _assert_same(_outcome(lambda: affine_coefficients(e, 2, 2)),
                 _outcome(lambda: _ref_affine(e, 2, 2)))
    assert kink_count(e) == sum(
        1 for node in _ref_walk(e) if node.kind in ("abs", "max", "min"))


# -- printing a tree and parsing it back ----------------------------------------

# Every node kind, built as the parser builds it: constants nonnegative and
# finite, div and log vouched safe, variable indices within n = m = 2.
_PARSED_TREES = st.recursive(
    st.one_of(st.floats(0, allow_nan=False, allow_infinity=False).map(
                  lambda v: Expr.const(abs(v))),
              st.integers(1, 2).map(Expr.x), st.integers(1, 2).map(Expr.y)),
    lambda sub: st.one_of(
        sub.map(neg), sub.map(eexp), sub.map(eabs),
        sub.map(lambda u: elog(u, safe=True)),
        st.tuples(sub, st.integers(0, 12)).map(lambda t: t[0] ** t[1]),
        st.tuples(st.sampled_from(["add", "sub", "mul", "max", "min"]),
                  sub, sub).map(lambda t: Expr(t[0], t[1:])),
        st.tuples(sub, sub).map(lambda p: ediv(*p, safe=True))),
    max_leaves=12)

# how tightly each kind binds when printed: 0 a sum, 1 a product, 2 a sign,
# 3 a power, 4 an atom
_BINDS = {"add": 0, "sub": 0, "mul": 1, "div": 1, "neg": 2, "pow": 3}
_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _print_tokens(e, rng, level=0):
    """Tokens of an infix text that parses to e, where the text must bind at
    least as tightly as `level`, with redundant parentheses and unary +
    strewn in."""
    binds = _BINDS.get(e.kind, 4)
    if e.kind == "const":
        body = [repr(e.value)]
    elif e.kind in ("xvar", "yvar"):
        body = [f"{e.kind[0]}{e.index}"]
    elif e.kind == "neg":
        body = ["-", *_print_tokens(e.children[0], rng, 2)]
    elif e.kind == "pow":
        body = [*_print_tokens(e.children[0], rng, 4), "^", str(e.exponent)]
    elif e.kind in _INFIX:
        left, right = e.children
        body = [*_print_tokens(left, rng, binds), _INFIX[e.kind],
                *_print_tokens(right, rng, binds + 1)]
    else:
        body = [e.kind, "("]
        for i, c in enumerate(e.children):
            body += [","] * (i > 0) + _print_tokens(c, rng, 0)
        body.append(")")
    if binds < level or rng.random() < 0.15:
        body = ["(", *body, ")"]
    if level <= 2 and rng.random() < 0.15:
        body = ["+", *body]
    return body


_TWO_BY_TWO = (MINIMAL_FILE.replace("n = 1", "n = 2").replace("m = 1", "m = 2")
               .replace("[mode]", "x2 = 0, 1\ny2 = 0, 1\n[mode]"))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(e=_PARSED_TREES, seed=st.integers(0, 2 ** 32))
def test_a_printed_tree_parses_to_the_identical_node(e, seed):
    rng = random.Random(seed)
    text = "".join(tok + rng.choice(["", "", " ", "  ", "\t"])
                   for tok in _print_tokens(e, rng))
    prog = parse_program(_TWO_BY_TWO.replace(
        "objective = (y1 - 1)^2 + x1^2", "objective = " + text))
    assert prog.F is e, text
