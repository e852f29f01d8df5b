"""Piecewise-smooth scalar expressions and bilevel program definitions.

An Expr is an immutable tree over the variables x1..xn, y1..ym built from
arithmetic, exp/log, integer powers and the kink nodes abs/max/min.  Every
expression is piecewise C^1: holding a sign choice at each kink node fixed
yields a smooth selection, and enumerating the selections active at a point
gives exact gradients of every branch.  That enumeration is what the rest of
the toolkit consumes (generalized-gradient generators, multiplier systems,
normal cones).

The module also owns the line-oriented problem-file format and the
BilevelProgram container validated against it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .errors import (
    BudgetError,
    DomainError,
    ParseError,
    SemanticsError,
    VariableIndexError,
)

# Node kinds with fixed arities.  pow carries an integer exponent >= 0 so
# every smooth selection is C^1 everywhere.
_LEAF_KINDS = ("const", "xvar", "yvar")
_UNARY_KINDS = ("neg", "exp", "log", "abs")
_BINARY_KINDS = ("add", "sub", "mul", "div", "max", "min")
_KINK_KINDS = ("abs", "max", "min")

# 2^16 smooth selections is the enumeration ceiling.
MAX_KINK_NODES = 16

# Deepest expression the parser accepts.  The nesting depth of a leaf is 1;
# each operator, function call, sign and pair of parentheses adds a level,
# so a chain of k additions nests k + 1 deep.  The tree walkers recurse on
# every level and the parser five calls deep per pair of parentheses; 150
# leaves room under Python's recursion limit for their callers' frames.
MAX_EXPR_DEPTH = 150

DEFAULT_KINK_TOL = 1e-8


@dataclass(frozen=True)
class Expr:
    """Immutable expression-tree node.

    Fields not meaningful for a kind are left at their defaults: `value`
    for constants, `index` (1-based) for variables, `exponent` for pow,
    `safe` for div/log nodes whose domain the user has vouched for.
    """

    kind: str
    children: Tuple["Expr", ...] = ()
    value: float = 0.0
    index: int = 0
    exponent: int = 0
    safe: bool = False

    def __post_init__(self):
        if self.kind in _LEAF_KINDS:
            arity = 0
        elif self.kind in _UNARY_KINDS:
            arity = 1
        elif self.kind in _BINARY_KINDS:
            arity = 2
        elif self.kind == "pow":
            arity = 1
            if self.exponent < 0 or self.exponent != int(self.exponent):
                raise ValueError("pow exponent must be a nonnegative integer")
        else:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if len(self.children) != arity:
            raise ValueError(f"{self.kind} expects {arity} children")
        if self.kind in ("xvar", "yvar") and self.index < 1:
            raise ValueError("variable indices are 1-based")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(v: float) -> "Expr":
        return Expr("const", value=float(v))

    @staticmethod
    def x(i: int) -> "Expr":
        return Expr("xvar", index=i)

    @staticmethod
    def y(j: int) -> "Expr":
        return Expr("yvar", index=j)

    # Operator sugar keeps tests and programmatic model building readable.
    def __add__(self, other):
        return Expr("add", (self, _as_expr(other)))

    def __radd__(self, other):
        return Expr("add", (_as_expr(other), self))

    def __sub__(self, other):
        return Expr("sub", (self, _as_expr(other)))

    def __rsub__(self, other):
        return Expr("sub", (_as_expr(other), self))

    def __mul__(self, other):
        return Expr("mul", (self, _as_expr(other)))

    def __rmul__(self, other):
        return Expr("mul", (_as_expr(other), self))

    def __truediv__(self, other):
        return Expr("div", (self, _as_expr(other)))

    def __pow__(self, k: int):
        return Expr("pow", (self,), exponent=int(k))

    def __neg__(self):
        return Expr("neg", (self,))

    def walk(self):
        """Preorder traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def _as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    return Expr.const(v)


def neg(e: Expr) -> Expr:
    return Expr("neg", (e,))


def eabs(u: Expr) -> Expr:
    return Expr("abs", (u,))


def emax(u: Expr, v: Expr) -> Expr:
    return Expr("max", (_as_expr(u), _as_expr(v)))


def emin(u: Expr, v: Expr) -> Expr:
    return Expr("min", (_as_expr(u), _as_expr(v)))


def eexp(u: Expr) -> Expr:
    return Expr("exp", (u,))


def elog(u: Expr, safe: bool = False) -> Expr:
    return Expr("log", (u,), safe=safe)


def ediv(u: Expr, v: Expr, safe: bool = False) -> Expr:
    return Expr("div", (_as_expr(u), _as_expr(v)), safe=safe)


# -- evaluation -----------------------------------------------------------


def eval_expr(e: Expr, x, y):
    """Evaluate `e` at (x, y).

    x and y are sequences (scalars or numpy arrays per coordinate; arrays
    broadcast, which is what the grid sweeps rely on).  abs/max/min are
    evaluated exactly.  Raises DomainError on log of a nonpositive value or
    on division by zero.
    """
    xs = tuple(x)
    ys = tuple(y)
    return _eval(e, xs, ys)


def _eval(e: Expr, xs, ys):
    k = e.kind
    if k == "const":
        return e.value
    if k == "xvar":
        return xs[e.index - 1]
    if k == "yvar":
        return ys[e.index - 1]
    if k == "neg":
        return -_eval(e.children[0], xs, ys)
    if k == "add":
        return _eval(e.children[0], xs, ys) + _eval(e.children[1], xs, ys)
    if k == "sub":
        return _eval(e.children[0], xs, ys) - _eval(e.children[1], xs, ys)
    if k == "mul":
        return _eval(e.children[0], xs, ys) * _eval(e.children[1], xs, ys)
    if k == "div":
        num = _eval(e.children[0], xs, ys)
        den = _eval(e.children[1], xs, ys)
        if np.any(np.asarray(den) == 0.0):
            raise DomainError("division by zero")
        return num / den
    if k == "pow":
        base = _eval(e.children[0], xs, ys)
        if e.exponent == 0:
            return np.ones_like(np.asarray(base, dtype=float)) if np.ndim(base) else 1.0
        return np.power(base, e.exponent)
    if k == "exp":
        return np.exp(_eval(e.children[0], xs, ys))
    if k == "log":
        arg = _eval(e.children[0], xs, ys)
        if np.any(np.asarray(arg) <= 0.0):
            raise DomainError("log of a nonpositive value")
        return np.log(arg)
    if k == "abs":
        return np.abs(_eval(e.children[0], xs, ys))
    if k == "max":
        return np.maximum(_eval(e.children[0], xs, ys), _eval(e.children[1], xs, ys))
    if k == "min":
        return np.minimum(_eval(e.children[0], xs, ys), _eval(e.children[1], xs, ys))
    raise AssertionError(k)


# -- smooth-branch enumeration --------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One smooth selection active at the evaluation point."""

    branch_id: str
    value: float
    gradient: np.ndarray  # length n + m, x-block first


def kink_count(e: Expr) -> int:
    return sum(1 for node in e.walk() if node.kind in _KINK_KINDS)


def smooth_branches(e: Expr, x, y, tol_active: Optional[float] = None) -> list:
    """Enumerate the smooth selections of `e` active at (x, y).

    At abs(u) both sign branches are active when |u| <= tol*(1+|u|); at
    max/min both arguments are active when they agree to the same relative
    tolerance.  Each branch carries the exact gradient of its smooth
    composition.  The branch count is bounded by 2^(#kink nodes); trees
    with more than MAX_KINK_NODES kinks are refused with BudgetError.
    """
    base_tol = DEFAULT_KINK_TOL if tol_active is None else float(tol_active)
    if base_tol <= 0:
        raise ValueError("tol_active must be positive")
    if kink_count(e) > MAX_KINK_NODES:
        raise BudgetError(
            f"expression has more than {MAX_KINK_NODES} kink nodes"
        )
    xs = tuple(float(v) for v in x)
    ys = tuple(float(v) for v in y)
    nvar = len(xs) + len(ys)

    # First pass: per-kink-node choice sets at this point.  Nodes are keyed
    # by preorder position so branch ids are stable.
    choices = _scan_choices(e, xs, ys, base_tol)

    active = [c for c in choices if len(c[1]) > 1]
    forced = {p: opts[0] for p, opts in choices if len(opts) == 1}

    branches = []
    total = 1 << len(active)
    for mask in range(total):
        sel = dict(forced)
        bid_parts = []
        for bit, (p, opts) in enumerate(active):
            choice = opts[(mask >> bit) & 1]
            sel[p] = choice
            bid_parts.append(f"{p}{choice}")
        value, grad = _branch_eval(e, xs, ys, sel, nvar)
        branches.append(Branch("/".join(bid_parts) or "smooth", value, grad))
    return branches


def _branch_eval(e: Expr, xs, ys, sel, nvar):
    """Forward-mode value+gradient for one branch selection."""
    pos = [0]
    n = len(xs)

    def rec(node: Expr):
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
        if k == "add":
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
            return v1 + v2, g1 + g2
        if k == "sub":
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
            return v1 - v2, g1 - g2
        if k == "mul":
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
            return v1 * v2, v2 * g1 + v1 * g2
        if k == "div":
            v1, g1 = rec(node.children[0])
            v2, g2 = rec(node.children[1])
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


def clarke_generators(e: Expr, x, y, tol_active: Optional[float] = None) -> list:
    """Gradients of the active smooth selections, exactly deduplicated.

    Their convex hull over-approximates the generalized gradient of `e` at
    (x, y); for max-type compositions of smooth terms it is exact.  Exact
    deduplication (not tolerance-based) keeps the generator list of -e the
    elementwise negation of the generator list of e.
    """
    gens = []
    seen = set()
    for b in smooth_branches(e, x, y, tol_active):
        key = tuple(b.gradient.tolist())
        if key not in seen:
            seen.add(key)
            gens.append(b.gradient)
    return gens


def _scan_choices(e: Expr, xs, ys, base_tol):
    """First pass: the admissible sign choices of every kink node at (x, y)."""
    choices = []
    pos = [0]

    def rec(node: Expr):
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


# -- structural queries ----------------------------------------------------


def used_indices(e: Expr):
    """(x indices, y indices) referenced by the expression."""
    xi, yi = set(), set()
    for node in e.walk():
        if node.kind == "xvar":
            xi.add(node.index)
        elif node.kind == "yvar":
            yi.add(node.index)
    return xi, yi


def affine_coefficients(e: Expr, n: int, m: int):
    """Affine decomposition c0 + cx.x + cy.y, or None if not syntactically affine.

    Deliberately syntactic: products of non-constant subtrees are rejected
    even when they would cancel.
    """

    def rec(node: Expr):
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
        return None  # exp/log/abs/max/min

    return rec(e)


def is_smooth(e: Expr) -> bool:
    return kink_count(e) == 0


# -- programs ---------------------------------------------------------------


@dataclass(frozen=True)
class BilevelProgram:
    """A two-level program over box-bounded variables.

    Lower-level constraints g(x, y) <= 0; upper-level constraints
    theta1(x) <= 0 reference x only.  The boxes bound the desk-scale
    search region for every grid sweep.
    """

    n: int
    m: int
    F: Expr
    f: Expr
    g: Tuple[Expr, ...] = ()
    theta1: Tuple[Expr, ...] = ()
    box_x: Tuple[Tuple[float, float], ...] = ()
    box_y: Tuple[Tuple[float, float], ...] = ()
    mode: str = "optimistic"

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise SemanticsError("dimensions n, m must be >= 1")
        if self.mode not in ("optimistic", "pessimistic"):
            raise SemanticsError(f"unknown mode {self.mode!r}")
        if len(self.box_x) != self.n or len(self.box_y) != self.m:
            raise SemanticsError("box must bound every coordinate")
        for lo, hi in (*self.box_x, *self.box_y):
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise SemanticsError("boxes must be finite nonempty intervals")
        for label, e in self._all_exprs():
            xi, yi = used_indices(e)
            bad_x = [i for i in xi if i > self.n]
            bad_y = [j for j in yi if j > self.m]
            if bad_x or bad_y:
                raise VariableIndexError(
                    f"{label} references out-of-range variable "
                    f"{'x' + str(bad_x[0]) if bad_x else 'y' + str(bad_y[0])}"
                )
        for idx, t in enumerate(self.theta1, start=1):
            _, yi = used_indices(t)
            if yi:
                raise SemanticsError(
                    f"upper constraint {idx} references lower-level variable y{min(yi)}"
                )

    def _all_exprs(self):
        yield "upper objective", self.F
        yield "lower objective", self.f
        for i, gi in enumerate(self.g, start=1):
            yield f"lower constraint {i}", gi
        for j, tj in enumerate(self.theta1, start=1):
            yield f"upper constraint {j}", tj

    @property
    def p(self) -> int:
        return len(self.g)

    @property
    def k(self) -> int:
        return len(self.theta1)

    def negated_upper(self) -> "BilevelProgram":
        """Same program with F replaced by -F (the lower level is untouched)."""
        return replace(self, F=neg(self.F))


# -- expression parsing ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>\^|\+|-|\*|/|\(|\)|,))"
)

_FUNCS = {"abs": 1, "max": 2, "min": 2, "exp": 1, "log": 1}


class _ExprParser:
    """Recursive-descent parser for the infix expression grammar.

    Input nested deeper than MAX_EXPR_DEPTH raises ParseError: opening
    parentheses, calls and signs are counted on the way down, before the
    parser's own recursion gets deep, and every node's nesting depth on the
    way up, which covers long operator chains.
    """

    def __init__(self, text, line, n, m, col_offset=0):
        self.text = text
        self.line = line
        self.n = n
        self.m = m
        self.col_offset = col_offset
        self.tokens = []
        self._tokenize()
        self.pos = 0
        self.open = 0     # enclosing parentheses, calls and signs
        self.depth = {}   # id of each node built so far -> its nesting depth

    def _too_deep(self, col):
        return ParseError(
            f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
            self.line, col)

    def _enter(self, col):
        self.open += 1
        if self.open > MAX_EXPR_DEPTH:
            raise self._too_deep(col)

    def _nest(self, e, parts, col):
        """Record e one level deeper than the deepest of parts; returns e."""
        d = 1 + max((self.depth.get(id(q), 1) for q in parts), default=0)
        if d > MAX_EXPR_DEPTH:
            raise self._too_deep(col)
        self.depth[id(e)] = d
        return e

    def _tokenize(self):
        i = 0
        while i < len(self.text):
            if self.text[i].isspace():
                i += 1
                continue
            mobj = _TOKEN_RE.match(self.text, i)
            if not mobj or mobj.start() != i:
                raise ParseError(
                    f"unexpected character {self.text[i]!r}",
                    self.line,
                    self.col_offset + i + 1,
                )
            tok = mobj.group().strip()
            self.tokens.append((tok, self.col_offset + i + 1))
            i = mobj.end()

    def _peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _next(self):
        if self.pos >= len(self.tokens):
            raise ParseError("unexpected end of expression", self.line,
                             self.col_offset + len(self.text) + 1)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self._expr()
        if self.pos != len(self.tokens):
            tok, col = self.tokens[self.pos]
            raise ParseError(f"unexpected token {tok!r}", self.line, col)
        return e

    def _expr(self) -> Expr:
        e = self._term()
        while self._peek() in ("+", "-"):
            op, col = self._next()
            rhs = self._term()
            e = self._nest(Expr("add" if op == "+" else "sub", (e, rhs)),
                           (e, rhs), col)
        return e

    def _term(self) -> Expr:
        e = self._unary()
        while self._peek() in ("*", "/"):
            op, col = self._next()
            rhs = self._unary()
            if op == "*":
                node = Expr("mul", (e, rhs))
            else:
                node = Expr("div", (e, rhs), safe=True)
            e = self._nest(node, (e, rhs), col)
        return e

    def _unary(self) -> Expr:
        if self._peek() in ("-", "+"):
            op, col = self._next()
            self._enter(col)
            e = self._unary()
            self.open -= 1
            return self._nest(Expr("neg", (e,)) if op == "-" else e, (e,), col)
        return self._power()

    def _power(self) -> Expr:
        base = self._atom()
        if self._peek() == "^":
            _, col = self._next()
            tok, tcol = self._next()
            try:
                exponent = int(tok)
            except ValueError:
                raise ParseError("exponent must be an integer literal",
                                 self.line, tcol) from None
            if exponent < 0:
                raise ParseError("exponent must be nonnegative", self.line, tcol)
            return self._nest(Expr("pow", (base,), exponent=exponent), (base,), col)
        return base

    def _atom(self) -> Expr:
        tok, col = self._next()
        if re.fullmatch(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?", tok):
            return Expr.const(float(tok))
        if tok == "(":
            self._enter(col)
            e = self._expr()
            self.open -= 1
            closing, ccol = self._next()
            if closing != ")":
                raise ParseError("expected ')'", self.line, ccol)
            return self._nest(e, (e,), col)
        if tok in _FUNCS:
            self._enter(col)
            opening, ocol = self._next()
            if opening != "(":
                raise ParseError(f"expected '(' after {tok}", self.line, ocol)
            args = [self._expr()]
            while self._peek() == ",":
                self._next()
                args.append(self._expr())
            self.open -= 1
            closing, ccol = self._next()
            if closing != ")":
                raise ParseError("expected ')'", self.line, ccol)
            if len(args) != _FUNCS[tok]:
                raise ParseError(f"{tok} takes {_FUNCS[tok]} argument(s)",
                                 self.line, col)
            node = Expr(tok, tuple(args), safe=tok == "log")
            return self._nest(node, args, col)
        mvar = re.fullmatch(r"([xy])(\d+)", tok)
        if mvar:
            idx = int(mvar.group(2))
            if idx < 1:
                raise VariableIndexError(f"variable index must be >= 1: {tok}",
                                         self.line, col)
            limit = self.n if mvar.group(1) == "x" else self.m
            if idx > limit:
                raise VariableIndexError(
                    f"variable {tok} out of range (limit {limit})",
                    self.line, col,
                )
            return Expr.x(idx) if mvar.group(1) == "x" else Expr.y(idx)
        raise ParseError(f"unknown identifier {tok!r}", self.line, col)


def parse_program(text: str) -> BilevelProgram:
    """Parse a problem file.

    Sections: [dims] with n=<int> m=<int>; [upper] / [lower] each with one
    objective= line and repeated constraint= lines; [box] with per-coordinate
    <var>=<lo>,<hi> lines; [mode] with `optimistic` or `pessimistic`.
    '#' starts a comment.  Writing div or log in a problem file is taken as
    the user's assertion that the expression is domain-safe over the box.
    """
    section = None
    dims = {}
    upper_obj = lower_obj = None
    upper_cons: list = []
    lower_cons: list = []
    box: dict = {}
    mode = None
    pending_exprs = []  # (target, text, line) parsed once dims are known

    for lineno, raw in enumerate(text.splitlines(), start=1):
        lstr = raw.split("#", 1)[0].rstrip()
        if not lstr.strip():
            continue
        stripped = lstr.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("malformed section header", lineno,
                                 lstr.index("[") + 1)
            section = stripped[1:-1].strip().lower()
            if section not in ("dims", "upper", "lower", "box", "mode"):
                raise ParseError(f"unknown section [{section}]", lineno, 1)
            continue
        if section is None:
            raise ParseError("content before any section header", lineno, 1)
        if section == "mode":
            word = stripped.split("=")[-1].strip().lower()
            if word not in ("optimistic", "pessimistic"):
                raise ParseError(f"unknown mode {word!r}", lineno, 1)
            mode = word
            continue
        if "=" not in lstr:
            raise ParseError("expected key=value", lineno, 1)
        key, _, rhs = lstr.partition("=")
        key = key.strip().lower()
        rhs_col = lstr.index("=") + 2
        rhs_text = rhs.strip()
        if section == "dims":
            if key not in ("n", "m"):
                raise ParseError(f"unknown dims key {key!r}", lineno, 1)
            try:
                dims[key] = int(rhs_text)
            except ValueError:
                raise ParseError("dimension must be an integer", lineno,
                                 rhs_col) from None
        elif section in ("upper", "lower"):
            if key == "objective":
                pending_exprs.append((section + ":objective", rhs_text, lineno, rhs_col))
            elif key == "constraint":
                pending_exprs.append((section + ":constraint", rhs_text, lineno, rhs_col))
            else:
                raise ParseError(f"unknown key {key!r} in [{section}]", lineno, 1)
        elif section == "box":
            mvar = re.fullmatch(r"([xy])(\d+)", key)
            if not mvar:
                raise ParseError(f"box key must be x<i> or y<j>, got {key!r}",
                                 lineno, 1)
            parts = rhs_text.split(",")
            if len(parts) != 2:
                raise ParseError("box entry must be <lo>,<hi>", lineno, rhs_col)
            try:
                lo, hi = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError("box bounds must be decimals", lineno,
                                 rhs_col) from None
            box[key] = (lo, hi)

    if "n" not in dims or "m" not in dims:
        raise ParseError("missing [dims] n= and m=", 1, 1)
    n_dim, m_dim = dims["n"], dims["m"]

    for target, etext, lineno, col in pending_exprs:
        expr = _ExprParser(etext, lineno, n_dim, m_dim, col_offset=col - 1).parse()
        where, _, what = target.partition(":")
        if where == "upper":
            if what == "objective":
                upper_obj = expr
            else:
                _, yi = used_indices(expr)
                if yi:
                    raise SemanticsError(
                        f"upper constraint references y{min(yi)}", lineno, col)
                upper_cons.append(expr)
        else:
            if what == "objective":
                lower_obj = expr
            else:
                lower_cons.append(expr)

    if upper_obj is None:
        raise ParseError("missing [upper] objective", 1, 1)
    if lower_obj is None:
        raise ParseError("missing [lower] objective", 1, 1)

    def box_bounds(prefix, count):
        bounds = []
        for i in range(1, count + 1):
            key = f"{prefix}{i}"
            if key not in box:
                raise ParseError(f"missing [box] entry for {key}", 1, 1)
            bounds.append(box[key])
        return tuple(bounds)

    return BilevelProgram(
        n=n_dim,
        m=m_dim,
        F=upper_obj,
        f=lower_obj,
        g=tuple(lower_cons),
        theta1=tuple(upper_cons),
        box_x=box_bounds("x", n_dim),
        box_y=box_bounds("y", m_dim),
        mode=mode or "optimistic",
    )
