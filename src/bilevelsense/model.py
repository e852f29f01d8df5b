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
from functools import cached_property
from typing import Optional, Tuple
from weakref import WeakValueDictionary

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
_ARITY = {"const": 0, "xvar": 0, "yvar": 0, "neg": 1, "exp": 1, "log": 1,
          "abs": 1, "pow": 1, "add": 2, "sub": 2, "mul": 2, "div": 2,
          "max": 2, "min": 2}
_KINK_KINDS = ("abs", "max", "min")

# 2^16 smooth selections is the enumeration ceiling.
MAX_KINK_NODES = 16

# Longest tape any walk builds.  A tape holds one step per tree position,
# so a subtree under two parents counts twice, and a tree built in code as
# e = e + e doubles its tape with every step: 20 doublings of y1 would be
# 2^21 - 1 steps and a few hundred MB.  Each node records its position
# count when it is interned, and a walk over a longer tape raises
# BudgetError (exit 4) before it builds a step.  A parsed file would need
# about a million tokens to reach the bound.
MAX_TAPE_STEPS = 2 ** 20

DEFAULT_KINK_TOL = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class Expr:
    """Immutable, interned expression-tree node.

    Fields not meaningful for a kind are left at their defaults: `value`
    for constants, `index` (1-based) for variables, `exponent` for pow.

    Nodes are hash-consed: constructing a node equal to a live one returns
    that node, so equality is identity and hashing costs O(1).  The intern
    key is the kind, the children's identities, the value with its type and
    sign bit (0.0 and -0.0 are different constants), index and exponent.
    Copies and unpickled nodes are the interned node.
    """

    kind: str
    children: Tuple["Expr", ...] = ()
    value: float = 0.0
    index: int = 0
    exponent: int = 0
    _live = WeakValueDictionary()

    def __new__(cls, kind, children=(), value=0.0, index=0, exponent=0):
        children = tuple(children)
        key = (kind, tuple(map(id, children)), type(value), value,
               math.copysign(1.0, value), index, exponent)
        node = cls._live.get(key)
        if node is not None:
            return node
        arity = _ARITY.get(kind)
        if arity is None:
            raise ValueError(f"unknown node kind {kind!r}")
        if kind == "pow" and (exponent < 0 or exponent != int(exponent)):
            raise ValueError("pow exponent must be a nonnegative integer")
        if len(children) != arity:
            raise ValueError(f"{kind} expects {arity} children")
        if kind in ("xvar", "yvar") and index < 1:
            raise ValueError("variable indices are 1-based")
        node = object.__new__(cls)
        node.__dict__.update(kind=kind, children=children, value=value,
                             index=index, exponent=exponent,
                             _positions=1 + sum(c._positions for c in children))
        cls._live[key] = node
        return node

    def __reduce__(self):
        # the distinct nodes as a flat table, children before parents and
        # each child as its row, so pickle does not recurse into the
        # children: a long operator chain pickles like a short one
        table, row, todo = [], {}, [(self, False)]
        while todo:
            node, expanded = todo.pop()
            if id(node) in row:
                continue
            if expanded:
                row[id(node)] = len(table)
                table.append((node.kind, tuple(row[id(c)] for c in node.children),
                              node.value, node.index, node.exponent))
                continue
            todo.append((node, True))
            todo.extend((c, False) for c in reversed(node.children))
        return _unpickle, (tuple(table),)

    def __repr__(self):
        # the dataclass repr, written out without recursion
        parts, todo = [], [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            parts.append(f"Expr(kind={item.kind!r}, children=(")
            todo.append(f"), value={item.value!r}, index={item.index!r}, "
                        f"exponent={item.exponent!r})")
            kids = item.children
            if len(kids) == 1:
                todo.append(",")
            for i in range(len(kids) - 1, -1, -1):
                todo.append(kids[i])
                if i:
                    todo.append(", ")
        return "".join(parts)

    def __deepcopy__(self, memo):
        return self

    @cached_property
    def _tape(self) -> "_Tape":
        return _Tape(self)

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

    def _peel_negations(self):
        """(core, odd): self is core (not a neg) under an odd or even
        number of negations."""
        core, odd = self, False
        while core.kind == "neg":
            core, odd = core.children[0], not odd
        return core, odd


def _unpickle(table) -> Expr:
    """The interned root of an `Expr.__reduce__` table."""
    nodes = []
    for kind, kids, value, index, exponent in table:
        nodes.append(Expr(kind, tuple(nodes[i] for i in kids), value, index,
                          exponent))
    return nodes[-1]


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


def elog(u: Expr) -> Expr:
    return Expr("log", (u,))


def ediv(u: Expr, v: Expr) -> Expr:
    return Expr("div", (_as_expr(u), _as_expr(v)))


# -- the tape ----------------------------------------------------------------
#
# Every walk runs over the node's tape: its tree in post-order, one step
# (kind, slot, arg) per tree position.  A subtree under two parents gets two
# runs of steps, since kink counts and branch ids ("<preorder position>
# <choice>") count positions: merged, |x| + |x| at 0 would lose generator 0.
# arg is the constant, the 0-based coordinate of xvar/yvar, the exponent of
# pow or the preorder position of abs/max/min.  A pass calls each step's
# callable on registers r = [x, y, context, stack...]: a step whose subtree
# starts at stack depth d writes r[_BASE + d] from r[_BASE + d] and
# r[_BASE + d + 1], so a pass holds one value per level, as a recursion would.

_BASE = 3


class _Tape:
    """The steps of one node, and the program of each pass, built on first
    use: the steps with each kind replaced by its callable in the pass's
    table."""

    def __init__(self, root: Expr):
        if root._positions > MAX_TAPE_STEPS:
            raise BudgetError(
                f"expression tape of {root._positions} steps exceeds "
                f"{MAX_TAPE_STEPS}")
        steps, pos, todo = [], 0, [(root, _BASE, None)]
        while todo:
            node, slot, pre = todo.pop()
            if pre is None:
                todo.append((node, slot, pos))
                pos += 1
                kids = node.children
                for i in range(len(kids) - 1, -1, -1):
                    todo.append((kids[i], slot + i, None))
                continue
            kind = node.kind
            arg = (node.value if kind == "const"
                   else node.index - 1 if kind in ("xvar", "yvar")
                   else node.exponent if kind == "pow"
                   else pre if kind in _KINK_KINDS else None)
            steps.append((kind, slot, arg))
        self.steps = tuple(steps)
        self.kinks = sum(kind in _KINK_KINDS for kind, _, _ in steps)
        self.blank = [None] * (max(slot for _, slot, _ in steps) - _BASE + 1)

    eval = cached_property(lambda t: [(_EVAL[k], s, a) for k, s, a in t.steps])
    scan = cached_property(lambda t: [(_SCAN[k], s, a) for k, s, a in t.steps])
    diff = cached_property(lambda t: [(_DIFF[k], s, a) for k, s, a in t.steps])


def _run(program, r):
    for op, o, arg in program:
        r[o] = op(r, o, arg)
    return r[_BASE]


def _run_scalar(program, r):
    """_run for the scalar passes (_SCAN, _DIFF), whose math.exp and **
    raise OverflowError where the numpy pass gives inf."""
    try:
        return _run(program, r)
    except OverflowError:
        raise DomainError("overflow in a scalar evaluation") from None


# -- evaluation -----------------------------------------------------------


def eval_expr(e: Expr, x, y):
    """Evaluate `e` at (x, y).

    x and y are sequences (scalars or numpy arrays per coordinate; arrays
    broadcast, which is what the grid sweeps rely on).  abs/max/min are
    evaluated exactly.  Raises DomainError on log of a nonpositive value or
    on division by zero.
    """
    t = e._tape
    return _run(t.eval, [tuple(x), tuple(y), None, *t.blank])


def _nonzero(den):
    if np.any(np.asarray(den) == 0.0):
        raise DomainError("division by zero")
    return den


def _positive(arg):
    if np.any(np.asarray(arg) <= 0.0):
        raise DomainError("log of a nonpositive value")
    return arg


def _eval_pow(r, o, p):
    base = r[o]
    if p == 0:
        return np.ones_like(np.asarray(base, dtype=float)) if np.ndim(base) else 1.0
    return np.power(base, p)


# eval_expr's pass: numpy, so arrays broadcast
_EVAL = {
    "const": lambda r, o, c: c,
    "xvar": lambda r, o, i: r[0][i],
    "yvar": lambda r, o, j: r[1][j],
    "neg": lambda r, o, _: -r[o],
    "add": lambda r, o, _: r[o] + r[o + 1],
    "sub": lambda r, o, _: r[o] - r[o + 1],
    "mul": lambda r, o, _: r[o] * r[o + 1],
    "div": lambda r, o, _: r[o] / _nonzero(r[o + 1]),
    "pow": _eval_pow,
    "exp": lambda r, o, _: np.exp(r[o]),
    "log": lambda r, o, _: np.log(_positive(r[o])),
    "abs": lambda r, o, _: np.abs(r[o]),
    "max": lambda r, o, _: np.maximum(r[o], r[o + 1]),
    "min": lambda r, o, _: np.minimum(r[o], r[o + 1]),
}


# -- smooth-branch enumeration --------------------------------------------


@dataclass(frozen=True)
class Branch:
    """One smooth selection active at the evaluation point."""

    branch_id: str
    value: float
    gradient: np.ndarray  # length n + m, x-block first


def kink_count(e: Expr) -> int:
    return e._tape.kinks


def smooth_branches(e: Expr, x, y, tol_active: Optional[float] = None) -> list:
    """Enumerate the smooth selections of `e` active at (x, y).

    At abs(u) both sign branches are active when |u| <= tol*(1+|u|); at
    max/min both arguments are active when they agree to the same relative
    tolerance.  Each branch carries the exact gradient of its smooth
    composition.  The branch count is bounded by 2^(#kink nodes); trees
    with more than MAX_KINK_NODES kinks are refused with BudgetError.  A
    value or gradient that overflows a float raises DomainError.
    """
    base_tol = DEFAULT_KINK_TOL if tol_active is None else float(tol_active)
    if base_tol <= 0:
        raise ValueError("tol_active must be positive")
    t = e._tape
    if t.kinks > MAX_KINK_NODES:
        raise BudgetError(
            f"expression has more than {MAX_KINK_NODES} kink nodes"
        )
    xs = tuple(float(v) for v in x)
    ys = tuple(float(v) for v in y)

    # One scalar forward pass, by math.exp, math.log and **.  With no
    # selection (t.scan) it records each kink node's choice set at this
    # point, keyed by preorder position so branch ids are stable; with a
    # selection (t.diff) it returns that branch's value and gradient.
    choices = []
    _run_scalar(t.scan, [xs, ys, (base_tol, choices), *t.blank])

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
        value, grad = _run_scalar(
            t.diff, [xs, ys, (sel, len(xs), len(xs) + len(ys)), *t.blank])
        branches.append(Branch("/".join(bid_parts) or "smooth", value, grad))
    return branches


def _scan_kink(kind):
    """A kink node's step in the choice-recording pass.  abs(u) chooses
    between "+" and "-" by the rule max(u, 0) uses between "L" and "R"."""
    labels = ("+", "-") if kind == "abs" else ("L", "R")
    exact = {"abs": lambda u, v: abs(u), "max": max, "min": min}[kind]

    def step(r, o, pos):
        u, v = r[o], 0.0 if kind == "abs" else r[o + 1]
        tol, choices = r[2]
        if abs(u - v) <= tol * (1.0 + max(abs(u), abs(v))):
            opts = labels
        elif (u > v) == (kind != "min"):
            opts = labels[:1]
        else:
            opts = labels[1:]
        choices.append((pos, opts))
        return exact(u, v)
    return step


# the choice-recording pass: scalar values; r[2] is (tol, choices)
_SCAN = {
    **_EVAL,
    "pow": lambda r, o, p: r[o] ** p,
    "exp": lambda r, o, _: math.exp(r[o]),
    "log": lambda r, o, _: math.log(_positive(r[o])),
    "abs": _scan_kink("abs"),
    "max": _scan_kink("max"),
    "min": _scan_kink("min"),
}


def _unit(r, k):
    g = np.zeros(r[2][2])
    g[k] = 1.0
    return g


def _diff_div(r, o, _):
    (v1, g1), (v2, g2) = r[o], r[o + 1]
    return v1 / _nonzero(v2), (g1 * v2 - v1 * g2) / (v2 * v2)


def _diff_pow(r, o, p):
    v, g = r[o]
    if p == 0:
        return 1.0, np.zeros(r[2][2])
    return v**p, p * v ** (p - 1) * g


# one branch's value-and-gradient pass: slots hold (value, gradient); r[2] is
# (selection, n, n + m)
_DIFF = {
    "const": lambda r, o, c: (c, np.zeros(r[2][2])),
    "xvar": lambda r, o, i: (r[0][i], _unit(r, i)),
    "yvar": lambda r, o, j: (r[1][j], _unit(r, r[2][1] + j)),
    "neg": lambda r, o, _: (-r[o][0], -r[o][1]),
    "add": lambda r, o, _: (r[o][0] + r[o + 1][0], r[o][1] + r[o + 1][1]),
    "sub": lambda r, o, _: (r[o][0] - r[o + 1][0], r[o][1] - r[o + 1][1]),
    "mul": lambda r, o, _: (r[o][0] * r[o + 1][0],
                            r[o + 1][0] * r[o][1] + r[o][0] * r[o + 1][1]),
    "div": _diff_div,
    "pow": _diff_pow,
    "exp": lambda r, o, _: (ev := math.exp(r[o][0]), ev * r[o][1]),
    "log": lambda r, o, _: (math.log(_positive(r[o][0])), r[o][1] / r[o][0]),
    "abs": lambda r, o, pos: (r[o] if r[2][0][pos] == "+"
                              else (-r[o][0], -r[o][1])),
    "max": lambda r, o, pos: r[o] if r[2][0][pos] == "L" else r[o + 1],
    "min": lambda r, o, pos: r[o] if r[2][0][pos] == "L" else r[o + 1],
}


def clarke_generators(e: Expr, x, y, tol_active: Optional[float] = None) -> list:
    """Gradients of the active smooth selections, exactly deduplicated.

    Their convex hull over-approximates the generalized gradient of `e` at
    (x, y); for max-type compositions of smooth terms it is exact.  Exact
    deduplication (not tolerance-based) keeps the generator list of -e the
    elementwise negation of the generator list of e.  Raises DomainError
    when a generator, or its squared norm, is not finite.
    """
    gens = []
    seen = set()
    for b in smooth_branches(e, x, y, tol_active):
        key = tuple(b.gradient.tolist())
        if key not in seen:
            # the squared norm over the key's floats, into which NaN and inf
            # entries propagate: about 0.4 us, where a numpy test of the
            # stacked generators cost about 5 us per call
            if not math.isfinite(sum([v * v for v in key])):
                raise DomainError(
                    f"a Clarke generator is not finite at "
                    f"x={[float(v) for v in x]}, y={[float(v) for v in y]}")
            seen.add(key)
            gens.append(b.gradient)
    return gens


# -- structural queries ----------------------------------------------------


def used_indices(e: Expr):
    """(x indices, y indices) referenced by the expression."""
    xi, yi = set(), set()
    for kind, _, arg in e._tape.steps:
        if kind == "xvar":
            xi.add(arg + 1)
        elif kind == "yvar":
            yi.add(arg + 1)
    return xi, yi


def affine_coefficients(e: Expr, n: int, m: int):
    """Affine decomposition c0 + cx.x + cy.y, or None if not syntactically affine.

    Deliberately syntactic: products of non-constant subtrees are rejected
    even when they would cancel.
    """

    def const(a):
        return not a[1].any() and not a[2].any()

    t = e._tape
    r = [None, None, None, *t.blank, None]
    for k, o, arg in t.steps:
        a, b, c = r[o], r[o + 1], None  # a step's operands, and its result
        if k == "const":
            c = arg, np.zeros(n), np.zeros(m)
        elif k in ("xvar", "yvar"):
            cx, cy = np.zeros(n), np.zeros(m)
            (cx if k == "xvar" else cy)[arg] = 1.0
            c = 0.0, cx, cy
        elif k in _KINK_KINDS or k in ("exp", "log") or a is None or (
                _ARITY[k] == 2 and b is None):
            pass
        elif k == "neg":
            c = -a[0], -a[1], -a[2]
        elif k == "pow":
            if arg == 0:
                c = 1.0, np.zeros(n), np.zeros(m)
            elif arg == 1:
                c = a
            elif const(a):
                c = a[0] ** arg, np.zeros(n), np.zeros(m)
        elif k in ("add", "sub"):
            s = 1.0 if k == "add" else -1.0
            c = a[0] + s * b[0], a[1] + s * b[1], a[2] + s * b[2]
        elif k == "mul":
            if const(a):
                c = a[0] * b[0], a[0] * b[1], a[0] * b[2]
            elif const(b):
                c = b[0] * a[0], b[0] * a[1], b[0] * a[2]
        elif const(b) and b[0] != 0.0:  # div
            c = a[0] / b[0], a[1] / b[0], a[2] / b[0]
        r[o] = c
    return r[_BASE]


def is_smooth(e: Expr) -> bool:
    return kink_count(e) == 0


# -- programs ---------------------------------------------------------------


def _check_interval(lo, hi, line=None, col=None):
    """SemanticsError at (line, col) unless [lo, hi] is a finite nonempty
    interval whose width hi - lo is finite too (a wider box meshes NaN
    grid points)."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
        raise SemanticsError("boxes must be finite nonempty intervals",
                             line, col)
    if not math.isfinite(hi - lo):
        raise SemanticsError(f"box width {hi - lo} of [{lo}, {hi}] is not finite",
                             line, col)


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
            _check_interval(lo, hi)
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
        """Same program with F replaced by -F (the lower level is untouched).

        The twin is built once per program and kept on it, so every call
        returns the same object."""
        return self._twin

    @cached_property
    def _twin(self) -> "BilevelProgram":
        return replace(self, F=neg(self.F))

    def __getstate__(self):
        # the twin is a memo, not state: copies and unpickled programs
        # build their own
        return {k: v for k, v in self.__dict__.items() if k != "_twin"}


# -- expression parsing ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)

# a variable token, or a [box] key
_VAR_RE = re.compile(r"([xy])([0-9]+)")

_FUNCS = {"abs": 1, "max": 2, "min": 2, "exp": 1, "log": 1}
_BINARY = {"+": "add", "-": "sub", "*": "mul", "/": "div"}


def _parse_expr(text, line, n, m, col_offset=0) -> Expr:
    """The expression `text` on problem-file line `line`, over x1..xn and
    y1..ym; `col_offset` is the 0-based column of its first character.

    Precedence, loosest first: + and -, * and / (each left-associative),
    signs, and ^ with an integer literal exponent.  One loop reads the
    tokens over an explicit stack: each open parenthesis or call is a
    frame, and the frame around it waits on the stack with its pending sum,
    product and signs, so nesting is bounded by memory alone.
    """
    toks = []
    for mo in _TOKEN_RE.finditer(text):
        kind = mo.lastgroup
        col = col_offset + mo.start(kind) + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {mo[kind]!r}", line, col)
        toks.append((kind, mo[kind], col))
    toks.append((None, None, col_offset + len(text) + 1))

    def take(i):
        if toks[i][0] is None:
            raise ParseError("unexpected end of expression", line, toks[i][2])
        return toks[i]

    # the open frame: its opener ("(" or a call's name), the opener's
    # column and the call's arguments so far; the pending (left operand,
    # kind) of + - and of * /; and the minus signs before the operand
    # being read.  The frames around it wait on the stack.
    stack = []
    opener = ocol = args = None
    total = prod = None
    negs = 0
    i = 0
    while True:
        kind, tok, col = take(i)
        i += 1
        if tok in ("+", "-"):
            negs += tok == "-"
            continue
        if tok == "(" or tok in _FUNCS:
            if tok != "(":
                _, paren, pcol = take(i)
                if paren != "(":
                    raise ParseError(f"expected '(' after {tok}", line, pcol)
                i += 1
            stack.append((opener, ocol, args, total, prod, negs))
            opener, ocol, args, total, prod, negs = tok, col, [], None, None, 0
            continue
        if kind == "num":
            value = Expr.const(float(tok))
        elif kind == "ident" and (var := _VAR_RE.fullmatch(tok)):
            idx, limit = int(var[2]), n if var[1] == "x" else m
            if idx < 1:
                raise VariableIndexError(f"variable index must be >= 1: {tok}",
                                         line, col)
            if idx > limit:
                raise VariableIndexError(
                    f"variable {tok} out of range (limit {limit})", line, col)
            value = Expr(var[1] + "var", index=idx)
        else:
            raise ParseError(f"unknown identifier {tok!r}", line, col)
        while True:  # value is a whole atom of the open frame
            if toks[i][1] == "^":
                _, power, pcol = take(i + 1)
                if not power.isdecimal():
                    raise ParseError("exponent must be an integer literal",
                                     line, pcol)
                value = Expr("pow", (value,), exponent=int(power))
                i += 2
            for _ in range(negs):
                value = Expr("neg", (value,))
            if prod:
                value = Expr(prod[1], (prod[0], value))
            op, negs, prod = toks[i][1], 0, None
            if op in ("*", "/"):
                prod, i = (value, _BINARY[op]), i + 1
                break
            if total:
                value = Expr(total[1], (total[0], value))
            total = None
            if op in ("+", "-"):
                total, i = (value, _BINARY[op]), i + 1
                break
            if opener is None:
                if op is not None:
                    raise ParseError(f"unexpected token {op!r}", line, toks[i][2])
                return value
            args.append(value)
            if op == "," and opener != "(":
                i += 1
                break
            _, close, ccol = take(i)
            if close != ")":
                raise ParseError("expected ')'", line, ccol)
            i += 1
            if opener != "(":
                if len(args) != _FUNCS[opener]:
                    raise ParseError(f"{opener} takes {_FUNCS[opener]} argument(s)",
                                     line, ocol)
                value = Expr(opener, tuple(args))
            opener, ocol, args, total, prod, negs = stack.pop()


def parse_program(text: str) -> BilevelProgram:
    """Parse a problem file.

    Sections: [dims] with n=<int> m=<int>; [upper] / [lower] each with one
    objective= line and repeated constraint= lines; [box] with one
    <var>=<lo>,<hi> line per coordinate, a finite nonempty interval;
    [mode] with `optimistic` or `pessimistic`, bare or as mode=<word>.
    Only constraint= lines repeat: a second n, m, objective, box entry or
    mode word is a ParseError at its line, and so is a box entry for a
    coordinate that [dims] does not declare.
    '#' starts a comment.  div and log are checked where they are
    evaluated: a point outside their domain raises DomainError.
    """
    section = None
    dims, box, mode, said = {}, {}, None, set()
    pending = []  # (section, key, text, line, col) parsed once dims are known

    def once(what, lineno):
        if what in said:
            raise ParseError(f"{what} given twice", lineno, 1)
        said.add(what)

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
            # the bare word, or mode = <word>
            key, eq, word = stripped.lower().partition("=")
            if eq and key.strip() != "mode":
                raise ParseError(f"unknown key {key.strip()!r} in [mode]",
                                 lineno, 1)
            word = (word if eq else key).strip()
            if word not in ("optimistic", "pessimistic"):
                raise ParseError(f"unknown mode {word!r}", lineno, 1)
            once("[mode]", lineno)
            mode = word
            continue
        if "=" not in lstr:
            raise ParseError("expected key=value", lineno, 1)
        key, _, rhs = lstr.partition("=")
        key = key.strip().lower()
        rhs_text = rhs.strip()
        # 1-based column of the right-hand side's first non-blank character
        rhs_col = lstr.index("=") + 2 + len(rhs) - len(rhs.lstrip())
        if section == "dims":
            if key not in ("n", "m"):
                raise ParseError(f"unknown dims key {key!r}", lineno, 1)
            once(f"[dims] {key}", lineno)
            try:
                dims[key] = int(rhs_text)
            except ValueError:
                raise ParseError("dimension must be an integer", lineno,
                                 rhs_col) from None
        elif section in ("upper", "lower"):
            if key not in ("objective", "constraint"):
                raise ParseError(f"unknown key {key!r} in [{section}]", lineno, 1)
            if key == "objective":
                once(f"[{section}] objective", lineno)
            pending.append((section, key, rhs_text, lineno, rhs_col))
        elif section == "box":
            var = _VAR_RE.fullmatch(key)
            if not var:
                raise ParseError(f"box key must be x<i> or y<j>, got {key!r}",
                                 lineno, 1)
            coord = var[1], int(var[2])
            once(f"[box] {coord[0]}{coord[1]}", lineno)
            parts = rhs_text.split(",")
            if len(parts) != 2:
                raise ParseError("box entry must be <lo>,<hi>", lineno, rhs_col)
            try:
                lo, hi = float(parts[0]), float(parts[1])
            except ValueError:
                raise ParseError("box bounds must be decimals", lineno,
                                 rhs_col) from None
            _check_interval(lo, hi, lineno, rhs_col)
            box[coord] = lo, hi, lineno

    if "n" not in dims or "m" not in dims:
        raise ParseError("missing [dims] n= and m=", 1, 1)
    n_dim, m_dim = dims["n"], dims["m"]

    objective = {}
    constraints = {"upper": [], "lower": []}
    for section, key, etext, lineno, col in pending:
        expr = _parse_expr(etext, lineno, n_dim, m_dim, col - 1)
        if key == "objective":
            objective[section] = expr
            continue
        if section == "upper":
            _, yi = used_indices(expr)
            if yi:
                raise SemanticsError(
                    f"upper constraint references y{min(yi)}", lineno, col)
        constraints[section].append(expr)

    for section in ("upper", "lower"):
        if section not in objective:
            raise ParseError(f"missing [{section}] objective", 1, 1)

    def box_bounds(letter, count):
        for i in range(1, count + 1):
            if (letter, i) not in box:
                raise ParseError(f"missing [box] entry for {letter}{i}", 1, 1)
        return tuple(box[letter, i][:2] for i in range(1, count + 1))

    box_x, box_y = box_bounds("x", n_dim), box_bounds("y", m_dim)
    for (letter, i), (_, _, lineno) in box.items():
        if not 1 <= i <= (n_dim if letter == "x" else m_dim):
            raise ParseError(f"[box] entry for {letter}{i}, which [dims] does "
                             "not declare", lineno, 1)

    return BilevelProgram(
        n=n_dim,
        m=m_dim,
        F=objective["upper"],
        f=objective["lower"],
        g=tuple(constraints["lower"]),
        theta1=tuple(constraints["upper"]),
        box_x=box_x,
        box_y=box_y,
        mode=mode or "optimistic",
    )
