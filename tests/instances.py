"""Concrete desk-scale instances shared by the unit and acceptance suites,
and `exact`, the bit-for-bit view of a result that the memo tests compare."""

import dataclasses

import numpy as np

from bilevelsense.model import (
    BilevelProgram,
    Expr,
    eabs,
    neg,
    parse_program,
)

X1 = Expr.x(1)
Y1 = Expr.y(1)

INSTANCE_A_TEXT = """
# leader tracks (1, 1); follower maximizes y below x
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

INSTANCE_C_TEXT = """
# bilinear upper objective over a parameter-free lower level
[dims]
n = 1
m = 1
[upper]
objective = x1 * y1
[lower]
objective = 0
constraint = -y1
constraint = y1 - 1
[box]
x1 = -2, 2
y1 = -2, 2
[mode]
pessimistic
"""


PINNED_TEXT = """
# y1 pinned between 0 and x1 (both bounds active at x1 = 0), y2 free on
# [0, 1]: every solution carries a ray, and many share their covectors
[dims]
n = 1
m = 2
[upper]
objective = x1
[lower]
objective = 0
constraint = y1 - x1
constraint = -y1
constraint = -y2
constraint = y2 - 1
[box]
x1 = -1, 1
y1 = -2, 2
y2 = -2, 2
[mode]
{mode}
"""


def exact(value):
    """value as plain data that compares equal only bit for bit: an array
    by shape, dtype and bytes (so np.signbit agrees too), a dataclass by
    its fields, a tuple or list by its items, anything else by repr, which
    keeps the sign of a zero."""
    if isinstance(value, np.ndarray):
        return "array", value.shape, value.dtype.str, value.tobytes()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return type(value).__name__, tuple(
            exact(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(exact, value))
    return repr(value)


def instance_a():
    return parse_program(INSTANCE_A_TEXT)


def instance_a_constrained():
    """Instance A with the upper-level feasible set {x >= 0}."""
    prog = parse_program(INSTANCE_A_TEXT)
    from dataclasses import replace

    return replace(prog, theta1=(neg(X1),))


def instance_b():
    """F = |x| + y, f = |y - x|, K = [-1, 1]; phi_o(x) = |x| + clip(x)."""
    return BilevelProgram(
        n=1,
        m=1,
        F=eabs(X1) + Y1,
        f=eabs(Y1 - X1),
        g=(neg(Y1) - 1.0, Y1 - 1.0),
        box_x=((-1.5, 1.5),),
        box_y=((-2.0, 2.0),),
        mode="optimistic",
    )


def instance_c():
    return parse_program(INSTANCE_C_TEXT)


def instance_pinned(mode="optimistic"):
    return parse_program(PINNED_TEXT.format(mode=mode))


def instance_mfcq_degenerate():
    """Opposite active gradients y - x and x - y: generalized MFCQ fails."""
    return BilevelProgram(
        n=1,
        m=1,
        F=(X1 - 1.0) ** 2 + Y1**2,
        f=neg(Y1),
        g=(Y1 - X1, X1 - Y1),
        box_x=((-2.0, 2.0),),
        box_y=((-2.0, 2.0),),
    )


def instance_cqk_degenerate():
    """A leader-only lower constraint (x <= 0) active at x = 0.

    Its gradient has a nonzero x-part and zero y-part, so the pointbased
    qualification for the feasible map admits x* != 0.
    """
    return BilevelProgram(
        n=1,
        m=1,
        F=(X1 - 1.0) ** 2 + Y1**2,
        f=neg(Y1),
        g=(Y1 - X1, neg(Y1), X1),
        box_x=((-2.0, 2.0),),
        box_y=((-2.0, 2.0),),
    )


def instance_free_follower():
    """A follower with no lower-level constraints (p = 0): S(x) = {x},
    phi_o(x) = (x - 0.5)^2, and Lambda at a stationary y is the one
    multiplier vector of no coordinates."""
    return BilevelProgram(
        n=1,
        m=1,
        F=(X1 - 0.5) ** 2 + (Y1 - X1) ** 2,
        f=(Y1 - X1) ** 2,
        box_x=((-1.0, 1.0),),
        box_y=((-1.0, 1.0),),
    )


def make_affine_instance(seed: int) -> BilevelProgram:
    """Seeded all-affine instance with S(x) a moving singleton.

    K(x) = [l(x), u(x)] stays nonempty over the x-box, and f has a strict
    positive y-slope so the lower level always picks the left endpoint:
    phi_o is affine and every qualification check has a clean answer.
    """
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-2, 2))
    b = float(rng.uniform(-2, 2))
    d = float(rng.uniform(-1, 1))
    e_slope = float(rng.uniform(0.5, 2.0))
    gamma = float(rng.uniform(-0.4, 0.4))
    alpha = float(rng.uniform(-0.4, 0.4))
    width = float(rng.uniform(1.0, 2.0))
    # lower bound l(x) = gamma*x - width/2, upper u(x) = alpha*x + width/2
    F = a * X1 + b * Y1 + float(rng.uniform(-1, 1))
    f = d * X1 + e_slope * Y1
    g = (
        gamma * X1 - width / 2.0 - Y1,   # l(x) - y <= 0
        Y1 - (alpha * X1 + width / 2.0),  # y - u(x) <= 0
    )
    return BilevelProgram(
        n=1, m=1, F=F, f=f, g=g,
        box_x=((-1.0, 1.0),), box_y=((-3.0, 3.0),),
    )


def make_constant_f_instance(seed: int) -> BilevelProgram:
    """Seeded instance with constant lower objective, so S(x) = K(x).

    Used by the minimax-reduction comparisons; F is affine so the direct
    max-function hull has exactly computable generators.
    """
    rng = np.random.default_rng(seed)
    a = float(rng.uniform(-2, 2))
    b = float(rng.uniform(0.5, 2))
    lo = float(rng.uniform(-1.5, -0.5))
    hi = float(rng.uniform(0.5, 1.5))
    F = a * X1 + b * X1 * Y1
    f = Expr.const(float(rng.uniform(-1, 1)))
    g = (lo - Y1, Y1 - hi)
    return BilevelProgram(
        n=1, m=1, F=F, f=f, g=g,
        box_x=((-1.0, 1.0),), box_y=((-2.0, 2.0),),
        mode="pessimistic",
    )
