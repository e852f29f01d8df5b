"""Seeded problem-file generators owned by the benchmark.

Every workload draws its programs from here and from `problems/`, never
from `tests/`, so an edit to the test suite cannot change what the
benchmark measures.  A generator returns problem-file text (which the
library parses during set-up) together with the closed-form facts the
oracles need.  Each family takes a `numpy.random.Generator`, so one seed
fixes every program of a run.

Families and the layer property each one sets:

  affine      singleton S(x), n = m = 1, every coefficient on the 0.01/0.1
              lattices so S(x) sits on the sweep lattice at lattice x
  affine2     the same with n = 2
  a_like      singleton S(x) = {s x}; F quadratic; optionally x >= 0
  constant_f  flat S(x) = [lo, hi] (constant lower objective)
  c_like      flat S(x) = [0, h], bilinear F (instance C scaled)
  separable2  n = m = 2, f = w * (abs or square)(y1 - c(x)) + e . x and
              flat in y2 on [l(x), u(x)], so phi_o != phi_p in closed form
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple


@dataclass(frozen=True)
class Program:
    """One generated problem: its file text plus oracle facts."""

    family: str
    text: str
    m: int
    flat: bool                      # S(x) a continuum rather than a point
    points: Tuple[Tuple[float, ...], ...] = ()
    facts: Dict[str, float] = field(default_factory=dict)


def _num(v: float) -> str:
    return repr(float(v))


def _lin(terms) -> str:
    """'c1*v1 + c2*v2 ...' with explicit signs; a None variable is a constant."""
    out = []
    for coef, var in terms:
        coef = float(coef)
        if coef == 0.0:
            continue
        body = _num(abs(coef)) if var is None else f"{_num(abs(coef))}*{var}"
        if not out:
            out.append(("-" if coef < 0 else "") + body)
        else:
            out.append(("- " if coef < 0 else "+ ") + body)
    return " ".join(out) if out else "0"


def problem_text(n, m, upper, lower, lower_cons, box_x, box_y,
                 mode="optimistic", upper_cons=()) -> str:
    lines = ["[dims]", f"n = {n}", f"m = {m}", "[upper]", f"objective = {upper}"]
    lines += [f"constraint = {c}" for c in upper_cons]
    lines += ["[lower]", f"objective = {lower}"]
    lines += [f"constraint = {c}" for c in lower_cons]
    lines.append("[box]")
    lines += [f"x{i + 1} = {_num(lo)}, {_num(hi)}" for i, (lo, hi) in enumerate(box_x)]
    lines += [f"y{j + 1} = {_num(lo)}, {_num(hi)}" for j, (lo, hi) in enumerate(box_y)]
    lines += ["[mode]", mode]
    return "\n".join(lines) + "\n"


def _step(rng, lo, hi, step):
    """Uniform draw from the lattice {lo, lo + step, ..., hi}."""
    k = int(rng.integers(0, int(round((hi - lo) / step)) + 1))
    return round(lo + k * step, 10)


def _u(rng, lo, hi, digits=2):
    return round(float(rng.uniform(lo, hi)), digits)


def _lattice_points(rng, lo, hi, step, count):
    """`count` distinct lattice points, in draw order."""
    pts = []
    while len(pts) < count:
        v = _step(rng, lo, hi, step)
        if v not in pts:
            pts.append(v)
    return pts


# -- singleton families ------------------------------------------------------


def affine(rng, n_points=3) -> Program:
    """F = a x + b y + c, f = d x + e y (e > 0): S(x) = {l(x)}, l affine.

    Slopes are multiples of 0.1, offsets of 0.01 and base points of 0.1,
    so l(x) lies on every refinement lattice of the y box [-2, 2].
    """
    a, b, c0, d = _u(rng, -2, 2), _u(rng, -2, 2), _u(rng, -1, 1), _u(rng, -1, 1)
    e = _u(rng, 0.5, 2.0)
    gam, alp = _step(rng, -0.4, 0.4, 0.1), _step(rng, -0.4, 0.4, 0.1)
    l0, u0 = _step(rng, -1.0, -0.5, 0.01), _step(rng, 0.5, 1.0, 0.01)
    text = problem_text(
        1, 1, _lin([(a, "x1"), (b, "y1"), (c0, None)]),
        _lin([(d, "x1"), (e, "y1")]),
        [_lin([(gam, "x1"), (l0, None), (-1, "y1")]),
         _lin([(1, "y1"), (-alp, "x1"), (-u0, None)])],
        [(-1.0, 1.0)], [(-2.0, 2.0)])
    xs = _lattice_points(rng, -0.8, 0.8, 0.1, n_points)
    return Program("affine", text, 1, False, tuple((x,) for x in xs),
                   {"lipschitz": abs(a + b * gam)})


def affine2(rng, n_points=3) -> Program:
    """`affine` with two leader variables: S(x) = {g1 x1 + g2 x2 + l0}.

    The dedup work of a value certification, the dearest operation of the
    `certify` workload, moves with the weights of y: it shrinks up to 10x
    for |b| > 1 and doubles for e < 0.8.  b and e stay in narrow ranges so
    that the code, not the seed, sets the workload's tail.
    """
    a1, a2, c0 = _u(rng, -2, 2), _u(rng, -2, 2), _u(rng, -1, 1)
    b = _u(rng, -0.8, 0.8)
    d, e = _u(rng, -1, 1), _u(rng, 1.0, 1.4)
    g1, g2 = _step(rng, -0.4, 0.4, 0.1), _step(rng, -0.4, 0.4, 0.1)
    l0, u0 = _step(rng, -1.0, -0.5, 0.01), _step(rng, 0.5, 1.0, 0.01)
    text = problem_text(
        2, 1, _lin([(a1, "x1"), (a2, "x2"), (b, "y1"), (c0, None)]),
        _lin([(d, "x1"), (e, "y1")]),
        [_lin([(g1, "x1"), (g2, "x2"), (l0, None), (-1, "y1")]),
         _lin([(1, "y1"), (-u0, None)])],
        [(-1.0, 1.0), (-1.0, 1.0)], [(-2.0, 2.0)])
    pts = []
    while len(pts) < n_points:
        p = (_step(rng, -0.8, 0.8, 0.1), _step(rng, -0.8, 0.8, 0.1))
        if p not in pts:
            pts.append(p)
    return Program("affine2", text, 1, False, tuple(pts),
                   {"lipschitz": abs(a1 + b * g1) + abs(a2 + b * g2)})


def a_like(rng, constrained=False, n_points=3, exact=False) -> Program:
    """Instance A scaled: F = (y - p)^2 + q x^2, f = -y, 0 <= y <= s x.

    S(x) = {s x} on x >= 0, and phi_o(x) = (s x - p)^2 + q x^2 is stationary
    at x* = s p / (s^2 + q); p is solved from a lattice x*.  With
    `constrained` the leader is held to x >= 0, so x* is Certified and the
    kink-free boundary point 0 is Refuted by variant ii and by value
    stationarity.  `exact` gives instance A itself (p = q = s = 1).
    """
    if exact:
        s, q, xstar = 1.0, 1.0, 0.5
    else:
        s, q = _step(rng, 0.6, 1.4, 0.1), _u(rng, 0.5, 1.5)
        xstar = _step(rng, 0.3, 0.9, 0.1)
    p = xstar * (s * s + q) / s
    text = problem_text(
        1, 1, f"(y1 - {_num(p)})^2 + {_num(q)}*x1^2", "-y1",
        [_lin([(1, "y1"), (-s, "x1")]), "-y1"],
        [(-2.0, 2.0)], [(-2.0, 2.0)],
        upper_cons=("-x1",) if constrained else ())
    if constrained:
        xs = [xstar, 0.0]
    else:
        xs = [round(float(v), 4) for v in rng.uniform(0.1, 1.3, n_points)]
    slope_bound = max(abs(2 * s * (s * x - p) + 2 * q * x) for x in xs)
    return Program("a_constrained" if constrained else "a_like", text, 1, False,
                   tuple((x,) for x in xs),
                   {"lipschitz": slope_bound + 0.1 * (s * s + q), "xstar": xstar})


# -- flat families -------------------------------------------------------------


def _signed_points(rng, count, lo=0.1, hi=0.9):
    """Base points away from the kink at 0, alternating in sign."""
    vals = rng.uniform(lo, hi, count)
    return tuple((round(float(v) * (1 if i % 2 == 0 else -1), 4),)
                 for i, v in enumerate(vals))


def constant_f(rng, n_points=3) -> Program:
    """F = a x + b x y, f constant, lo <= y <= hi: S(x) = [lo, hi]."""
    a, b = _u(rng, -2, 2), _u(rng, 0.5, 2.0)
    # dedup cost grows with the square of |S(x)|, and by half again when an
    # end of S(x) falls between the 0.02 points of the y mesh: keep the
    # width near 1 and the ends on the mesh, as in c_like, so both flat
    # families cost alike and the seed moves the coefficients, not the
    # cost of an operation
    lo, hi = _step(rng, -0.56, -0.44, 0.02), _step(rng, 0.44, 0.56, 0.02)
    k = _u(rng, -1, 1)
    text = problem_text(
        1, 1, _lin([(a, "x1"), (b, "x1*y1")]), _lin([(k, None)]),
        [_lin([(lo, None), (-1, "y1")]), _lin([(1, "y1"), (-hi, None)])],
        [(-1.0, 1.0)], [(-2.0, 2.0)], mode="pessimistic")
    return Program("constant_f", text, 1, True, _signed_points(rng, n_points),
                   {"lipschitz": abs(a) + b * max(abs(lo), abs(hi))})


def c_like(rng, n_points=3) -> Program:
    """Instance C scaled: F = k x y, f = 0, 0 <= y <= h: S(x) = [0, h]."""
    k, h = _u(rng, 0.5, 2.0), _u(rng, 0.9, 1.1)
    text = problem_text(
        1, 1, f"{_num(k)}*x1*y1", "0", ["-y1", _lin([(1, "y1"), (-h, None)])],
        [(-2.0, 2.0)], [(-2.0, 2.0)], mode="pessimistic")
    return Program("c_like", text, 1, True, _signed_points(rng, n_points),
                   {"lipschitz": k * h})


# -- two-dimensional separable family ----------------------------------------------


def separable2(rng, quadratic: bool) -> Program:
    """n = m = 2 with closed-form phi, phi_o and phi_p.

    f = w * kern(y1 - c(x)) + e . x, kern = abs or square, is flat in y2;
    l(x) <= y2 <= u(x); F = p1 y1 + p2 y2 + q . x.  So y1 = c(x) exactly,
    phi = e . x, and phi_o / phi_p take y2 at the end of [l(x), u(x)] that
    minimises / maximises p2 y2.
    """
    c = (_u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5), _u(rng, -0.5, 0.5))
    w = _u(rng, 0.5, 2.0)
    e = (_u(rng, -1, 1), _u(rng, -1, 1))
    # a narrow y2 interval of near-constant width keeps each cached sweep
    # small (about 10 % of the mesh) and its cost independent of the seed
    l0, l1 = _u(rng, -0.22, -0.18), _u(rng, -0.05, 0.05)
    u0, u1 = _u(rng, 0.18, 0.22), _u(rng, -0.05, 0.05)
    p1 = _u(rng, 0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
    p2 = _u(rng, 0.5, 2.0) * (1 if rng.uniform() < 0.5 else -1)
    q = (_u(rng, -1, 1), _u(rng, -1, 1))
    cx = _lin([(1, "y1"), (-c[0], None), (-c[1], "x1"), (-c[2], "x2")])
    kern = f"({cx})^2" if quadratic else f"abs({cx})"
    text = problem_text(
        2, 2, _lin([(p1, "y1"), (p2, "y2"), (q[0], "x1"), (q[1], "x2")]),
        f"{_num(w)}*{kern} + ({_lin([(e[0], 'x1'), (e[1], 'x2')])})",
        [_lin([(l0, None), (l1, "x2"), (-1, "y2")]),
         _lin([(1, "y2"), (-u0, None), (-u1, "x1")])],
        [(-1.0, 1.0), (-1.0, 1.0)], [(-2.0, 2.0), (-2.0, 2.0)])
    facts = {"c0": c[0], "c1": c[1], "c2": c[2], "w": w, "e1": e[0], "e2": e[1],
             "l0": l0, "l1": l1, "u0": u0, "u1": u1, "p1": p1, "p2": p2,
             "q1": q[0], "q2": q[1], "quadratic": float(quadratic)}
    return Program("separable2_" + ("quad" if quadratic else "abs"), text, 2, True,
                   (), facts)


def separable2_values(facts, x):
    """Closed-form (phi, phi_o, phi_p) of a `separable2` program at x."""
    x1, x2 = x
    y1 = facts["c0"] + facts["c1"] * x1 + facts["c2"] * x2
    lo = facts["l0"] + facts["l1"] * x2
    hi = facts["u0"] + facts["u1"] * x1
    base = facts["p1"] * y1 + facts["q1"] * x1 + facts["q2"] * x2
    ends = (facts["p2"] * lo, facts["p2"] * hi)
    phi = facts["e1"] * x1 + facts["e2"] * x2
    return phi, base + min(ends), base + max(ends)
