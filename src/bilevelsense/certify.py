"""Certify or refute candidate points against the necessary-optimality
multiplier systems.

Search strategy shared by all variants: the coupling multiplier r enters
bilinearly, so it is pinned to a geometric grid and everything else is a
linear program in the remaining multipliers and branch-hull weights.
Lower-level stationarity covectors (the Caratheodory tuples) enter through
exact V-representations, so those conditions hold exactly in every emitted
certificate; the reported residual is the max-norm violation of the
remaining inclusion rows.

Refutation semantics: `Refuted` means the exhaustive search over the
capped region (documented in the certificate notes: r-grid, multiplier
caps, vertex multipliers for the fully-convex variant, sampled solution
sets) proves a residual lower bound above tolerance.  The conditions being
certified are necessary ones, so refutation at a true local minimizer
points at hypothesis failure or at caps that are too tight; the attached
qualification verdicts say which.

Certificates re-verify through `recheck_certificate`, a standalone
evaluator built on polytope distances (no code shared with the LP search).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .errors import NotApplicableError
from .cq import cq_bundle
from .model import BilevelProgram, clarke_generators, eval_expr
from .sensitivity import (
    Caps,
    DEFAULT_TOL_ACTIVE,
    _System,
    _active_indices,
    _inclusion_system,
    _ones,
    _solve_inclusion,
    _subsample,
    _union,
    estimate_pessimistic,
    lambda_set,
    stationary_cover_hull,
)
from .subdiff import (
    FD_DIRS,
    FD_RADIUS,
    FD_STEP,
    Polytope,
    distance,
    fd_subgradient_samples,
    hull,
    minkowski_sum,
    negate,
    normal_cone_polyhedral,
    scale,
)
from .valuefn import (
    GridSpec,
    _mode_solutions,
    _xkey,
    lower_solutions,
    optimistic_solutions,
    pessimistic_solutions,
    value_function,
)

# fd-oracle uncertainty at interior points: curvature drift over the offset
# radius plus grid-snapping noise over the step
FD_SLACK = 2e-4

DEFAULT_TOL = 1e-6


@dataclass(frozen=True)
class Certificate:
    """A concrete multiplier assignment (or refutation bound) for one
    necessary-optimality variant at one candidate point."""

    variant: str
    mode: str
    xbar: Tuple[float, ...]
    status: str                 # Certified, Refuted, Inconclusive
    residual: float
    lower_bound: float          # best achievable residual over the search
    tol: float
    tol_eff: float
    ys: dict = field(default_factory=dict)
    multipliers: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)
    cq: Tuple = ()
    caps: Caps = Caps()
    seed: int = 0
    notes: Tuple[str, ...] = ()

    def to_json_dict(self):
        def clean(v):
            if isinstance(v, (np.floating, np.integer)):
                return float(v)
            if isinstance(v, (list, tuple, np.ndarray)):
                return [clean(c) for c in v]
            if isinstance(v, dict):
                return {str(k): clean(val) for k, val in v.items()}
            return v

        return {
            "variant": self.variant,
            "mode": self.mode,
            "x": clean(self.xbar),
            "ys": clean(self.ys),
            "multipliers": clean(self.multipliers),
            "residual": float(self.residual),
            "lower_bound": float(self.lower_bound),
            "status": self.status,
            "tol": float(self.tol),
            "tol_eff": float(self.tol_eff),
            "aux": clean(self.aux),
            "cq_verdicts": [v.to_dict() for v in self.cq],
            "caps": self.caps.to_dict(),
            "seed": self.seed,
            "notes": list(self.notes),
        }


# -- shared pieces -------------------------------------------------------------


def _clip0(value):
    """Emitted multipliers satisfy their sign constraints exactly; LP
    round-off below zero is clipped."""
    return max(0.0, float(value))


def _grid_slack(prog: BilevelProgram, xbar, y0, grid: GridSpec) -> float:
    """Finest-cell times a local gradient-magnitude proxy for the
    Lipschitz modulus of the sampled value function."""
    mags = [1.0]
    for e in (prog.F, prog.f, *prog.g):
        for g in clarke_generators(e, xbar, y0, DEFAULT_TOL_ACTIVE):
            mags.append(float(np.max(np.abs(g))))
    return grid.finest_cell(prog.box_y) * max(mags)


def caratheodory_reduce(points, weights, dim, tol=1e-12):
    """Thin a convex combination to at most dim + 1 support points.

    Standard affine-dependence elimination; the represented point is
    preserved exactly up to rounding.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    w = np.asarray(weights, dtype=float).copy()
    keep = [i for i in range(len(pts)) if w[i] > tol]
    while len(keep) > dim + 1:
        M = np.vstack([
            np.column_stack([pts[i] for i in keep]),
            np.ones(len(keep)),
        ])
        _, _, vh = np.linalg.svd(M)
        c = vh[-1]
        if np.max(np.abs(M @ c)) > 1e-9:
            break  # numerically independent: stop rather than corrupt
        if np.min(c) >= 0:
            c = -c
        steps = [w[keep[j]] / -c[j] for j in range(len(keep)) if c[j] < -tol]
        t = min(steps)
        for j, i in enumerate(keep):
            w[i] = max(0.0, w[i] + t * c[j])
        keep = [i for i in keep if w[i] > tol]
    total = sum(w[i] for i in keep)
    if total > 0:
        for i in keep:
            w[i] /= total
    return keep, w


def _fold_groups(gen_points, gen_meta, w, n_verts):
    """Collapse hull weights w over gen_points (n_verts vertices, then
    rays) into per-source-y points.

    Rays fold into their own y-group's vertex mass (the LP grouping rows
    guarantee positive vertex mass wherever ray mass lives).  Returns a
    list of (weight, point, meta-dict) with weights summing to one.
    """
    groups: dict = {}
    for q, (wq, meta) in enumerate(zip(w, gen_meta)):
        if wq <= 1e-14:
            continue
        if q >= n_verts and meta["y"] not in groups:
            continue  # homeless ray mass: excluded by the grouping rows
        g = groups.setdefault(meta["y"], {"w": 0.0, "pt": 0.0, "u": 0.0})
        if q < n_verts:
            g["w"] += wq
        g["pt"] = g["pt"] + wq * np.asarray(gen_points[q])
        g["u"] = g["u"] + wq * np.asarray(meta["u"])
    out = []
    for key, g in sorted(groups.items()):
        wsum = g["w"]
        out.append((wsum, g["pt"] / wsum, {"y": key, "u": tuple((g["u"] / wsum).tolist())}))
    return out


def _tuple_data(tagged, w, n, shift=0.0):
    """(weights, y, x*, u) lists of the aggregation tuples behind the LP
    weights w of a `_System.cover` block over the TaggedSet tagged (its
    vertices, then its rays): folded per source y, Caratheodory-reduced
    and padded to exactly n + 1 slots.  Each x* is its folded point minus
    shift."""
    folded = _fold_groups(tagged.generators,
                          tagged.vertex_meta + tagged.ray_meta, w,
                          len(tagged.vertex_meta))
    if not folded:
        return [], [], [], []
    points = [f[1] for f in folded]
    keep, red = caratheodory_reduce(points, [f[0] for f in folded], n)
    weights = [float(red[i]) for i in keep]
    ys = [folded[i][2]["y"] for i in keep]
    xs = [tuple((points[i] - shift).tolist()) for i in keep]
    us = [folded[i][2]["u"] for i in keep]
    _pad_slots(n, weights, ys, xs, us)
    return weights, ys, xs, us


def _pad_slots(n, weights, *lists):
    """Pad to n + 1 slots with zero weights, repeating each list's first
    entry."""
    while len(weights) < n + 1:
        weights.append(0.0)
        for lst in lists:
            lst.append(lst[0])


# -- value-function stationarity ------------------------------------------------


def certify_value_stationarity(
    prog: BilevelProgram,
    xbar,
    grid: GridSpec = GridSpec(points_per_dim=201, refine_depth=6),
    tol: float = DEFAULT_TOL,
    caps: Caps = Caps(),
    seed: int = 0,
    with_cq: bool = True,
) -> Certificate:
    """Distance of 0 to hull(fd clusters of the mode value function) plus
    the upper-level normal cone."""
    xbar_l = list(_xkey(xbar, prog.n))
    which = "phi_p" if prog.mode == "pessimistic" else "phi_o"
    h = value_function(prog, which, grid)
    # two sampling regimes: small radius / large step tracks curved smooth
    # pieces (grid noise divides out, central differences exact on
    # quadratics); large radius / small step separates the one-sided slopes
    # when xbar itself is a kink
    gens = []
    for radius, step in ((FD_RADIUS, FD_STEP), (FD_STEP, FD_RADIUS)):
        clusters = fd_subgradient_samples(
            h, xbar_l, n_dirs=FD_DIRS, radius=radius, step=step, seed=seed)
        gens.extend(list(c) for c in clusters.clusters)
    sol0 = _mode_solutions(prog, xbar_l, grid)
    slack = _grid_slack(prog, xbar_l, sol0.points[0].tolist(), grid)
    tol_eff = tol + slack + FD_SLACK
    bundle = cq_bundle(prog, xbar_l, "semicompact", grid, caps, seed=seed) if with_cq else ()
    if not gens:
        return Certificate(
            "value", prog.mode, tuple(xbar_l), "Inconclusive",
            math.inf, math.inf, tol, tol_eff,
            aux={"fd_clusters": []}, cq=bundle, caps=caps, seed=seed,
            notes=("no feasible fd samples near xbar",))
    ncone = normal_cone_polyhedral(prog.theta1, xbar_l)
    total = minkowski_sum(hull(gens, dim=prog.n), ncone)
    resid = distance(total, np.zeros(prog.n))
    status = "Certified" if resid <= tol_eff else "Refuted"
    return Certificate(
        "value", prog.mode, tuple(xbar_l), status, resid, resid, tol, tol_eff,
        aux={"fd_clusters": gens},
        cq=bundle, caps=caps, seed=seed,
        notes=(f"fd oracle: radius {FD_RADIUS}, step {FD_STEP}",))


# -- multiplier systems --------------------------------------------------------


def _search(candidates, r_grid, build):
    """Solve build(candidate, r) -> (system, decode) or None over the
    candidates and r; keep the strictly best residual, decoding only
    improvements.  Every LP bounds t below by 0 and a later LP replaces
    best only on t < best - 1e-15, so the walk stops at the first residual
    of 0: no later candidate is drawn and no later system is built."""
    best = None
    for cand in candidates:
        for r in r_grid:
            built = build(cand, r)
            if built is None:
                continue
            system, decode = built
            t_val, sol = system.lp.minimize_max_violation()
            if t_val is None:
                continue
            if best is None or t_val < best["residual"] - 1e-15:
                best = {"residual": t_val, "r": r, **decode(sol)}
                if t_val <= 0.0:
                    return best
    return best


def _clipped(values, size):
    """Length-size tuple with entry i = _clip0(values[i]), zero elsewhere."""
    out = np.zeros(size)
    for i, val in values.items():
        out[i] = _clip0(val)
    return tuple(out.tolist())


def _weight_sums(blocks, sol, size):
    """_clipped weight sums of the (i, block) pairs."""
    return _clipped({i: sum(sol[v] for v, _ in block) for i, block in blocks},
                    size)


def _generators_at(prog, xbar, y):
    """Clarke generators of F, of f and of each active g_i at (xbar, y)."""
    active = _active_indices(prog, xbar, y, DEFAULT_TOL_ACTIVE)
    return (clarke_generators(prog.F, xbar, y, DEFAULT_TOL_ACTIVE),
            clarke_generators(prog.f, xbar, y, DEFAULT_TOL_ACTIVE),
            {i: clarke_generators(prog.g[i], xbar, y, DEFAULT_TOL_ACTIVE)
             for i in active})


def _cover(prog, xbar, grid, caps):
    """The stationarity-covector hull over sampled S(xbar), the TaggedSet
    of `stationary_cover_hull`, or None when the hull is empty."""
    cover = stationary_cover_hull(
        prog, xbar, lower_solutions(prog, xbar, grid), DEFAULT_TOL_ACTIVE, caps)
    return None if cover.polytope.is_empty else cover


# -- optimistic variants ---------------------------------------------------------


def _search_variant_ii(prog, xbar, samples, grid, caps):
    """Fully-convex-regime system.

    Multiplier admissibility -- (r, beta) in the upper-objective
    stationarity slice, gamma in the lower-level stationarity set -- is
    enforced exactly (hard rows); the reported residual is the violation of
    the x-stationarity inclusion alone.  gamma ranges over the vertex
    multipliers; when the vertex set is empty, gamma becomes a free
    variable and the resulting bound is a relaxation bound.
    """
    n, m, p = prog.n, prog.m, prog.p
    active_theta = _active_indices(prog, xbar, [], DEFAULT_TOL_ACTIVE,
                                   upper=True)

    def candidates():
        for y in samples:
            lam_ms = lambda_set(prog, xbar, y, DEFAULT_TOL_ACTIVE)
            GF, Gf, Gg = _generators_at(prog, xbar, y)
            for gamma in list(lam_ms.vertices) or [None]:
                yield y, GF, Gf, Gg, gamma

    def build(cand, r):
        y, GF, Gf, Gg, gamma = cand
        active = list(Gg)
        s = _System(caps.u_max)
        aFx, aFy, d1, d2, bfy, cfy = [s.hull(G, value=1.0)
                                      for G in (GF, GF, Gf, Gf, Gf, Gf)]
        beta = {i: s.lp.var(ub=caps.u_max) for i in active}
        zx = {i: s.hull(Gg[i]) for i in active}
        zy = {i: s.hull(Gg[i]) for i in active}
        for i in active:
            s.total(zx[i], var=beta[i])
            s.total(zy[i], var=beta[i])
        cgx = {i: s.hull(Gg[i]) for i in active}
        cgy = {i: s.hull(Gg[i]) for i in active}
        if gamma is None:
            gvar = {i: s.lp.var(ub=caps.u_max) for i in active}
        for i in active:
            for b in (cgx[i], cgy[i]):
                if gamma is None:
                    s.total(b, var=gvar[i])
                else:
                    s.total(b, value=float(gamma[i]))
        theta = s.theta(prog, xbar, active_theta)
        # soft: x-stationarity; hard: the two y-stationarity systems
        s.rows(False, 0, n, [(1.0, aFx), (r, d1), (-r, d2),
                             *_ones(zx.values()),
                             *[(-r, b) for b in cgx.values()],
                             *_ones(b for _, b in theta)])
        s.rows(True, n, m, [(1.0, aFy), (r, bfy), *_ones(zy.values())])
        s.rows(True, n, m, [(1.0, cfy), *_ones(cgy.values())])

        def decode(sol):
            if gamma is None:
                gamma_out = _clipped({i: sol[gvar[i]] for i in active}, p)
            else:
                gamma_out = tuple(gamma.tolist())
            return {
                "y": tuple(y),
                "beta": _clipped({i: sol[beta[i]] for i in active}, p),
                "gamma": gamma_out,
                "alpha": _weight_sums(theta, sol, prog.k),
                "gamma_free": gamma is None,
            }
        return s, decode

    return _search(candidates(), caps.r_grid(), build)


def _search_variant_i(prog, xbar, samples, grid, caps):
    """Joint-subdifferential system with the Caratheodory aggregation
    entering through the exact covector hull."""
    n, m = prog.n, prog.m
    cover = _cover(prog, xbar, grid, caps)
    if cover is None:
        return None
    active_theta = _active_indices(prog, xbar, [], DEFAULT_TOL_ACTIVE,
                                   upper=True)

    def candidates():
        for y in samples:
            yield y, _generators_at(prog, xbar, y)

    def build(cand, r):
        y, gens = cand
        s = _System(caps.u_max)
        main, zg = s.stationarity(*gens, r)
        cov = s.cover(cover)
        theta = s.theta(prog, xbar, active_theta)
        s.rows(False, 0, n, main + _ones(b for _, b in theta) + [(-r, cov)])
        s.rows(True, n, m, main)

        def decode(sol):
            v_list, y_list, x_list, u_list = _tuple_data(
                cover, np.array([sol[v] for v, _ in cov]), n)
            return {
                "y": tuple(y),
                "u": _weight_sums(zg.items(), sol, prog.p),
                "alpha": _weight_sums(theta, sol, prog.k),
                "v": v_list,
                "y_s": y_list,
                "xstar_s": x_list,
                "u_s": u_list,
            }
        return s, decode

    return _search(candidates(), caps.r_grid(), build)


def _search_designated(prog, xbar, ybar, caps, theta_sign):
    """Designated-point system with the shared covector x* free in the LP.

    (r x*, 0) must meet dF + r df + sum_i beta_i dg_i + theta_sign *
    sum_j alpha_j dtheta_j (soft x rows, hard y rows), and (x*, 0) lies in
    df + sum_i gamma_i dg_i (hard).  The optimistic variant iii uses
    theta_sign = +1.  The pessimistic one runs on the negated-upper program
    with theta_sign = -1: its identical slots collapse into this single
    aggregated block by convexity.
    """
    n, m = prog.n, prog.m
    y = list(ybar)
    active_theta = _active_indices(prog, xbar, [], DEFAULT_TOL_ACTIVE,
                                   upper=True)
    GF, Gf, Gg = _generators_at(prog, xbar, y)

    def build(_, r):
        s = _System(caps.u_max)
        xstar = [s.lp.var(lb=None) for _ in range(n)]
        main, zg = s.stationarity(GF, Gf, Gg, r)
        cf = s.hull(Gf, value=1.0)
        cw = {i: s.hull(G, cap=True) for i, G in Gg.items()}
        theta = s.theta(prog, xbar, active_theta)
        covector = [(1.0, cf), *_ones(cw.values())]
        s.rows(False, 0, n, main + [(theta_sign, b) for _, b in theta],
               extra=[(-r, xstar)])
        s.rows(True, n, m, main)
        s.rows(True, 0, n, covector, extra=[(-1.0, xstar)])
        s.rows(True, n, m, covector)

        def decode(sol):
            return {
                "y": tuple(y),
                "beta": _weight_sums(zg.items(), sol, prog.p),
                "gamma": _weight_sums(cw.items(), sol, prog.p),
                "alpha": _weight_sums(theta, sol, prog.k),
                "xstar_phi": tuple(sol[v] for v in xstar),
            }
        return s, decode

    return _search([None], caps.r_grid(), build)


# -- pessimistic variants --------------------------------------------------------


def _search_pessimistic_i(negp, xbar, t_samples, grid, caps):
    """Aggregated worst-case system: per-t inclusion sets enter through
    exact V-representations; eta, the shared tuple weights and the
    upper-level multipliers stay linear once r is pinned."""
    n = negp.n
    cover = _cover(negp, xbar, grid, caps)
    if cover is None:
        return None
    active_theta = _active_indices(negp, xbar, [], DEFAULT_TOL_ACTIVE,
                                   upper=True)

    # each sampled t's inclusion sets over the whole r-grid, one solve per t
    r_grid = caps.r_grid()
    t_sets = {tuple(ypt): dict(zip(r_grid, _solve_inclusion(
        _inclusion_system(negp, xbar, ypt, DEFAULT_TOL_ACTIVE, include_F=True),
        r_grid))) for ypt in t_samples}

    def build(_, r):
        tagged = _union(n, [sets[r] for _, sets in sorted(t_sets.items())])
        if tagged.polytope.is_empty:
            return None
        s = _System(caps.u_max)
        tagged_block = s.cover(tagged)
        cov = s.cover(cover)
        theta = s.theta(negp, xbar, active_theta)
        s.rows(False, 0, n, [(1.0, tagged_block), (-r, cov),
                             *[(-1.0, b) for _, b in theta]])

        def decode(sol):
            wc = np.array([sol[v] for v, _ in cov])
            v_list, y_list, x_list, u_list = _tuple_data(cover, wc, n)
            xi = np.zeros(n)
            for w, pt in zip(wc, cover.generators):
                xi += w * pt
            eta, y_t, xstar_t, u_t = _tuple_data(
                tagged, np.array([sol[v] for v, _ in tagged_block]), n,
                shift=r * xi)
            return {
                "eta": eta,
                "y_t": y_t,
                "xstar_t": xstar_t,
                "u_t": u_t,
                "v": v_list,
                "y_s": y_list,
                "xstar_s": x_list,
                "u_s": u_list,
                "alpha": _weight_sums(theta, sol, negp.k),
            }
        return s, decode

    return _search([None], r_grid, build)


def _search_pessimistic_ii(negp, xbar, t_samples, grid, caps):
    """Fully-convex worst-case system.

    For every sampled y in S(xbar) (the universal quantifier) the per-slot
    blocks are scaled by eta_t; the per-slot stationarity rows are hard, so
    small weights cannot hide violations.  Reports the max residual over
    the sampled y.
    """
    n, m = negp.n, negp.m
    sol_all = lower_solutions(negp, xbar, grid)
    y_samples = _subsample(sol_all.points, min(4, caps.max_solution_samples))
    active_theta = _active_indices(negp, xbar, [], DEFAULT_TOL_ACTIVE,
                                   upper=True)
    slot_gens = {}  # generators per sampled t, computed at first use

    per_y_results = []
    for yref_l in y_samples:
        lam_ms = lambda_set(negp, xbar, yref_l, DEFAULT_TOL_ACTIVE)
        if lam_ms.is_empty:
            per_y_results.append(None)
            continue
        Gf_ref = clarke_generators(negp.f, xbar, yref_l, DEFAULT_TOL_ACTIVE)
        Gg_ref = {i: clarke_generators(negp.g[i], xbar, yref_l, DEFAULT_TOL_ACTIVE)
                  for i in range(negp.p)}
        active_ref = _active_indices(negp, xbar, yref_l, DEFAULT_TOL_ACTIVE)

        def build(gamma, r):
            s = _System(caps.u_max)
            slots, soft = [], []
            for ypt in t_samples:
                key = tuple(ypt)
                if key not in slot_gens:
                    slot_gens[key] = _generators_at(negp, xbar, ypt)
                GF, Gf, Gg = slot_gens[key]
                eta_t = s.lp.var()
                GFx, GFy, d1, dref, bfy = [s.hull(G, var=eta_t)
                                           for G in (GF, GF, Gf, Gf_ref, Gf)]
                zg = {i: s.hull(G, var=eta_t, cap=True) for i, G in Gg.items()}
                cg = [s.hull(Gg_ref[i], var=eta_t, k=float(gamma[i]))
                      for i in active_ref if gamma[i] > 0]
                # per-slot worst-case stationarity rows, hard
                s.rows(True, n, m, [(1.0, GFy), (r, bfy), *_ones(zg.values())])
                slots.append((key, eta_t, zg))
                soft += [(1.0, GFx), (r, d1), (-r, dref), *_ones(zg.values()),
                         *[(-r, b) for b in cg]]
            s.lp.eq({eta_t: 1.0 for _, eta_t, _ in slots}, 1.0)
            theta = s.theta(negp, xbar, active_theta)
            s.rows(False, 0, n, soft + [(-1.0, b) for _, b in theta],
                   assign_first=False)

            def decode(sol):
                beta_t, y_t, eta = [], [], []
                for ypt, eta_t, zg in slots:
                    ev = sol[eta_t]
                    if ev <= 1e-12:
                        continue
                    beta_t.append(_clipped(
                        {i: sum(sol[v] for v, _ in b) / ev
                         for i, b in zg.items()}, negp.p))
                    y_t.append(ypt)
                    eta.append(ev)
                _pad_slots(n, eta, y_t, beta_t)
                return {
                    "y": tuple(yref_l),
                    "gamma": tuple(gamma.tolist()),
                    "eta": eta,
                    "y_t": y_t,
                    "beta_t": beta_t,
                    "alpha": _weight_sums(theta, sol, negp.k),
                }
            return s, decode

        per_y_results.append(_search(lam_ms.vertices, caps.r_grid(), build))
    if any(r is None for r in per_y_results) or not per_y_results:
        return None
    # the conditions must hold for every sampled y: report the worst
    return max(per_y_results, key=lambda r: r["residual"])


# -- one driver for both modes ----------------------------------------------------


_CQ_VARIANT = {"i": "semicompact", "ii": "convex", "iii": "semicontinuous"}

# What the two modes emit differently, as data: the leading notes, the keys
# of `ys`, and the multiplier fields in emitted order.  The pessimistic
# search reports beta per slot as beta_t, emitted as "beta"; only that mode
# emits u_t.  A field the search did not fill is ().
_MODES = {
    "optimistic": (
        ("{region}", "{samples} sampled best solutions"),
        ("y", "y_s"),
        ("alpha", "r", "beta", "gamma", "u", "u_s", "v", "eta")),
    "pessimistic": (
        ("conditions evaluated on the negated-upper program", "{region}",
         "r shared across aggregation slots"),
        ("y_t", "y_s", "y"),
        ("alpha", "r", "beta_t", "gamma", "u", "u_s", "u_t", "v", "eta")),
}

# the searches of variants i and ii, each run on the mode's working program
_SEARCHES = {
    ("optimistic", "i"): _search_variant_i,
    ("optimistic", "ii"): _search_variant_ii,
    ("pessimistic", "i"): _search_pessimistic_i,
    ("pessimistic", "ii"): _search_pessimistic_ii,
}


def _certify(prog, mode, xbar, variant, grid, caps, tol, seed, ybar, with_cq):
    """Search the variant's multiplier system at xbar in the given mode.

    The pessimistic conditions are the optimistic machinery run on the
    negated-upper program: S_o of that program is the worst-case solution
    set.  The grid slack and the CQ bundle are taken on prog itself.
    """
    xbar_l = list(_xkey(xbar, prog.n))
    pessimistic = mode == "pessimistic"
    work = prog.negated_upper() if pessimistic else prog
    sol = optimistic_solutions(work, xbar_l, grid)
    samples = _subsample(sol.points, caps.max_solution_samples)
    tol_eff = tol + _grid_slack(prog, xbar_l, samples[0], grid)
    lead, ys_keys, mult_keys = _MODES[mode]
    region = (f"searched region: r-grid {caps.r_grid()}, "
              f"multipliers <= {caps.u_max}")
    notes = [s.format(region=region, samples=len(samples)) for s in lead]
    bundle = cq_bundle(prog, xbar_l, _CQ_VARIANT[variant], grid, caps,
                       ybar=ybar, seed=seed) if with_cq else ()

    if variant == "iii":
        ypt = list(_xkey(ybar, prog.m)) if ybar is not None else samples[0]
        best = _search_designated(work, xbar_l, ypt, caps,
                                  -1.0 if pessimistic else 1.0)
        if pessimistic and best is not None:
            n = work.n
            best.update(y_t=[best["y"]] * (n + 1), eta=[1.0] + [0.0] * n,
                        beta_t=[best["beta"]] * (n + 1))
        notes.append(f"designated lower-level point {tuple(ypt)}")
    elif (mode, variant) in _SEARCHES:
        best = _SEARCHES[mode, variant](work, xbar_l, samples, grid, caps)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if (mode, variant) == ("optimistic", "i") and best is None:
        notes.append("no valid lower-level covector tuples on the grid")
    if (mode, variant) == ("optimistic", "ii") and best is not None:
        notes.append("lower-level multiplier set had no vertices: "
                     "gamma searched freely (relaxation bound)"
                     if best["gamma_free"] else
                     "gamma restricted to vertex multipliers of the "
                     "lower-level stationarity set")

    if best is None:
        return Certificate(
            variant, mode, tuple(xbar_l), "Inconclusive",
            math.inf, math.inf, tol, tol_eff, cq=bundle, caps=caps,
            seed=seed, notes=tuple(notes))
    resid = best["residual"]
    return Certificate(
        variant, mode, tuple(xbar_l),
        "Certified" if resid <= tol_eff else "Refuted", resid, resid,
        tol, tol_eff,
        ys={k: best[k] for k in ys_keys if k in best},
        multipliers={("beta" if k == "beta_t" else k): best.get(k, ())
                     for k in mult_keys},
        aux={k: best[k] for k in ("xstar_s", "xstar_t", "xstar_phi")
             if k in best},
        cq=bundle, caps=caps, seed=seed, notes=tuple(notes))


def certify_optimistic(
    prog: BilevelProgram,
    xbar,
    variant: str = "ii",
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    ybar=None,
    with_cq: bool = True,
) -> Certificate:
    """Search the chosen variant's multiplier system at xbar."""
    return _certify(prog, "optimistic", xbar, variant, grid, caps, tol,
                    seed, ybar, with_cq)


def certify_pessimistic(
    prog: BilevelProgram,
    xbar,
    variant: str = "i",
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    ybar=None,
    with_cq: bool = True,
) -> Certificate:
    """Worst-case necessary conditions: the optimistic machinery runs on the
    negated-upper program and the tuple aggregates are matched against the
    upper-level normal-cone term."""
    return _certify(prog, "pessimistic", xbar, variant, grid, caps, tol,
                    seed, ybar, with_cq)


# -- independent re-check --------------------------------------------------------


def _weighted(acc, exprs, weights, hull_of):
    """acc plus w_i * hull_of(e_i) for every w_i > 0, in index order.  acc
    None stands for the empty sum, and stays None if no weight is positive.
    Each vertex is a float sum taken in summand order, so the order is part
    of the result."""
    for e, w in zip(exprs, weights):
        if w > 0:
            term = scale(hull_of(e), w)
            acc = term if acc is None else minkowski_sum(acc, term)
    return acc


def recheck_certificate(prog: BilevelProgram, cert: Certificate) -> float:
    """Standalone residual evaluator.

    Rebuilds every condition of the certificate's variant from the stored
    points and multipliers using polytope algebra and the least-distance
    projector only (no linear programming shared with the search), and
    returns the max-norm residual.  Sign, weight-sum and complementarity
    violations count as +inf: they are contract breaches, not numerical
    slack.  So does a certificate that stores no lower-level point (every
    Inconclusive one): it has no condition to rebuild.
    """
    n, m = prog.n, prog.m
    xbar = list(cert.xbar)
    mult = cert.multipliers
    resids = []

    def signs_ok(*vecs):
        return all(v >= 0 for vec in vecs for v in vec)

    if cert.variant == "value":
        gens = cert.aux.get("fd_clusters", [])
        if not gens:
            return math.inf
        ncone = normal_cone_polyhedral(prog.theta1, xbar)
        total = minkowski_sum(hull([list(g) for g in gens], dim=n), ncone)
        return distance(total, np.zeros(n))

    if not cert.ys:
        return math.inf
    # pessimistic conditions live on the negated-upper program
    pessimistic = cert.mode == "pessimistic"
    work = prog.negated_upper() if pessimistic else prog
    alpha = list(mult.get("alpha") or [])
    if not signs_ok(alpha):
        return math.inf
    r = float(mult.get("r", 0.0))
    if r < 0:
        return math.inf
    if pessimistic:
        eta = list(mult.get("eta") or [])
        if not signs_ok(eta) or (eta and abs(sum(eta) - 1.0) > 1e-9):
            return math.inf
        y_t = [list(yt) for yt in cert.ys["y_t"]]

    # hulls of the Clarke generators at (xbar, y): joint in R^(n + m), or
    # the x block or the y block alone
    def joint(e, y):
        return hull(clarke_generators(e, xbar, y, DEFAULT_TOL_ACTIVE), dim=n + m)

    def block(lo, hi):
        def hull_of(e, y):
            pts = [g[lo:hi] for g in clarke_generators(e, xbar, y, DEFAULT_TOL_ACTIVE)]
            return hull(pts, dim=len(pts[0]))
        return hull_of

    part_x, part_y = block(0, n), block(n, n + m)

    def lower(y, u, hull_of):
        """df + sum_i u_i dg_i at (xbar, y)."""
        return _weighted(hull_of(work.f, y), work.g, u,
                         lambda e: hull_of(e, y))

    def upper(y, u, hull_of):
        """dF + r df + sum_i u_i dg_i at (xbar, y)."""
        return _weighted(
            minkowski_sum(hull_of(work.F, y), scale(hull_of(work.f, y), r)),
            work.g, u, lambda e: hull_of(e, y))

    def theta(dim):
        """sum_j alpha_j d theta1_j, embedded in R^dim."""
        return _weighted(Polytope.zero(dim), work.theta1, alpha, lambda t: hull(
            [np.concatenate([g[:n], np.zeros(dim - n)])
             for g in clarke_generators(t, xbar, [], DEFAULT_TOL_ACTIVE)], dim=dim))

    def lift(v):
        return np.concatenate([v, np.zeros(m)])

    if cert.variant == "i":
        v_w = list(mult["v"])
        u_s = [list(us) for us in mult["u_s"]]
        y_s = [list(ys) for ys in cert.ys["y_s"]]
        x_s = [np.array(xs) for xs in cert.aux["xstar_s"]]

        def covector_slots():
            # each weighted slot's x*_s lies in df + sum_i u_si dg_i at y_s
            for w, ys_pt, xs, us in zip(v_w, y_s, x_s, u_s):
                if w > 0:
                    resids.append(distance(lower(ys_pt, us, joint), lift(xs)))

        if not pessimistic:
            u = list(mult["u"])
            y = list(cert.ys["y"])
            if not signs_ok(u, v_w, *u_s) or abs(sum(v_w) - 1.0) > 1e-9:
                return math.inf
            agg = r * sum(w * xs for w, xs in zip(v_w, x_s))
            resids.append(distance(
                minkowski_sum(upper(y, u, joint), theta(n + m)), lift(agg)))
            covector_slots()
            return max(resids)
        u_t = [list(ut) for ut in mult["u_t"]]
        x_t = [np.array(xt) for xt in cert.aux["xstar_t"]]
        if not signs_ok(v_w, *u_s, *u_t) or abs(sum(v_w) - 1.0) > 1e-9:
            return math.inf
        agg_s = sum(w * xs for w, xs in zip(v_w, x_s))
        covector_slots()
        for w, yt_pt, xt, ut in zip(eta, y_t, x_t, u_t):
            if w > 0:
                resids.append(distance(upper(yt_pt, ut, joint),
                                       lift(xt + r * agg_s)))
        agg_t = sum(w * xt for w, xt in zip(eta, x_t))
        resids.append(distance(theta(n), agg_t))
        return max(resids)

    if cert.variant not in ("ii", "iii"):
        raise ValueError(cert.variant)
    # variants ii and iii: one lower-level point, gamma, and beta per slot
    # (the optimistic certificate has one slot)
    y = list(cert.ys["y"])
    gamma = list(mult["gamma"])
    beta_t = ([list(bt) for bt in mult["beta"]] if pessimistic
              else [list(mult["beta"])])
    if not signs_ok(gamma, *beta_t):
        return math.inf

    if cert.variant == "iii":
        xphi = np.array(cert.aux["xstar_phi"])
        covector = distance(lower(y, gamma, joint), lift(xphi))
        if not pessimistic:
            return max(distance(minkowski_sum(upper(y, beta_t[0], joint),
                                              theta(n + m)), lift(r * xphi)),
                       covector)
        agg = _weighted(None, beta_t, eta, lambda bt: upper(y, bt, joint))
        if agg is None:
            return math.inf
        # x*_t + r x*_phi lands in the slot block; aggregated over eta the
        # slot covectors must meet the upper-level multiplier term
        total = minkowski_sum(negate(theta(n + m)), agg)
        return max(covector, distance(total, lift(r * xphi)))

    # variant ii: x rows dxF + r (dxf - dxf(y)) + sum_i beta_i dxg_i
    # - r sum_i gamma_i dxg_i(y) at each slot's point, against y's gamma
    stationary = distance(lower(y, gamma, part_y), np.zeros(m))
    f_ref = part_x(work.f, y)
    g_ref = _weighted(None, work.g, gamma, lambda e: part_x(e, y))

    def x_rows(yt_pt, bt):
        rows = _weighted(
            minkowski_sum(part_x(work.F, yt_pt), scale(
                minkowski_sum(part_x(work.f, yt_pt), negate(f_ref)), r)),
            work.g, bt, lambda e: part_x(e, yt_pt))
        if g_ref is not None and r > 0:
            rows = minkowski_sum(rows, scale(negate(g_ref), r))
        return rows

    if not pessimistic:
        beta = beta_t[0]
        resids.append(distance(minkowski_sum(x_rows(y, beta), theta(n)),
                               np.zeros(n)))
        resids.append(distance(upper(y, beta, part_y), np.zeros(m)))
        resids.append(stationary)
        # complementarity: multipliers vanish off the active set
        for i, gi in enumerate(work.g):
            val = float(eval_expr(gi, xbar, y))
            if val < -DEFAULT_TOL_ACTIVE * (1 + abs(val)) and (
                    beta[i] > 0 or gamma[i] > 0):
                return math.inf
        return max(resids)
    resids.append(stationary)

    def slot(t):
        # aggregated slots: sum_t eta_t T_t must meet the upper-level term
        yt_pt, bt = t
        resids.append(distance(upper(yt_pt, bt, part_y), np.zeros(m)))
        return x_rows(yt_pt, bt)

    agg = _weighted(None, zip(y_t, beta_t), eta, slot)
    if agg is None:
        return math.inf
    resids.append(distance(minkowski_sum(negate(theta(n)), agg), np.zeros(n)))
    return max(resids)


# -- minimax reduction -----------------------------------------------------------


def minimax_reduction_check(
    prog: BilevelProgram,
    xbar,
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    tol: float = 1e-4,
) -> dict:
    """Constant lower objective collapses the solution map to the feasible
    map: the worst-case estimate must then cover the plain max-function
    hull over active maximizers.  Reports the one-sided containment gap."""
    from .model import affine_coefficients

    coeffs = affine_coefficients(prog.f, prog.n, prog.m)
    if coeffs is None or coeffs[1].any() or coeffs[2].any():
        raise NotApplicableError("lower objective is not constant")
    xbar_l = list(_xkey(xbar, prog.n))
    maximizers = pessimistic_solutions(prog, xbar_l, grid)
    direct_gens = []
    for ypt in _subsample(maximizers.points, caps.max_solution_samples):
        for g in clarke_generators(prog.F, xbar_l, ypt, DEFAULT_TOL_ACTIVE):
            direct_gens.append(g[: prog.n])
    direct = hull(direct_gens, dim=prog.n)
    est = estimate_pessimistic(prog, xbar_l, "semicompact", grid, caps)
    slack = tol + 2.0 * grid.finest_cell(prog.box_y) * (
        1.0 + max(float(np.max(np.abs(g))) for g in direct_gens))
    gap = max(distance(est.polytope, v) for v in direct.vertices)
    return {
        "x": xbar_l,
        "direct_hull_vertices": direct.vertices.tolist(),
        "estimate_vertices": est.polytope.vertices.tolist(),
        "estimate_rays": est.polytope.rays.tolist(),
        "one_sided_gap": gap,
        "tolerance": slack,
        "contained": bool(gap <= slack),
        "n_maximizer_samples": len(maximizers.points),
    }
