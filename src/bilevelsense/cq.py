"""Constraint-qualification and regularity verdicts.

Every check returns a CQVerdict with one of four statuses: Guaranteed
(syntactic sufficient condition), Holds (numerical evidence at the stated
tolerance), Fails (with an independently re-verifiable witness), Unknown
(the check cannot decide).  Calmness in particular is never refuted
numerically: no finite sample can, so it reports Guaranteed or Unknown
only.

The pointbased checks exploit positive homogeneity of the multiplier
region: the slice with multipliers summing to one is searched, so the
Holds threshold is scale-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._memo import memo
from .errors import InfeasibleError, InfeasiblePointError, NotApplicableError
from .model import (
    BilevelProgram,
    affine_coefficients,
    clarke_generators,
    is_smooth,
    used_indices,
)
from .sensitivity import (
    Caps,
    DEFAULT_TOL_ACTIVE,
    _System,
    _active_indices,
    _midpoint_convexity_ok,
)
from .subdiff import (
    FD_DIRS,
    FD_RADIUS,
    FD_STEP,
    Polytope,
    distance,
    fd_subgradient_samples,
    hull,
    project,
    scale as poly_scale,
)
from .valuefn import (
    GridSpec,
    _ahead,
    _xkey,
    optimistic_solutions,
    pessimistic_solutions,
    value_function,
)

# Bound on each of the two CQ verdict memos, in entries (distinct checks).
_CQ_ENTRIES = 256

# Verdict threshold of the pointbased checks and the generalized MFCQ,
# recorded in each verdict's `tol`.
VERDICT_TOL = 1e-8


@dataclass(frozen=True)
class CQVerdict:
    kind: str      # PolyhedralCalmness, CQ_K, CQ_S, GenMFCQ,
                   # InnerSemicompact, InnerSemicontinuous, CodCQConvex
    status: str    # Guaranteed, Holds, Fails, Unknown
    tol: float = 0.0
    witness: Optional[dict] = None
    detail: str = ""
    seed: int = 0

    def to_dict(self):
        out = {
            "kind": self.kind,
            "status": self.status,
            "tol": self.tol,
            "detail": self.detail,
            "seed": self.seed,
        }
        if self.witness is not None:
            out["witness"] = {
                k: (list(v) if isinstance(v, (tuple, list, np.ndarray)) else v)
                for k, v in self.witness.items()
            }
        return out


# -- calmness ---------------------------------------------------------------


def check_polyhedral_calmness(prog: BilevelProgram, which: str) -> CQVerdict:
    """Guaranteed when the mapping's data are affine (piecewise-polyhedral
    graph, hence calm everywhere); otherwise Unknown, never Fails."""
    # per mapping: its data, the y-dimension they are read in, the wording
    table = {
        "K": (prog.g, prog.m, "lower-level constraints affine"),
        "S": ((*prog.g, prog.f), prog.m,
              "lower-level constraints and objective affine"),
        "X": (prog.theta1, 0, "upper-level constraints affine"),
    }
    if which not in table:
        raise ValueError(f"unknown mapping {which!r}")
    exprs, m, what = table[which]
    if all(affine_coefficients(e, prog.n, m) is not None for e in exprs):
        return CQVerdict(f"PolyhedralCalmness[{which}]", "Guaranteed",
                         detail=what)
    return CQVerdict(f"PolyhedralCalmness[{which}]", "Unknown",
                     detail=f"not syntactically polyhedral ({what} fails)")


def check_polyhedral_calmness_all(prog: BilevelProgram):
    return tuple(check_polyhedral_calmness(prog, w) for w in ("K", "S", "X"))


# -- pointbased coderivative-style checks -------------------------------------


def check_pointbased_cq(
    prog: BilevelProgram,
    which: str,
    xbar,
    y,
    caps: Caps = Caps(),
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> CQVerdict:
    """Pointbased qualification for the feasible map (K) or solution map (S).

    Maximizes |x*_c| over the normalized multiplier slice of the
    finitely-generated relaxation: branch generators for f and the active
    g_i, fd-cluster generators for the negated lower value function in the
    S variant.  Holds when the maximum stays below VERDICT_TOL; Fails ships
    the maximizing witness; ambiguous fd clustering degrades to Unknown.

    The verdict is memoised on every input (`_pointbased_cq`); each call
    gets its own copy.
    """
    if which not in ("K", "S"):
        raise ValueError("which must be 'K' or 'S'")
    return _pointbased_cq(prog, which, _xkey(xbar, prog.n), _xkey(y, prog.m),
                          caps, grid, seed)


def _active_generators(prog, active, xbar, y):
    """(owners, generators): every Clarke generator of each active g_i,
    constraint by constraint, with the index i it belongs to."""
    owners, gens = [], []
    for i in active:
        for gvec in clarke_generators(prog.g[i], xbar, y, DEFAULT_TOL_ACTIVE):
            owners.append(i)
            gens.append(gvec)
    return owners, gens


@memo(_CQ_ENTRIES, copy_out=True)
def _pointbased_cq(prog, which, xbar, y, caps, grid, seed) -> CQVerdict:
    """check_pointbased_cq's verdict, in an LRU of _CQ_ENTRIES entries keyed
    on the whole program (mode included) and every other input."""
    xbar_l, y_l = list(xbar), list(y)
    n, m = prog.n, prog.m
    active = _active_indices(prog, xbar_l, y_l, DEFAULT_TOL_ACTIVE)

    phi_gens = []
    if which == "S":
        h = value_function(prog, "phi", grid)
        clusters = fd_subgradient_samples(
            h, xbar_l, n_dirs=FD_DIRS, radius=FD_RADIUS, step=FD_STEP,
            seed=seed)
        if clusters.spreads and max(clusters.spreads) > 10.0 * VERDICT_TOL + 1e-6:
            return CQVerdict(
                f"CQ_{which}", "Unknown", VERDICT_TOL,
                detail="fd clustering of the lower value function is ambiguous",
                seed=seed)
        phi_gens = [np.concatenate([-np.array(c), np.zeros(m)])
                    for c in clusters.clusters]
    g_owner, g_gens = _active_generators(prog, active, xbar_l, y_l)
    f_gens = []
    if which == "S":
        f_gens = clarke_generators(prog.f, xbar_l, y_l, DEFAULT_TOL_ACTIVE)
    elif not g_gens:
        return CQVerdict(f"CQ_{which}", "Holds", VERDICT_TOL,
                         detail="no active multipliers admissible", seed=seed)

    s = _System(caps.u_max)
    g_block = s.hull(g_gens)
    f_block, phi_block, r = [], [], None
    if which == "S":
        r = s.lp.var()
        f_block = s.hull(f_gens, var=r)
        phi_block = s.hull(phi_gens, var=r)
    # normalization: total multiplier mass one (scale invariance)
    s.total(g_block, value=1.0, var=r, k=-1.0)
    s.rows(True, n, m, [(1.0, g_block + f_block), (1.0, phi_block)])
    best_val = 0.0
    best = None
    # max |x*_coord| over the normalized slice, one LP objective per sign
    for coord in range(n):
        for sign in (1.0, -1.0):
            obj = {v: sign * g[coord] for v, g in g_block + f_block}
            obj.update((v, 0.0 + sign * g[coord]) for v, g in phi_block)
            val, sol = s.lp.maximize(obj)
            if val is None:
                continue  # empty normalized slice: only the zero multiplier
            if val > best_val:
                best_val = val
                u = np.zeros(prog.p)
                gdir: dict = {}
                xstar = np.zeros(n)
                for (v, g), i in zip(g_block, g_owner):
                    u[i] += sol[v]
                    gdir[i] = gdir.get(i, np.zeros(n + m)) + sol[v] * g
                    xstar += sol[v] * g[:n]
                fvec = np.zeros(n + m)
                phivec = np.zeros(n)
                rv = 0.0
                if which == "S":
                    rv = float(sol[r])
                    for v, g in f_block:
                        fvec += sol[v] * g
                    for v, g in phi_block:
                        phivec += sol[v] * g[:n]
                    xstar += fvec[:n] + phivec
                best = {
                    "xstar": tuple(xstar.tolist()),
                    "u": tuple(u.tolist()),
                    "r": rv,
                    "g_dirs": {i: tuple(v.tolist()) for i, v in gdir.items()},
                    "f_vec": tuple(fvec.tolist()),
                    "phi_vec": tuple(phivec.tolist()),
                }
    if best_val <= VERDICT_TOL:
        return CQVerdict(f"CQ_{which}", "Holds", VERDICT_TOL,
                         detail=f"max |x*| over normalized slice = {best_val:.3e}",
                         seed=seed)
    return CQVerdict(f"CQ_{which}", "Fails", VERDICT_TOL, witness=best,
                     detail=f"x* with |x*|_inf = {best_val:.3e} admissible",
                     seed=seed)


def _witness_sum(prog: BilevelProgram, g_dirs, weights, xbar_l, y_l):
    """The sum of a witness's per-constraint directions g_dirs, or None
    when a direction of positive weight lies farther than 1e-8 from
    weight times the hull of its constraint's generators at (xbar_l, y_l)."""
    total = np.zeros(prog.n + prog.m)
    for i_str, vec in g_dirs.items():
        i = int(i_str)
        vec = np.array(vec)
        if weights[i] > 0:
            gi_hull = hull(clarke_generators(prog.g[i], xbar_l, y_l, DEFAULT_TOL_ACTIVE),
                           dim=prog.n + prog.m)
            if distance(poly_scale(gi_hull, weights[i]), list(vec)) > 1e-8:
                return None
        total += vec
    return total


def recheck_pointbased_witness(prog: BilevelProgram, verdict: CQVerdict,
                               xbar, y):
    """Independent witness re-substitution for a Fails verdict.

    Rebuilds (x*, 0) from the witness multipliers and generator choices,
    confirms each chosen direction lies in its generator hull, the y-block
    vanishes, and the x-block exceeds the tolerance.
    """
    assert verdict.status == "Fails" and verdict.witness is not None
    w = verdict.witness
    xbar_l, y_l = list(_xkey(xbar, prog.n)), list(_xkey(y, prog.m))
    n = prog.n
    total = _witness_sum(prog, w["g_dirs"], w["u"], xbar_l, y_l)
    if total is None:
        return False
    total += np.array(w["f_vec"])
    total[:n] += np.array(w["phi_vec"])
    if np.max(np.abs(total[n:])) > 1e-7:
        return False
    xstar = np.array(w["xstar"])
    if np.max(np.abs(total[:n] - xstar)) > 1e-7:
        return False
    return np.max(np.abs(xstar)) > verdict.tol


# -- generalized MFCQ ---------------------------------------------------------


def check_gen_mfcq(prog: BilevelProgram, xbar, ybar) -> CQVerdict:
    """No vanishing convex combination of active constraint generalized
    gradients: min over the multiplier simplex of |sum gamma_i G_i|; Holds
    when the minimum exceeds VERDICT_TOL."""
    xbar_l, y_l = list(_xkey(xbar, prog.n)), list(_xkey(ybar, prog.m))
    active = _active_indices(prog, xbar_l, y_l, DEFAULT_TOL_ACTIVE)
    if not active:
        return CQVerdict("GenMFCQ", "Holds", VERDICT_TOL,
                         detail="no active constraints (vacuous)")
    owner, gens = _active_generators(prog, active, xbar_l, y_l)
    # the hull keeps the first of equal generators; sources[k] is the
    # generator its k-th vertex came from
    poly, sources, _ = Polytope.from_generators_indexed(prog.n + prog.m, gens)
    dist, point, lam, _ = project(poly, np.zeros(prog.n + prog.m))
    if dist > VERDICT_TOL:
        return CQVerdict("GenMFCQ", "Holds", VERDICT_TOL,
                         detail=f"min |combination| = {dist:.3e}")
    gamma = np.zeros(prog.p)
    # map the hull weights back to per-constraint simplex weights, each to
    # the constraint of the generator its vertex came from
    for w, k in zip(lam, sources):
        gamma[owner[k]] += w
    dirs = {}
    for w, k in zip(lam, sources):
        i = owner[k]
        dirs[i] = dirs.get(i, np.zeros(prog.n + prog.m)) + w * np.array(gens[k])
    witness = {
        "gamma": tuple(gamma.tolist()),
        "g_dirs": {i: tuple(v.tolist()) for i, v in dirs.items()},
        "residual": dist,
    }
    return CQVerdict("GenMFCQ", "Fails", VERDICT_TOL, witness=witness,
                     detail="vanishing combination with |gamma|_1 = 1")


def recheck_mfcq_witness(prog: BilevelProgram, verdict: CQVerdict,
                         xbar, ybar):
    """Fails witness re-substitution for the generalized MFCQ."""
    assert verdict.status == "Fails" and verdict.witness is not None
    w = verdict.witness
    xbar_l, y_l = list(_xkey(xbar, prog.n)), list(_xkey(ybar, prog.m))
    gamma = np.array(w["gamma"])
    if abs(gamma.sum() - 1.0) > 1e-9 or np.min(gamma) < -1e-12:
        return False
    total = _witness_sum(prog, w["g_dirs"], gamma, xbar_l, y_l)
    if total is None:
        return False
    # the witness violates the implication: nontrivial gamma, vanishing sum
    return np.max(np.abs(total)) <= verdict.tol + 1e-9 and gamma.max() > verdict.tol


# -- inner regularity ----------------------------------------------------------


def _mode_solutions(prog: BilevelProgram, x, grid):
    if prog.mode == "pessimistic":
        return pessimistic_solutions(prog, x, grid)
    return optimistic_solutions(prog, x, grid)


def check_inner_regularity(
    prog: BilevelProgram,
    kind: str,
    xbar,
    ybar=None,
    radius: float = 0.1,
    n_samples: int = 8,
    grid: GridSpec = GridSpec(),
    seed: int = 0,
) -> CQVerdict:
    """Sampling evidence for inner semicompactness / semicontinuity of the
    mode-appropriate solution map near xbar.

    semicompact: sampled solution sets must be nonempty and clear of the
    y-box boundary (box-clipped sets degrade to Unknown: boundedness may be
    an artifact of the box).  semicontinuous: dist(ybar, S(x)) must shrink
    with the sampling shell; a non-vanishing distance Fails with the
    offending x.

    The verdict is memoised on every input (`_inner_regularity`); each
    call gets its own copy.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return _inner_regularity(prog, kind, _xkey(xbar, prog.n),
                             None if ybar is None else _xkey(ybar, prog.m),
                             radius, n_samples, grid, seed)


@memo(_CQ_ENTRIES, copy_out=True)
def _inner_regularity(prog, kind, xbar, ybar, radius, n_samples, grid,
                      seed) -> CQVerdict:
    """check_inner_regularity's verdict, in an LRU of _CQ_ENTRIES entries
    keyed like `_pointbased_cq`."""
    xbar_v = np.asarray(xbar, dtype=float)
    rng = np.random.default_rng(seed)
    margin = 2.0 * grid.coarse_cell(prog.box_y)

    def shell_solutions(rho):
        """(x, solution set) at each feasible x of a shell of n_samples
        points drawn at distance rho from xbar, swept as one announcement."""
        shell = []
        for _ in range(n_samples):
            u = rng.normal(size=prog.n)
            u /= np.linalg.norm(u)
            shell.append(xbar_v + rho * u)
        with _ahead(prog, shell, grid):
            for x in shell:
                try:
                    yield x, _mode_solutions(prog, list(x), grid)
                except InfeasibleError:
                    continue

    if kind == "semicompact":
        try:
            _mode_solutions(prog, list(xbar_v), grid)
        except InfeasibleError:
            raise InfeasiblePointError("xbar outside dom phi") from None
        box_lo, box_hi = np.array(prog.box_y, dtype=float).T
        clipped = False
        seen = 0
        for _, sol in shell_solutions(radius):
            seen += 1
            if np.any((sol.points < box_lo + margin)
                      | (sol.points > box_hi - margin)):
                clipped = True
        if seen == 0:
            return CQVerdict("InnerSemicompact", "Unknown", radius,
                             detail="no feasible neighbors sampled", seed=seed)
        if clipped:
            return CQVerdict(
                "InnerSemicompact", "Unknown", radius,
                detail="solutions touch the y-box; boundedness may be an artifact",
                seed=seed)
        return CQVerdict("InnerSemicompact", "Holds", radius,
                         detail=f"{seen} sampled neighbors, interior solutions",
                         seed=seed)

    if kind == "semicontinuous":
        if ybar is None:
            raise ValueError("semicontinuous check needs ybar")
        ybar_v = np.asarray(ybar, dtype=float)
        # intrinsic blur: the optimality band has nonzero width (e.g.
        # sqrt(tol_val) for quadratic objectives), so distances are judged
        # against the blur observed at xbar itself
        sol0 = _mode_solutions(prog, list(xbar_v), grid)
        d_base = float(np.abs(sol0.points - ybar_v).max(axis=1).min())
        spatial_tol = 2.0 * grid.finest_cell(prog.box_y) + 1e-6 + 2.0 * d_base

        def shell_dist(rho):
            worst = 0.0
            worst_x = None
            for x, sol in shell_solutions(rho):
                d = float(np.abs(sol.points - ybar_v).max(axis=1).min())
                if d > worst:
                    worst, worst_x = d, x
            return worst, worst_x

        d_outer, _ = shell_dist(radius)
        d_inner, x_inner = shell_dist(radius / 8.0)
        if d_inner <= max(d_outer / 4.0, spatial_tol):
            return CQVerdict("InnerSemicontinuous", "Holds", radius,
                             detail=f"dist shrinks: {d_outer:.3e} -> {d_inner:.3e}",
                             seed=seed)
        return CQVerdict(
            "InnerSemicontinuous", "Fails", radius,
            witness={"x": tuple(np.asarray(x_inner).tolist()),
                     "dist": d_inner},
            detail=f"dist(ybar, S(x)) stays {d_inner:.3e} at shell {radius / 8:.1e}",
            seed=seed)

    raise ValueError(f"unknown regularity kind {kind!r}")


# -- convex coderivative qualification -----------------------------------------


def check_codcq_convex(prog: BilevelProgram, xbar, ybar) -> CQVerdict:
    """Parameter-free convex lower level: affine-in-y constraints make the
    perturbed feasible map polyhedral, hence calm, validating the pointbased
    solution-map qualification.  Requires x-free g; smooth f; convex data
    (spot-checked)."""
    # the verdict reads neither point, but a wrong-length one is refused
    _xkey(xbar, prog.n), _xkey(ybar, prog.m)
    for i, gi in enumerate(prog.g):
        xi, _ = used_indices(gi)
        if xi:
            raise NotApplicableError(
                f"lower constraint {i + 1} references x")
    all_affine_y = all(
        affine_coefficients(gi, prog.n, prog.m) is not None for gi in prog.g
    )
    if all_affine_y and is_smooth(prog.f) and _midpoint_convexity_ok(
            prog, (prog.f, *prog.g)):
        return CQVerdict("CodCQConvex", "Guaranteed",
                         detail="affine-in-y constraints, smooth convex objective")
    return CQVerdict("CodCQConvex", "Unknown",
                     detail="sufficient conditions not syntactically verified")


# -- bundles -------------------------------------------------------------------


def cq_bundle(
    prog: BilevelProgram,
    xbar,
    variant: str,
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    ybar=None,
    seed: int = 0,
) -> Tuple[CQVerdict, ...]:
    """The verdicts a given estimate/certificate variant relies on."""
    xbar_l = list(_xkey(xbar, prog.n))
    out = list(check_polyhedral_calmness_all(prog))
    try:
        sol = _mode_solutions(prog, xbar_l, grid)
        y0 = sol.points[0].tolist()
    except InfeasibleError:
        out.append(CQVerdict("CQ_K", "Unknown", detail="xbar outside dom phi"))
        return tuple(out)
    out.append(check_pointbased_cq(prog, "K", xbar_l, y0, caps=caps,
                                   grid=grid, seed=seed))
    out.append(check_pointbased_cq(prog, "S", xbar_l, y0, caps=caps,
                                   grid=grid, seed=seed))
    out.append(check_gen_mfcq(prog, xbar_l, y0))
    if variant == "semicontinuous":
        out.append(check_inner_regularity(
            prog, "semicontinuous", xbar_l,
            ybar=ybar if ybar is not None else y0,
            grid=grid, seed=seed))
    else:
        out.append(check_inner_regularity(
            prog, "semicompact", xbar_l, grid=grid, seed=seed))
    return tuple(out)
