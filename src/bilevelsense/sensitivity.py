"""Multiplier sets and subdifferential upper estimates for the two-level
value functions.

The estimate constructions follow the three sensitivity regimes the
certification module also consumes:

  semicompact    union over sampled worst/best lower-level solutions y and
                 a geometric r-grid of {x-part : y-part = 0} inclusion sets,
                 each shifted by -r times the hull of valid lower-level
                 stationarity covectors (the Caratheodory aggregation is a
                 hull of generator choices, so hull algebra realizes it
                 exactly at simplex vertices);
  convex         generator-by-generator evaluation of the partial-gradient
                 formula driven by the two multiplier sets;
  semicontinuous the designated-point variant with the lower-level
                 stationarity set entering through its convexified hull.

The pessimistic estimates run the optimistic machinery on the program with
the upper objective negated and reflect the resulting hull.

All sets are V-representations; unbounded multiplier directions surface as
explicit rays except where a cap is documented (ray extension at r_max in
the convex variant, flagged `truncated`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from ._polyalg import LPBuilder, standard_vrep, standard_vrep_grid
from .errors import (
    EmptyEstimateError,
    InfeasiblePointError,
    NotApplicableError,
)
from .model import BilevelProgram, clarke_generators, eval_expr, used_indices
from .subdiff import Polytope, _rows, hull, minkowski_sum, negate, scale
from .valuefn import (
    GridSpec,
    SolutionSet,
    _lex_order,
    _require_integers,
    _xkey,
    lower_solutions,
    optimistic_solutions,
)

DEFAULT_TOL_ACTIVE = 1e-8


@dataclass(frozen=True)
class Caps:
    """Enumeration caps; every report records the caps it ran under.

    r_max and u_max are finite and >= 0, log_r_min and log_r_max are
    integers and log_r_max is at most 308 (the r-grid holds
    10.0 ** log_r_max), and max_solution_samples is an integer of at least
    1; other values raise ValueError.
    """

    r_max: float = 10.0
    log_r_min: int = -3
    log_r_max: int = 1
    u_max: float = 100.0
    max_solution_samples: int = 12

    def __post_init__(self):
        for name in ("r_max", "u_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
        _require_integers(self, "log_r_min", "log_r_max",
                          "max_solution_samples")
        if self.log_r_max > 308:
            raise ValueError("log_r_max must be <= 308")
        if self.max_solution_samples < 1:
            raise ValueError("max_solution_samples must be >= 1")

    def r_grid(self) -> Tuple[float, ...]:
        vals = {0.0, float(self.r_max)}
        vals.update(10.0**j for j in range(self.log_r_min, self.log_r_max + 1))
        return tuple(sorted(vals))

    def to_dict(self) -> dict:
        """The caps every artifact records."""
        return asdict(self)


@dataclass(frozen=True, eq=False)
class MultiplierSet:
    """V-representation of a lower-level multiplier polyhedron.

    kind 'lambda' lives in gamma-space (dim p); kind 'lambda_o' in
    (r, beta)-space (dim 1 + p).  vertices and rays are read-only float64
    (k, dim) arrays, one generator per row.  Inactive coordinates are
    exactly zero on every generator.
    """

    kind: str
    dim: int
    vertices: np.ndarray
    rays: np.ndarray
    active: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", _rows(self.vertices, self.dim))
        object.__setattr__(self, "rays", _rows(self.rays, self.dim))

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0

    def generator_points(self, caps: Caps):
        """Finite member sample: the vertices, then for each vertex its
        r_max-truncated ray tips, as one (k, dim) array.

        Returns (points, truncated) where truncated reports whether rays
        were capped to produce finite points.
        """
        verts, rays = self.vertices, self.rays
        if not (len(verts) and len(rays)):
            return verts, False
        t = caps.r_max / np.max(np.abs(rays), axis=1)
        tips = verts[:, None, :] + (t[:, None] * rays)[None, :, :]
        return np.vstack([verts, tips.reshape(-1, self.dim)]), True


_VIOLATED = ("constraint {} violated at (x, y): value {}",
             "upper constraint {} violated at xbar (value {})")


def _active_indices(prog: BilevelProgram, xbar, y, tol_active, upper=False):
    """Indices of the lower-level constraints g (upper: the upper-level
    constraints theta1, with y = []) active at (xbar, y), each within
    tol_active relative to 1 + |value|; raises InfeasiblePointError when
    one is violated by more."""
    active = []
    for i, gi in enumerate(prog.theta1 if upper else prog.g):
        val = float(eval_expr(gi, xbar, y))
        scale_i = 1.0 + abs(val)
        if val > tol_active * scale_i:
            raise InfeasiblePointError(_VIOLATED[upper].format(i + 1, val))
        if val >= -tol_active * scale_i:
            active.append(i)
    return active


def _dedup_rows(rows):
    seen = set()
    out = []
    for r in rows:
        key = tuple(np.round(np.asarray(r, dtype=float), 11).tolist())
        if key not in seen:
            seen.add(key)
            out.append(np.asarray(r, dtype=float))
    return out


def _normalize_ray(r):
    r = np.asarray(r, dtype=float)
    return r / np.max(np.abs(r))


def _vrep_fallback(A, B, stat_tol):
    """[(vertices, rays)], one per row b of the stack B.  Strict
    enumeration of the whole stack first; the rows whose strict system has
    no solutions are enumerated again, as one sub-stack, relaxed to the
    grid blur (keeps lattice-exact cases exact)."""
    out = _vreps(A, B, None)
    empty = [q for q, (verts, _) in enumerate(out) if not verts]
    if empty and stat_tol is not None:
        for q, vrep in zip(empty, _vreps(A, B[empty], stat_tol)):
            out[q] = vrep
    return out


def _vreps(A, B, res_tol):
    """standard_vrep_grid, asked through standard_vrep for a one-row stack
    so that the `polyalg.vrep` layer of the benchmark's tracer counts the
    single-b requests."""
    if len(B) == 1:
        return [standard_vrep(A, B[0], res_tol)]
    return standard_vrep_grid(A, B, res_tol)


def lambda_set(prog: BilevelProgram, xbar, y,
               tol_active: float = DEFAULT_TOL_ACTIVE,
               stat_tol: Optional[float] = None) -> MultiplierSet:
    """Lower-level stationarity multipliers gamma at (xbar, y).

    {gamma >= 0, zero off the active set, 0 in d_y f + sum gamma_i d_y g_i}
    with the partial subdifferentials taken as branch-generator hulls; the
    hull weights enter the lifted standard form so interpolated-gradient
    vertices are found, not just pure branch selections.  This is the
    inclusion system without F at b = [0_m; 1], gamma = u.
    """
    system = _inclusion_system(prog, xbar, y, tol_active)
    return _multiplier_set("lambda", system, system.A, stat_tol)


def lambda_o_set(prog: BilevelProgram, xbar, y,
                 tol_active: float = DEFAULT_TOL_ACTIVE,
                 stat_tol: Optional[float] = None) -> MultiplierSet:
    """Upper-objective stationarity multipliers (r, beta) at (xbar, y):
    {r, beta >= 0, beta complementary, 0 in d_y F + r d_y f + sum beta_i d_y g_i}.

    The inclusion system with F less its last row (the f-weight sum, so r
    is free) at b = [0_m; 1]: r is the f-weight sum and beta = u."""
    system = _inclusion_system(prog, xbar, y, tol_active, include_F=True)
    return _multiplier_set("lambda_o", system, system.A[:-1], stat_tol)


def _multiplier_set(kind, system, A, stat_tol) -> MultiplierSet:
    """The MultiplierSet of kind read off the V-representation of A (rows
    of `system`) at b = [0_m; 1]: each generator decoded to u, or to
    (f-weight sum, u) for 'lambda_o' (`_InclusionSystem.sums`), then
    deduplicated, rays normalised and the rays that decode to zero
    dropped."""
    b = np.concatenate([np.zeros(system.m), [1.0]])
    (verts, rays), = _vrep_fallback(A, b[None], stat_tol)
    with_r = kind == "lambda_o"

    def point(w):
        f_sum, u = system.sums(w)
        return np.concatenate([[f_sum], u]) if with_r else u

    vert_pts = _dedup_rows([point(w) for w in verts])
    ray_pts = _dedup_rows(
        [_normalize_ray(point(w)) for w in rays
         if np.max(np.abs(point(w))) > 1e-12]
    )
    return MultiplierSet(kind, system.p + 1 if with_r else system.p,
                         vert_pts, ray_pts, system.active)


# -- inclusion sets -----------------------------------------------------------


@dataclass(frozen=True)
class TaggedSet:
    """A tagged hull: a polytope whose generators remember the multipliers
    realizing them.  vertex_meta[q] and ray_meta[q] are the {"y", "u"}
    dicts behind polytope.vertices[q] and polytope.rays[q]: the lower-level
    point and the constraint multipliers of that generator.

    The one form of a tagged hull, from the inclusion sets through the
    covector hull to the LP blocks and tuple folds of certify.  An empty
    set has no generators and no metadata.
    """

    polytope: Polytope
    vertex_meta: Tuple[dict, ...]
    ray_meta: Tuple[dict, ...]

    @property
    def generators(self) -> np.ndarray:
        """Every vertex, then every ray, one per row: the order of the
        weights of an LP block over this set."""
        return np.vstack([self.polytope.vertices, self.polytope.rays])


@dataclass(frozen=True)
class _InclusionSystem:
    """The r-independent part of one (xbar, y) inclusion system.

    A holds the lifted standard-form columns: the y-parts of the F, f and
    active g_i generators over the weight-sum rows (the F weights, then the
    f weights with include_F; the f weights alone without).  proj holds
    their x-parts, meta each column's source ("F", "f" or ("g", i)) and
    active the active constraint indices.  Only the right-hand side
    depends on r.
    """

    n: int
    m: int
    p: int
    y: Tuple[float, ...]
    include_F: bool
    A: np.ndarray
    proj: np.ndarray
    meta: Tuple[tuple, ...]
    active: Tuple[int, ...]

    def without_F(self) -> "_InclusionSystem":
        """This include_F system less its F columns and its F-weight row:
        column for column the system built without F, so the same A."""
        keep = [q for q, (tag, _) in enumerate(self.meta) if tag != "F"]
        rows = [r for r in range(self.m + 2) if r != self.m]
        return _InclusionSystem(self.n, self.m, self.p, self.y, False,
                                self.A[np.ix_(rows, keep)], self.proj[:, keep],
                                tuple(self.meta[q] for q in keep), self.active)

    def x_hull(self, tag) -> Polytope:
        """Hull of the x-parts of the generators of the columns tagged tag
        (("F", None), ("f", None) or ("g", i))."""
        cols = [q for q, t in enumerate(self.meta) if t == tag]
        return Polytope.from_generators(self.n, self.proj[:, cols].T)

    def sums(self, w):
        """(f-weight sum, per-constraint g-weight sums u) of the column
        weights w, each summed in column order."""
        f_sum = 0.0
        u = np.zeros(self.p)
        for wv, (tag, i) in zip(w, self.meta):
            if tag == "f":
                f_sum += wv
            elif tag == "g":
                u[i] += wv
        return f_sum, u


def _inclusion_system(prog: BilevelProgram, xbar, y, tol_active: float,
                      include_F: bool = False) -> _InclusionSystem:
    """Build the inclusion system at (xbar, y): active set, Clarke
    generators, A, the x-projection and the column metadata.  Raises
    InfeasiblePointError when (xbar, y) violates a lower-level constraint."""
    xbar, y = list(_xkey(xbar, prog.n)), list(_xkey(y, prog.m))
    n = prog.n
    active = _active_indices(prog, xbar, y, tol_active)

    # (source, expression, weight-sum entries) per group of columns
    groups = [(("F", None), prog.F, [1.0, 0.0])] if include_F else []
    groups.append((("f", None), prog.f, [0.0, 1.0] if include_F else [1.0]))
    zero_sum = [0.0, 0.0] if include_F else [0.0]
    groups += [(("g", i), prog.g[i], zero_sum) for i in active]
    cols, xparts, meta = [], [], []
    for tag, e, sums in groups:
        for gvec in clarke_generators(e, xbar, y, tol_active):
            cols.append(np.concatenate([gvec[n:], sums]))
            xparts.append(gvec[:n])
            meta.append(tag)
    return _InclusionSystem(n, prog.m, prog.p, tuple(y), include_F,
                            np.column_stack(cols), np.column_stack(xparts),
                            tuple(meta), tuple(active))


def _solve_inclusion(system: _InclusionSystem, rs,
                     stat_tol: Optional[float] = None):
    """The inclusion sets of a built system, one TaggedSet per r of rs:
    V-representations at the right-hand sides [0; 1; r] (or [0; 1]
    without F), enumerated as one stack, each projected to x."""
    m = system.m
    B = np.zeros((len(rs), len(system.A)))
    B[:, m] = 1.0
    if system.include_F:
        B[:, m + 1] = rs
    return [_tagged_set(system, verts, rays)
            for verts, rays in _vrep_fallback(system.A, B, stat_tol)]


def _tagged_set(system: _InclusionSystem, verts, rays) -> TaggedSet:
    """The x-projection of one V-representation of system, each generator
    tagged with its multipliers.  A ray whose x-part has max-norm at most
    1e-12 projects to no direction and is dropped."""

    def decode(w):
        return {"u": tuple(system.sums(w)[1].tolist()), "y": system.y}

    vert_pts, vert_meta = [], []
    for w in verts:
        vert_pts.append(system.proj @ w)
        vert_meta.append(decode(w))
    ray_pts, ray_meta = [], []
    for w in rays:
        pt = system.proj @ w
        if np.max(np.abs(pt)) > 1e-12:
            ray_pts.append(pt)
            ray_meta.append(decode(w))
    return _keep_first(system.n, vert_pts, vert_meta, ray_pts, ray_meta)


def _keep_first(n, vert_pts, vert_meta, ray_pts, ray_meta) -> TaggedSet:
    """The tagged set over these generators and their metadata, each
    generator kept at its first occurrence with that occurrence's metadata
    (`Polytope.from_generators_indexed`); empty without vertices."""
    if len(vert_pts) == 0:
        return TaggedSet(Polytope.empty(n), (), ())
    poly, vkeep, rkeep = Polytope.from_generators_indexed(n, vert_pts, ray_pts)
    return TaggedSet(poly, tuple(vert_meta[q] for q in vkeep),
                     tuple(ray_meta[q] for q in rkeep))


def _union(n, sets) -> TaggedSet:
    """The tagged sets laid end to end in R^n: every vertex of each
    nonempty set in turn, then every ray, each with its metadata.  Nothing
    is deduplicated, so a weight over the union belongs to one set's
    generator.  Empty when every set is."""
    sets = [t for t in sets if not t.polytope.is_empty]
    return TaggedSet(
        Polytope(n, [v for t in sets for v in t.polytope.vertices],
                 [d for t in sets for d in t.polytope.rays]),
        tuple(q for t in sets for q in t.vertex_meta),
        tuple(q for t in sets for q in t.ray_meta))


def _inclusion_xset(
    prog: BilevelProgram,
    xbar,
    y,
    tol_active: float,
    stat_tol: Optional[float] = None,
) -> TaggedSet:
    """{x-part : (x-part, 0) in df + sum_i u_i dg_i at (xbar, y)}: the set
    of valid lower-level stationarity covectors x*_s.

    u ranges over the nonnegative active-indexed multipliers, entering
    through lifted branch-hull weights; unbounded u directions become rays.
    stat_tol relaxes the vanishing-y-block rows (grid-snapped points miss
    exact stationarity by the grid blur).  One call builds the system
    without F (`_inclusion_system`) and solves it at r = 0
    (`_solve_inclusion`); the per-(y, r) inclusion sets of the
    value-function estimates build each y's system with F once and solve
    it for the whole r-grid in one stack, since r moves only the
    right-hand side.
    """
    return _solve_inclusion(
        _inclusion_system(prog, xbar, y, tol_active), (0.0,), stat_tol)[0]


def stationary_cover_hull(prog: BilevelProgram, xbar,
                          solutions: SolutionSet,
                          tol_active: float = DEFAULT_TOL_ACTIVE,
                          caps: Caps = Caps(),
                          stat_tol: Optional[float] = None) -> TaggedSet:
    """Hull over sampled S(xbar) of the per-y covector sets, as one
    TaggedSet: the union of the per-y sets (`_union`), deduplicated by
    `_keep_first` as each per-y set is, so a generator found at several
    sampled y keeps the first one's metadata.  Empty when no sampled y has
    a covector.
    """
    union = _union(prog.n, [
        _inclusion_xset(prog, xbar, ypt, tol_active, stat_tol=stat_tol)
        for ypt in _subsample(solutions.points, caps.max_solution_samples)])
    return _keep_first(prog.n, union.polytope.vertices, union.vertex_meta,
                       union.polytope.rays, union.ray_meta)


def _subsample(points: np.ndarray, cap: int):
    """Deterministic subsample that always keeps the best point, as lists
    of floats: the y arguments of the per-point constructions.

    SolutionSet points are ordered best-first and pairwise distinct; the
    remainder is spread evenly in lexicographic order (a stable lexsort)
    so extremes stay represented.
    """
    if len(points) <= cap:
        return points[_lex_order(points)].tolist()
    rest = points[1:][_lex_order(points[1:])]
    idx = np.unique(np.round(np.linspace(0, len(rest) - 1, cap - 1)).astype(int))
    return points[:1].tolist() + rest[idx].tolist()


def grid_blur(grid: GridSpec, prog: BilevelProgram) -> float:
    """Activity/stationarity tolerance matched to solution sampling.

    Sampled solution points sit up to a finest cell from true optima from
    grid snapping, and up to tol_val / slope inside the feasible region
    from the optimality band; the floor covers default bands at desk-scale
    slopes."""
    return max(25.0 * grid.finest_cell(prog.box_y), 2e-5)


# -- multiplier LPs ------------------------------------------------------------


class _System:
    """One multiplier LP, declared as hull blocks and row specs: every
    multiplier LP of the package, certify's searches and cq's pointbased
    checks alike, is declared here.

    A hull block is a list of (weight variable, generator) pairs, one
    nonnegative weight per generator.  Variables and rows are created in
    call order, so a declaration fixes the matrices handed to the solver.
    """

    def __init__(self, u_max):
        self.lp = LPBuilder()
        self.u_max = u_max

    def hull(self, gens, **total):
        """A hull block over gens; keyword arguments add its sum row."""
        block = [(self.lp.var(), g) for g in gens]
        if total:
            self.total(block, **total)
        return block

    def total(self, block, value=0.0, var=None, k=1.0, cap=False):
        """The block's weights sum to value + k * var; with cap, to at most
        u_max (times var when given)."""
        row = {v: 1.0 for v, _ in block}
        if cap:
            if var is None:
                self.lp.le(row, self.u_max)
                return
            row[var] = -self.u_max
            self.lp.le(row, 0.0)
            return
        if var is not None:
            row[var] = -k
        self.lp.eq(row, value)

    def cover(self, tagged):
        """Block over the TaggedSet tagged, its vertices then its rays
        (`TaggedSet.generators`): the vertex weights sum to one, and the ray
        weights of each source y are at most u_max times that y's vertex
        weights, so ray mass only lives where vertex mass does."""
        lam = [self.lp.var() for _ in tagged.vertex_meta]
        mu = [self.lp.var() for _ in tagged.ray_meta]
        lam_keys = [d["y"] for d in tagged.vertex_meta]
        mu_keys = [d["y"] for d in tagged.ray_meta]
        self.lp.eq({v: 1.0 for v in lam}, 1.0)
        for key in dict.fromkeys(mu_keys):
            row = {mu[q]: 1.0 for q, kk in enumerate(mu_keys) if kk == key}
            row.update((lam[q], -self.u_max)
                       for q, kk in enumerate(lam_keys) if kk == key)
            self.lp.le(row, 0.0)
        return list(zip(lam + mu, tagged.generators))

    def stationarity(self, GF, Gf, Gg, r):
        """Terms of dF + r df + sum_i u_i dg_i: the F and f weights sum to
        one, u_i is the weight sum of g_i's block, at most u_max.  Returns
        (terms, {i: g_i block})."""
        aF = self.hull(GF, value=1.0)
        bf = self.hull(Gf, value=1.0)
        zg = {i: self.hull(G, cap=True) for i, G in Gg.items()}
        return [(1.0, aF), (r, bf), *_ones(zg.values())], zg

    def theta(self, prog, xbar, active_theta):
        """(j, block) per active upper constraint, weights at most u_max;
        alpha_j is the block's weight sum."""
        return [(j, self.hull(clarke_generators(prog.theta1[j], xbar, [],
                                                DEFAULT_TOL_ACTIVE), cap=True))
                for j in active_theta]

    def rows(self, hard, offset, dim, terms, extra=(), assign_first=True):
        """Rows c < dim: sum of coef * g[offset + c] over the weights of each
        (coef, block) term, plus coef * xs[c] for each (coef, xs) in extra,
        equal to 0 (hard) or within the minimised violation t (soft).

        The first term's products are stored as they are and later ones are
        added to 0.0, which turns -0.0 into 0.0; assign_first=False adds
        every term.  The rule fixes the signed zeros of the matrices, which
        the certificates' byte identity rests on (README, "Design notes:
        multiplier systems").
        """
        add = self.lp.eq if hard else self.lp.soft
        for c in range(dim):
            row = {}
            for t, (coef, block) in enumerate(terms):
                for v, g in block:
                    val = coef * g[offset + c]
                    row[v] = (val if t == 0 and assign_first
                              else row.get(v, 0.0) + val)
            for coef, xs in extra:
                row[xs[c]] = row.get(xs[c], 0.0) + coef
            add(row, 0.0)


def _ones(blocks):
    return [(1.0, b) for b in blocks]


# -- estimates ----------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """Upper estimate of a value-function subdifferential, with provenance."""

    polytope: Polytope
    variant: str
    mode: str
    xbar: Tuple[float, ...]
    truncated: bool
    n_solution_samples: int
    caps: Caps
    notes: Tuple[str, ...] = ()


def estimate_optimistic(
    prog: BilevelProgram,
    xbar,
    variant: str = "semicompact",
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    ybar=None,
) -> Estimate:
    """Upper estimate of the optimistic value-function subdifferential."""
    poly, truncated, n_samples, notes = _estimate_core(
        prog, xbar, variant, grid, caps, ybar)
    return Estimate(poly, variant, "optimistic", _xkey(xbar, prog.n),
                    truncated, n_samples, caps, tuple(notes))


def estimate_pessimistic(
    prog: BilevelProgram,
    xbar,
    variant: str = "semicompact",
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
    ybar=None,
) -> Estimate:
    """Upper estimate for the pessimistic value function.

    Runs the optimistic construction on the negated-upper program (whose
    best-case solution set is the original worst-case one) and reflects the
    hull; the simplex aggregation over tuples collapses into the hull of
    the union, attained at simplex vertices.
    """
    negp = prog.negated_upper()
    poly, truncated, n_samples, notes = _estimate_core(
        negp, xbar, variant, grid, caps, ybar)
    return Estimate(
        negate(poly), variant, "pessimistic", _xkey(xbar, prog.n),
        truncated, n_samples, caps,
        tuple(notes) + ("reflected from negated-upper program",),
    )


def _estimate_core(prog, xbar, variant, grid, caps, ybar):
    """The estimate of prog at xbar.  Activity and stationarity are both
    judged at the grid blur (`grid_blur`), the tolerance matched to the
    sampled solution points."""
    xbar_l = list(_xkey(xbar, prog.n))
    sol_o = optimistic_solutions(prog, xbar_l, grid)
    samples = _subsample(sol_o.points, caps.max_solution_samples)
    blur = grid_blur(grid, prog)
    notes = []
    if variant == "semicompact":
        poly = _estimate_semicompact(prog, xbar_l, samples, grid, caps, blur)
        truncated = False
    elif variant == "convex":
        poly, truncated, conv_notes = _estimate_convex(
            prog, xbar_l, samples, caps, blur)
        notes.extend(conv_notes)
    elif variant == "semicontinuous":
        ypt = list(_xkey(ybar, prog.m)) if ybar is not None else samples[0]
        poly = _estimate_semicontinuous(prog, xbar_l, ypt, caps, blur)
        truncated = False
        notes.append(f"designated lower-level point {tuple(ypt)}")
    else:
        raise ValueError(f"unknown estimate variant {variant!r}")
    return poly, truncated, len(samples), notes


def _estimate_semicompact(prog, xbar, samples, grid, caps, blur):
    sol_all = lower_solutions(prog, xbar, grid)
    cover = stationary_cover_hull(prog, xbar, sol_all, blur, caps,
                                  stat_tol=blur).polytope
    if cover.is_empty:
        # no valid lower-level covector tuples exist at any sampled y, so
        # every (y, r) contribution is empty
        raise EmptyEstimateError("lower-level covector set is empty at xbar")
    return _shifted_hull(prog, xbar, samples, cover, caps, blur,
                         "no (y, r) pair produced a nonempty inclusion set")


def _shifted_hull(prog, xbar, ys, cover, caps, blur, empty):
    """Hull over y in ys and r in the r-grid of each nonempty inclusion set
    shifted by -r times cover; each y's system is built once and solved
    for the whole r-grid.  Raises EmptyEstimateError(empty) when no piece
    is left (an empty cover leaves none)."""
    pieces = []
    r_grid = caps.r_grid()
    for ypt in ys:
        system = _inclusion_system(prog, xbar, ypt, blur, include_F=True)
        for r, inc in zip(r_grid, _solve_inclusion(system, r_grid, blur)):
            if not (inc.polytope.is_empty or cover.is_empty):
                pieces.append(minkowski_sum(inc.polytope,
                                            scale(negate(cover), r)))
    if not pieces:
        raise EmptyEstimateError(empty)
    return hull(pieces)


def _estimate_convex(prog, xbar, samples, caps, blur):
    """One include_F inclusion system per sampled y gives both multiplier
    sets (Lambda from the system less F, `_InclusionSystem.without_F`) and
    the x-part hulls of F, f and the active g_i.  An inactive g_i has zero
    multipliers on every generator, so it contributes no term."""
    pieces = []
    truncated = False
    notes = []
    skipped = 0
    for ypt in samples:
        system = _inclusion_system(prog, xbar, ypt, blur, include_F=True)
        lam_system = system.without_F()
        lam = _multiplier_set("lambda", lam_system, lam_system.A, blur)
        lam_o = _multiplier_set("lambda_o", system, system.A[:-1], blur)
        if lam.is_empty or lam_o.is_empty:
            skipped += 1
            continue
        gamma_pts, t1 = lam.generator_points(caps)
        rb_pts, t2 = lam_o.generator_points(caps)
        truncated = truncated or t1 or t2
        P_Fx = system.x_hull(("F", None))
        P_fx = system.x_hull(("f", None))
        fx_diff = minkowski_sum(P_fx, negate(P_fx))
        P_gx = {i: system.x_hull(("g", i)) for i in system.active}
        for rb in rb_pts:
            r, beta = float(rb[0]), rb[1:]
            for gamma in gamma_pts:
                piece = P_Fx
                piece = minkowski_sum(piece, scale(fx_diff, r))
                for i in system.active:
                    if beta[i] > 0:
                        piece = minkowski_sum(piece, scale(P_gx[i], beta[i]))
                gsum = None
                for i in system.active:
                    if gamma[i] > 0:
                        term = scale(P_gx[i], gamma[i])
                        gsum = term if gsum is None else minkowski_sum(gsum, term)
                if gsum is not None and r > 0:
                    piece = minkowski_sum(piece, scale(negate(gsum), r))
                pieces.append(piece)
    if skipped:
        notes.append(f"{skipped} sampled y had empty multiplier sets")
    if not pieces:
        raise EmptyEstimateError("all sampled multiplier sets were empty")
    return hull(pieces), truncated, notes


def _estimate_semicontinuous(prog, xbar, ypt, caps, blur):
    # the semicompact construction at the designated point alone, with the
    # convexified lower-level stationarity covectors there as the cover
    phi_star = _inclusion_xset(prog, xbar, ypt, blur, stat_tol=blur).polytope
    return _shifted_hull(prog, xbar, [ypt], phi_star, caps, blur,
                         "inclusion set empty at the designated point")


def estimate_simple_convex(
    prog: BilevelProgram,
    xbar,
    grid: GridSpec = GridSpec(),
    caps: Caps = Caps(),
) -> Estimate:
    """Parameter-independent lower level: the estimate collapses to the
    hull of the upper objective's x-gradients over sampled best solutions.

    Requires f and g to reference no x variable (syntactic) and convex
    data (spot-checked by seeded midpoint tests).
    """
    xbar_l = list(_xkey(xbar, prog.n))
    for label, e in (("f", prog.f), *((f"g{i+1}", gi) for i, gi in enumerate(prog.g))):
        xi, _ = used_indices(e)
        if xi:
            raise NotApplicableError(
                f"lower-level data {label} references x: parameter-dependent")
    if not _midpoint_convexity_ok(prog, (prog.F, prog.f, *prog.g)):
        raise NotApplicableError("midpoint convexity spot-check failed")
    sol_o = optimistic_solutions(prog, xbar_l, grid)
    samples = _subsample(sol_o.points, caps.max_solution_samples)
    pts = []
    for ypt in samples:
        for gvec in clarke_generators(prog.F, xbar_l, ypt, DEFAULT_TOL_ACTIVE):
            pts.append(gvec[: prog.n])
    return Estimate(
        Polytope.from_generators(prog.n, pts),
        "simple_convex", "optimistic", tuple(xbar_l),
        False, len(samples), caps,
        ("convexity spot-checked by midpoint sampling",),
    )


def _midpoint_convexity_ok(prog: BilevelProgram, exprs) -> bool:
    """Seeded midpoint spot check of convexity over the box for each of
    exprs: 200 midpoints drawn from seed 20240, each within a relative
    1e-9.  The draws do not depend on exprs: every expression is tested at
    the same points."""
    rng = np.random.default_rng(20240)
    box = list(prog.box_x) + list(prog.box_y)
    for _ in range(200):
        a = np.array([rng.uniform(lo, hi) for lo, hi in box])
        b = np.array([rng.uniform(lo, hi) for lo, hi in box])
        mid = 0.5 * (a + b)
        for e in exprs:
            va = eval_expr(e, a[: prog.n], a[prog.n:])
            vb = eval_expr(e, b[: prog.n], b[prog.n:])
            vm = eval_expr(e, mid[: prog.n], mid[prog.n:])
            if vm > 0.5 * (va + vb) + 1e-9 * (1 + abs(va) + abs(vb)):
                return False
    return True
