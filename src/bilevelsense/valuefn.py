"""Grid evaluation of the lower-level and two-level value functions.

phi(x) is the lower-level optimum over the feasible y-grid, phi_o / phi_p
the best / worst upper-level objective over the near-optimal band S(x).
A coarse sweep over the y-box is refined multiplicatively around
incumbents (cell size / 10 per level), which at desk scale gives
oracle-grade values without an NLP solver.  All reductions are
deterministic: ties break toward the lexicographically smallest y.  The
values read the lower level only through the band, so each refinement
level keeps only the points a later level can still read, and the sweep
returns (and memoises) the band alone, not every feasible grid point.

The pessimistic value is computed as minus the optimistic value of the
program with the upper objective negated, so the defining identity between
the two holds to the last bit.  The lower-level sweep is keyed on the
lower-level problem (m, f, g, box_y), the point x, the grid and F with its
top-level negations stripped, so a program and its negated-upper twin
share one sweep; the twin reads the band's F values negated, which IEEE
negation makes exactly the values of the negated F.

A caller that knows the points it will ask for next (the fd oracle's
stencil, a regularity shell) announces them (`_ahead`); the first miss
among them sweeps them all in one pass.  The coarse grid is level 0 of
one level loop: each level stacks the grids of every x (the coarse grids,
then the windows around every x's refinement seeds, picked in one
segmented pass) into as few meshes as the stack bound allows, and each x
still enters the sweep memo through its own request.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from ._memo import _call_key, memo
from .errors import (BudgetError, DimensionMismatchError, DomainError,
                     InfeasibleError, UnsupportedDimensionError)
from .model import BilevelProgram, Expr, eval_expr
from .subdiff import _rows

DEFAULT_TOL_VAL_BASE = 1e-6

# A grid point is feasible when every lower-level constraint is at most this.
TOL_FEAS = 1e-9

# Bound on the points one sweep level meshes: the coarse grid,
# points_per_dim ** m, and each refinement level, (max_seeds + 2) windows of
# refine_points ** m.  2**24 admits m = 3 at the default 201 points per
# axis (8.1M points, 195 MB of y).
MAX_GRID_POINTS = 2 ** 24

# Bound on the points one stack of a sweep level holds when a batch of x is
# swept together (`_sweep_batch`): the coarse grids, or the refinement
# windows, of consecutive x are stacked up to this many points, and a
# larger batch is split.  One x's level alone is bounded by MAX_GRID_POINTS
# only.  At m = 1 the default grid's coarse level is 201 points per x and a
# refinement level at most 147, so a stack holds 40 or 55 x; at m = 2 a
# coarse grid (40,401 points) is swept alone.
MAX_STACKED_POINTS = 2 ** 13

# Bound on the solution-set memo, in entries (distinct (problem, x, grid)
# requests).  An entry of a flat S(x) can hold every point of the
# coarse grid, so this stays well below the sweep memo's 2048.
_SOLUTION_ENTRIES = 64


def _require_integers(spec, *names):
    """Raise ValueError naming the first of spec's fields names that is not
    an integer (a float such as 2.0 or NaN included)."""
    for name in names:
        if not isinstance(getattr(spec, name), numbers.Integral):
            raise ValueError(f"{name} must be an integer")


@dataclass(frozen=True)
class GridSpec:
    """Grid-search resolution parameters, each an integer.

    refine_points = 21 with a +-1-cell window shrinks the cell size by
    exactly 10 per refinement level.
    """

    points_per_dim: int = 201
    refine_depth: int = 3
    refine_points: int = 21
    max_seeds: int = 5

    def __post_init__(self):
        _require_integers(self, "points_per_dim", "refine_depth",
                          "refine_points", "max_seeds")
        if self.points_per_dim < 3:
            raise ValueError("points_per_dim must be >= 3")
        if self.refine_depth < 0:
            raise ValueError("refine_depth must be >= 0")
        if self.refine_points < 2:
            raise ValueError("refine_points must be >= 2")
        if self.max_seeds < 0:
            raise ValueError("max_seeds must be >= 0")

    def coarse_cell(self, box_y) -> float:
        return max(
            (hi - lo) / (self.points_per_dim - 1) for lo, hi in box_y
        )

    def finest_cell(self, box_y) -> float:
        return self.coarse_cell(box_y) * 10.0 ** (-self.refine_depth)


@dataclass(frozen=True, eq=False)
class SolutionSet:
    """Finite point cloud standing in for a solution map at one x: points
    is a read-only float64 (k, m) array, one point per row, best first."""

    points: np.ndarray
    value: float
    tol_val: float
    finest_cell: float

    def __post_init__(self):
        object.__setattr__(self, "points", _rows(self.points, None))

    def __len__(self):
        return len(self.points)


def default_tol_val(value: float) -> float:
    return DEFAULT_TOL_VAL_BASE * (1.0 + abs(value))


def _mesh(lo, hi, count):
    """Grid points of the boxes [lo[s], hi[s]] (arrays (S, m)), count per
    axis, stacked box by box, each in np.meshgrid "ij" order.

    The axes are np.linspace(lo[s, j], hi[s, j], count).  One call with
    array endpoints does the scalar calls' arithmetic elementwise, except
    that once any step is 0 (a window that rounds to one point, deep
    refinement) numpy takes its denormal-step formula for every axis, so
    then each axis gets its own call.
    """
    axes, step = np.linspace(lo, hi, count, axis=-1, retstep=True)
    if np.any(step == 0):
        axes = np.array([[np.linspace(a, b, count) for a, b in zip(row_lo, row_hi)]
                         for row_lo, row_hi in zip(lo, hi)])
    boxes, m = lo.shape
    # column j of box s is axes[s, j] broadcast along every other axis; the
    # points are laid out column by column, so each column the evaluation
    # reads is contiguous
    out = np.empty((m, boxes) + (count,) * m)
    for j in range(m):
        shape = [boxes] + [1] * m
        shape[1 + j] = count
        out[j] = axes[:, j].reshape(shape)
    return out.reshape(m, -1).T


@memo(8)
def _coarse_mesh(box_y: Tuple[Tuple[float, float], ...], count: int):
    """The coarse sweep grid of box_y, shared read-only by every sweep of
    that box (a stack of coarse grids tiles it).  Raises BudgetError, before allocating, when the grid would
    hold more than MAX_GRID_POINTS points."""
    if count ** len(box_y) > MAX_GRID_POINTS:
        raise BudgetError(
            f"coarse grid of {count}^{len(box_y)} points exceeds "
            f"{MAX_GRID_POINTS} points")
    box = np.array(box_y, dtype=float)
    return _mesh(box[None, :, 0], box[None, :, 1], count)


def _evaluate(f, g, F, x, mesh: np.ndarray):
    """(y, f, F, keep) over the rows y of mesh where every g is at most
    TOL_FEAS (keep is that mask).  f and F are evaluated on those rows only
    (not at all when there are none), so a DomainError outside the
    feasible set cannot fire.  x is one point (a list of floats) or an
    (n, len(mesh)) array holding the point of each mesh row.

    The feasible rows are gathered one column at a time and copied into
    the columns of y, a C-contiguous (k, m) array: the meshes are laid out
    column by column (`_mesh`), and a boolean gather of each contiguous
    column is several times faster than one of the mesh's strided rows.
    Filling an empty y column by column skips np.stack's fixed cost, which
    dominates on a small m = 1 mesh.  f and F read the gathered columns,
    and a per-row x is gathered row by row."""
    keep = np.ones(len(mesh), dtype=bool)
    cols = list(mesh.T)
    for gi in g:
        keep &= np.asarray(eval_expr(gi, x, cols), dtype=float) <= TOL_FEAS
    cols = [c[keep] for c in cols]
    y = np.empty((len(cols[0]), len(cols)), dtype=mesh.dtype)
    for j, col in enumerate(cols):
        y[:, j] = col
    if not len(y):
        return y, np.zeros(0), np.zeros(0), keep
    if isinstance(x, np.ndarray):
        x = [row[keep] for row in x]
    return (y, *(np.broadcast_to(np.asarray(eval_expr(e, x, cols), dtype=float),
                                 (len(y),)) for e in (f, F)), keep)


def _lex_order(ypts: np.ndarray):
    return np.lexsort(tuple(ypts[:, j] for j in range(ypts.shape[1] - 1, -1, -1)))


# The sweeps a caller announced (`_ahead`), or None outside an announcement.
_AHEAD: ContextVar = ContextVar("_AHEAD", default=None)


class _Ahead:
    """The `_solve_lower` calls a caller announced (`_ahead`): pending, the x
    of each distinct call not yet swept under the memo's key rule (so -0.0
    and 0.0 stay apart), in announced order; and the stash, the result or
    DomainError of each call swept ahead of its own miss."""

    def __init__(self, calls):
        self.pending = {}
        for call in calls:
            self.pending.setdefault(_call_key(call), call[5])
        self.stash = {}

    def later(self, key):
        """{key: x} of the pending calls announced after key, when key is
        pending, and from then on no call is pending (none when key is
        not pending)."""
        if key not in self.pending:
            return {}
        keys = list(self.pending)
        later = {k: self.pending[k] for k in keys[keys.index(key) + 1:]}
        self.pending = {}
        return later


@contextmanager
def _ahead(prog, points, grid: GridSpec):
    """Announce, for the life of the context, that prog's sweep (that of
    prog or of its negated-upper twin) will be asked for at each of points
    in this order: the first miss among them sweeps it together with every
    later one (`_solve_lower`).  Announces nothing when a point has the
    wrong number of coordinates, which its own request then reports."""
    F, _ = prog.F._peel_negations()
    try:
        calls = [(prog.m, prog.f, prog.g, prog.box_y, F, _xkey(x, prog.n), grid)
                 for x in points]
    except DimensionMismatchError:
        calls = []
    token = _AHEAD.set(_Ahead(calls))
    try:
        yield
    finally:
        _AHEAD.reset(token)


@memo(2048)
def _solve_lower(m: int, f: Expr, g: Tuple[Expr, ...],
                 box_y: Tuple[Tuple[float, float], ...], F: Expr,
                 x_key: Tuple[float, ...], grid: GridSpec):
    """Sweep + refine the lower level min f(x, .) s.t. g(x, .) <= 0 over
    box_y at x.

    Returns (phi, band_y (k, m), band_f (k,), band_F (k,)): the pooled
    points of the optimality band f <= `_band_bound(phi)`, in pool order;
    every one is feasible within TOL_FEAS.  Returns None when no coarse
    grid point is feasible, so that an infeasible x is memoised as well
    (`_sweep` raises InfeasibleError).  Raises BudgetError, before meshing
    anything, when a refinement level could mesh more than MAX_GRID_POINTS
    points, and DomainError when phi is not finite (a NaN f on a feasible
    point, or phi = -inf or +inf) or an evaluation fails.  Memoised in an
    LRU of 2048 entries, with F's top-level negations stripped by the
    caller (`_sweep`).

    `_sweep_batch` sweeps.  Outside an announcement (`_ahead`) a miss
    sweeps its x alone.  A miss of an announced call takes its stashed
    answer, or else sweeps its x together with every later announced x not
    yet swept and stashes theirs, so each x still enters the memo through
    its own miss.
    """
    ahead = _AHEAD.get()
    if ahead is None:
        swept, = _sweep_batch(m, f, g, box_y, F, [x_key], grid)
    else:
        key = _call_key((m, f, g, box_y, F, x_key, grid))
        swept = ahead.stash.pop(key, ahead)
        if swept is ahead:
            later = ahead.later(key)
            swept, *rest = _sweep_batch(m, f, g, box_y, F, [x_key, *later.values()],
                                        grid)
            ahead.stash.update(zip(later, rest))
    if isinstance(swept, DomainError):
        raise swept
    return swept


def _sweep_batch(m, f, g, box_y, F, x_keys, grid):
    """The sweep of `_solve_lower` at each x of x_keys: per x, its result
    there or the DomainError it raises.  Raises BudgetError, for the whole
    batch, as `_solve_lower` does.

    One loop runs every level.  Level 0 sweeps each x's coarse grid, the
    y-box at points_per_dim per axis; level l >= 1 sweeps windows of
    refine_points per axis around the seeds of each x's pool, picked for
    every live pool in one pass (`_level_seeds`).  `_sweep_level` stacks a
    level's grids x by x and seed by seed and yields each x's new rows in
    order.  Each x's pool drops the points no later level can read
    (`_live`) as soon as its level is pooled, and is cut to its band after
    the last level.  Pooling more points only lowers the k-th smallest f
    and the band bound, so the seeds and the band are those of the whole
    pool.  F only picks refinement seeds (both of its extremes inside the
    band, so -F picks the same points) and fills band_F.
    """
    refined = (grid.max_seeds + 2) * grid.refine_points ** m
    if grid.refine_depth and refined > MAX_GRID_POINTS:
        raise BudgetError(
            f"refinement level of {grid.max_seeds + 2} x "
            f"{grid.refine_points}^{m} points exceeds {MAX_GRID_POINTS} points")
    # A batch holds at once only the live pools and one stack of new rows.
    out = [None] * len(x_keys)
    pools = {}  # x index -> [pool_y, pool_f, pool_F, phi], while refined
    windows = [(i, None) for i in range(len(x_keys))]
    cell = np.array([(hi - lo) / (grid.points_per_dim - 1) for lo, hi in box_y])
    for level in range(grid.refine_depth + 1):
        if level:
            seeds = _level_seeds(list(pools.values()), grid.max_seeds)
            windows = list(zip(pools, seeds))
        count = grid.refine_points if level else grid.points_per_dim
        for i, new in _sweep_level(f, g, F, box_y, x_keys, windows, count, cell):
            old = pools.pop(i, None)
            try:
                if isinstance(new, DomainError):  # raised by its level
                    raise new
                if old is not None:
                    new = [np.concatenate(pair) for pair in zip(old[:3], new)]
                elif not len(new[0]):  # no feasible coarse point
                    continue
                phi = _lower_optimum(new[1], x_keys[i])
            except DomainError as exc:
                out[i] = exc
                continue
            if level < grid.refine_depth:
                live = _live(new[1], phi, grid.max_seeds)
                pools[i] = [a[live] for a in new] + [phi]
            else:
                keep = new[1] <= _band_bound(phi)
                out[i] = (phi, *(a[keep] for a in new))
        if level:
            cell = cell / 10.0
    return out


def _sweep_level(f, g, F, box_y, x_keys, windows, count, cell):
    """Yield (i, (y, f, F), or the DomainError raised there) for each
    (i, centres) of windows, in order: the feasible points of x_keys[i]'s
    grids, count points per axis and stacked in order.  With centres None
    the one grid is the coarse grid of box_y (`_coarse_mesh`); otherwise
    the grids are the windows centres +- cell, clipped to box_y.

    Consecutive entries are stacked and evaluated once, with x given per
    row, as long as the stack holds at most MAX_STACKED_POINTS points: a
    stack of coarse grids tiles the memo's rows, and the windows of a stack
    are clipped and meshed by one `_mesh` call.  An entry alone is meshed
    as it is (a coarse grid is the memo's), with x as floats.  A
    DomainError of a stack belongs to no single x, so that stack is redone
    one x at a time.  Each stack is meshed only once the rows of the one
    before it are taken.
    """
    box = np.array(box_y, dtype=float).T

    def mesh(stack):
        if stack[0][1] is None:
            coarse = _coarse_mesh(box_y, count)
            return coarse if len(stack) == 1 else np.tile(coarse, (len(stack), 1))
        centres = np.concatenate([c for _, c in stack])
        lo, hi = centres - cell, centres + cell
        # clip to the box as Python's max/min would: np.maximum/np.minimum
        # pick the other zero when the two compare equal as +0 and -0
        return _mesh(np.where(lo > box[0], lo, box[0]),
                     np.where(hi < box[1], hi, box[1]), count)

    def alone(i, centres):
        try:
            return i, _evaluate(f, g, F, list(x_keys[i]), mesh([(i, centres)]))[:3]
        except DomainError as exc:
            return i, exc

    size = count ** len(box_y)  # the points of one grid
    sizes = [size if centres is None else len(centres) * size for _, centres in windows]
    begin = 0
    while begin < len(windows):
        end, held = begin + 1, sizes[begin]
        while end < len(windows) and held + sizes[end] <= MAX_STACKED_POINTS:
            held += sizes[end]
            end += 1
        stack, stacked, begin = windows[begin:end], sizes[begin:end], end
        if len(stack) == 1:
            yield alone(*stack[0])
            continue
        index = [i for i, _ in stack]
        xs = np.repeat(np.array([x_keys[i] for i in index]).T, stacked, axis=1)
        try:
            y, fv, Fv, keep = _evaluate(f, g, F, xs, mesh(stack))
        except DomainError:
            yield from (alone(*entry) for entry in stack)
            continue
        # each x's feasible rows end where its grids end
        ends = np.cumsum(keep)[np.cumsum(stacked) - 1].tolist()
        for i, a, b in zip(index, [0, *ends], ends):
            yield i, (y[a:b], fv[a:b], Fv[a:b])


def _lower_optimum(pool_f, x_key):
    """min f over the pool; raises DomainError when it is not finite: some
    pooled f is NaN (min propagates it), or phi is -inf (the band bound is
    NaN) or +inf (the band would hold every feasible point).  Past this
    check the pool holds no NaN f."""
    phi = float(pool_f.min())
    if not math.isfinite(phi):
        raise DomainError(f"lower-level optimum is {phi} at x={list(x_key)}")
    return phi


def _band_bound(phi):
    """The optimality band is f <= phi + default_tol_val(phi): the
    near-optimal lower-level points that stand in for S(x)."""
    return phi + default_tol_val(phi)


def _live(pool_f, phi, k):
    """Mask of the pooled points a later refinement level can still read:
    the band (its F extremes are seeds, and it is what the sweep returns)
    and every f up to the k-th smallest (the first seeds of
    `_refine_seeds`, ties included).  The pool holds no NaN f
    (`_lower_optimum`)."""
    if k >= len(pool_f):
        return np.ones(len(pool_f), dtype=bool)
    cut = _band_bound(phi)
    if k:
        cut = max(cut, float(np.partition(pool_f, k - 1)[k - 1]))
    return pool_f <= cut


def _refine_seeds(pool_y, pool_f, pool_F, phi, k):
    """Deterministic refinement seeds, as rows of an array: the first k
    points of the (f, lexicographic y) order, then the first minimiser and
    maximiser of F over the optimality band in lexicographic y order (a NaN
    F is picked first; -0.0 ties with +0.0), each dropped when it lies
    within 1e-15 of a seed kept before it.  phi is min pool_f."""
    lex = _lex_order(pool_y)
    f_lex = pool_f[lex]
    picks = lex[np.argsort(f_lex, kind="stable")[:k]]
    band = lex[f_lex <= _band_bound(phi)]
    if len(band):  # empty only for a NaN phi, which no sweep passes
        band_F = pool_F[band]
        picks = np.concatenate([picks, band[[band_F.argmin(), band_F.argmax()]]])
    points = pool_y[picks]
    near = np.max(np.abs(points[:, None] - points[None]), axis=2) < 1e-15
    kept = []
    for i in range(len(points)):
        if not near[i, kept].any():
            kept.append(i)
    return points[kept]


def _level_seeds(pools, k):
    """The seeds `_refine_seeds` picks in each pool of pools (a list of
    [pool_y, pool_f, pool_F, phi]), in order.

    A single pool goes to `_refine_seeds`.  Several are read as segments of
    one concatenated pool, in one pass: a sort by (segment, f,
    lexicographic y) gives each segment's first k rows; the band and the
    first F minimiser and maximiser come per segment from the sort by
    (segment, lexicographic y) (a NaN F is picked first, -0.0 ties with
    +0.0).
    The k + 2 picks of each segment sit in one row of a table, and the
    1e-15 drop runs as k + 2 masked steps over the table's distances.
    """
    if len(pools) < 2:
        return [_refine_seeds(*pool, k) for pool in pools]
    ys, fs, Fs, phis = zip(*pools)
    counts = np.array([len(f) for f in fs])
    seg = np.repeat(np.arange(len(pools)), counts)
    y, f, F = np.concatenate(ys), np.concatenate(fs), np.concatenate(Fs)
    # segments are contiguous, so seg is also the segment of each position
    # of an order that sorts by segment first
    lex = np.lexsort((*y.T[::-1], seg))
    order = np.lexsort((*y.T[::-1], f, seg))
    rank = np.arange(len(f)) - (np.cumsum(counts) - counts)[seg]
    table = np.zeros((len(pools), k + 2), dtype=np.intp)
    valid = np.zeros(table.shape, dtype=bool)
    first = rank < k
    table[seg[first], rank[first]] = order[first]
    valid[seg[first], rank[first]] = True
    in_band = f[lex] <= np.array([_band_bound(phi) for phi in phis])[seg]
    band, band_seg = lex[in_band], seg[in_band]
    band_F = F[band]
    # the segments with a band (empty only for a NaN phi), and their widths
    width = np.bincount(band_seg)
    owner = np.flatnonzero(width)
    width = width[owner]
    head = np.cumsum(width) - width
    for col, extreme in ((k, np.minimum), (k + 1, np.maximum)):
        # a NaN makes the segment's extreme NaN, and is then the only hit
        at_extreme = band_F == np.repeat(extreme.reduceat(band_F, head), width)
        hit = np.flatnonzero(at_extreme | np.isnan(band_F))
        hit = hit[np.searchsorted(band_seg[hit], owner)]
        table[owner, col] = band[hit]
        valid[owner, col] = True
    points = y[table]
    near = np.max(np.abs(points[:, :, None] - points[:, None]), axis=3) < 1e-15
    kept = valid.copy()
    for j in range(1, k + 2):
        kept[:, j] &= ~(near[:, j, :j] & kept[:, :j]).any(axis=1)
    return [p[c] for p, c in zip(points, kept)]


def _sweep(prog: BilevelProgram, x, grid: GridSpec):
    """(phi, band_y, band_f, band_F) of prog (a program or a `_Problem`) at
    x, from the sweep prog shares with its negated-upper twin; band_F comes
    negated (a read-only copy) when F carries an odd number of top-level
    negations.  Raises InfeasibleError when no grid point is feasible at
    x."""
    F, negated = prog.F._peel_negations()
    x_key = _xkey(x, prog.n)
    swept = _solve_lower(prog.m, prog.f, prog.g, prog.box_y, F, x_key, grid)
    if swept is None:
        raise InfeasibleError(f"no feasible lower-level point at x={list(x_key)}")
    phi, band_y, band_f, band_F = swept
    if negated:
        band_F = -band_F
        band_F.flags.writeable = False
    return phi, band_y, band_f, band_F


def lower_value(prog: BilevelProgram, x, grid: GridSpec = GridSpec()) -> float:
    """phi(x): lower-level optimal value over the gridded feasible set."""
    phi, *_ = _sweep(prog, x, grid)
    return phi


def _xkey(x, n):
    """x as a tuple of floats, the form every memo of a point is keyed on;
    raises DimensionMismatchError unless x has n coordinates."""
    key = tuple(np.array(x, dtype=float).ravel().tolist())
    if len(key) != n:
        raise DimensionMismatchError(f"point has {len(key)} coordinates, not {n}")
    return key


def _dedup_points(points: np.ndarray, resolution: float):
    """Greedy dedup at the given spatial resolution, in the given order.

    A point is kept unless some already-kept point lies within resolution
    in the max norm.  Points sit in buckets of width 2 * resolution, and
    the candidate pairs of a point are the points in its 3^m neighbouring
    buckets, found by sorting the buckets; a pair (i, j), i < j, is near
    when its distance is not greater than resolution.  The greedy is
    resolved in rounds over the near pairs: a point none of whose earlier
    near points is kept or undecided is kept, and a point with a kept
    earlier near point is dropped.  Each round decides at least the first
    undecided point, and the kept rows are exactly those the all-pairs
    greedy gives, returned as one array.  Memory is linear in the number
    of candidate pairs.
    """
    n = len(points)
    cells = np.floor(points / (2.0 * resolution))
    # a key per point's bucket, and per neighbour bucket one that equals a
    # point's key only if that point is in it: one digit per axis, the
    # rank of the cell among the axis's cells, or past them when no point
    # has it; from the second axis on, the keys so far are ranked first
    # so that they stay below n
    key, near = np.zeros(n, dtype=np.intp), np.zeros((n, 1), dtype=np.intp)
    for a, col in enumerate(cells.T):
        if a:
            buckets, key = np.unique(key, return_inverse=True)
            at = np.searchsorted(buckets, near)
            near = np.where(buckets[np.minimum(at, len(buckets) - 1)] == near,
                            at, len(buckets))
        axis = np.unique(col)
        want = col[:, None] + np.array([-1.0, 0.0, 1.0])
        at = np.searchsorted(axis, want)
        at = np.where(axis[np.minimum(at, len(axis) - 1)] == want, at, len(axis))
        key = key * (len(axis) + 1) + np.searchsorted(axis, col)
        near = (near[:, :, None] * (len(axis) + 1) + at[:, None, :]).reshape(
            n, 3 * near.shape[1])
    # candidate pairs: each point j with every point i in its neighbour
    # buckets, read from the points sorted by key
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.searchsorted(key, near, "left").ravel()
    size = np.searchsorted(key, near, "right").ravel() - start
    j = np.repeat(np.repeat(np.arange(n), near.shape[1]), size)
    i = order[np.repeat(start - (np.cumsum(size) - size), size) + np.arange(len(j))]
    i, j = i[i < j], j[i < j]
    close = ~(np.max(np.abs(points[i] - points[j]), axis=1) > resolution)
    i, j = i[close], j[close]
    kept = np.zeros(n, dtype=bool)
    undecided = np.ones(n, dtype=bool)
    while undecided.any():
        waiting = np.zeros(n, dtype=bool)
        waiting[j] = True
        kept |= undecided & ~waiting
        undecided &= waiting
        undecided[j[kept[i]]] = False
        live = undecided[i] & undecided[j]
        i, j = i[live], j[live]
    return points[kept]


class _Problem(NamedTuple):
    """What a solution set reads of a program, and all that `_sweep`
    reads: the lower-level problem and F, negations kept (their sign picks
    S_o)."""

    n: int
    m: int
    f: Expr
    g: Tuple[Expr, ...]
    box_y: Tuple[Tuple[float, float], ...]
    F: Expr

    @classmethod
    def of(cls, prog: BilevelProgram) -> "_Problem":
        return cls(prog.n, prog.m, prog.f, prog.g, prog.box_y, prog.F)


@memo(_SOLUTION_ENTRIES)
def _solution_set(which: str, problem: _Problem, x_key: Tuple[float, ...],
                  grid: GridSpec):
    """S(x) (which = "lower") or S_o(x) ("optimistic") of problem at x_key.

    Memoised in an LRU of _SOLUTION_ENTRIES entries; SolutionSet is frozen
    and its points array read-only, so every caller shares one.
    InfeasibleError is not cached; the sweep memo answers a repeat.
    """
    _, band_y, band_f, band_F = _sweep(problem, x_key, grid)
    if which == "lower":
        keys, value = band_f, float(band_f.min())
    else:
        keys, value = band_F, _upper_optimum(band_F, x_key, problem.n)
    band_tol = default_tol_val(value)
    sel = keys <= value + band_tol
    pts = band_y[sel]
    # stable order by (key, lexicographic y)
    order = np.lexsort((*pts.T[::-1], keys[sel]))
    cell = grid.finest_cell(problem.box_y)
    return SolutionSet(_dedup_points(pts[order], cell * 0.999), value,
                       band_tol, cell)


def lower_solutions(prog: BilevelProgram, x,
                    grid: GridSpec = GridSpec()) -> SolutionSet:
    """S(x): feasible grid points whose f-value is within
    `default_tol_val(phi)` of phi(x).  S(x) does not read F, so it is keyed
    as the sweep is, with F's top-level negations stripped: a program and
    its negated-upper twin share one entry."""
    problem = _Problem.of(prog)._replace(F=prog.F._peel_negations()[0])
    return _solution_set("lower", problem, _xkey(x, prog.n), grid)


def _upper_optimum(band_F, x, n):
    """min F over the band; raises DomainError when it is not finite (an
    F of -inf or NaN on the band, or +inf on all of it).  The message
    gives no value: phi_p reads it on the negated-upper program, with the
    opposite sign."""
    value = float(band_F.min())
    if not math.isfinite(value):
        raise DomainError(
            f"upper-level value is not finite at x={list(_xkey(x, n))}")
    return value


def optimistic_value(prog: BilevelProgram, x, grid: GridSpec = GridSpec()) -> float:
    """phi_o(x) = min F(x, .) over the near-optimal lower-level band;
    raises DomainError when it is not finite."""
    *_, band_F = _sweep(prog, x, grid)
    return _upper_optimum(band_F, x, prog.n)


def pessimistic_value(prog: BilevelProgram, x, grid: GridSpec = GridSpec()) -> float:
    """phi_p(x) = max F over the band, computed as -phi_o of the negated
    program so the sign identity between the two models is exact."""
    return -optimistic_value(prog.negated_upper(), x, grid)


def optimistic_solutions(prog: BilevelProgram, x,
                         grid: GridSpec = GridSpec()) -> SolutionSet:
    """S_o(x): members of S(x) whose upper objective is within
    `default_tol_val(phi_o)` of phi_o(x)."""
    return _solution_set("optimistic", _Problem.of(prog), _xkey(x, prog.n),
                         grid)


def pessimistic_solutions(prog: BilevelProgram, x,
                          grid: GridSpec = GridSpec()) -> SolutionSet:
    """Worst-case solution set: the optimistic one of the negated program."""
    sol = optimistic_solutions(prog.negated_upper(), x, grid)
    return SolutionSet(sol.points, -sol.value, sol.tol_val, sol.finest_cell)


class _ValueFunction:
    """x -> phi(x), phi_o(x) or phi_p(x) of one program on one grid (see
    `value_function`).  `ahead(points)` is a context in which the sweeps
    of the points it will be asked for next run together (`_ahead`)."""

    def __init__(self, prog: BilevelProgram, which: str, grid: GridSpec):
        if which not in ("phi", "phi_o", "phi_p"):
            raise ValueError(f"unknown value function {which!r}")
        self.prog, self.which, self.grid = prog, which, grid

    def __call__(self, x) -> float:
        if self.which == "phi":
            return lower_value(self.prog, x, self.grid)
        if self.which == "phi_o":
            return optimistic_value(self.prog, x, self.grid)
        return pessimistic_value(self.prog, x, self.grid)

    def ahead(self, points):
        return _ahead(self.prog, points, self.grid)


def value_function(
    prog: BilevelProgram, which: str, grid: GridSpec = GridSpec()
) -> Callable:
    """Callable x -> value for 'phi', 'phi_o' or 'phi_p'; raises
    InfeasibleError outside dom phi (the fd oracle skips those samples).
    Its `ahead(points)` announces the points it will be asked for next."""
    return _ValueFunction(prog, which, grid)


# -- curve tabulation ---------------------------------------------------------


@dataclass(frozen=True)
class CurveRow:
    x: Tuple[float, ...]
    value: float
    status: str


def sample_curve(
    prog: BilevelProgram,
    which: str,
    grid: GridSpec = GridSpec(),
    x_range: Optional[Tuple[float, float, int]] = None,
    points_per_axis: int = 41,
):
    """Tabulate phi / phi_o / phi_p over an x-grid (n <= 2).

    Infeasible x's produce flagged rows rather than failing the sweep.
    Raises BudgetError, before any sweep, when the x-grid would hold more
    than MAX_GRID_POINTS points.
    """
    if prog.n > 2:
        raise UnsupportedDimensionError("curve tabulation supports n <= 2 only")
    bounds, counts = prog.box_x, [points_per_axis] * prog.n
    if prog.n == 1 and x_range is not None:
        bounds, counts = [x_range[:2]], [int(x_range[2])]
    if math.prod(counts) > MAX_GRID_POINTS:
        raise BudgetError(f"x-grid of {math.prod(counts)} points exceeds "
                          f"{MAX_GRID_POINTS} points")
    xs = list(product(*(np.linspace(lo, hi, c).tolist()
                        for (lo, hi), c in zip(bounds, counts))))
    h = value_function(prog, which, grid)
    rows = []
    for xv in xs:
        try:
            rows.append(CurveRow(xv, h(list(xv)), "ok"))
        except InfeasibleError:
            rows.append(CurveRow(xv, float("nan"), "infeasible"))
    return rows


def curve_to_csv(rows, n: int) -> str:
    """CSV with IEEE-754 shortest round-trip decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["x1"] + (["x2"] if n == 2 else []) + ["value", "status"]
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [repr(float(c)) for c in row.x]
            + [repr(float(row.value)), row.status]
        )
    return buf.getvalue()
