"""Low-level polyhedral helpers shared by the multiplier and CQ machinery.

Everything here works on standard-form systems {w >= 0 : A w = b} small
enough that exhaustive basic-solution enumeration is the most reliable
vertex oracle available: desk-scale row counts never exceed m + 2 <= 4.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from itertools import combinations
from typing import Optional

import numpy as np

from ._memo import memo
from .errors import BudgetError


# Bound on the V-representation memo, in entries (distinct (A, B, res_tol):
# one entry answers a whole stack B of right-hand sides).
_VREP_ENTRIES = 256
# Bound on the LP memo, in entries (distinct LPs).
_LP_ENTRIES = 256
# Bound on the column subsets one enumeration may scan, read at each call.
MAX_BASES = 300000


def _check_budget(n_rows, n_cols):
    """Raise BudgetError when the column subsets of size <= n_rows (the
    empty one included) outnumber MAX_BASES."""
    subsets = sum(math.comb(n_cols, k) for k in range(min(n_rows, n_cols) + 1))
    if subsets > MAX_BASES:
        raise BudgetError("basis enumeration bound exceeded")


def basic_vertices(A: np.ndarray, B: np.ndarray,
                   res_tol: Optional[float] = None):
    """All vertices of {w >= 0 : A w = b} by basic-solution enumeration,
    for each row b of the (k, rows) stack B: one vertex list per row.

    A vertex's support indexes linearly independent columns, so scanning
    independent column subsets of size <= n_rows finds every vertex (plus
    possibly some non-extreme feasible points, which is harmless for the
    hull-level consumers).  res_tol relaxes the residual acceptance (scaled
    by the data magnitude); callers working from grid-snapped points pass
    their grid blur here.

    Each subset is solved for every row it is independent for at once:
    one multi-column lstsq, or one stacked solve and refinement step, with
    residuals from a stacked matmul.  Each row gets the bits its own
    one-b call gives (tests/test_polyalg.py pins the three forms); a 2-D
    matrix product or right-hand side would not.  A LinAlgError depends
    on the subset alone, so it skips the subset for every row.
    """
    n_rows, n_cols = A.shape
    b_max = np.max(np.abs(B), axis=1, initial=0.0)
    scale = 1.0 + float(np.max(np.abs(A), initial=0.0)) + b_max
    # per-row bounds as floats, so each row's test is its one-b comparison
    res_tol = ((1e-9 if res_tol is None else res_tol) * scale).tolist()
    eps = (1e-10 * scale).tolist()  # rank and sign tolerance
    _check_budget(n_rows, n_cols)
    outs = [[] for _ in B]
    seens = [set() for _ in B]
    zero = np.zeros(n_cols)
    for q, (bm, tol) in enumerate(zip(b_max.tolist(), res_tol)):
        if bm <= tol:
            outs[q].append(zero.copy())
            seens[q].add(tuple(np.round(zero, 11)))
    for size in range(1, min(n_rows, n_cols) + 1):
        for J in combinations(range(n_cols), size):
            AJ = A[:, J]
            # singular values come sorted, so the rank test
            # np.linalg.matrix_rank(AJ, e) == size is the smallest one > e
            sv = float(np.linalg.svd(AJ, compute_uv=False)[-1])
            rows = [q for q, e in enumerate(eps) if sv > e]
            if not rows:
                continue
            Bk = B if len(rows) == len(B) else B[rows]
            # (rows, n_rows, 1): a stack of one-column right-hand sides,
            # against which AJ broadcasts as a stack of matrices
            Bs = Bk[:, :, None]
            if size == n_rows:
                try:
                    W = np.linalg.solve(AJ, Bs)
                    W += np.linalg.solve(AJ, Bs - AJ @ W)  # one refinement step
                except np.linalg.LinAlgError:
                    continue
            else:
                W = np.linalg.lstsq(AJ, Bk.T, rcond=None)[0]
                W = W.T.reshape(len(rows), size, 1)
            mins = W.min(axis=(1, 2)).tolist()
            res = np.abs(AJ @ W - Bs).max(axis=(1, 2)).tolist()
            for i, q in enumerate(rows):
                if mins[i] < -eps[q] or res[i] > res_tol[q]:
                    continue
                w = np.zeros(n_cols)
                w[list(J)] = np.clip(W[i, :, 0], 0.0, None)
                key = tuple(np.round(w, 11))
                if key not in seens[q]:
                    seens[q].add(key)
                    outs[q].append(w)
    return outs


@memo(_VREP_ENTRIES)
def _vrep(A, B, res_tol):
    """(vertices, rays) of {w >= 0 : A w = b} per row b of the stack B, for
    standard_vrep_grid and standard_vrep.

    basic_vertices is looked up as a module global on every miss, so a
    wrapper installed on it sees each enumeration that runs.
    """
    vert_lists = basic_vertices(A, B, res_tol)
    rays = ()
    if any(vert_lists):
        # the nonzero basic solutions of {A w = 0, sum w = 1}
        aug = np.vstack([A, np.ones(A.shape[1])])
        b_aug = np.concatenate([np.zeros(A.shape[0]), [1.0]])
        rays = tuple(r for r in basic_vertices(aug, b_aug[None])[0]
                     if np.max(np.abs(r)) > 0)
    return tuple((tuple(verts), rays) if verts else ((), ())
                 for verts in vert_lists)


def standard_vrep_grid(A: np.ndarray, B: np.ndarray,
                       res_tol: Optional[float] = None):
    """[(vertices, rays)] of {w >= 0 : A w = b}, one per row b of the
    (k, rows) stack B.

    Rays come from the normalized recession system {A w = 0, sum w = 1}
    and are skipped when there is no vertex.  The ray system's budget,
    which covers the vertex system's, is checked before any lookup or
    enumeration against MAX_BASES as it is at the call, so an over-budget
    system raises BudgetError on every call and no entry is read under a
    lower bound than it was made under.  The result is memoised on
    (A, B, res_tol), the whole stack (LRU of _VREP_ENTRIES), and every
    caller shares the read-only arrays.
    """
    _check_budget(A.shape[0] + 1, A.shape[1])
    return [(list(verts), list(rays)) for verts, rays in _vrep(A, B, res_tol)]


def standard_vrep(A: np.ndarray, b: np.ndarray,
                  res_tol: Optional[float] = None):
    """(vertices, rays) of {w >= 0 : A w = b}: standard_vrep_grid on the
    one-row stack [b], under the same budget check and memo."""
    _check_budget(A.shape[0] + 1, A.shape[1])
    (verts, rays), = _vrep(A, b[None], res_tol)
    return list(verts), list(rays)


@memo(_LP_ENTRIES)
def _lp(c, A, row_lo, row_hi, lb, ub):
    """(success, fun, x) of HiGHS on min c x subject to
    row_lo <= A x <= row_hi and lb <= x <= ub, x None when the solve
    failed.

    A holds the ub rows (row_lo -inf) and then the eq rows (row_lo equal
    to row_hi); a free bound is -inf or inf.  Memoised in an LRU of
    _LP_ENTRIES entries on the model HiGHS is given; HiGHS is
    deterministic, so a failed solve is memoised too.  _highs_lp is
    looked up as a module global on every miss, so a wrapper installed on
    it sees each solve that runs.
    """
    return _highs_lp(c, A, row_lo, row_hi, lb, ub)


# scipy's HiGHS binding and the options of every solve, set on the first
# LP miss (_highs_lp).  The binding is loaded from its extension file, so
# that no run imports scipy.optimize and a run which solves no LP loads
# nothing of scipy.
_HIGHS = None
# The tolerance of linprog's post-check of an optimal answer: 10 * sqrt(tol)
# at its default tol = 1e-9.
_CHECK_TOL = 10 * math.sqrt(1e-9)
# The binding's module name, under which _binding loads and registers it.
_CORE = "scipy.optimize._highspy._core"


def _core_file():
    """The path of the binding's extension file, scipy/optimize/_highspy/
    _core with one of the interpreter's extension suffixes.
    find_spec("scipy") runs no scipy code.  Raises ImportError, naming the
    paths it tried, when there is no such file."""
    spec = importlib.util.find_spec("scipy")
    tried = [os.path.join(root, "optimize", "_highspy", "_core" + suffix)
             for root in (spec and spec.submodule_search_locations) or ()
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in tried:
        if os.path.isfile(path):
            return path
    raise ImportError(f"no extension file of {_CORE}; tried "
                      f"{tried or 'nothing: scipy is not installed'}",
                      name=_CORE)


def _binding():
    """scipy.optimize._highspy._core: the module already in sys.modules,
    else the one loaded from _core_file() under its own name without
    running the __init__ of scipy or scipy.optimize.  The loaded module is
    in sys.modules, so a later import of scipy.optimize uses it too."""
    module = sys.modules.get(_CORE)
    if module is not None:
        return module
    spec = importlib.util.spec_from_file_location(_CORE, _core_file())
    module = importlib.util.module_from_spec(spec)
    sys.modules[_CORE] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[_CORE]
        raise
    return module


def _highs():
    """(binding, options): scipy's HiGHS binding (_binding) and one
    HighsOptions holding the five values linprog(method="highs") sets.
    Each solve passes the options to a fresh _Highs, which copies them."""
    global _HIGHS
    if _HIGHS is None:
        h = _binding()
        options = h.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = h.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = \
            h.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        _HIGHS = h, options
    return _HIGHS


def _highs_lp(c, A, row_lo, row_hi, lb, ub):
    """(success, fun, x) of one call of scipy's HiGHS binding on the model
    of `_lp`, bit for bit what `linprog(..., method="highs")` answers for
    the same LP.

    A goes to HiGHS as a column-wise sparse matrix without its zeros.
    Success is HiGHS's optimal status plus linprog's post-check
    (_within_tolerance), which takes a row with row_lo == row_hi as an eq
    row.  An inf or a nan in c, A or row_hi raises ValueError, as linprog
    does.
    """
    h, options = _highs()
    if not (np.isfinite(c).all() and np.isfinite(A).all()
            and np.isfinite(row_hi).all()):
        raise ValueError("LP data must not contain inf or nan")
    n, rows = len(c), len(row_hi)
    cols, idx = np.nonzero(A.T)  # column by column, rows ascending
    lp = h.HighsLp()
    lp.num_col_ = n
    lp.num_row_ = rows
    lp.a_matrix_.num_col_ = n
    lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_ = c
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    lp.row_lower_ = row_lo
    lp.row_upper_ = row_hi
    lp.a_matrix_.start_ = np.searchsorted(
        cols, np.arange(n + 1)).astype(np.int32)
    lp.a_matrix_.index_ = idx.astype(np.int32)
    lp.a_matrix_.value_ = A[idx, cols]
    highs = h._Highs()
    error = h.HighsStatus.kError
    if (highs.passOptions(options) == error or highs.passModel(lp) == error
            or highs.run() == error
            or highs.getModelStatus() != h.HighsModelStatus.kOptimal):
        return False, None, None
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    slack = row_hi - np.array(solution.row_value)
    eq = row_lo == row_hi
    if not _within_tolerance(x, fun, slack[~eq], slack[eq], lb, ub):
        return False, None, None
    return True, float(fun), x


def _within_tolerance(x, fun, slack, con, lb, ub):
    """linprog's post-check of an optimal answer (scipy's _check_result):
    no nan anywhere, x within its bounds, and the row slack row_hi - A x
    at least -_CHECK_TOL on every ub row (slack) and at most _CHECK_TOL
    off zero on every eq row (con, the residual)."""
    tol = _CHECK_TOL
    if (np.isnan(x).any() or np.isnan(fun) or np.isnan(slack).any()
            or np.isnan(con).any()):
        return False
    return bool(((x >= lb - tol) & (x <= ub + tol)).all()
                and not (slack < -tol).any() and not (np.abs(con) > tol).any())


class LPBuilder:
    """Tiny indexed LP front end over HiGHS, through scipy's binding.

    Supports hard equality rows, soft rows |row - rhs| <= t with t the
    minimax objective, and plain linear objectives.  Deterministic by
    construction (fixed variable and row order).  Both solve methods
    build the model `_lp` takes (_model: a dense matrix of the ub rows,
    then the eq rows, with their row bounds, and the variable bounds with
    None as -inf or inf) and hand it to `_lp`, which answers a repeated
    LP from its memo and calls HiGHS directly on a miss (_highs_lp).
    The binding is loaded from its file on the first miss and
    scipy.optimize is never imported, so a run that solves no LP (a
    `sample` request, say) loads nothing of scipy.  A solution is shared
    read-only with every caller that built the same LP.
    """

    def __init__(self):
        self.lb: list = []
        self.ub: list = []
        self.eq_rows: list = []
        self.eq_rhs: list = []
        self.soft_rows: list = []
        self.soft_rhs: list = []
        self.le_rows: list = []
        self.le_rhs: list = []

    def var(self, lb=0.0, ub=None) -> int:
        self.lb.append(-np.inf if lb is None else lb)
        self.ub.append(np.inf if ub is None else ub)
        return len(self.lb) - 1

    def eq(self, coeffs: dict, rhs: float):
        self.eq_rows.append(dict(coeffs))
        self.eq_rhs.append(float(rhs))

    def soft(self, coeffs: dict, rhs: float):
        self.soft_rows.append(dict(coeffs))
        self.soft_rhs.append(float(rhs))

    def le(self, coeffs: dict, rhs: float):
        self.le_rows.append(dict(coeffs))
        self.le_rhs.append(float(rhs))

    def _dense(self, rows, extra=0):
        """rows as a dense array with extra zero columns after the
        variables'."""
        out = np.zeros((len(rows), len(self.lb) + extra))
        for r, coeffs in enumerate(rows):
            for j, c in coeffs.items():
                out[r, j] = c
        return out

    def _model(self, c, ub_blocks, ub_rhs, extra=0):
        """The arguments of `_lp` for min c x subject to the rows of
        ub_blocks <= ub_rhs, then the eq rows, over the variables' bounds
        and extra (0, inf) columns after them."""
        row_hi = np.array(ub_rhs + self.eq_rhs)
        row_lo = row_hi.copy()
        row_lo[:len(ub_rhs)] = -np.inf
        A = np.concatenate((*ub_blocks, self._dense(self.eq_rows, extra)))
        lb = np.array(self.lb + [0.0] * extra, dtype=float)
        ub = np.array(self.ub + [np.inf] * extra, dtype=float)
        return c, A, row_lo, row_hi, lb, ub

    def minimize_max_violation(self):
        """Returns (optimal t, solution w) or (None, None) if infeasible."""
        n = len(self.lb)
        c = np.zeros(n + 1)
        c[n] = 1.0  # t appended last
        # soft rows as S w - t <= rhs and -S w - t <= -rhs
        S = self._dense(self.soft_rows, 1)
        soft = np.vstack((S, -S))
        soft[:, n] = -1.0
        rhs = self.soft_rhs + [-v for v in self.soft_rhs] + self.le_rhs
        success, _, x = _lp(*self._model(
            c, (soft, self._dense(self.le_rows, 1)), rhs, 1))
        if not success:
            return None, None
        return float(x[-1]), x[:-1]

    def maximize(self, coeffs: dict):
        """Returns (optimal value, solution) or (None, None)."""
        c = np.zeros(len(self.lb))
        for j, v in coeffs.items():
            c[j] = -v
        success, fun, x = _lp(*self._model(
            c, (self._dense(self.le_rows),), self.le_rhs))
        if not success:
            return None, None
        return -fun, x
