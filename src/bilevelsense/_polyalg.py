"""Low-level polyhedral helpers shared by the multiplier and CQ machinery.

Everything here works on standard-form systems {w >= 0 : A w = b} small
enough that exhaustive basic-solution enumeration is the most reliable
vertex oracle available: desk-scale row counts never exceed m + 2 <= 4.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

import numpy as np

from ._memo import memo
from .errors import BudgetError


# Bound on each A-keyed memo below, in entries (distinct A matrices).
_MEMO_ENTRIES = 64
# Bound on the V-representation memo, in entries (distinct (A, B, res_tol):
# one entry answers a whole stack B of right-hand sides).
_VREP_ENTRIES = 256
# Bound on the LP memo, in entries (distinct LPs).
_LP_ENTRIES = 256
# Bound on the column subsets one enumeration may scan, read at each call.
MAX_BASES = 300000


def _ncr_total(n, r):
    total = 0
    c = 1
    for k in range(r + 1):
        total += c
        c = c * (n - k) // (k + 1) if n > k else 0
    return total


def _check_budget(n_rows, n_cols):
    if _ncr_total(n_cols, min(n_rows, n_cols)) > MAX_BASES:
        raise BudgetError("basis enumeration bound exceeded")


@memo(_MEMO_ENTRIES)
def _smallest_singular_values(A):
    """Per subset size s = 1..min(rows, cols), the smallest singular value
    of every s-column subset of A, in combinations() order.

    Singular values come sorted, so count_nonzero(sv > tol) == s, which is
    np.linalg.matrix_rank(A_J, tol) == s, holds exactly when the smallest
    one exceeds tol.
    """
    n_rows, n_cols = A.shape
    return tuple(
        np.array([np.linalg.svd(A[:, J], compute_uv=False)[-1]
                  for J in combinations(range(n_cols), size)])
        for size in range(1, min(n_rows, n_cols) + 1))


def basic_vertices(A: np.ndarray, B: np.ndarray,
                   res_tol: Optional[float] = None):
    """All vertices of {w >= 0 : A w = b} by basic-solution enumeration,
    for each row b of the (k, rows) stack B: one vertex list per row.

    A vertex's support indexes linearly independent columns, so scanning
    independent column subsets of size <= n_rows finds every vertex (plus
    possibly some non-extreme feasible points, which is harmless for the
    hull-level consumers).  res_tol relaxes the residual acceptance (scaled
    by the data magnitude); callers working from grid-snapped points pass
    their grid blur here.  The rank test's singular values depend on A
    only and are memoised on A (LRU of _MEMO_ENTRIES).

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
    smallest_sv = _smallest_singular_values(A)
    outs = [[] for _ in B]
    seens = [set() for _ in B]
    zero = np.zeros(n_cols)
    for q, (bm, tol) in enumerate(zip(b_max.tolist(), res_tol)):
        if bm <= tol:
            outs[q].append(zero.copy())
            seens[q].add(tuple(np.round(zero, 11)))
    for size, svs in enumerate(smallest_sv, start=1):
        for J, sv in zip(combinations(range(n_cols), size), svs.tolist()):
            rows = [q for q, e in enumerate(eps) if sv > e]
            if not rows:
                continue
            AJ = A[:, J]
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


@memo(_MEMO_ENTRIES)
def _recession_rays(A):
    """Nonzero basic solutions of {w >= 0 : A w = 0, sum w = 1}."""
    aug = np.vstack([A, np.ones(A.shape[1])])
    b_aug = np.concatenate([np.zeros(A.shape[0]), [1.0]])
    return tuple(r for r in basic_vertices(aug, b_aug[None])[0]
                 if np.max(np.abs(r)) > 0)


@memo(_VREP_ENTRIES)
def _vrep(A, B, res_tol):
    """(vertices, rays) of {w >= 0 : A w = b} per row b of the stack B, for
    standard_vrep_grid and standard_vrep.

    basic_vertices is looked up as a module global on every miss, so a
    wrapper installed on it sees each enumeration that runs.
    """
    vert_lists = basic_vertices(A, B, res_tol)
    rays = _recession_rays(A) if any(vert_lists) else ()
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
    (A, B, res_tol), the whole stack (LRU of _VREP_ENTRIES); the rays on A
    alone (LRU of _MEMO_ENTRIES).  Every caller shares the read-only
    arrays.
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
def _lp(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """(success, fun, x) of `linprog(..., method="highs")`, x None when the
    solve failed.

    Memoised in an LRU of _LP_ENTRIES entries on every input linprog reads
    (None for an absent block, so an absent and an empty block differ);
    HiGHS is deterministic, so a failed solve is memoised too.
    scipy.optimize is imported here, on a miss.
    """
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=list(bounds), method="highs")
    if not res.success:
        return False, None, None
    return True, float(res.fun), np.array(res.x)


class LPBuilder:
    """Tiny indexed LP front end over scipy's HiGHS solver.

    Supports hard equality rows, soft rows |row - rhs| <= t with t the
    minimax objective, and plain linear objectives.  Deterministic by
    construction (fixed variable and row order).  Both solve methods hand
    their dense arrays to `_lp`, which answers a repeated LP from its memo
    and imports scipy.optimize only on a miss, so a run that solves no LP
    (a `sample` request, say) never loads it.  A solution is shared
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
        self.lb.append(lb)
        self.ub.append(ub)
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

    def _dense(self, rows):
        n = len(self.lb)
        out = np.zeros((len(rows), n))
        for r, coeffs in enumerate(rows):
            for j, c in coeffs.items():
                out[r, j] = c
        return out

    def minimize_max_violation(self):
        """Returns (optimal t, solution w) or (None, None) if infeasible."""
        n = len(self.lb)
        c = np.zeros(n + 1)
        c[n] = 1.0  # t appended last
        bounds = (*zip(self.lb, self.ub), (0.0, None))
        A_eq = None
        b_eq = None
        if self.eq_rows:
            A_eq = np.hstack([self._dense(self.eq_rows), np.zeros((len(self.eq_rows), 1))])
            b_eq = np.array(self.eq_rhs)
        blocks = []
        rhs = []
        if self.soft_rows:
            S = self._dense(self.soft_rows)
            ones = np.ones((len(self.soft_rows), 1))
            blocks.append(np.hstack([S, -ones]))
            rhs.extend(self.soft_rhs)
            blocks.append(np.hstack([-S, -ones]))
            rhs.extend([-v for v in self.soft_rhs])
        if self.le_rows:
            L = self._dense(self.le_rows)
            blocks.append(np.hstack([L, np.zeros((len(self.le_rows), 1))]))
            rhs.extend(self.le_rhs)
        A_ub = np.vstack(blocks) if blocks else None
        b_ub = np.array(rhs) if blocks else None
        success, _, x = _lp(c, A_ub, b_ub, A_eq, b_eq, bounds)
        if not success:
            return None, None
        return float(x[-1]), x[:-1]

    def maximize(self, coeffs: dict):
        """Returns (optimal value, solution) or (None, None)."""
        n = len(self.lb)
        c = np.zeros(n)
        for j, v in coeffs.items():
            c[j] = -v
        A_eq = self._dense(self.eq_rows) if self.eq_rows else None
        b_eq = np.array(self.eq_rhs) if self.eq_rows else None
        A_ub = self._dense(self.le_rows) if self.le_rows else None
        b_ub = np.array(self.le_rhs) if self.le_rows else None
        success, fun, x = _lp(c, A_ub, b_ub, A_eq, b_eq,
                              tuple(zip(self.lb, self.ub)))
        if not success:
            return None, None
        return -fun, x

