import numpy as np
import pytest

from bilevelsense import _polyalg
from bilevelsense._polyalg import standard_vrep
from bilevelsense.errors import BudgetError

# Lifted estimate system: one stationarity row, then the F-weight and
# f-weight sum rows; columns 3 and 4 cancel in the first row, so the
# recession cone has a ray.  r < 0 leaves the system without a vertex.
A = np.array([
    [1.0, -2.0, 0.5, 1.0, -1.0],
    [1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1.0, 1.0, 0.0, 0.0],
])
R_VALUES = (-1.0, 0.0, 0.5, 1.0, 2.0, 5.0, 10.0)


def _b(r):
    return np.array([0.0, 1.0, r])


def _clear_memos():
    _polyalg._smallest_singular_values.cache_clear()
    _polyalg._recession_rays.cache_clear()
    _polyalg._vrep.cache_clear()


def _same(vrep_a, vrep_b):
    return all(len(x) == len(y) and all(np.array_equal(u, v) for u, v in zip(x, y))
               for x, y in zip(vrep_a, vrep_b))


def test_r_grid_reuse_matches_fresh_enumeration():
    _clear_memos()
    warm = [standard_vrep(A, _b(r)) for r in R_VALUES]
    warm.append(standard_vrep(A, _b(0.3), res_tol=1e-6))
    assert any(verts and rays for verts, rays in warm)
    assert any(not verts for verts, _ in warm)
    for r, got in zip(R_VALUES, warm):
        _clear_memos()
        assert _same(got, standard_vrep(A, _b(r)))
    _clear_memos()
    assert _same(warm[-1], standard_vrep(A, _b(0.3), res_tol=1e-6))


def test_returned_generators_are_not_shared():
    _clear_memos()
    verts, rays = standard_vrep(A, _b(1.0))
    assert verts and rays
    first = ([v.copy() for v in verts], [r.copy() for r in rays])
    for arr in (*verts, *rays):
        arr[:] = 99.0
    again = standard_vrep(A, _b(1.0))
    assert _polyalg._vrep.cache_info().hits == 1
    assert _same(first, again)
    for u, v in zip(verts + rays, again[0] + again[1]):
        assert v.flags.writeable and not np.shares_memory(u, v)


def test_ray_budget_checked_without_vertices():
    # 1 x 4 system: the vertex system scans 1 + 4 = 5 bases, the ray system
    # (one more row) 1 + 4 + 6 = 11; b < 0 has no vertex
    A1 = np.ones((1, 4))
    b1 = np.array([-1.0])
    _clear_memos()
    with pytest.raises(BudgetError):
        standard_vrep(A1, b1, max_bases=5)
    assert standard_vrep(A1, b1, max_bases=11) == ([], [])
    with pytest.raises(BudgetError):
        standard_vrep(A1, b1, max_bases=5)


def rank_test_reference(A, b, res_tol=1e-9):
    """Basic-solution enumeration with a fresh matrix_rank per subset."""
    from itertools import combinations
    n_rows, n_cols = A.shape
    scale = 1.0 + np.max(np.abs(A), initial=0.0) + np.max(np.abs(b), initial=0.0)
    out = []
    for size in range(1, min(n_rows, n_cols) + 1):
        for J in combinations(range(n_cols), size):
            AJ = A[:, J]
            if np.linalg.matrix_rank(AJ, tol=1e-10 * scale) < size:
                continue
            if size == n_rows:
                try:
                    wJ = np.linalg.solve(AJ, b)
                    wJ += np.linalg.solve(AJ, b - AJ @ wJ)
                except np.linalg.LinAlgError:
                    continue
            else:
                wJ, *_ = np.linalg.lstsq(AJ, b, rcond=None)
            if np.min(wJ) >= -1e-10 * scale and \
                    np.max(np.abs(AJ @ wJ - b)) <= res_tol * scale:
                w = np.zeros(n_cols)
                w[list(J)] = np.clip(wJ, 0.0, None)
                if not any(np.array_equal(np.round(w, 11), np.round(v, 11)) for v in out):
                    out.append(w)
    return out


def test_memoised_rank_test_matches_matrix_rank():
    rng = np.random.default_rng(7)
    for trial in range(40):
        n_rows = int(rng.integers(1, 4))
        A = rng.integers(-2, 3, size=(n_rows, int(rng.integers(2, 7)))).astype(float)
        A[:, -1] = A[:, 0] * 0.5  # a dependent pair in every matrix
        # b inside the cone, b anywhere, and b on the dependent pair's column
        for b in (A @ rng.uniform(0, 1, A.shape[1]), rng.normal(size=n_rows), 0.7 * A[:, 0]):
            got = _polyalg.basic_vertices(A, b)
            want = rank_test_reference(A, b)
            if np.max(np.abs(b)) <= 1e-9 * (1.0 + np.max(np.abs(A)) + np.max(np.abs(b))):
                want.insert(0, np.zeros(A.shape[1]))
            assert len(got) == len(want)
            assert all(np.array_equal(u, v) for u, v in zip(got, want))


def test_memo_keeps_strict_relaxed_and_budgets_apart():
    # two equal rows with right-hand sides 1e-8 apart: no exact solution,
    # but one within a relaxed residual tolerance
    A2 = np.ones((2, 2))
    b2 = np.array([1.0, 1.0 + 1e-8])
    _clear_memos()
    calls = [((), {}), ((), {"res_tol": 1e-6}), ((300001,), {}),
             ((300001,), {"res_tol": 1e-6})]
    warm = [standard_vrep(A2, b2, *a, **k) for a, k in calls]
    assert _polyalg._vrep.cache_info().misses == len(calls)
    assert not warm[0][0] and warm[1][0]
    for (a, k), got in zip(calls, warm):
        _clear_memos()
        assert _same(got, standard_vrep(A2, b2, *a, **k))
    # -0.0 and 0.0 differ in bytes: two entries, one answer
    _clear_memos()
    assert _same(standard_vrep(A, np.array([0.0, 1.0, 0.5])),
                 standard_vrep(A, np.array([-0.0, 1.0, 0.5])))
    assert _polyalg._vrep.cache_info().misses == 2


def test_memoised_system_over_budget_raises_every_time():
    _clear_memos()
    verts, _ = standard_vrep(A, _b(1.0))
    assert verts
    # the ray system of the 3 x 5 system scans 1 + 5 + 10 + 10 + 5 = 31 bases
    for _ in range(3):
        with pytest.raises(BudgetError):
            standard_vrep(A, _b(1.0), max_bases=30)
    assert standard_vrep(A, _b(1.0), max_bases=31)[0]
