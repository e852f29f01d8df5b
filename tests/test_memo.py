"""One property for every memo of the package, driven by `_memo.REGISTRY`.

For each memo and each of its float-bearing arguments, a call with 0.0
and a call with -0.0 there:

- get an entry each (two misses, then two hits);
- are answered on a hit with what a fresh computation on empty memos
  returns, bit for bit (`instances.exact`): arrays by shape, dtype and
  bytes (so np.signbit agrees too), dataclasses by their fields,
  everything else by repr, which keeps the sign of a zero;
- hand out only read-only arrays, dataclass fields included.

The point sets built from memoised results (solution sets, estimate
polytopes, multiplier sets) are read-only float64 (k, d) arrays as well,
so a write into one cannot reach a later hit.
"""

import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from bilevelsense import _memo
from bilevelsense.model import BilevelProgram, Expr, neg
from bilevelsense.sensitivity import (Caps, estimate_optimistic, lambda_o_set,
                                      lambda_set)
from bilevelsense.valuefn import (GridSpec, _Problem, lower_solutions,
                                  pessimistic_solutions)
from instances import exact, instance_a, instance_c

GRID = GridSpec(points_per_dim=11, refine_depth=1)
X1, Y1 = Expr.x(1), Expr.y(1)

# f = -y puts S(x) on the upper bound of the y-box, which the mesh takes
# with its sign, and F = x * y shows the sign of x there
SIGNED = BilevelProgram(n=1, m=1, F=X1 * Y1, f=neg(Y1),
                        box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))


def _signed(hi):
    return replace(SIGNED, box_y=((-1.0, hi),))


def _sweep_args(x=0.5, hi=1.0):
    prog = _signed(hi)
    return prog.m, prog.f, prog.g, prog.box_y, prog.F, (x,), GRID


def _solution_args(x=0.5, hi=1.0):
    return "optimistic", _Problem.of(_signed(hi)), (x,), GRID


# a stationarity row and two weight rows, with a recession ray (columns 3
# and 4 cancel in the first row); A[1, 1] is the zero whose sign varies
def _A():
    return np.array([[1.0, -2.0, 0.5, 1.0, -1.0],
                     [1.0, 0.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 1.0, 0.0, 0.0]])


def _b(z=0.0):
    return np.array([z, 1.0, 0.5])


def _lp(c0=0.0, lb=0.0):
    return (np.array([1.0, c0]), np.array([[1.0, 1.0]]), np.array([1.0]),
            np.array([1.0]), np.array([lb, 0.0]), np.array([np.inf, np.inf]))


def _pointbased(x=0.0, y=0.0):
    return instance_a(), "S", (x,), (y,), Caps(), GRID, 0


def _regularity(x=0.5, ybar=None, radius=0.1):
    kind = "semicompact" if ybar is None else "semicontinuous"
    return instance_c(), kind, (x,), ybar, radius, 8, GRID, 0


# memo -> float-bearing argument -> its arguments with z in that place
CASES = {
    "valuefn._solve_lower": {
        "x": lambda z: _sweep_args(x=z),
        "box bound": lambda z: _sweep_args(hi=z),
    },
    "valuefn._coarse_mesh": {
        "box bound": lambda z: (((-1.0, z),), 5),
    },
    "valuefn._solution_set": {
        "x": lambda z: _solution_args(x=z),
        "box bound": lambda z: _solution_args(hi=z),
    },
    "_polyalg._vrep": {
        "b": lambda z: (_A(), _b(z)[None], None),
        "res_tol": lambda z: (_A(), _b()[None], z),
    },
    "_polyalg._lp": {
        "c": lambda z: _lp(c0=z),
        "LP bound": lambda z: _lp(lb=z),
    },
    "cq._pointbased_cq": {
        "x": lambda z: _pointbased(x=z),
        "y": lambda z: _pointbased(y=z),
    },
    "cq._inner_regularity": {
        "x": lambda z: _regularity(x=z),
        "ybar": lambda z: _regularity(x=0.0, ybar=(z,)),
        "radius": lambda z: _regularity(radius=z),
    },
}


def _clear():
    for memo in _memo.REGISTRY.values():
        memo.cache_clear()


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)


def test_every_memo_has_a_case():
    assert len(_memo.REGISTRY) == 7
    assert set(_memo.REGISTRY) == set(CASES)


@pytest.mark.parametrize("name,arg", [(name, arg) for name, args in CASES.items()
                                      for arg in args],
                         ids=lambda v: v.replace(" ", "_"))
def test_memo_property(name, arg):
    memo = _memo.REGISTRY[name]
    calls = [CASES[name][arg](z) for z in (0.0, -0.0)]
    _clear()
    first = [memo(*args) for args in calls]
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    again = [memo(*args) for args in calls]
    assert memo.cache_info().hits == 2
    for result in first + again:
        for arr in _arrays(result):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 7.0
    for args, got, hit in zip(calls, first, again):
        _clear()
        fresh = memo.__wrapped__(*args)
        assert exact(hit) == exact(got) == exact(fresh)
    _clear()


def test_key_rule():
    key = _memo._call_key
    # the sign of a zero at any depth of nested tuples
    assert key((((1.0, 0.0),), 0.5)) != key((((1.0, -0.0),), 0.5))
    assert key((0.0, -0.0)) != key((-0.0, 0.0))
    assert key(((-0.0,), 0.0)) != key(((0.0,), -0.0))
    assert key(((0.0, 1.0), -0.0)) == key(((0.0, 1.0), -0.0))
    # an array by shape, dtype and bytes
    a = np.array([1.0, 2.0])
    assert key((a,)) == key((a.copy(),))
    assert key((a,)) != key((a.reshape(1, 2),))
    assert key((a,)) != key((a.view(np.int64),))
    assert key((np.array([0.0]),)) != key((np.array([-0.0]),))
    # None apart from inf, and each argument's type
    assert key((None,)) != key((np.inf,))
    assert len({key((1,)), key((1.0,)), key((True,))}) == 3


POINT_SETS = {
    "lower_solutions": lambda: lower_solutions(instance_c(), [0.3], GRID).points,
    "pessimistic_solutions":
        lambda: pessimistic_solutions(instance_c(), [0.3], GRID).points,
    "estimate vertices": lambda: estimate_optimistic(
        instance_a(), [0.5], "semicompact", GRID).polytope.vertices,
    "estimate rays": lambda: estimate_optimistic(
        instance_a(), [0.5], "semicompact", GRID).polytope.rays,
    "lambda_set vertices": lambda: lambda_set(instance_a(), [0.5], [0.5]).vertices,
    "lambda_o_set rays": lambda: lambda_o_set(instance_a(), [0.5], [0.5]).rays,
}


@pytest.mark.parametrize("name", list(POINT_SETS))
def test_point_sets_are_read_only(name):
    """A write into a point set raises ValueError, and the next hit hands
    out the same points."""
    _clear()
    points = POINT_SETS[name]()
    assert points.dtype == np.float64 and points.ndim == 2
    assert not points.flags.writeable
    before = exact(points)
    if points.size:
        with pytest.raises(ValueError):
            points[0, 0] = 7.0
    with pytest.raises(ValueError):
        points += 1.0
    assert exact(POINT_SETS[name]()) == before
    _clear()
