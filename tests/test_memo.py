"""One property for every memo of the package, driven by `_memo.REGISTRY`.

For each memo and each of its float-bearing arguments, a call with 0.0
and a call with -0.0 there:

- get an entry each (two misses, then two hits);
- are answered on a hit with what a fresh computation on empty memos
  returns, bit for bit: arrays by shape, dtype and bytes (so np.signbit
  agrees too), everything else by repr, which keeps the sign of a zero;
- hand out only read-only arrays.
"""

from dataclasses import replace

import numpy as np
import pytest

from bilevelsense import _memo
from bilevelsense._polyalg import MAX_BASES
from bilevelsense.model import BilevelProgram, Expr, neg
from bilevelsense.sensitivity import Caps
from bilevelsense.valuefn import GridSpec, _Problem
from instances import instance_a, instance_c

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
def _A(z=0.0):
    return np.array([[1.0, -2.0, 0.5, 1.0, -1.0],
                     [1.0, z, 0.0, 0.0, 0.0],
                     [0.0, 1.0, 1.0, 0.0, 0.0]])


def _b(z=0.0):
    return np.array([z, 1.0, 0.5])


def _lp(c0=0.0, lb=0.0):
    return (np.array([1.0, c0]), None, None, np.array([[1.0, 1.0]]),
            np.array([1.0]), ((lb, None), (0.0, None)))


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
    "_polyalg._smallest_singular_values": {
        "A": lambda z: (_A(z),),
    },
    "_polyalg._recession_rays": {
        "A": lambda z: (_A(z), MAX_BASES),
    },
    "_polyalg._vrep": {
        "b": lambda z: (_A(), _b(z), MAX_BASES, None),
        "res_tol": lambda z: (_A(), _b(), MAX_BASES, z),
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


def _bits(value):
    if isinstance(value, np.ndarray):
        return "array", value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(map(_bits, value))
    return repr(value)


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)


def test_every_memo_has_a_case():
    assert len(_memo.REGISTRY) == 9
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
        assert _bits(hit) == _bits(got) == _bits(fresh)
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
