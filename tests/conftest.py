"""Shared desk-scale instances and independent brute-force oracles.

Instances A-C mirror the closed-form examples used across the suite:

  A: F = (y-1)^2 + x^2, f = -y, g = (y-x, -y)      -> S(x) = {x} on [0, 2],
     phi_o(x) = (x-1)^2 + x^2
  B: F = |x| + y,      f = |y-x|, K = [-1, 1]      -> phi_o(x) = |x| + clip(x)
  C: F = x*y,          f = 0,    K = [0, 1]        -> phi_p(x) = max(x, 0)
"""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the CLI processes the tests start import the checkout's package too, also
# when pytest alone put src/ on the path (pyproject's `pythonpath`)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))

from instances import (  # noqa: E402
    INSTANCE_A_TEXT,
    INSTANCE_C_TEXT,
    instance_a,
    instance_a_constrained,
    instance_b,
    instance_c,
    make_affine_instance,
    make_constant_f_instance,
)


@pytest.fixture(scope="session")
def prog_a():
    return instance_a()


@pytest.fixture(scope="session")
def prog_a_constrained():
    return instance_a_constrained()


@pytest.fixture(scope="session")
def prog_b():
    return instance_b()


@pytest.fixture(scope="session")
def prog_c():
    return instance_c()


def brute_force_lower(prog, x, n_points=4001):
    """Independent oracle: dense single-level sweep, no refinement.

    Returns (phi, feasible y points, f values, F values).  Only supports
    m = 1, which covers every frozen expected value in the suite.
    """
    assert prog.m == 1
    from bilevelsense.model import eval_expr

    lo, hi = prog.box_y[0]
    ys = np.linspace(lo, hi, n_points)
    mask = np.ones(n_points, dtype=bool)
    for gi in prog.g:
        vals = np.broadcast_to(
            np.asarray(eval_expr(gi, list(x), [ys]), dtype=float), (n_points,))
        mask &= vals <= 1e-9
    if not mask.any():
        return None
    ysf = ys[mask]
    fv = np.broadcast_to(
        np.asarray(eval_expr(prog.f, list(x), [ysf]), dtype=float), ysf.shape)
    Fv = np.broadcast_to(
        np.asarray(eval_expr(prog.F, list(x), [ysf]), dtype=float), ysf.shape)
    return float(np.min(fv)), ysf, np.asarray(fv), np.asarray(Fv)


def pessimistic_value_direct(prog, x, grid):
    """Reference phi_p: the direct max of F over the band that
    `valuefn._sweep` returns, a cross-check of the sign identity
    phi_p = -phi_o of the negated program that the library uses."""
    from bilevelsense.valuefn import _sweep

    *_, band_F = _sweep(prog, x, grid)
    return float(band_F.max())
