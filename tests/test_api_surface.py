"""The public API's parameter lists, pinned.

Every function the package exports is listed with its parameters in order,
each with its default; a GridSpec or Caps default shows only the fields it
changes.  A parameter added, removed, renamed or re-defaulted shows up
here as a diff, so a knob that no caller sets has to be argued for.
"""

import dataclasses
import inspect

import pytest

import bilevelsense
from bilevelsense import Caps, GridSpec

GRID = "grid=GridSpec()"
CAPS = "caps=Caps()"

SIGNATURES = {
    "certify_optimistic": ("prog", "xbar", "variant='ii'", GRID, CAPS,
                           "tol=1e-06", "seed=0", "ybar=None", "with_cq=True"),
    "certify_pessimistic": ("prog", "xbar", "variant='i'", GRID, CAPS,
                            "tol=1e-06", "seed=0", "ybar=None", "with_cq=True"),
    "certify_value_stationarity": ("prog", "xbar", "grid=GridSpec(refine_depth=6)",
                                   "tol=1e-06", CAPS, "seed=0", "with_cq=True"),
    "check_codcq_convex": ("prog", "xbar", "ybar"),
    "check_gen_mfcq": ("prog", "xbar", "ybar"),
    "check_inner_regularity": ("prog", "kind", "xbar", "ybar=None", "radius=0.1",
                               "n_samples=8", GRID, "seed=0"),
    "check_pointbased_cq": ("prog", "which", "xbar", "y", CAPS, GRID, "seed=0"),
    "check_polyhedral_calmness": ("prog", "which"),
    "clarke_generators": ("e", "x", "y", "tol_active=None"),
    "contains": ("p", "v"),
    "cq_bundle": ("prog", "xbar", "variant", GRID, CAPS, "ybar=None", "seed=0"),
    "distance": ("p", "v"),
    "estimate_optimistic": ("prog", "xbar", "variant='semicompact'", GRID, CAPS,
                            "ybar=None"),
    "estimate_pessimistic": ("prog", "xbar", "variant='semicompact'", GRID, CAPS,
                             "ybar=None"),
    "estimate_simple_convex": ("prog", "xbar", GRID, CAPS),
    "eval_expr": ("e", "x", "y"),
    "fd_subgradient_samples": ("h", "xbar", "n_dirs=16", "radius=0.001",
                               "step=None", "seed=0"),
    "hull": ("polytopes_or_points", "dim=None"),
    "lambda_o_set": ("prog", "xbar", "y", "tol_active=1e-08", "stat_tol=None"),
    "lambda_set": ("prog", "xbar", "y", "tol_active=1e-08", "stat_tol=None"),
    "lipschitz_estimate": ("h", "xbar", "radius", "n_pairs=200"),
    "lower_solutions": ("prog", "x", GRID),
    "lower_value": ("prog", "x", GRID),
    "minimax_reduction_check": ("prog", "xbar", GRID, CAPS, "tol=0.0001"),
    "minkowski_sum": ("p", "q"),
    "negate": ("p",),
    "normal_cone_polyhedral": ("theta1", "xbar"),
    "optimistic_solutions": ("prog", "x", GRID),
    "optimistic_value": ("prog", "x", GRID),
    "parse_program": ("text",),
    "pessimistic_solutions": ("prog", "x", GRID),
    "pessimistic_value": ("prog", "x", GRID),
    "recheck_certificate": ("prog", "cert"),
    "sample_curve": ("prog", "which", GRID, "x_range=None", "points_per_axis=41"),
    "scale": ("p", "lam"),
    "smooth_branches": ("e", "x", "y", "tol_active=None"),
}

FIELDS = {
    GridSpec: (("points_per_dim", 201), ("refine_depth", 3),
               ("refine_points", 21), ("max_seeds", 5)),
    Caps: (("r_max", 10.0), ("log_r_min", -3), ("log_r_max", 1),
           ("u_max", 100.0), ("max_solution_samples", 12)),
}


def _show(default):
    """repr of a default; a dataclass shows only the fields it changes."""
    if dataclasses.is_dataclass(default):
        changed = [f"{f.name}={getattr(default, f.name)!r}"
                   for f in dataclasses.fields(default)
                   if getattr(default, f.name) != f.default]
        return f"{type(default).__name__}({', '.join(changed)})"
    return repr(default)


def _parameters(fn):
    out = []
    for p in inspect.signature(fn).parameters.values():
        prefix = {p.VAR_POSITIONAL: "*", p.VAR_KEYWORD: "**"}.get(p.kind, "")
        default = "" if p.default is p.empty else "=" + _show(p.default)
        out.append(prefix + p.name + default)
    return tuple(out)


def test_every_exported_function_keeps_its_parameters():
    exported = {name: obj for name, obj in vars(bilevelsense).items()
                if inspect.isfunction(obj)}
    assert sorted(exported) == sorted(SIGNATURES)
    for name, fn in exported.items():
        assert _parameters(fn) == SIGNATURES[name], name


def test_grid_and_caps_keep_their_fields():
    for cls, fields in FIELDS.items():
        assert tuple((f.name, f.default)
                     for f in dataclasses.fields(cls)) == fields, cls.__name__


# -- every entry point reads its points through one reader ---------------------

def _reader_program():
    from bilevelsense.model import parse_program
    return parse_program("""
[dims]
n = 1
m = 1
[upper]
objective = (x1 - 0.5)^2 + y1
[lower]
objective = abs(y1 - x1)
constraint = -y1
[box]
x1 = -1, 1
y1 = -1, 1
""")


SMALL = GridSpec(points_per_dim=11, refine_depth=1, refine_points=5)

# (call, the length of the bad point, the length it must have); each used
# to raise IndexError, LinAlgError or EvaluationError, report a vertex
# dimension mismatch, or return a verdict
WRONG_LENGTH_CALLS = {
    "lambda_set_y": (lambda p: bilevelsense.lambda_set(p, [0.3], []), 0, 1),
    "lambda_o_set_x": (lambda p: bilevelsense.lambda_o_set(p, [], [0.3]), 0, 1),
    "lambda_set_x": (lambda p: bilevelsense.lambda_set(p, [0.3, 9.0], [0.3]), 2, 1),
    "gen_mfcq_y": (lambda p: bilevelsense.check_gen_mfcq(p, [0.3], [0.0, 5.0]), 2, 1),
    "codcq_x": (lambda p: bilevelsense.check_codcq_convex(p, [0.3, 2.0], [0.3]), 2, 1),
    "codcq_y": (lambda p: bilevelsense.check_codcq_convex(p, [0.3], []), 0, 1),
    "value_stationarity_x": (lambda p: bilevelsense.certify_value_stationarity(
        p, [0.3, 1.0], SMALL), 2, 1),
    "certify_iii_y": (lambda p: bilevelsense.certify_optimistic(
        p, [0.3], "iii", SMALL, ybar=[0.3, 0.0], with_cq=False), 2, 1),
    "estimate_x": (lambda p: bilevelsense.estimate_optimistic(p, [0.3, 0.0], grid=SMALL),
                   2, 1),
    "estimate_semicontinuous_y": (lambda p: bilevelsense.estimate_pessimistic(
        p, [0.3], "semicontinuous", SMALL, ybar=[]), 0, 1),
    "cq_bundle_x": (lambda p: bilevelsense.cq_bundle(p, [], "semicompact", SMALL), 0, 1),
}


@pytest.mark.parametrize("name", sorted(WRONG_LENGTH_CALLS))
def test_a_point_of_the_wrong_length_is_a_dimension_mismatch(name):
    call, got, want = WRONG_LENGTH_CALLS[name]
    with pytest.raises(bilevelsense.DimensionMismatchError,
                       match=rf"^point has {got} coordinates, not {want}$"):
        call(_reader_program())
