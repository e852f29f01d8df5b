"""Command-line front end.

Five commands over a problem file: `sample` (CSV value-function curves),
`estimate` (JSON subdifferential upper estimate), `cq` (JSON verdict list),
`certify` (certificate JSON), `reduce` (minimax-reduction comparison).
Every JSON artifact embeds the fully resolved configuration and the seed,
and reruns with identical flags are byte-identical.

`sample` takes no --tol, --seed or --rmax: it reads none of them.

Exit codes: 0 success, 1 usage/parse error, 2 infeasible, not applicable
or not evaluable (every other library error, EvaluationError,
DimensionMismatchError and EmptySetError included), 3 inconclusive
certification, 4 enumeration or grid budget exceeded, or out of memory
(MemoryError, which numpy's failed allocations raise).  No library error
ends in a traceback, and numpy's floating-point warnings are silenced, so
a failed run prints one `error: ` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .errors import BudgetError, ParseError, ToolkitError
from .certify import (
    certify_optimistic,
    certify_pessimistic,
    certify_value_stationarity,
    minimax_reduction_check,
    recheck_certificate,
)
from .cq import (
    check_codcq_convex,
    cq_bundle,
)
from .model import parse_program, used_indices
from .sensitivity import (
    Caps,
    estimate_optimistic,
    estimate_pessimistic,
    estimate_simple_convex,
)
from .valuefn import TOL_FEAS, GridSpec, curve_to_csv, sample_curve

USAGE_ERROR, INFEASIBLE, INCONCLUSIVE, BUDGET = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bilevelsense",
                     description="bilevel value-function analysis toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, point=True):
        p.add_argument("problem", help="problem file (.blp)")
        if point:
            p.add_argument("--x", required=True,
                           help="candidate x, comma-separated decimals")
            p.add_argument("--y", default=None,
                           help="designated y, comma-separated decimals")
            p.add_argument("--tol", type=float, default=1e-6)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--rmax", type=float, default=10.0)
        p.add_argument("--grid", type=int, default=201,
                       help="grid points per dimension")
        p.add_argument("--refine", type=int, default=3,
                       help="refinement depth")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_sample = sub.add_parser("sample", help="tabulate a value function")
    common(p_sample, point=False)
    p_sample.add_argument("--which", default="phi_o",
                          choices=["phi", "phi_o", "phi_p"])
    p_sample.add_argument("--range", dest="x_range", default=None,
                          help="lo:hi:count sampling range for x1")

    p_est = sub.add_parser("estimate", help="subdifferential upper estimate")
    common(p_est)
    p_est.add_argument("--variant", default="semicompact",
                       choices=["semicompact", "convex", "semicontinuous",
                                "simple"])

    p_cq = sub.add_parser("cq", help="constraint-qualification verdicts")
    common(p_cq)
    p_cq.add_argument("--variant", default="semicompact",
                      choices=["semicompact", "convex", "semicontinuous"])

    p_cert = sub.add_parser("certify", help="certify a candidate point")
    common(p_cert)
    p_cert.add_argument("--variant", default="ii",
                        choices=["i", "ii", "iii", "value"])

    p_red = sub.add_parser("reduce", help="minimax-reduction comparison")
    common(p_red)
    return parser


def _parse_point(text, expected, label):
    if text is None:
        return None
    try:
        vals = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ParseError(f"--{label} must be comma-separated decimals") from None
    if len(vals) != expected:
        raise ParseError(f"--{label} needs {expected} coordinate(s)")
    if not all(map(math.isfinite, vals)):
        raise ParseError(f"--{label} must be finite")
    return vals


def _check_flags(args):
    """Refuse flag values that would end in a traceback or in a run
    without meaning (a NaN tolerance, a negative r)."""
    if args.grid < 3:
        raise ParseError("--grid must be at least 3")
    if args.refine < 0:
        raise ParseError("--refine must be at least 0")
    if args.command == "sample":
        return
    if args.seed < 0:
        raise ParseError("--seed must be at least 0")
    for flag, value in (("tol", args.tol), ("rmax", args.rmax)):
        if not math.isfinite(value) or value < 0:
            raise ParseError(f"--{flag} must be finite and at least 0")


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ParseError("--range must be lo:hi:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ParseError("--range must be lo:hi:count with decimal lo and hi "
                         "and an integer count") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError("--range lo and hi must be finite")
    if not math.isfinite(hi - lo):
        raise ParseError(f"--range width hi - lo = {hi - lo} is not finite")
    if count < 1:
        raise ParseError("--range count must be at least 1")
    return lo, hi, count


def _config_dict(args, grid, caps):
    cfg = {
        "command": args.command,
        "problem": args.problem,
        "grid": {
            "points_per_dim": grid.points_per_dim,
            "refine_depth": grid.refine_depth,
            "tol_feas": TOL_FEAS,
        },
        "caps": caps.to_dict(),
        "tol": args.tol,
        "seed": args.seed,
    }
    for key in ("variant", "x", "y"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    _emit(args, json.dumps(payload, indent=2) + "\n")


def _poly_dict(poly):
    return {
        "dim": poly.dim,
        "vertices": poly.vertices.tolist(),
        "rays": poly.rays.tolist(),
    }


def run(args) -> int:
    _check_flags(args)
    try:
        with open(args.problem, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {args.problem}: {exc}") from None
    prog = parse_program(text)
    grid = GridSpec(points_per_dim=args.grid, refine_depth=args.refine)

    if args.command == "sample":
        x_range = _parse_range(args.x_range) if args.x_range else None
        if x_range is not None and prog.n != 1:
            raise ParseError(
                f"--range needs a program with n = 1, not n = {prog.n}")
        rows = sample_curve(prog, args.which, grid, x_range=x_range)
        _emit(args, curve_to_csv(rows, prog.n))
        return 0

    caps = Caps(r_max=args.rmax)
    cfg = _config_dict(args, grid, caps)
    x = _parse_point(args.x, prog.n, "x")
    y = _parse_point(args.y, prog.m, "y") if args.y else None

    if args.command == "estimate":
        if args.variant == "simple":
            est = estimate_simple_convex(prog, x, grid, caps)
        elif prog.mode == "pessimistic":
            est = estimate_pessimistic(prog, x, args.variant, grid, caps,
                                       ybar=y)
        else:
            est = estimate_optimistic(prog, x, args.variant, grid, caps,
                                      ybar=y)
        bundle = cq_bundle(prog, x, est.variant if est.variant != "simple_convex"
                           else "semicompact", grid, caps, ybar=y,
                           seed=args.seed)
        _emit_json(args, {
            "config": cfg,
            "variant": est.variant,
            "mode": est.mode,
            "x": list(est.xbar),
            "polytope": _poly_dict(est.polytope),
            "truncated": est.truncated,
            "n_solution_samples": est.n_solution_samples,
            "notes": list(est.notes),
            "cq_verdicts": [v.to_dict() for v in bundle],
        })
        return 0

    if args.command == "cq":
        bundle = list(cq_bundle(prog, x, args.variant, grid, caps, ybar=y,
                                seed=args.seed))
        g_has_x = any(used_indices(gi)[0] for gi in prog.g)
        if y is not None and not g_has_x:
            bundle.append(check_codcq_convex(prog, x, y))
        _emit_json(args, {
            "config": cfg,
            "verdicts": [v.to_dict() for v in bundle],
        })
        return 0

    if args.command == "certify":
        if args.variant == "value":
            cert = certify_value_stationarity(prog, x, grid, args.tol, caps,
                                              seed=args.seed)
        elif prog.mode == "pessimistic":
            cert = certify_pessimistic(prog, x, args.variant, grid, caps,
                                       args.tol, seed=args.seed, ybar=y)
        else:
            cert = certify_optimistic(prog, x, args.variant, grid, caps,
                                      args.tol, seed=args.seed, ybar=y)
        payload = cert.to_json_dict()
        payload["config"] = cfg
        if cert.status == "Certified":
            payload["recheck_residual"] = float(recheck_certificate(prog, cert))
        _emit_json(args, payload)
        return INCONCLUSIVE if cert.status == "Inconclusive" else 0

    if args.command == "reduce":
        report = minimax_reduction_check(prog, x, grid, caps, args.tol)
        report["config"] = cfg
        _emit_json(args, report)
        return 0

    raise AssertionError(args.command)


def _normalize_argv(argv):
    """Merge value-bearing flags with leading-dash values (negative ranges
    and coordinates) into --flag=value form so argparse does not mistake
    them for options."""
    merged = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg in ("--range", "--x", "--y") and i + 1 < len(argv) and \
                argv[i + 1].startswith("-"):
            merged.append(f"{arg}={argv[i + 1]}")
            skip = True
        else:
            merged.append(arg)
    return merged


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_normalize_argv(list(argv)))
        # a numpy floating-point warning is not an outcome: a value that
        # overflows or is NaN either flows into the artifact as inf/nan or
        # ends in its own error line
        with np.errstate(all="ignore"):
            return run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BudgetError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return BUDGET
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return BUDGET
    except ToolkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
