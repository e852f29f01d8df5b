"""The four workloads: seeded inputs, one operation each, and its oracle.

The library workloads (`tabulate`, `containment`, `certify`) run inside
worker.py; `cli_cold` requests are built here and spawned one at a time by
run.py.  Each library workload exposes

  op(i)          the i-th operation of an endless deterministic stream
  run(op)        one call into the library; its return value is the output
  check(op, out) "ok", "wrong", "known" (wrong, and explained by a defect
                 the ROADMAP documents) or "unchecked"
  encode(op, out) canonical bytes of the output, for the artifact digest
  properties(op) the input properties a layer's cost depends on
  FIXED_OPS      the first operations of every run, a fixed amount of work
                 that the artifact digest and the peak-memory reading cover

Library functions are looked up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from typing import NamedTuple

import numpy as np

import programs as P

HERE = os.path.dirname(os.path.abspath(__file__))
NM2_FILE = os.path.join(HERE, "problems", "nm2.blp")
VARIANTS = (("optimistic", "i"), ("optimistic", "ii"), ("optimistic", "iii"),
            ("pessimistic", "i"), ("pessimistic", "ii"), ("pessimistic", "iii"),
            ("value", "value"))


class Tabulate:
    """One operation is one sample_curve call: phi, phi_o or phi_p over a
    4 x 4 x-grid of a separable n = m = 2 program, 16 values.  Per program
    the curves come in the order phi, phi_o (every sweep a cache hit), phi_p
    (the negated program sweeps again).

    A curve, not a single value, is the unit because the tail of some 6000
    sub-10 ms values per run is set by a handful of rare pauses and spread
    by 38 % across seeds; a 16-value curve absorbs them (a nine-value curve
    still left the tail spreading by up to 11 %).

    Programs alternate abs and quadratic followers.  The quadratic ones
    carry the documented band bias (ROADMAP item 4), so their phi_o / phi_p
    values miss the closed form and are counted as wrong results of kind
    "known"; they are kept on purpose.
    """

    name = "tabulate"
    POOL = 64
    AXIS = 4
    FIXED_OPS = 60

    def __init__(self, seed):
        from bilevelsense import model, valuefn
        self.valuefn = valuefn
        self.grid = valuefn.GridSpec()
        rng = np.random.default_rng(seed)
        self.specs = [P.separable2(rng, quadratic=bool(i % 2)) for i in range(self.POOL)]
        self.progs = [model.parse_program(s.text) for s in self.specs]

    def op(self, i):
        block, r = divmod(i, 3)
        j, k = block % self.POOL, block // self.POOL % 50
        prog = self.progs[j]
        if k:
            # a wrapped stream shrinks the x box so that no x repeats while
            # the sweep cache could still hold it
            prog = replace(prog, box_x=tuple((lo + 0.02 * k, hi - 0.01 * k)
                                             for lo, hi in prog.box_x))
        return j, prog, ("phi", "phi_o", "phi_p")[r]

    def run(self, op):
        _, prog, which = op
        return self.valuefn.sample_curve(prog, which, self.grid, points_per_axis=self.AXIS)

    def _check_value(self, j, which, x, value):
        facts = self.specs[j].facts
        phi, phi_o, phi_p = P.separable2_values(facts, x)
        exact = {"phi": phi, "phi_o": phi_o, "phi_p": phi_p}[which]
        cell = self.grid.finest_cell(self.progs[j].box_y)
        lip = facts["w"] if which == "phi" else abs(facts["p1"]) + abs(facts["p2"])
        tol = 2.0 * cell * max(lip, 1.0)
        err = abs(value - exact)
        if err <= tol:
            return "ok"
        if facts["quadratic"] and which != "phi":
            # band of width 1e-6 (1 + |phi|) in f admits |y1 - c(x)| up to
            # sqrt(band / w): the bias ROADMAP item 4 records
            half = math.sqrt(1e-6 * (1.0 + abs(phi)) / facts["w"]) + cell
            if err <= abs(facts["p1"]) * half + tol:
                return "known"
        return "wrong"

    def check(self, op, out):
        j, _, which = op
        verdicts = {"wrong" if row.status != "ok" else
                    self._check_value(j, which, row.x, row.value) for row in out}
        if len(out) != self.AXIS ** 2 or "wrong" in verdicts:
            return "wrong"
        return "known" if "known" in verdicts else "ok"

    def encode(self, op, out):
        return self.valuefn.curve_to_csv(out, 2).encode()

    def properties(self, op):
        spec = self.specs[op[0]]
        return {"flat": spec.flat, "m": spec.m, "refine_depth": self.grid.refine_depth,
                "quadratic": bool(spec.facts["quadratic"])}


class Containment:
    """Acceptance criterion 3 per base point at the oracle grid (201
    points, refine depth 6): cq_bundle, fd clusters of phi_o and phi_p, the
    three optimistic estimates and the pessimistic one, and the distance
    from every cluster to every estimate.

    Programs cycle a_like, c_like, affine, a_like, constant_f, affine, so
    every prefix of the stream holds flat S(x) in a share of one third.
    Flat points cost about twice as much as singleton ones; with an even
    split the median latency would sit on the gap between the two groups
    and jump between them from run to run.  The two flat families cost
    alike (programs.constant_f), so the tail, about the 80th percentile of
    some 60 operations, falls inside the flat group and not on a gap
    between a cheaper and a dearer flat family.  Each program gives two
    points, so a run spreads over some 35 programs rather than 20, and a
    few dear or cheap programs do not set its median.
    """

    name = "containment"
    FAMILIES = (P.a_like, P.c_like, P.affine, P.a_like, P.constant_f, P.affine)
    ROUNDS = 12
    POINTS = 2
    FIXED_OPS = 6
    FD = dict(n_dirs=6, radius=1e-5, step=1e-3)

    def __init__(self, seed):
        from bilevelsense import cq, model, sensitivity, subdiff, valuefn
        self.cq, self.sensitivity, self.subdiff, self.valuefn = cq, sensitivity, subdiff, valuefn
        self.grid = valuefn.GridSpec(points_per_dim=201, refine_depth=6)
        self.caps = sensitivity.Caps()
        rng = np.random.default_rng(seed)
        self.specs = [fam(rng, n_points=self.POINTS) for _ in range(self.ROUNDS)
                      for fam in self.FAMILIES]
        self.progs = [model.parse_program(s.text) for s in self.specs]
        self.index = [(j, p) for j in range(len(self.specs))
                      for p in range(len(self.specs[j].points))]

    def op(self, i):
        k, r = divmod(i, len(self.index))
        j, p = self.index[r]
        # pass k >= 1 pulls the point toward 0 (never across a kink at 0)
        x = tuple(v * (1.0 - 0.02 * (k % 30)) for v in self.specs[j].points[p])
        return j, x

    def run(self, op):
        j, x = op
        prog, grid, caps, x = self.progs[j], self.grid, self.caps, list(x)
        bundle = self.cq.cq_bundle(prog, x, "semicompact", grid, caps)
        if not all(v.status in ("Guaranteed", "Holds") for v in bundle):
            return {"bundle": [v.status for v in bundle]}
        clusters = {
            which: self.subdiff.fd_subgradient_samples(
                self.valuefn.value_function(prog, which, grid), x, **self.FD).arrays()
            for which in ("phi_o", "phi_p")}
        sens = self.sensitivity
        ests = [sens.estimate_optimistic(prog, x, v, grid, caps)
                for v in ("semicompact", "convex", "semicontinuous")]
        ests.append(sens.estimate_pessimistic(prog, x, "semicompact", grid, caps))
        dist = {which: [[self.subdiff.distance(e.polytope, list(c)) for e in ests]
                        for c in cl] for which, cl in clusters.items()}
        return {"bundle": [v.status for v in bundle],
                "clusters": {w: [c.tolist() for c in cl] for w, cl in clusters.items()},
                "estimates": [[e.variant, e.mode, [list(v) for v in e.polytope.vertices],
                               [list(r) for r in e.polytope.rays]] for e in ests],
                "distances": dist}

    def check(self, op, out):
        if "distances" not in out:
            return "unchecked"
        j, _ = op
        lip = self.specs[j].facts["lipschitz"]
        tol = 1e-4 + 2.0 * self.grid.finest_cell(self.progs[j].box_y) * max(lip, 1.0)
        # criterion 3: phi_o clusters lie in each optimistic estimate,
        # phi_p clusters in the pessimistic one
        gaps = [row[e] for row in out["distances"]["phi_o"] for e in range(3)]
        gaps += [row[3] for row in out["distances"]["phi_p"]]
        return "ok" if gaps and max(gaps) <= tol else "wrong"

    def encode(self, op, out):
        return json.dumps(out, sort_keys=True).encode()

    def properties(self, op):
        spec = self.specs[op[0]]
        return {"flat": spec.flat, "m": spec.m, "refine_depth": self.grid.refine_depth}


class Certify:
    """One certification per operation, CQ bundle on, at each function's
    default grid, then recheck_certificate on every Certified result.

    Rounds of seeded singleton programs (a_constrained, affine, affine2);
    the first round also holds instance A with x >= 0 itself.  Solution
    points lie on the sweep lattice, so the multiplier LPs run.
    """

    name = "certify"
    ROUNDS = 48
    FIXED_OPS = 60

    def __init__(self, seed):
        from bilevelsense import certify, model
        self.certify = certify
        rng = np.random.default_rng(seed)
        self.specs = [P.a_like(rng, constrained=True, exact=True)]
        for _ in range(self.ROUNDS):
            self.specs += [P.a_like(rng, constrained=True), P.affine(rng), P.affine2(rng)]
        self.progs = [model.parse_program(s.text) for s in self.specs]
        self.index = [(j, p, v) for j in range(len(self.specs))
                      for p in range(len(self.specs[j].points))
                      for v in range(len(VARIANTS))]

    def op(self, i):
        return self.index[i % len(self.index)]

    def run(self, op):
        j, p, v = op
        prog, x = self.progs[j], list(self.specs[j].points[p])
        mode, variant = VARIANTS[v]
        cf = self.certify
        if mode == "value":
            cert = cf.certify_value_stationarity(prog, x)
        elif mode == "optimistic":
            cert = cf.certify_optimistic(prog, x, variant)
        else:
            cert = cf.certify_pessimistic(prog, x, variant)
        recheck = cf.recheck_certificate(prog, cert) if cert.status == "Certified" else None
        return cert, recheck

    def expected(self, op):
        """Known answer: a_constrained is stationary at x* and not at 0
        (variant ii and value stationarity refute it); affine programs have
        a nonzero constant gradient of phi_o and no leader constraint."""
        j, p, v = op
        spec = self.specs[j]
        if spec.family == "a_constrained":
            if p == 0:
                return "Certified"
            return "Refuted" if VARIANTS[v] in (("optimistic", "ii"), ("value", "value")) else None
        if spec.facts["lipschitz"] > 0.05:
            return "Refuted"
        return None

    def check(self, op, out):
        cert, recheck = out
        if cert.status == "Certified" and not recheck <= cert.tol:
            return "wrong"
        want = self.expected(op)
        if want is not None and cert.status != want:
            return "wrong"
        return "ok"

    def encode(self, op, out):
        cert, recheck = out
        return json.dumps([cert.to_json_dict(), recheck], sort_keys=True).encode()

    def properties(self, op):
        spec = self.specs[op[0]]
        return {"flat": spec.flat, "m": spec.m,
                "refine_depth": 6 if VARIANTS[op[2]][0] == "value" else 3}


LIBRARY = {cls.name: cls for cls in (Tabulate, Containment, Certify)}


# -- cli_cold ---------------------------------------------------------------------

CLI_FIXED_OPS = 5


class Request(NamedTuple):
    argv: list      # arguments after `python -m bilevelsense.cli`
    expect: int     # documented exit code
    kind: str       # output kind: csv, json or error
    m: int          # follower dimension of the problem file


def cli_requests(seed, out_dir):
    """Write the seeded problem files; return (request cycle, problem files).

    Call it with the checkout root as working directory: the requests name
    the files relative to it, so the artifacts, which echo the path, match
    across checkouts.  Compute per request is kept small (coarse grids where
    a command sweeps many x), so import and parse dominate.
    """
    rng = np.random.default_rng(seed)
    a_spec = P.a_like(rng, constrained=True)
    c_spec = P.c_like(rng)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for tag, spec in (("a", a_spec), ("c", c_spec)):
        path = os.path.join(out_dir, f"{tag}.blp")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(spec.text)
        files.append(os.path.relpath(path))
    files.append(os.path.relpath(NM2_FILE))
    a, c, nm2 = files
    xs = repr(a_spec.facts["xstar"])
    xc = repr(abs(c_spec.points[0][0]))
    coarse = ["--grid", "101", "--refine", "2"]
    return [
        Request(["sample", a, "--which", "phi_o", "--range", "0.1:1.1:11"] + coarse,
                0, "csv", 1),
        Request(["estimate", c, "--variant", "semicompact", "--x", xc] + coarse,
                0, "json", 1),
        Request(["cq", a, "--x", xs], 0, "json", 1),
        Request(["certify", a, "--variant", "ii", "--x", xs], 0, "json", 1),
        Request(["reduce", c, "--x", xc], 0, "json", 1),
        Request(["estimate", nm2, "--x", "0.2,-0.3", "--grid", "41", "--refine", "2"],
                0, "json", 2),
        Request(["sample", c, "--which", "phi_p", "--range", "-1:1:11"] + coarse,
                0, "csv", 1),
        Request(["certify", nm2, "--variant", "value", "--x", "0.2,-0.3", "--grid", "41"],
                0, "json", 2),
        Request(["cq", nm2, "--x", "0.2,-0.3", "--grid", "41", "--refine", "2"],
                0, "json", 2),
        Request(["estimate", a, "--x", "-0.5"], 2, "error", 1),
        Request(["certify", a, "--variant", "ii", "--x", "0"], 0, "json", 1),
    ], files


def check_cli(kind, stdout, stderr):
    """'ok' or 'wrong' for the output of a request that exited as expected."""
    if kind == "error":
        return "ok" if stderr.startswith(b"error: ") and not stdout else "wrong"
    text = stdout.decode("utf-8", errors="replace")
    if kind == "csv":
        rows = [line.split(",") for line in text.splitlines()]
        if len(rows) < 2 or rows[0][-2:] != ["value", "status"]:
            return "wrong"
        try:
            for row in rows[1:]:
                [float(v) for v in row[:-1]]
        except ValueError:
            return "wrong"
        return "ok" if all(row[-1] in ("ok", "infeasible") for row in rows[1:]) else "wrong"
    try:
        payload = json.loads(text)
    except ValueError:
        return "wrong"
    if "config" not in payload:
        return "wrong"
    if payload.get("status") == "Certified" and not payload["recheck_residual"] <= payload["tol"]:
        return "wrong"
    return "ok"
