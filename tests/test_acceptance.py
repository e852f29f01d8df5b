"""Acceptance gate: one test per criterion, one printed pass/fail line each.

All checks are property- or oracle-based at desk scale (n = m = 1, boxes
inside [-5, 5]); expected values come from closed forms or independent
brute-force/fd oracles, never from the code paths under test.
"""

import itertools
import json
import math

import numpy as np
import pytest

from bilevelsense.certify import (
    certify_optimistic,
    certify_pessimistic,
    certify_value_stationarity,
    minimax_reduction_check,
    recheck_certificate,
)
from bilevelsense.cq import cq_bundle
from bilevelsense.model import (
    Expr,
    clarke_generators,
    eabs,
    ediv,
    eexp,
    elog,
    emax,
    emin,
    eval_expr,
    neg,
    smooth_branches,
)
from bilevelsense.sensitivity import (
    Caps,
    estimate_optimistic,
    estimate_pessimistic,
)
from bilevelsense.subdiff import distance, fd_subgradient_samples, lipschitz_estimate
from bilevelsense.valuefn import (
    GridSpec,
    optimistic_value,
    pessimistic_value,
    value_function,
)
from bilevelsense.cli import main as cli_main

from conftest import pessimistic_value_direct
from instances import (
    instance_a,
    instance_a_constrained,
    instance_b,
    instance_c,
    instance_cqk_degenerate,
    instance_mfcq_degenerate,
    make_affine_instance,
    make_constant_f_instance,
)

CAPS = Caps()
GRID = GridSpec()                            # 201 points, depth 3
ORACLE = GridSpec(points_per_dim=201, refine_depth=6)
FD = dict(n_dirs=6, radius=1e-5, step=1e-3)

AFFINE_SEEDS = (101, 202)
CONSTF_SEEDS = (314, 159)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_sign_identity():
    """phi_p + phi_p^o of the negated program vanishes pointwise."""
    quick = GridSpec(points_per_dim=101, refine_depth=2)
    worst = 0.0
    for prog, lo, hi in (
        (instance_a(), 0.0, 2.0),
        (instance_b(), -1.0, 1.0),
        (instance_c(), -1.0, 1.0),
    ):
        negp = prog.negated_upper()
        for x in np.linspace(lo, hi, 41):
            gap = abs(pessimistic_value(prog, [x], quick)
                      + optimistic_value(negp, [x], quick))
            gap = max(gap, abs(pessimistic_value(prog, [x], quick)
                               - pessimistic_value_direct(prog, [x], quick)))
            worst = max(worst, gap)
    report(1, worst <= 1e-12,
           f"max identity gap {worst:.2e} over 3 x 41 samples (tol 1e-12)")


def test_criterion_2_closed_form_value_functions():
    prog_a = instance_a()
    prog_c = instance_c()
    tol_a = 2.0 * GRID.finest_cell(prog_a.box_y)
    tol_c = 2.0 * GRID.finest_cell(prog_c.box_y)
    worst_a = max(
        abs(optimistic_value(prog_a, [x], GRID) - ((x - 1) ** 2 + x**2))
        for x in np.linspace(0.0, 1.0, 41)
    )
    worst_c = max(
        abs(pessimistic_value(prog_c, [x], GRID) - max(x, 0.0))
        for x in np.linspace(-1.0, 1.0, 41)
    )
    ok = worst_a <= tol_a and worst_c <= tol_c
    report(2, ok,
           f"A: |phi_o - closed form| {worst_a:.2e} (tol {tol_a:.1e}); "
           f"C: |phi_p - x+| {worst_c:.2e} (tol {tol_c:.1e})")


def _bundle_passes(bundle):
    return all(v.status in ("Guaranteed", "Holds") for v in bundle)


def _containment_points():
    """(program, base x, which value functions to check) per instance."""
    cases = []
    cases.append((instance_a(), list(np.linspace(0.1, 1.9, 13)),
                  ("phi_o", "phi_p")))
    cases.append((instance_b(), [-0.8, -0.3, 0.4, 0.9], ("phi_o",)))
    c_pts = [x for x in np.linspace(-0.95, 0.95, 14) if abs(x) > 0.04]
    cases.append((instance_c(), c_pts, ("phi_p", "phi_o")))
    for seed in AFFINE_SEEDS:
        cases.append((make_affine_instance(seed),
                      list(np.linspace(-0.85, 0.85, 13)), ("phi_o", "phi_p")))
    return cases


def test_criterion_3_oracle_containment():
    checked = 0
    failures = []
    for prog, xs, whichs in _containment_points():
        L = lipschitz_estimate(value_function(prog, whichs[0], ORACLE),
                               [float(np.mean(xs))], 0.05, n_pairs=100)
        if not math.isfinite(L):
            L = 5.0
        tol = 1e-4 + 2.0 * ORACLE.finest_cell(prog.box_y) * max(L, 1.0)
        for x in xs:
            bundle = cq_bundle(prog, [x], "semicompact", ORACLE, CAPS)
            if not _bundle_passes(bundle):
                continue
            checked += 1
            for which in whichs:
                h = value_function(prog, which, ORACLE)
                clusters = fd_subgradient_samples(h, [x], **FD)
                if which == "phi_p":
                    est = estimate_pessimistic(prog, [x], "semicompact",
                                               ORACLE, CAPS)
                    ests = [est]
                else:
                    ests = [
                        estimate_optimistic(prog, [x], v, ORACLE, CAPS)
                        for v in ("semicompact", "convex", "semicontinuous")
                    ]
                for est in ests:
                    for c in clusters.arrays():
                        gap = distance(est.polytope, list(c))
                        if gap > tol:
                            failures.append(
                                (x, which, est.variant, float(c[0]), gap))
    ok = checked >= 50 and not failures
    report(3, ok,
           f"{checked} qualification-passing base points, "
           f"{len(failures)} containment failures "
           f"{failures[:3] if failures else ''}")


def test_criterion_4_convex_variant_exactness():
    est = estimate_optimistic(instance_a(), [0.5], "convex", GRID, CAPS)
    gap = distance(est.polytope, [0.0])
    report(4, gap <= 1e-9, f"convex estimate at A, x=0.5: distance to 0 is {gap:.2e}")


def test_criterion_5_certification_soundness_and_discrimination():
    prog_ax = instance_a_constrained()
    prog_c = instance_c()
    c1 = certify_optimistic(prog_ax, [0.5], "ii", GRID, CAPS, with_cq=False)
    c2 = certify_optimistic(prog_ax, [0.0], "ii", GRID, CAPS, with_cq=False)
    c3 = certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS, with_cq=False)
    c4 = certify_pessimistic(prog_c, [1.0], "i", GRID, CAPS, with_cq=False)
    ok = (
        c1.status == "Certified" and c1.residual <= 1e-6
        and c2.status == "Refuted" and c2.lower_bound >= 2.0 - 0.1
        and c3.status == "Certified"
        and c4.status == "Refuted" and c4.lower_bound >= 0.9
    )
    report(5, ok,
           f"A(ii): {c1.status} r={c1.residual:.1e} / {c2.status} "
           f"bound={c2.lower_bound:.3f}; C(i): {c3.status} / {c4.status} "
           f"bound={c4.lower_bound:.3f}")


def test_criterion_6_certificate_recheck():
    prog_ax = instance_a_constrained()
    prog_c = instance_c()
    matrix = [
        (prog_ax, certify_optimistic(prog_ax, [0.5], "i", GRID, CAPS,
                                     with_cq=False)),
        (prog_ax, certify_optimistic(prog_ax, [0.5], "ii", GRID, CAPS,
                                     with_cq=False)),
        (prog_ax, certify_optimistic(prog_ax, [0.5], "iii", GRID, CAPS,
                                     with_cq=False)),
        (prog_c, certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS,
                                     with_cq=False)),
        (prog_c, certify_pessimistic(prog_c, [0.0], "ii", GRID, CAPS,
                                     with_cq=False)),
        (prog_c, certify_pessimistic(prog_c, [0.0], "iii", GRID, CAPS,
                                     ybar=[0.0], with_cq=False)),
        (prog_c, certify_value_stationarity(prog_c, [0.0], ORACLE,
                                            with_cq=False)),
        (prog_ax, certify_value_stationarity(prog_ax, [0.5], ORACLE,
                                             with_cq=False)),
    ]
    certified = [(p, c) for p, c in matrix if c.status == "Certified"]
    bad = []
    for prog, cert in certified:
        resid = recheck_certificate(prog, cert)
        if resid > cert.tol:
            bad.append((cert.variant, cert.mode, resid))
    ok = len(certified) == len(matrix) and not bad
    report(6, ok,
           f"{len(certified)}/{len(matrix)} certificates Certified, "
           f"{len(bad)} failed independent re-check {bad if bad else ''}")


def test_criterion_7_minimax_reduction():
    progs = [(instance_c(), [0.0]), (instance_c(), [0.4])]
    for seed in CONSTF_SEEDS:
        progs.append((make_constant_f_instance(seed), [0.3]))
        progs.append((make_constant_f_instance(seed), [-0.2]))
    gaps = []
    for prog, x in progs:
        rep = minimax_reduction_check(prog, x, GRID, CAPS, tol=1e-4)
        gaps.append((x[0], rep["one_sided_gap"], rep["tolerance"],
                     rep["contained"]))
    ok = all(g[3] for g in gaps)
    worst = max(g[1] for g in gaps)
    report(7, ok,
           f"{len(gaps)} reduction comparisons, worst one-sided gap {worst:.2e}")


def _expression_corpus():
    x, y = Expr.x(1), Expr.y(1)
    return [
        eabs(x),
        eabs(x - y),
        emax(x * y, Expr.const(0.0)),
        emin(x, 2.0 * y),
        emax(emax(x, neg(x)), 0.5 * x),
        (y - 1.0) ** 2 + x**2,
        eabs(x) + emin(y, x**2),
        eexp(0.3 * x) + elog(2.0 + y**2),
        ediv(x, 3.0 + y**2),
        emax(eabs(y - x), 0.25 * x * y),
        x**3 - 2.0 * y**2 + x * y,
        emin(emax(x, y), x + y),
        eabs(x * y - 0.5),
        eexp(0.2 * emin(x, y)),
        elog(1.5 + eabs(x)),
        (x - y) ** 2 + eabs(x + y),
        emax(x + y, x - y),
        0.5 * eabs(x) - 0.25 * eabs(y),
        ediv(y**2, 2.0 + x**2),
        emin(x**2, y**2),
    ]


def test_criterion_8_generalized_differentiation_suite():
    rng = np.random.default_rng(8)
    corpus = _expression_corpus()
    step = 1e-5
    checked = 0
    worst = 0.0
    attempts = 0
    while checked < 1000 and attempts < 20000:
        attempts += 1
        e = corpus[int(rng.integers(len(corpus)))]
        pt = rng.uniform(-2.0, 2.0, size=2)
        x, y = [float(pt[0])], [float(pt[1])]
        branches = smooth_branches(e, x, y)
        if len(branches) != 1:
            continue
        gens = clarke_generators(e, x, y)
        assert len(gens) == 1
        fd = np.zeros(2)
        fd[0] = (eval_expr(e, [x[0] + step], y)
                 - eval_expr(e, [x[0] - step], y)) / (2 * step)
        fd[1] = (eval_expr(e, x, [y[0] + step])
                 - eval_expr(e, x, [y[0] - step])) / (2 * step)
        worst = max(worst, float(np.max(np.abs(gens[0] - fd))))
        checked += 1
    sym_ok = True
    for trial in range(200):
        e = _random_expression(np.random.default_rng(1000 + trial))
        pt = np.random.default_rng(5000 + trial).uniform(-1.5, 1.5, size=2)
        gens = clarke_generators(e, [pt[0]], [pt[1]])
        gens_neg = clarke_generators(neg(e), [pt[0]], [pt[1]])
        if len(gens) != len(gens_neg) or any(
                not np.array_equal(-a, b) for a, b in zip(gens, gens_neg)):
            sym_ok = False
            break
    ok = checked == 1000 and worst <= 1e-6 and sym_ok
    report(8, ok,
           f"{checked} differentiability points, max fd deviation {worst:.2e}; "
           f"negation symmetry exact on 200 random expressions: {sym_ok}")


def _random_expression(rng, depth=0):
    x, y = Expr.x(1), Expr.y(1)
    if depth >= 3 or rng.uniform() < 0.3:
        return [x, y, Expr.const(float(rng.uniform(-2, 2)))][int(rng.integers(3))]
    kind = int(rng.integers(8))
    a = _random_expression(rng, depth + 1)
    b = _random_expression(rng, depth + 1)
    if kind == 0:
        return a + b
    if kind == 1:
        return a - b
    if kind == 2:
        return a * b
    if kind == 3:
        return eabs(a)
    if kind == 4:
        return emax(a, b)
    if kind == 5:
        return emin(a, b)
    if kind == 6:
        return neg(a)
    return a ** 2


def test_criterion_9_cq_witnesses():
    from bilevelsense.cq import (
        check_gen_mfcq,
        check_pointbased_cq,
        recheck_mfcq_witness,
        recheck_pointbased_witness,
    )

    prog_m = instance_mfcq_degenerate()
    v1 = check_gen_mfcq(prog_m, [0.0], [0.0])
    prog_k = instance_cqk_degenerate()
    v2 = check_pointbased_cq(prog_k, "K", [0.0], [0.0])
    prog_a = instance_a()
    v3 = check_pointbased_cq(prog_a, "S", [0.0], [0.0], grid=ORACLE)
    oks = []
    oks.append(v1.status == "Fails"
               and recheck_mfcq_witness(prog_m, v1, [0.0], [0.0]))
    oks.append(v2.status == "Fails"
               and recheck_pointbased_witness(prog_k, v2, [0.0], [0.0]))
    oks.append(v3.status == "Fails"
               and recheck_pointbased_witness(prog_a, v3, [0.0], [0.0]))
    report(9, all(oks),
           f"MFCQ witness ok: {oks[0]}; CQ_K witness ok: {oks[1]}; "
           f"CQ_S witness ok: {oks[2]}")


def test_criterion_10_pipeline_determinism(tmp_path):
    from instances import INSTANCE_A_TEXT, INSTANCE_C_TEXT

    file_a = tmp_path / "a.blp"
    file_a.write_text(INSTANCE_A_TEXT.replace(
        "objective = (y1 - 1)^2 + x1^2",
        "objective = (y1 - 1)^2 + x1^2\nconstraint = -x1"))
    file_c = tmp_path / "c.blp"
    file_c.write_text(INSTANCE_C_TEXT)
    runs = []
    for tag in ("one", "two"):
        blobs = []
        for cmd in (
            ["certify", str(file_a), "--variant", "ii", "--x", "0.5",
             "--seed", "11"],
            ["estimate", str(file_c), "--variant", "semicompact", "--x", "0",
             "--seed", "11"],
            ["cq", str(file_a), "--x", "0.5", "--seed", "11"],
            ["sample", str(file_c), "--which", "phi_p", "--range", "-1:1:21"],
        ):
            out = tmp_path / f"{tag}_{cmd[0]}.out"
            rc = cli_main(cmd + ["--out", str(out)])
            assert rc == 0
            blobs.append(out.read_bytes())
        runs.append(blobs)
    identical = all(a == b for a, b in zip(runs[0], runs[1]))
    report(10, identical,
           "two full pipeline runs with the same seed are byte-identical "
           f"across {len(runs[0])} artifacts")
