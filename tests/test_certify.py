import math

import numpy as np
import pytest

from bilevelsense.errors import NotApplicableError
from bilevelsense.model import BilevelProgram, Expr, neg
from bilevelsense.certify import (
    Certificate,
    caratheodory_reduce,
    certify_optimistic,
    certify_pessimistic,
    certify_value_stationarity,
    minimax_reduction_check,
    recheck_certificate,
)
from bilevelsense import certify
from bilevelsense.sensitivity import Caps, _subsample
from bilevelsense.valuefn import GridSpec, optimistic_solutions

from instances import (
    instance_a,
    instance_a_constrained,
    instance_b,
    instance_c,
    instance_free_follower,
)

X1 = Expr.x(1)
Y1 = Expr.y(1)

GRID = GridSpec()
FINE = GridSpec(points_per_dim=201, refine_depth=6)
CAPS = Caps()


def flat_program(F_const=0.0):
    return BilevelProgram(
        n=1, m=1, F=Expr.const(F_const), f=Expr.const(0.0),
        g=(neg(Y1), Y1 - 1.0),
        box_x=((-1.0, 1.0),), box_y=((-2.0, 2.0),))


class TestValueStationarity:
    def test_certified_at_interior_stationary_point(self, prog_a_constrained):
        cert = certify_value_stationarity(
            prog_a_constrained, [0.5], FINE, with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-4

    def test_refuted_at_boundary(self, prog_a_constrained):
        # phi_o'(0+) = -2 and the cone at 0 only points down: gap 2
        cert = certify_value_stationarity(
            prog_a_constrained, [0.0], FINE, with_cq=False)
        assert cert.status == "Refuted"
        assert cert.lower_bound >= 1.9

    def test_flat_objective_certified_everywhere(self):
        prog = flat_program()
        for x in (-0.5, 0.0, 0.7):
            cert = certify_value_stationarity(prog, [x], GRID, with_cq=False)
            assert cert.status == "Certified"
            assert cert.residual <= 1e-9


class TestOptimisticVariantII:
    def test_certified_at_half(self, prog_a_constrained):
        cert = certify_optimistic(prog_a_constrained, [0.5], "ii",
                                  GRID, CAPS, with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-6
        # hand multipliers: r = 0, beta = (1, 0), gamma = (1, 0), alpha = 0
        assert cert.multipliers["r"] == 0.0
        assert list(cert.multipliers["beta"]) == pytest.approx([1.0, 0.0], abs=1e-9)
        assert list(cert.multipliers["gamma"]) == pytest.approx([1.0, 0.0], abs=1e-9)
        assert list(cert.multipliers["alpha"]) == pytest.approx([0.0], abs=1e-9)

    def test_refuted_at_zero_with_bound_two(self, prog_a_constrained):
        cert = certify_optimistic(prog_a_constrained, [0.0], "ii",
                                  GRID, CAPS, with_cq=False)
        assert cert.status == "Refuted"
        assert cert.lower_bound >= 1.9

    def test_trivial_program_certified(self):
        cert = certify_optimistic(flat_program(), [0.3], "ii",
                                  GRID, CAPS, with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-9

    def test_a_follower_without_constraints_searches_its_one_gamma(self):
        # p = 0: Lambda is {()}, so gamma is that one vertex, not a free
        # variable searched for a relaxation bound
        cert = certify_optimistic(instance_free_follower(), [0.5], "ii",
                                  GridSpec(points_per_dim=41, refine_depth=2),
                                  CAPS, with_cq=False)
        assert cert.status == "Certified"
        assert "gamma restricted to vertex multipliers of the lower-level " \
            "stationarity set" in cert.notes
        assert not any("relaxation bound" in note for note in cert.notes)

    def test_agreement_with_value_stationarity(self, prog_a):
        # X = R^n and phi_o smooth: the two certifications agree
        for x, expected in ((0.5, "Certified"), (0.75, "Refuted")):
            v = certify_value_stationarity(prog_a, [x], FINE, with_cq=False)
            c = certify_optimistic(prog_a, [x], "ii", GRID, CAPS,
                                   with_cq=False)
            assert v.status == expected
            assert c.status == expected


class TestOptimisticVariantsIAndIII:
    def test_variant_i_certified_at_half(self, prog_a_constrained):
        cert = certify_optimistic(prog_a_constrained, [0.5], "i",
                                  GRID, CAPS, with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-8
        assert sum(cert.multipliers["v"]) == pytest.approx(1.0)
        assert len(cert.ys["y_s"]) == prog_a_constrained.n + 1

    def test_variant_iii_certified_at_half(self, prog_a_constrained):
        cert = certify_optimistic(prog_a_constrained, [0.5], "iii",
                                  GRID, CAPS, with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-8

    def test_variant_i_refuted_at_boundary_of_region(self, prog_a):
        # interior stationarity fails at x = 0.75 whatever the variant
        cert = certify_optimistic(prog_a, [0.75], "i", GRID, CAPS,
                                  with_cq=False)
        assert cert.status == "Refuted"
        assert cert.lower_bound >= 0.9


class TestPessimistic:
    def test_instance_c_certified_at_origin(self, prog_c):
        cert = certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS,
                                   with_cq=False)
        assert cert.status == "Certified"
        assert cert.residual <= 1e-8

    def test_variant_i_solves_each_sampled_t_once(self, prog_c, monkeypatch):
        # each sampled t's inclusion system is solved for the whole r-grid
        # in one call, not once per r
        calls = []
        solve = certify._solve_inclusion

        def counting(system, rs, *args):
            calls.append((system.y, tuple(rs)))
            return solve(system, rs, *args)

        monkeypatch.setattr(certify, "_solve_inclusion", counting)
        cert = certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS,
                                   with_cq=False)
        assert cert.status == "Certified"
        sol = optimistic_solutions(prog_c.negated_upper(), [0.0], GRID)
        t_samples = _subsample(sol.points, CAPS.max_solution_samples)
        assert len(t_samples) > 1
        assert calls == [(tuple(t), CAPS.r_grid()) for t in t_samples]

    def test_instance_c_refuted_at_one(self, prog_c):
        cert = certify_pessimistic(prog_c, [1.0], "i", GRID, CAPS,
                                   with_cq=False)
        assert cert.status == "Refuted"
        assert cert.lower_bound >= 0.9

    def test_singleton_s_trivial_certification(self):
        cert = certify_pessimistic(flat_program(), [0.2], "i", GRID, CAPS,
                                   with_cq=False)
        assert cert.status == "Certified"

    def test_variant_ii_instance_c(self, prog_c):
        cert = certify_pessimistic(prog_c, [0.0], "ii", GRID, CAPS,
                                   with_cq=False)
        assert cert.status == "Certified"
        cert1 = certify_pessimistic(prog_c, [1.0], "ii", GRID, CAPS,
                                    with_cq=False)
        assert cert1.status == "Refuted"

    def test_variant_iii_instance_c(self, prog_c):
        cert = certify_pessimistic(prog_c, [0.0], "iii", GRID, CAPS,
                                   ybar=[0.0], with_cq=False)
        assert cert.status == "Certified"


class TestRecheck:
    def test_all_certified_certificates_reverify(self, prog_a_constrained,
                                                 prog_c):
        certs = [
            certify_optimistic(prog_a_constrained, [0.5], "ii", GRID, CAPS,
                               with_cq=False),
            certify_optimistic(prog_a_constrained, [0.5], "i", GRID, CAPS,
                               with_cq=False),
            certify_optimistic(prog_a_constrained, [0.5], "iii", GRID, CAPS,
                               with_cq=False),
            certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS,
                                with_cq=False),
            certify_pessimistic(prog_c, [0.0], "ii", GRID, CAPS,
                                with_cq=False),
            certify_pessimistic(prog_c, [0.0], "iii", GRID, CAPS,
                                ybar=[0.0], with_cq=False),
        ]
        progs = [prog_a_constrained] * 3 + [prog_c] * 3
        for prog, cert in zip(progs, certs):
            assert cert.status == "Certified"
            resid = recheck_certificate(prog, cert)
            assert resid <= cert.tol_eff + 1e-9

    def test_tampered_certificate_fails_recheck(self, prog_a_constrained):
        cert = certify_optimistic(prog_a_constrained, [0.5], "ii", GRID,
                                  CAPS, with_cq=False)
        from dataclasses import replace

        bad_mult = dict(cert.multipliers)
        bad_mult["beta"] = (7.0, 0.0)
        bad = replace(cert, multipliers=bad_mult)
        assert recheck_certificate(prog_a_constrained, bad) > 1.0

    def test_json_round_trip_deterministic(self, prog_c):
        import json

        c1 = certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS, seed=3)
        c2 = certify_pessimistic(prog_c, [0.0], "i", GRID, CAPS, seed=3)
        assert json.dumps(c1.to_json_dict()) == json.dumps(c2.to_json_dict())


class TestMinimaxReduction:
    def test_instance_c_containment(self, prog_c):
        report = minimax_reduction_check(prog_c, [0.0], GRID, CAPS)
        assert report["contained"]
        # direct hull over maximizers of x*y at x=0 is [0, 1]
        verts = sorted(v[0] for v in report["direct_hull_vertices"])
        assert verts[0] == pytest.approx(0.0, abs=1e-6)
        assert verts[-1] == pytest.approx(1.0, abs=1e-6)

    def test_unique_maximizer_singletons(self):
        prog = BilevelProgram(
            n=1, m=1, F=X1 - (Y1 - 0.5) ** 2, f=Expr.const(0.0),
            g=(neg(Y1), Y1 - 1.0),
            box_x=((-1.0, 1.0),), box_y=((-2.0, 2.0),),
            mode="pessimistic")
        report = minimax_reduction_check(prog, [0.3], GRID, CAPS)
        assert report["contained"]
        assert report["one_sided_gap"] <= 1e-6

    def test_nonconstant_f_rejected(self, prog_a):
        with pytest.raises(NotApplicableError):
            minimax_reduction_check(prog_a, [0.5], GRID, CAPS)


class TestCaratheodory:
    def test_reduction_preserves_point(self):
        rng = np.random.default_rng(3)
        pts = [rng.normal(size=2) for _ in range(7)]
        w = rng.uniform(0.1, 1.0, size=7)
        w /= w.sum()
        target = sum(wi * p for wi, p in zip(w, pts))
        keep, w_red = caratheodory_reduce(pts, w, 2)
        assert len(keep) <= 3
        red = sum(w_red[i] * pts[i] for i in keep)
        assert np.allclose(red, target, atol=1e-9)
        assert sum(w_red[i] for i in keep) == pytest.approx(1.0)


class TestInconclusive:
    def test_unmodeled_box_solution_is_inconclusive(self):
        # S_o sits on the raw y-box (no g models it): the upper-objective
        # stationarity slice is infeasible for every r, so no multiplier
        # region exists to search
        prog = BilevelProgram(
            n=1, m=1, F=Y1, f=Expr.const(0.0), g=(),
            box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))
        cert = certify_optimistic(prog, [0.0], "ii", GRID, CAPS,
                                  with_cq=False)
        assert cert.status == "Inconclusive"
        assert cert.residual == math.inf

    @pytest.mark.parametrize("run", [certify_optimistic, certify_pessimistic])
    @pytest.mark.parametrize("variant", ["i", "ii", "iii"])
    def test_an_inconclusive_certificate_rechecks_to_inf(self, run, variant):
        # it stores no lower-level point and no multiplier: nothing to
        # rebuild, so the re-check reports inf instead of a missing key
        prog = BilevelProgram(
            n=1, m=1, F=Y1, f=Expr.const(0.0), g=(),
            box_x=((-1.0, 1.0),), box_y=((-1.0, 1.0),))
        cert = run(prog, [0.0], variant, GridSpec(41, 2), CAPS, with_cq=False)
        assert cert.status == "Inconclusive"
        assert not cert.ys and not cert.multipliers
        assert recheck_certificate(prog, cert) == math.inf


class TestRefutationMonotonicity:
    def test_enlarging_caps_never_raises_the_bound(self, prog_a,
                                                   prog_a_constrained,
                                                   prog_c):
        small = Caps(r_max=1.0, log_r_max=0, u_max=10.0,
                     max_solution_samples=4)
        big = Caps(r_max=10.0, log_r_max=1, u_max=100.0,
                   max_solution_samples=12)
        cases = [
            (prog_a_constrained, [0.0], "optimistic", "ii"),
            (prog_a, [0.75], "optimistic", "ii"),
            (prog_c, [1.0], "pessimistic", "i"),
        ]
        for prog, x, mode, variant in cases:
            run = certify_pessimistic if mode == "pessimistic" else certify_optimistic
            c_small = run(prog, x, variant, GRID, small, with_cq=False)
            c_big = run(prog, x, variant, GRID, big, with_cq=False)
            assert c_small.status == c_big.status == "Refuted"
            assert c_big.lower_bound <= c_small.lower_bound + 1e-12


def test_pessimistic_i_pairs_tagged_weights_with_their_generators():
    # every sampled t carries a ray (y1 is pinned by two active bounds), so
    # pairing the vertex-then-ray weights with generators listed t by t
    # would give later t's vertices ray weights; the re-check (no LP shared
    # with the search) catches any such mismatch
    from instances import instance_pinned
    from bilevelsense.sensitivity import (_inclusion_system, _solve_inclusion,
                                          _subsample)
    from bilevelsense.valuefn import optimistic_solutions

    prog = instance_pinned("pessimistic")
    negp = prog.negated_upper()
    t_samples = sorted(_subsample(optimistic_solutions(negp, [0.0], GRID).points,
                                  CAPS.max_solution_samples))
    assert len(t_samples) >= 2
    t_set = _solve_inclusion(_inclusion_system(negp, [0.0], list(t_samples[0]), 1e-8,
                                               include_F=True), (0.1,), None)[0]
    assert t_set.polytope.rays
    cert = certify_pessimistic(prog, [0.0], "i", GRID, with_cq=False)
    assert cert.status == "Certified"
    assert recheck_certificate(prog, cert) <= cert.tol_eff


# -- byte gate for the re-check -----------------------------------------------------
#
# A test-side copy of recheck_certificate as it was before its conditions
# were built from shared weighted-hull helpers: every condition is written
# out as its own Minkowski chain.  Each vertex of a chain is a float sum in
# the chain's order, so a summand moved to another place (r df after the
# g_i terms, say) changes the residual's last bits.  The library must return
# the same float (bits, sign of zero and inf) on every golden certificate
# and on seeded perturbations of its multipliers.

from bilevelsense.sensitivity import DEFAULT_TOL_ACTIVE  # noqa: E402
from bilevelsense.subdiff import (  # noqa: E402
    Polytope,
    distance,
    hull,
    minkowski_sum,
    negate,
    normal_cone_polyhedral,
    scale,
)
from bilevelsense.model import clarke_generators, eval_expr  # noqa: E402


def _ref_joint_hull(e, xbar, y, tol_active, dim):
    return hull(clarke_generators(e, xbar, y, tol_active), dim=dim)


def _ref_part_hull(e, xbar, y, tol_active, n, part):
    gens = clarke_generators(e, xbar, y, tol_active)
    pts = [g[:n] for g in gens] if part == "x" else [g[n:] for g in gens]
    return hull(pts, dim=len(pts[0]))


def _ref_theta_term(prog, xbar, alpha, tol_active, dim, pad_m=0):
    """sum_j alpha_j * hull(d theta1_j), embedded in R^(n [+ m])."""
    n = prog.n
    total = Polytope.zero(dim)
    for j, a in enumerate(alpha or ()):
        if a <= 0:
            continue
        gens = clarke_generators(prog.theta1[j], xbar, [], tol_active)
        pts = [np.concatenate([g[:n], np.zeros(pad_m)]) for g in gens]
        total = minkowski_sum(total, scale(hull(pts, dim=dim), a))
    return total


def reference_recheck(prog, cert, tol_active=DEFAULT_TOL_ACTIVE):
    """recheck_certificate written out by hand: one Minkowski chain per
    condition, with each summand in the order the library must keep."""
    n, m = prog.n, prog.m
    xbar = list(cert.xbar)
    mult = cert.multipliers
    resids = []

    def signs_ok(vec):
        return all(v >= 0 for v in vec)

    if cert.variant == "value":
        gens = cert.aux.get("fd_clusters", [])
        if not gens:
            return math.inf
        ncone = normal_cone_polyhedral(prog.theta1, xbar)
        total = minkowski_sum(hull([list(g) for g in gens], dim=n), ncone)
        return distance(total, np.zeros(n))

    if not cert.ys:
        return math.inf
    work = prog.negated_upper() if cert.mode == "pessimistic" else prog

    alpha = list(mult.get("alpha") or [])
    if not signs_ok(alpha):
        return math.inf
    r = float(mult.get("r", 0.0))
    if r < 0:
        return math.inf

    if cert.mode == "optimistic":
        y = list(cert.ys["y"])
        if cert.variant == "ii":
            beta = list(mult["beta"])
            gamma = list(mult["gamma"])
            if not (signs_ok(beta) and signs_ok(gamma)):
                return math.inf
            PFx = _ref_part_hull(work.F, xbar, y, tol_active, n, "x")
            PFy = _ref_part_hull(work.F, xbar, y, tol_active, n, "y")
            Pfx = _ref_part_hull(work.f, xbar, y, tol_active, n, "x")
            Pfy = _ref_part_hull(work.f, xbar, y, tol_active, n, "y")
            conv1 = minkowski_sum(PFx, scale(minkowski_sum(Pfx, negate(Pfx)), r))
            conv2 = minkowski_sum(PFy, scale(Pfy, r))
            conv3 = Pfy
            gsum = None
            for i, gi in enumerate(work.g):
                Pgx = _ref_part_hull(gi, xbar, y, tol_active, n, "x")
                Pgy = _ref_part_hull(gi, xbar, y, tol_active, n, "y")
                if beta[i] > 0:
                    conv1 = minkowski_sum(conv1, scale(Pgx, beta[i]))
                    conv2 = minkowski_sum(conv2, scale(Pgy, beta[i]))
                if gamma[i] > 0:
                    conv3 = minkowski_sum(conv3, scale(Pgy, gamma[i]))
                    term = scale(Pgx, gamma[i])
                    gsum = term if gsum is None else minkowski_sum(gsum, term)
            if gsum is not None and r > 0:
                conv1 = minkowski_sum(conv1, scale(negate(gsum), r))
            conv1 = minkowski_sum(
                conv1, _ref_theta_term(work, xbar, alpha, tol_active, n))
            resids.append(distance(conv1, np.zeros(n)))
            resids.append(distance(conv2, np.zeros(m)))
            resids.append(distance(conv3, np.zeros(m)))
            # complementarity: multipliers vanish off the active set
            for i, gi in enumerate(work.g):
                val = float(eval_expr(gi, xbar, y))
                if val < -tol_active * (1 + abs(val)) and (
                        beta[i] > 0 or gamma[i] > 0):
                    return math.inf
        elif cert.variant == "i":
            u = list(mult["u"])
            v_w = list(mult["v"])
            u_s = [list(us) for us in mult["u_s"]]
            y_s = [list(ys) for ys in cert.ys["y_s"]]
            x_s = [np.array(xs) for xs in cert.aux["xstar_s"]]
            if not (signs_ok(u) and signs_ok(v_w)
                    and all(signs_ok(us) for us in u_s)):
                return math.inf
            if abs(sum(v_w) - 1.0) > 1e-9:
                return math.inf
            agg = r * sum(w * xs for w, xs in zip(v_w, x_s))
            target = np.concatenate([agg, np.zeros(m)])
            op1 = minkowski_sum(
                _ref_joint_hull(work.F, xbar, y, tol_active, n + m),
                scale(_ref_joint_hull(work.f, xbar, y, tol_active, n + m), r))
            for i, gi in enumerate(work.g):
                if u[i] > 0:
                    op1 = minkowski_sum(
                        op1,
                        scale(_ref_joint_hull(gi, xbar, y, tol_active, n + m), u[i]))
            op1 = minkowski_sum(
                op1, _ref_theta_term(work, xbar, alpha, tol_active, n + m, pad_m=m))
            resids.append(distance(op1, target))
            for w, ys_pt, xs, us in zip(v_w, y_s, x_s, u_s):
                if w <= 0:
                    continue
                op2 = _ref_joint_hull(work.f, xbar, ys_pt, tol_active, n + m)
                for i, gi in enumerate(work.g):
                    if us[i] > 0:
                        op2 = minkowski_sum(
                            op2,
                            scale(_ref_joint_hull(gi, xbar, ys_pt, tol_active,
                                              n + m), us[i]))
                resids.append(
                    distance(op2, np.concatenate([xs, np.zeros(m)])))
        elif cert.variant == "iii":
            beta = list(mult["beta"])
            gamma = list(mult["gamma"])
            xphi = np.array(cert.aux["xstar_phi"])
            if not (signs_ok(beta) and signs_ok(gamma)):
                return math.inf
            block1 = minkowski_sum(
                _ref_joint_hull(work.F, xbar, y, tol_active, n + m),
                scale(_ref_joint_hull(work.f, xbar, y, tol_active, n + m), r))
            iscn2 = _ref_joint_hull(work.f, xbar, y, tol_active, n + m)
            for i, gi in enumerate(work.g):
                gh = _ref_joint_hull(gi, xbar, y, tol_active, n + m)
                if beta[i] > 0:
                    block1 = minkowski_sum(block1, scale(gh, beta[i]))
                if gamma[i] > 0:
                    iscn2 = minkowski_sum(iscn2, scale(gh, gamma[i]))
            block1 = minkowski_sum(
                block1, _ref_theta_term(work, xbar, alpha, tol_active, n + m, pad_m=m))
            resids.append(distance(
                block1, np.concatenate([r * xphi, np.zeros(m)])))
            resids.append(distance(
                iscn2, np.concatenate([xphi, np.zeros(m)])))
        else:
            raise ValueError(cert.variant)
        return max(resids)

    # pessimistic modes: conditions live on the negated-upper program
    eta = list(mult.get("eta") or [])
    if not signs_ok(eta) or (eta and abs(sum(eta) - 1.0) > 1e-9):
        return math.inf
    y_t = [list(yt) for yt in cert.ys["y_t"]]

    if cert.variant == "i":
        v_w = list(mult["v"])
        u_s = [list(us) for us in mult["u_s"]]
        u_t = [list(ut) for ut in mult["u_t"]]
        y_s = [list(ys) for ys in cert.ys["y_s"]]
        x_s = [np.array(xs) for xs in cert.aux["xstar_s"]]
        x_t = [np.array(xt) for xt in cert.aux["xstar_t"]]
        if not (signs_ok(v_w) and all(signs_ok(us) for us in u_s)
                and all(signs_ok(ut) for ut in u_t)):
            return math.inf
        if abs(sum(v_w) - 1.0) > 1e-9:
            return math.inf
        agg_s = sum(w * xs for w, xs in zip(v_w, x_s))
        for w, ys_pt, xs, us in zip(v_w, y_s, x_s, u_s):
            if w <= 0:
                continue
            op2 = _ref_joint_hull(work.f, xbar, ys_pt, tol_active, n + m)
            for i, gi in enumerate(work.g):
                if us[i] > 0:
                    op2 = minkowski_sum(
                        op2, scale(_ref_joint_hull(gi, xbar, ys_pt, tol_active,
                                               n + m), us[i]))
            resids.append(distance(op2, np.concatenate([xs, np.zeros(m)])))
        for w, yt_pt, xt, ut in zip(eta, y_t, x_t, u_t):
            if w <= 0:
                continue
            pes2 = minkowski_sum(
                _ref_joint_hull(work.F, xbar, yt_pt, tol_active, n + m),
                scale(_ref_joint_hull(work.f, xbar, yt_pt, tol_active, n + m), r))
            for i, gi in enumerate(work.g):
                if ut[i] > 0:
                    pes2 = minkowski_sum(
                        pes2, scale(_ref_joint_hull(gi, xbar, yt_pt, tol_active,
                                                n + m), ut[i]))
            target = np.concatenate([xt + r * agg_s, np.zeros(m)])
            resids.append(distance(pes2, target))
        agg_t = sum(w * xt for w, xt in zip(eta, x_t))
        pes1 = _ref_theta_term(work, xbar, alpha, tol_active, n)
        resids.append(distance(pes1, agg_t))
        return max(resids)

    if cert.variant == "ii":
        gamma = list(mult["gamma"])
        beta_t = [list(bt) for bt in mult["beta"]]
        yref = list(cert.ys["y"])
        if not (signs_ok(gamma) and all(signs_ok(bt) for bt in beta_t)):
            return math.inf
        Pfy_ref = _ref_part_hull(work.f, xbar, yref, tol_active, n, "y")
        conv3 = Pfy_ref
        for i, gi in enumerate(work.g):
            if gamma[i] > 0:
                conv3 = minkowski_sum(
                    conv3,
                    scale(_ref_part_hull(gi, xbar, yref, tol_active, n, "y"),
                          gamma[i]))
        resids.append(distance(conv3, np.zeros(m)))
        Pfx_ref = _ref_part_hull(work.f, xbar, yref, tol_active, n, "x")
        gsum_ref = None
        for i, gi in enumerate(work.g):
            if gamma[i] > 0:
                term = scale(_ref_part_hull(gi, xbar, yref, tol_active, n, "x"),
                             gamma[i])
                gsum_ref = term if gsum_ref is None else minkowski_sum(
                    gsum_ref, term)
        # aggregated slots: sum_t eta_t T_t must meet the upper-level term
        agg = None
        for w, yt_pt, bt in zip(eta, y_t, beta_t):
            if w <= 0:
                continue
            block_y = minkowski_sum(
                _ref_part_hull(work.F, xbar, yt_pt, tol_active, n, "y"),
                scale(_ref_part_hull(work.f, xbar, yt_pt, tol_active, n, "y"), r))
            Tx = minkowski_sum(
                _ref_part_hull(work.F, xbar, yt_pt, tol_active, n, "x"),
                scale(minkowski_sum(
                    _ref_part_hull(work.f, xbar, yt_pt, tol_active, n, "x"),
                    negate(Pfx_ref)), r))
            for i, gi in enumerate(work.g):
                if bt[i] > 0:
                    Tx = minkowski_sum(
                        Tx, scale(_ref_part_hull(gi, xbar, yt_pt, tol_active,
                                             n, "x"), bt[i]))
                    block_y = minkowski_sum(
                        block_y,
                        scale(_ref_part_hull(gi, xbar, yt_pt, tol_active, n, "y"),
                              bt[i]))
            if gsum_ref is not None and r > 0:
                Tx = minkowski_sum(Tx, scale(negate(gsum_ref), r))
            resids.append(distance(block_y, np.zeros(m)))
            agg = scale(Tx, w) if agg is None else minkowski_sum(
                agg, scale(Tx, w))
        if agg is None:
            return math.inf
        pes1 = minkowski_sum(
            negate(_ref_theta_term(work, xbar, alpha, tol_active, n)), agg)
        resids.append(distance(pes1, np.zeros(n)))
        return max(resids)

    if cert.variant == "iii":
        gamma = list(mult["gamma"])
        beta_t = [list(bt) for bt in mult["beta"]]
        xphi = np.array(cert.aux["xstar_phi"])
        ybar = list(cert.ys["y"])
        if not (signs_ok(gamma) and all(signs_ok(bt) for bt in beta_t)):
            return math.inf
        iscn2 = _ref_joint_hull(work.f, xbar, ybar, tol_active, n + m)
        for i, gi in enumerate(work.g):
            if gamma[i] > 0:
                iscn2 = minkowski_sum(
                    iscn2, scale(_ref_joint_hull(gi, xbar, ybar, tol_active,
                                             n + m), gamma[i]))
        resids.append(distance(iscn2, np.concatenate([xphi, np.zeros(m)])))
        agg = None
        for w, bt in zip(eta, beta_t):
            if w <= 0:
                continue
            block = minkowski_sum(
                _ref_joint_hull(work.F, xbar, ybar, tol_active, n + m),
                scale(_ref_joint_hull(work.f, xbar, ybar, tol_active, n + m), r))
            for i, gi in enumerate(work.g):
                if bt[i] > 0:
                    block = minkowski_sum(
                        block, scale(_ref_joint_hull(gi, xbar, ybar, tol_active,
                                                 n + m), bt[i]))
            agg = scale(block, w) if agg is None else minkowski_sum(
                agg, scale(block, w))
        if agg is None:
            return math.inf
        # x*_t + r x*_phi lands in the slot block; aggregated over eta the
        # slot covectors must meet the upper-level multiplier term
        shift = np.concatenate([r * xphi, np.zeros(m)])
        theta = _ref_theta_term(work, xbar, alpha, tol_active, n + m, pad_m=m)
        total = minkowski_sum(negate(theta), agg)
        resids.append(distance(total, shift))
        return max(resids)

    raise ValueError(cert.variant)


def _golden_certificates():
    """(key, program, Certificate) for every golden case, rebuilt from the
    stored JSON."""
    import json

    from test_certify_golden import CASES, GOLDEN

    stored = json.loads(GOLDEN.read_text(encoding="utf-8"))
    out = []
    for key, (make, _, _, _) in CASES.items():
        c = stored[key]["certificate"]
        out.append((key, make(), Certificate(
            c["variant"], c["mode"], tuple(c["x"]), c["status"],
            c["residual"], c["lower_bound"], c["tol"], c["tol_eff"],
            ys=c["ys"], multipliers=c["multipliers"], aux=c["aux"])))
    return out


def _entries(mult):
    """(field, index path) of every number among the multipliers."""
    out = []
    for name, val in mult.items():
        if isinstance(val, (int, float)):
            out.append((name, ()))
            continue
        for i, v in enumerate(val):
            if isinstance(v, (list, tuple)):
                out += [(name, (i, j)) for j in range(len(v))]
            else:
                out.append((name, (i,)))
    return out


def _with_entry(mult, name, path, value):
    """A deep copy of mult with the entry at (name, path) set to value."""
    import copy

    new = copy.deepcopy(mult)
    if not path:
        new[name] = value
        return new
    new[name] = [list(v) if isinstance(v, (list, tuple)) else v
                 for v in new[name]]
    if len(path) == 1:
        new[name][path[0]] = value
    else:
        new[name][path[0]][path[1]] = value
    return new


def _get(mult, name, path):
    val = mult[name]
    for i in path:
        val = val[i]
    return val


def _perturbations(cert, rng):
    """Seeded multiplier perturbations: each entry scaled and zeroed on its
    own, one entry made negative, and the eta and v weights summing to
    slightly off 1 (within and beyond the 1e-9 the re-check allows)."""
    from dataclasses import replace

    mult = cert.multipliers
    entries = _entries(mult)
    out = []
    for name, path in entries:
        val = _get(mult, name, path)
        out.append(_with_entry(mult, name, path,
                               val * float(rng.uniform(0.5, 2.0))))
        out.append(_with_entry(mult, name, path,
                               float(rng.uniform(0.05, 0.5))))
        out.append(_with_entry(mult, name, path, 0.0))
    if entries:
        name, path = entries[int(rng.integers(len(entries)))]
        out.append(_with_entry(mult, name, path, -1e-3))
    for name in ("eta", "v"):
        if mult.get(name):
            for off in (1.0 + 1e-12, 1.0 + 1e-6):
                new = dict(mult)
                new[name] = [w * off for w in mult[name]]
                out.append(new)
    return [replace(cert, multipliers=m) for m in out]


def _outcome(fn, prog, cert):
    try:
        return repr(float(fn(prog, cert)))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"raises {type(exc).__name__}"


@pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
def test_variant_i_weights_v_must_sum_to_one(mode):
    from dataclasses import replace

    key = f"A_constrained@0.5/{mode}/i"
    _, prog, cert = next(c for c in _golden_certificates() if c[0] == key)
    assert recheck_certificate(prog, cert) <= cert.tol_eff
    mult = dict(cert.multipliers, v=[1.5 * w for w in cert.multipliers["v"]])
    assert recheck_certificate(prog, replace(cert, multipliers=mult)) == math.inf


def test_recheck_matches_the_hand_written_reference():
    rng = np.random.default_rng(20261018)
    reached = {}
    for key, prog, cert in _golden_certificates():
        cases = [cert] + (_perturbations(cert, rng)
                          if cert.variant != "value" else [])
        for k, c in enumerate(cases):
            want = _outcome(reference_recheck, prog, c)
            got = _outcome(recheck_certificate, prog, c)
            assert got == want, (key, k, c.multipliers)
            if k:
                kinds = reached.setdefault((c.mode, c.variant), set())
                kinds.add("inf" if want == "inf" else
                          "raises" if want.startswith("raises") else "finite")
    # every (mode, variant) branch was reached by perturbed certificates
    # that end both in a residual and in a contract breach
    assert set(reached) == {(mode, v) for mode in ("optimistic", "pessimistic")
                            for v in ("i", "ii", "iii")}
    for branch, kinds in reached.items():
        assert {"finite", "inf"} <= kinds, branch


# -- the search stops at its first zero residual -----------------------------------


def _full_scan_search(candidates, r_grid, build):
    """The multiplier search as it was before it stopped at a zero
    residual: every candidate and r, the strictly best residual kept."""
    best = None
    for cand in candidates:
        for r in r_grid:
            built = build(cand, r)
            if built is None:
                continue
            system, decode = built
            t_val, sol = system.lp.minimize_max_violation()
            if t_val is not None and (best is None
                                      or t_val < best["residual"] - 1e-15):
                best = {"residual": t_val, "r": r, **decode(sol)}
    return best


def _stub_search(search, ts, n_r):
    """Run search over stub candidates and builds whose LPs return the
    residuals ts in (candidate, r) order (None: infeasible, "skip": no
    system); return (best, candidates drawn, builds run)."""
    from types import SimpleNamespace

    drawn, built = [], []

    def candidates():
        for c in range(len(ts) // n_r):
            drawn.append(c)
            yield c

    def build(cand, r):
        built.append((cand, r))
        t = ts[cand * n_r + r]
        if t == "skip":
            return None
        lp = SimpleNamespace(minimize_max_violation=lambda: (
            (None, None) if t is None else (t, (cand, r))))
        return SimpleNamespace(lp=lp), lambda sol: {"at": sol}

    return search(candidates(), range(n_r), build), drawn, built


# (LP residuals, r-grid size, builds up to and including the first one
# that leaves the best residual at 0)
STOP_CASES = [
    ([0.3, 0.0, 0.0], 1, 2),
    ([0.2, 0.1], 1, 2),
    ([0.3, 0.0, 0.0, 0.2], 2, 2),
    ([0.5, None, 0.0, 0.4, 0.0, 0.1], 3, 3),
    (["skip", 0.0, 0.7], 1, 2),
    ([0.0, 0.0], 2, 1),
    # 0.0 is not 1e-15 below 1e-16, so the best stays 1e-16 and the walk
    # goes on to the end
    ([1e-16, 0.0, 0.05, 0.0], 2, 4),
    ([0.4, 0.4 - 1e-16, 0.25, 0.25 - 2e-15], 2, 4),
]


@pytest.mark.parametrize("ts,n_r,builds", STOP_CASES,
                         ids=[str(k) for k in range(len(STOP_CASES))])
def test_the_search_stops_at_its_first_zero_residual(ts, n_r, builds):
    best, drawn, built = _stub_search(certify._search, ts, n_r)
    assert best == _stub_search(_full_scan_search, ts, n_r)[0]
    # no build after the first zero residual, and no candidate drawn
    assert built == [(k // n_r, k % n_r) for k in range(builds)]
    assert drawn == list(range((builds - 1) // n_r + 1))


STOP_PROGRAMS = {
    "A": (instance_a, (0.5, 1.0)),
    "A_constrained": (instance_a_constrained, (0.0, 0.5)),
    "B": (instance_b, (0.0, 0.5)),
    "C": (instance_c, (0.0, 1.0)),
    "free_follower": (instance_free_follower, (0.3, 0.5)),
}


def _certified(fn, prog, x, variant, grid):
    try:
        return fn(prog, [x], variant, grid, CAPS, with_cq=False).to_json_dict()
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"raises {type(exc).__name__}: {exc}"


@pytest.mark.parametrize("name", sorted(STOP_PROGRAMS))
def test_the_stop_gives_the_full_scan_certificates(name, monkeypatch):
    make, xs = STOP_PROGRAMS[name]
    prog, grid = make(), GridSpec(points_per_dim=101, refine_depth=3)
    results, builds = {}, {}
    for label, search in (("stop", certify._search),
                          ("full", _full_scan_search)):
        calls = []

        def counted(candidates, r_grid, build, search=search, calls=calls):
            def counting(cand, r):
                calls.append(None)
                return build(cand, r)
            return search(candidates, r_grid, counting)

        monkeypatch.setattr(certify, "_search", counted)
        results[label] = [
            _certified(fn, prog, x, variant, grid)
            for fn in (certify_optimistic, certify_pessimistic)
            for x in xs for variant in ("i", "ii", "iii")]
        builds[label] = len(calls)
    assert results["stop"] == results["full"]
    assert any(isinstance(c, dict) for c in results["stop"])
    # the stop skipped systems on this program
    assert builds["stop"] < builds["full"]
