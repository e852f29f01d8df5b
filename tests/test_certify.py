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
from bilevelsense.sensitivity import Caps
from bilevelsense.valuefn import GridSpec

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
    from bilevelsense.sensitivity import _inclusion_xset, _subsample
    from bilevelsense.valuefn import optimistic_solutions

    prog = instance_pinned("pessimistic")
    negp = prog.negated_upper()
    t_samples = sorted(_subsample(optimistic_solutions(negp, [0.0], GRID).points,
                                  CAPS.max_solution_samples))
    assert len(t_samples) >= 2
    t_set = _inclusion_xset(negp, [0.0], list(t_samples[0]), 1e-8, CAPS,
                            include_F=True, r_coef=0.1)
    assert t_set.polytope.rays
    cert = certify_pessimistic(prog, [0.0], "i", GRID, with_cq=False)
    assert cert.status == "Certified"
    assert recheck_certificate(prog, cert) <= cert.tol_eff
