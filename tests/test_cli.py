import json
import subprocess
import sys

import pytest

from bilevelsense.cli import main
from bilevelsense.model import MAX_EXPR_DEPTH

from instances import INSTANCE_A_TEXT, INSTANCE_C_TEXT, PINNED_TEXT


@pytest.fixture()
def instance_a_file(tmp_path):
    path = tmp_path / "instanceA.blp"
    path.write_text(INSTANCE_A_TEXT)
    return str(path)


@pytest.fixture()
def instance_a_constrained_file(tmp_path):
    text = INSTANCE_A_TEXT.replace(
        "objective = (y1 - 1)^2 + x1^2",
        "objective = (y1 - 1)^2 + x1^2\nconstraint = -x1")
    path = tmp_path / "instanceAX.blp"
    path.write_text(text)
    return str(path)


@pytest.fixture()
def instance_c_file(tmp_path):
    path = tmp_path / "instanceC.blp"
    path.write_text(INSTANCE_C_TEXT)
    return str(path)


class TestSample:
    def test_pessimistic_curve_csv(self, instance_c_file, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        rc = main(["sample", instance_c_file, "--which", "phi_p",
                   "--range", "-1:1:41", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,value,status"
        assert len(lines) == 42
        for line in lines[1:]:
            x, val, status = line.split(",")
            assert status == "ok"
            assert abs(float(val) - max(float(x), 0.0)) <= 0.05

    def test_stdout_default(self, instance_c_file, capsys):
        rc = main(["sample", instance_c_file, "--which", "phi_o",
                   "--range", "0:1:3"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("x1,value,status")


class TestCertifyCommand:
    def test_certified_exit_zero(self, instance_a_constrained_file, tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", instance_a_constrained_file, "--variant", "ii",
                   "--x", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "Certified"
        assert payload["residual"] <= 1e-6
        assert payload["recheck_residual"] <= payload["tol_eff"] + 1e-9
        assert payload["config"]["seed"] == 0

    def test_refuted_exit_zero_with_bound(self, instance_a_constrained_file,
                                          tmp_path):
        out = tmp_path / "cert0.json"
        rc = main(["certify", instance_a_constrained_file, "--variant", "ii",
                   "--x", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "Refuted"
        assert payload["lower_bound"] >= 1.9

    def test_pessimistic_routing(self, instance_c_file, tmp_path):
        out = tmp_path / "certp.json"
        rc = main(["certify", instance_c_file, "--variant", "i",
                   "--x", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == "pessimistic"
        assert payload["status"] == "Certified"


class TestOtherCommands:
    def test_estimate_json(self, instance_a_file, tmp_path):
        out = tmp_path / "est.json"
        rc = main(["estimate", instance_a_file, "--variant", "convex",
                   "--x", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["variant"] == "convex"
        assert payload["polytope"]["dim"] == 1
        assert payload["cq_verdicts"]

    def test_cq_json(self, instance_a_file, tmp_path):
        out = tmp_path / "cq.json"
        rc = main(["cq", instance_a_file, "--x", "0.5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        kinds = [v["kind"] for v in payload["verdicts"]]
        assert "PolyhedralCalmness[K]" in kinds
        assert "GenMFCQ" in kinds

    def test_reduce_json(self, instance_c_file, tmp_path):
        out = tmp_path / "red.json"
        rc = main(["reduce", instance_c_file, "--x", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["contained"]

    def test_reduce_not_applicable_exit_two(self, instance_a_file):
        rc = main(["reduce", instance_a_file, "--x", "0.5"])
        assert rc == 2

    def test_infeasible_point_exit_two(self, instance_a_file, capsys):
        # the repeated request reads the memoised infeasibility verdict
        errors = []
        for _ in range(2):
            assert main(["estimate", instance_a_file, "--x", "-1.0"]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "no feasible lower-level point at x=[-1.0]" in errors[0]


DEEP_PROBLEM = """
[dims]
n = 1
m = 1
[upper]
objective = {upper}
[lower]
objective = {lower}
[box]
x1 = -1, 1
y1 = -2, 2
"""


def _deep_problem(tmp_path, extra_parens=0, extra_terms=0):
    """A problem whose upper objective (5 levels deep before the
    parentheses) and lower objective (4 levels before the chain) both
    nest exactly MAX_EXPR_DEPTH deep, plus the given extra levels."""
    parens = MAX_EXPR_DEPTH - 5 + extra_parens
    terms = MAX_EXPR_DEPTH - 4 + extra_terms
    path = tmp_path / "deep.blp"
    path.write_text(DEEP_PROBLEM.format(
        upper="(" * parens + "(x1 - 0.3)^2 + y1" + ")" * parens,
        lower="abs(y1 - 0.5*x1)" + " + 0.001*y1" * terms))
    return str(path)


class TestDeepExpressions:
    def test_at_the_depth_bound_every_command_runs(self, tmp_path, capsys):
        path = _deep_problem(tmp_path)
        assert main(["estimate", path, "--x", "0.2", "--grid", "41",
                     "--refine", "1"]) == 0
        assert main(["sample", path, "--which", "phi_o", "--grid", "41",
                     "--refine", "1", "--range", "-1:1:5"]) == 0
        out = tmp_path / "cert.json"
        assert main(["certify", path, "--x", "0.2", "--variant", "value",
                     "--grid", "41", "--refine", "1", "--out", str(out)]) == 0
        # d/dx [(x - 0.3)^2 + x / 2] = 0.3 at x = 0.2: not stationary
        assert json.loads(out.read_text())["status"] == "Refuted"
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [(1, 0), (0, 1)])
    def test_past_the_depth_bound_exit_one(self, tmp_path, capsys, extra):
        path = _deep_problem(tmp_path, *extra)
        assert main(["estimate", path, "--x", "0.2", "--grid", "41",
                     "--refine", "1"]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: expression nested deeper than {MAX_EXPR_DEPTH} levels")

    def test_long_sum_exits_without_traceback(self, tmp_path):
        path = _deep_problem(tmp_path, extra_terms=600)
        proc = subprocess.run(
            [sys.executable, "-m", "bilevelsense.cli", "estimate", path,
             "--x", "0.2", "--grid", "41", "--refine", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: expression nested deeper")
        assert "Traceback" not in proc.stderr


class TestErrorsAndDeterminism:
    def test_malformed_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.blp"
        bad.write_text("[dims]\nn = 1\nm = oops\n")
        rc = main(["sample", str(bad), "--which", "phi"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["non_utf8", "directory"])
    def test_unreadable_problem_file_exit_one(self, tmp_path, kind):
        if kind == "non_utf8":
            target = tmp_path / "latin1.blp"
            target.write_bytes("# caf\xe9\n[dims]\nn = 1\n".encode("latin-1"))
        else:
            target = tmp_path
        proc = subprocess.run(
            [sys.executable, "-m", "bilevelsense.cli", "sample",
             str(target), "--which", "phi"],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_unwritable_output_exit_one(self, instance_c_file, tmp_path,
                                        capsys):
        rc = main(["sample", instance_c_file, "--which", "phi",
                   "--range", "0:1:3", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_usage_error_exit_one(self, instance_a_file):
        rc = main(["certify", instance_a_file, "--variant", "ii",
                   "--x", "not-a-number"])
        assert rc == 1

    def test_byte_identical_reruns(self, instance_c_file, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(["certify", instance_c_file, "--variant", "i",
                       "--x", "0", "--seed", "7", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_console_entry_point(self, instance_c_file):
        proc = subprocess.run(
            [sys.executable, "-m", "bilevelsense.cli", "sample",
             instance_c_file, "--which", "phi", "--range", "0:1:3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("x1,value,status")


class TestMoreRouting:
    def test_inconclusive_exit_three(self, tmp_path):
        text = """
[dims]
n = 1
m = 1
[upper]
objective = y1
[lower]
objective = 0
[box]
x1 = -1, 1
y1 = -1, 1
[mode]
optimistic
"""
        f = tmp_path / "inc.blp"
        f.write_text(text)
        rc = main(["certify", str(f), "--variant", "ii", "--x", "0"])
        assert rc == 3

    def test_designated_y_flag(self, instance_c_file, tmp_path):
        out = tmp_path / "c3.json"
        rc = main(["certify", instance_c_file, "--variant", "iii",
                   "--x", "0", "--y", "0", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["status"] == "Certified"


class TestBudgetExit:
    def test_kink_explosion_exit_four(self, tmp_path):
        terms = " + ".join(f"abs(y1 - {k / 10})" for k in range(18))
        text = f"""
[dims]
n = 1
m = 1
[upper]
objective = x1 + y1
[lower]
objective = {terms}
constraint = -y1
[box]
x1 = -1, 1
y1 = -2, 2
[mode]
optimistic
"""
        f = tmp_path / "budget.blp"
        f.write_text(text)
        rc = main(["estimate", f"{f}", "--variant", "semicompact", "--x", "0.5"])
        assert rc == 4


class TestDegenerateLowerLevel:
    @pytest.mark.parametrize("mode", ["optimistic", "pessimistic"])
    def test_variant_i_ends_in_certificate(self, mode, tmp_path):
        # y1 pinned by two active bounds: the covector hull repeats its
        # generators, which once left its metadata longer than the hull
        f = tmp_path / f"pinned_{mode}.blp"
        f.write_text(PINNED_TEXT.format(mode=mode))
        out = tmp_path / f"pinned_{mode}.json"
        rc = main(["certify", str(f), "--variant", "i", "--x", "0",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["mode"] == mode
        assert payload["status"] == "Certified"
        assert payload["recheck_residual"] <= payload["tol_eff"]
