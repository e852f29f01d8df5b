import json
import subprocess
import sys

import pytest

from bilevelsense import cli, valuefn
from bilevelsense.cli import main
from bilevelsense.errors import BudgetError, ParseError, ToolkitError

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


def _deep_problem(tmp_path, upper_tail=""):
    """A problem whose upper objective sits inside 1,500 parentheses and
    whose lower objective inside 1,500 signs, ten times the recursive
    parser's old bound of 150.  An even number of signs leaves the lower
    objective |y1 - x1 / 2|."""
    path = tmp_path / "deep.blp"
    path.write_text(DEEP_PROBLEM.format(
        upper="(" * 1500 + "(x1 - 0.3)^2 + y1" + ")" * 1500 + upper_tail,
        lower="-" * 1500 + "abs(y1 - 0.5*x1)"))
    return str(path)


class TestDeepExpressions:
    def test_nested_far_past_150_every_command_runs(self, tmp_path, capsys):
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

    def test_an_error_deep_inside_exits_one_at_its_column(self, tmp_path,
                                                         capsys):
        path = _deep_problem(tmp_path, upper_tail=")")
        assert main(["estimate", path, "--x", "0.2"]) == 1
        col = len("objective = ") + 3018
        assert capsys.readouterr().err == (
            f"error: unexpected token ')' (line 6, col {col})\n")

    def test_long_sum_exits_without_traceback(self, tmp_path):
        # operator chains add no nesting level: a 3,000-term objective
        # parses and is estimated
        path = tmp_path / "long.blp"
        path.write_text(DEEP_PROBLEM.format(
            upper="(x1 - 0.3)^2 + y1",
            lower="abs(y1 - 0.5*x1)" + " + 0.0001*y1" * 2999))
        proc = subprocess.run(
            [sys.executable, "-m", "bilevelsense.cli", "estimate", str(path),
             "--x", "0.2", "--grid", "41", "--refine", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["polytope"]["vertices"]


class TestErrorsAndDeterminism:
    def test_malformed_file_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.blp"
        bad.write_text("[dims]\nn = 1\nm = oops\n")
        rc = main(["sample", str(bad), "--which", "phi"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_a_reversed_box_interval_exits_one_at_its_entry(
            self, instance_a_file, tmp_path, capsys):
        text = open(instance_a_file).read()
        entry = next(line for line in text.splitlines() if line.startswith("x1"))
        bad = tmp_path / "reversed.blp"
        bad.write_text(text.replace(entry, "x1 = 1, 0"))
        assert main(["estimate", str(bad), "--x", "0.5"]) == 1
        line = text.splitlines().index(entry) + 1
        assert capsys.readouterr().err == (
            f"error: boxes must be finite nonempty intervals (line {line}, col 6)\n")

    @pytest.mark.parametrize("entry", ["x1 = -1e308, 1e308", "y1 = -1e308, 1e308"])
    def test_a_box_whose_width_overflows_exits_one_at_its_entry(
            self, entry, tmp_path, capsys):
        # np.linspace over a width of inf made NaN grid points: estimate
        # reported a lower-level optimum of nan
        old = {"x": "x1 = -1, 1", "y": "y1 = -2, 2"}[entry[0]]
        text = DEEP_PROBLEM.format(upper="x1 + y1", lower="(y1 - x1)^2")
        bad = tmp_path / "wide.blp"
        bad.write_text(text.replace(old, entry))
        assert main(["estimate", str(bad), "--x", "0"]) == 1
        line = text.splitlines().index(old) + 1
        assert capsys.readouterr().err == (
            "error: box width inf of [-1e+308, 1e+308] is not finite "
            f"(line {line}, col 6)\n")

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


def _toolkit_errors(cls=ToolkitError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _toolkit_errors(sub)


LOG_UPPER = """
[dims]
n = 1
m = 1
[upper]
objective = log(x1) + y1
[lower]
objective = abs(y1 - x1)
[box]
x1 = -1, 1
y1 = -1, 1
[mode]
optimistic
"""

TWO_FOLLOWERS = """
[dims]
n = 1
m = 2
[upper]
objective = x1 + y1
[lower]
objective = y1^2 + y2^2
[box]
x1 = -1, 1
y1 = -1, 1
y2 = -1, 1
[mode]
optimistic
"""


class TestEveryLibraryErrorIsMapped:
    @pytest.mark.parametrize("exc_type", sorted(set(_toolkit_errors()),
                                                key=lambda c: c.__name__),
                             ids=lambda c: c.__name__)
    def test_mapped_exit_code_and_one_error_line(self, exc_type, instance_a_file,
                                                  monkeypatch, capsys):
        def fail(args):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "run", fail)
        rc = main(["cq", instance_a_file, "--x", "0.5"])
        if issubclass(exc_type, ParseError):
            assert rc == 1
        elif issubclass(exc_type, BudgetError):
            assert rc == 4
        else:
            assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("boom\n")
        assert err.count("\n") == 1

    def test_fd_evaluation_error_exits_two(self, tmp_path, capsys):
        # the fd oracle samples log(x1) on both sides of x1 = 1e-6 and wraps
        # the DomainError of a nonpositive sample in EvaluationError
        path = tmp_path / "log_upper.blp"
        path.write_text(LOG_UPPER)
        rc = main(["certify", str(path), "--x", "0.000001", "--variant",
                   "value", "--grid", "41", "--refine", "1"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: EvaluationError: log of a nonpositive value\n"


OVERFLOW_UPPER = """
[dims]
n = 1
m = 1
[upper]
objective = {upper}
[lower]
objective = abs(y1 - x1)
constraint = -y1
[box]
x1 = -1, 1
y1 = -1, 1
[mode]
optimistic
"""


@pytest.mark.parametrize("upper,argv", [
    ("min(exp(800*x1), 1) + y1", ["estimate", "--x", "0.95"]),
    ("min(exp(800*x1), 1) + y1", ["certify", "--x", "0.95"]),
    ("min((x1 - 0.5)^2, 1) + y1", ["certify", "--variant", "i", "--x", "1e308"]),
], ids=["estimate exp", "certify exp", "certify pow"])
def test_scalar_overflow_exits_two(upper, argv, tmp_path, capsys):
    # x = 0.95 is inside the box; the Clarke generators of F take exp(760)
    # by math.exp (or (1e308 - 0.5)^2 by **), which raised OverflowError.
    # The min keeps F finite on the grid, where numpy gives inf, so phi_o
    # is finite and the scalar pass is what fails
    path = tmp_path / "overflow.blp"
    path.write_text(OVERFLOW_UPPER.format(upper=upper))
    rc = main([argv[0], str(path), *argv[1:], "--grid", "41", "--refine", "1"])
    assert rc == 2
    assert capsys.readouterr().err == \
        "error: DomainError: overflow in a scalar evaluation\n"


NAN_GENERATOR = """
[dims]
n = 1
m = 1
[upper]
objective = (x1 - 0.5)^2 + y1
[lower]
objective = (y1 - x1)^2
constraint = 0/x1 + y1 - x1
[box]
x1 = -1, 1
y1 = -1, 1
"""

INFINITE_UPPER = """
[dims]
n = 1
m = 1
[upper]
objective = {upper}
[lower]
objective = (y1 - x1)^2
[box]
x1 = -1, 1
y1 = -1, 1
"""


def _one_error_line(argv, text, tmp_path, capsys):
    """Run argv on a file holding text; expect exit 2, no stdout and one
    `error: ` line, which is returned."""
    path = tmp_path / "program.blp"
    path.write_text(text)
    rc = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestClarkeGeneratorNotFinite:
    # at x = 1e-300 the x-gradient of 0/x1, -0/x1^2, is 0/0: NaN.  linprog
    # refused the NaN cost (certify) and the SVD did not converge (estimate)
    WANT = ("error: DomainError: a Clarke generator is not finite at "
            "x=[1e-300], y=[0.0]\n")
    GRID = ["--x", "1e-300", "--grid", "21", "--refine", "1"]

    @pytest.mark.parametrize("variant", ["i", "ii", "iii"])
    def test_certify_exits_two(self, variant, tmp_path, capsys):
        argv = ["certify", "--variant", variant, *self.GRID]
        assert _one_error_line(argv, NAN_GENERATOR, tmp_path,
                               capsys) == self.WANT

    def test_semicompact_estimate_exits_two(self, tmp_path, capsys):
        argv = ["estimate", "--variant", "semicompact", *self.GRID]
        assert _one_error_line(argv, NAN_GENERATOR, tmp_path,
                               capsys) == self.WANT

    def test_cq_with_a_generator_whose_square_overflows_exits_two(
            self, tmp_path, capsys):
        # at x = y = 0 the constraint's generators hold entries of 1e308,
        # whose squared norm is inf: the projector's least squares did not
        # converge
        text = NAN_GENERATOR.replace(
            "0/x1 + y1 - x1", "abs(min((y1 - x1)*abs(1e308), x1))")
        argv = ["cq", "--x", "0", "--grid", "21", "--refine", "1"]
        assert _one_error_line(argv, text, tmp_path, capsys) == (
            "error: DomainError: a Clarke generator is not finite at "
            "x=[0.0], y=[0.0]\n")


class TestUpperValueNotFinite:
    # F = -exp(1000) + y1 is -inf at every grid point, so phi_o is -inf and
    # S_o(x) selected no point: cq and the semicontinuous estimate indexed
    # an empty sample, and sample printed -inf rows
    MINUS_INF = INFINITE_UPPER.format(upper="0 - exp(1000) + y1")

    def test_cq_exits_two(self, tmp_path, capsys):
        assert _one_error_line(["cq", "--x", "-0.3"], self.MINUS_INF, tmp_path,
                               capsys) == \
            "error: DomainError: upper-level value is not finite at x=[-0.3]\n"

    def test_semicontinuous_estimate_exits_two(self, tmp_path, capsys):
        argv = ["estimate", "--variant", "semicontinuous", "--x", "-0.3"]
        assert _one_error_line(argv, self.MINUS_INF, tmp_path, capsys) == \
            "error: DomainError: upper-level value is not finite at x=[-0.3]\n"

    @pytest.mark.parametrize("which", ["phi_o", "phi_p"])
    def test_sample_exits_two(self, which, tmp_path, capsys):
        argv = ["sample", "--which", which, "--range", "-1:1:3"]
        assert _one_error_line(argv, self.MINUS_INF, tmp_path, capsys) == \
            "error: DomainError: upper-level value is not finite at x=[-1.0]\n"

    def test_the_lower_value_is_still_sampled(self, tmp_path, capsys):
        path = tmp_path / "program.blp"
        path.write_text(self.MINUS_INF)
        assert main(["sample", str(path), "--which", "phi", "--range",
                     "-1:1:3"]) == 0
        assert capsys.readouterr().out == \
            "x1,value,status\n-1.0,0.0,ok\n0.0,0.0,ok\n1.0,0.0,ok\n"

    @pytest.mark.parametrize("upper,argv,x", [
        ("exp(800*x1) + y1", ["estimate", "--x", "0.95"], "0.95"),
        ("exp(800*x1) + y1", ["certify", "--x", "0.95"], "0.95"),
        ("(x1 - 0.5)^2 + y1", ["certify", "--variant", "i", "--x", "1e308"],
         "1e+308"),
    ], ids=["estimate exp", "certify exp", "certify pow"])
    def test_an_infinite_upper_objective_is_read_before_its_generators(
            self, upper, argv, x, tmp_path, capsys):
        # numpy gives F = inf on the whole band, so phi_o is inf before
        # the scalar pass behind the Clarke generators overflows
        argv = [*argv, "--grid", "41", "--refine", "1"]
        assert _one_error_line(argv, OVERFLOW_UPPER.format(upper=upper),
                               tmp_path, capsys) == \
            f"error: DomainError: upper-level value is not finite at x=[{x}]\n"


NAN_FOLLOWER = """
[dims]
n = 1
m = 1
[upper]
objective = x1 + y1
[lower]
objective = exp(1000*y1) - exp(1000*y1) + (y1 - x1)^2
[box]
x1 = -1, 1
y1 = -1, 1
[mode]
optimistic
"""


class TestLowerOptimumNotANumber:
    # inf - inf makes f NaN for y1 above about 0.71: phi is NaN, and there
    # is no band to read phi_o or phi_p from
    @pytest.mark.parametrize("which", ["phi", "phi_o", "phi_p"])
    def test_sample_exits_two(self, which, tmp_path, capsys):
        path = tmp_path / "nan_follower.blp"
        path.write_text(NAN_FOLLOWER)
        rc = main(["sample", str(path), "--which", which, "--range", "0:1:3",
                   "--grid", "41"])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: DomainError: lower-level optimum is nan at x=[0.0]\n"

    def test_no_numpy_warning_reaches_stderr(self, tmp_path):
        # exp overflows and inf - inf is NaN on the way to the DomainError;
        # with warnings shown (-W default) stderr is still the one error line
        path = tmp_path / "nan_follower.blp"
        path.write_text(NAN_FOLLOWER)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "bilevelsense.cli",
             "sample", str(path), "--range", "0:1:3", "--grid", "41"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == \
            "error: DomainError: lower-level optimum is nan at x=[0.0]\n"


class TestLowerOptimumInfinite:
    def test_sample_exits_two_at_the_first_infinite_optimum(self, tmp_path, capsys):
        # (y1 - x1)^2 overflows at every y of the box once x1 = 5e307, so
        # the band f <= inf held the whole grid and sample printed an inf row
        text = DEEP_PROBLEM.format(upper="x1 + y1", lower="(y1 - x1)^2")
        argv = ["sample", "--which", "phi", "--range", "0:1e308:3"]
        assert _one_error_line(argv, text, tmp_path, capsys) == \
            "error: DomainError: lower-level optimum is inf at x=[5e+307]\n"


class TestOutOfMemory:
    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("no room")],
                             ids=["bare", "message"])
    def test_memory_error_exits_four(self, exc, instance_c_file, monkeypatch,
                                     capsys):
        # numpy's _ArrayMemoryError subclasses MemoryError
        def no_memory(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "sample_curve", no_memory)
        rc = main(["sample", instance_c_file, "--which", "phi"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"error: out of memory: {str(exc) or 'allocation failed'}\n"


class TestGridBudget:
    def test_coarse_grid_just_above_the_bound_exits_four(self, tmp_path,
                                                          monkeypatch, capsys):
        # m = 2: 4096^2 points is the bound itself, 4097^2 the next grid
        assert 4096 ** 2 == valuefn.MAX_GRID_POINTS
        path = tmp_path / "two_followers.blp"
        path.write_text(TWO_FOLLOWERS)

        def no_mesh(*args):
            raise AssertionError("an over-budget grid was meshed")

        monkeypatch.setattr(valuefn, "_mesh", no_mesh)
        valuefn._coarse_mesh.cache_clear()
        rc = main(["sample", str(path), "--which", "phi", "--grid", "4097"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: budget exceeded: coarse grid of 4097^2 points exceeds "
            "16777216 points\n")

    def test_the_bound_itself_is_admitted(self, tmp_path, monkeypatch, capsys):
        # the same comparison on a bound small enough to mesh: 9^2 points
        # pass a bound of 81, 10^2 do not.  Refine depth 0 meshes the coarse
        # level alone; a refinement level (7 x 21^2 points) is bounded too
        path = tmp_path / "two_followers.blp"
        path.write_text(TWO_FOLLOWERS)
        monkeypatch.setattr(valuefn, "MAX_GRID_POINTS", 81)
        valuefn._coarse_mesh.cache_clear()
        args = ["sample", str(path), "--which", "phi", "--range", "0:1:2",
                "--refine", "0"]
        assert main(args + ["--grid", "9"]) == 0
        assert main(args + ["--grid", "10"]) == 4
        assert "coarse grid of 10^2 points exceeds 81 points" in capsys.readouterr().err

    def test_default_grid_admits_three_followers(self):
        assert 201 ** 3 <= valuefn.MAX_GRID_POINTS


def test_requests_without_lps_leave_scipy_unloaded(instance_c_file, tmp_path):
    # a sample request solves no LP, so scipy.optimize is never imported;
    # the first LP imports it
    code = "\n".join([
        "import sys",
        "from bilevelsense import cli",
        "from bilevelsense._polyalg import LPBuilder",
        f"assert cli.main(['sample', {instance_c_file!r}, '--which', 'phi_p',"
        f" '--grid', '41', '--refine', '1', '--out', {str(tmp_path / 'c.csv')!r}]) == 0",
        "print('scipy.optimize' in sys.modules)",
        "lp = LPBuilder()",
        "lp.var(ub=1.0)",
        "assert lp.maximize({0: 1.0})[0] == 1.0",
        "print('scipy.optimize' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


class TestFlagValues:
    """Flag values the library cannot use end in an exit code and one
    `error: ` line, before the problem is swept."""

    @pytest.mark.parametrize("argv,message", [
        (["sample", "--range", "a:1:3"], "--range must be lo:hi:count with"),
        (["sample", "--range", "0:1:2.5"], "--range must be lo:hi:count with"),
        (["sample", "--range", "0:1"], "--range must be lo:hi:count"),
        (["sample", "--range", "nan:1:3"], "--range lo and hi must be finite"),
        (["sample", "--range", "0:1e999:3"], "--range lo and hi must be finite"),
        (["sample", "--range", "-1e308:1e308:2"],
         "--range width hi - lo = inf is not finite"),
        (["sample", "--range", "0:1:-3"], "--range count must be at least 1"),
        (["sample", "--range", "0:1:0"], "--range count must be at least 1"),
        (["sample", "--grid", "2"], "--grid must be at least 3"),
        (["sample", "--refine", "-1"], "--refine must be at least 0"),
        (["certify", "--x", "0.3", "--tol", "nan"],
         "--tol must be finite and at least 0"),
        (["certify", "--x", "0.3", "--tol=-1e-6"],
         "--tol must be finite and at least 0"),
        (["certify", "--x", "0.3", "--rmax", "-1"],
         "--rmax must be finite and at least 0"),
        (["certify", "--x", "0.3", "--rmax", "inf"],
         "--rmax must be finite and at least 0"),
        (["cq", "--x", "0.3", "--seed", "-1"], "--seed must be at least 0"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_usage_error_exit_one(self, argv, message, instance_c_file,
                                  monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("a refused request was swept")

        monkeypatch.setattr(valuefn, "_solve_lower", no_sweep)
        rc = main([argv[0], instance_c_file, *argv[1:]])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("argv,label", [
        (["estimate", "--x", "inf"], "x"),
        (["estimate", "--x", "nan"], "x"),
        (["cq", "--x=-inf"], "x"),
        (["certify", "--variant", "iii", "--x", "0.3", "--y", "nan"], "y"),
        (["certify", "--variant", "i", "--x", "0.3", "--y", "inf"], "y"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_a_non_finite_point_is_a_usage_error(self, argv, label,
                                                  instance_c_file, monkeypatch,
                                                  capsys):
        # --x inf ended in a LinAlgError traceback from the rank test, and
        # certify --y nan in an Inconclusive certificate (exit 3)
        def no_sweep(*args):
            raise AssertionError("a refused point was swept")

        monkeypatch.setattr(valuefn, "_solve_lower", no_sweep)
        rc = main([argv[0], instance_c_file, *argv[1:]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: --{label} must be finite\n"

    @pytest.mark.parametrize("flag", ["--tol", "--seed", "--rmax"])
    def test_sample_takes_no_point_flags(self, flag, instance_c_file,
                                         monkeypatch, capsys):
        # sample reads none of them, so passing one is a usage error
        def no_sweep(*args):
            raise AssertionError("a refused request was swept")

        monkeypatch.setattr(valuefn, "_solve_lower", no_sweep)
        rc = main(["sample", instance_c_file, flag, "1"])
        assert rc == 1
        assert capsys.readouterr().err == \
            f"error: unrecognized arguments: {flag} 1\n"

    def test_x_grid_above_the_bound_exits_four(self, instance_c_file,
                                               monkeypatch, capsys):
        def no_sweep(*args):
            raise AssertionError("an over-budget x-grid was swept")

        monkeypatch.setattr(valuefn, "_solve_lower", no_sweep)
        rc = main(["sample", instance_c_file, "--range", "0:1:100000000000"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: budget exceeded: x-grid of 100000000000 points exceeds "
            "16777216 points\n")

    def test_range_on_a_two_leader_program_is_refused(self, tmp_path,
                                                      monkeypatch, capsys):
        # --range spans x1 alone, so at n = 2 it would be dropped silently
        def no_sweep(*args):
            raise AssertionError("a refused --range was swept")

        path = tmp_path / "two_leaders.blp"
        path.write_text(TWO_FOLLOWERS.replace("n = 1", "n = 2").replace(
            "[box]", "[box]\nx2 = -1, 1"))
        monkeypatch.setattr(valuefn, "_solve_lower", no_sweep)
        rc = main(["sample", str(path), "--which", "phi", "--range", "0:0.5:3"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: --range needs a program with n = 1, not n = 2\n")

    @pytest.mark.parametrize("n", [1, 2])
    def test_the_x_grid_bound_itself_is_admitted(self, n, monkeypatch):
        # the x-grid is the count at n = 1 and points_per_axis^2 at n = 2
        from bilevelsense.errors import BudgetError
        from bilevelsense.model import BilevelProgram, Expr

        prog = BilevelProgram(n=n, m=1, F=Expr.x(1) + Expr.y(1),
                              f=Expr.y(1) ** 2, g=(),
                              box_x=((-1.0, 1.0),) * n, box_y=((-1.0, 1.0),))
        grid = valuefn.GridSpec(points_per_dim=5, refine_depth=0)
        kwargs = ({"x_range": (0.0, 1.0, 9)} if n == 1
                  else {"points_per_axis": 3})
        monkeypatch.setattr(valuefn, "MAX_GRID_POINTS", 9)
        assert len(valuefn.sample_curve(prog, "phi", grid, **kwargs)) == 9
        monkeypatch.setattr(valuefn, "MAX_GRID_POINTS", 8)
        with pytest.raises(BudgetError, match="x-grid of 9 points exceeds 8"):
            valuefn.sample_curve(prog, "phi", grid, **kwargs)

    @pytest.mark.parametrize("flags", [["--tol", "0", "--rmax", "0"],
                                       ["--grid", "3", "--refine", "0"]])
    def test_the_least_admitted_values_run(self, flags, instance_c_file,
                                           tmp_path):
        out = tmp_path / "cert.json"
        rc = main(["certify", instance_c_file, "--x", "0.3", "--variant", "ii",
                   "--out", str(out), *flags])
        assert rc in (0, 3)
        assert json.loads(out.read_text())["variant"] == "ii"
