"""Golden CLI artifacts: every command's output at small grids, pinned.

Each case runs `cli.main` in-process on one problem file and stores the
exit code and either the stdout or the `error: ` line.  JSON stdout is
stored parsed, and CSV stdout (`sample`) as rows of cells, each a float
when it parses as one.  The problem files are instances A-C, the
`perfbench/problems/nm2.blp` program (n = m = 2, read only) and a
knife-edge follower whose optimality band bound falls exactly on grid
points and one ulp below others, so that a one-ulp change to the band
moves its S(x) and phi_o / phi_p, and a follower with no lower-level
constraints (p = 0).  Strings, exit codes and list shapes
must match exactly; floats must agree to 1e-12 relative, with a 1e-15
absolute floor for round-off-level zeros, and NaN matches NaN.  A run
that lands on other grid points or another LP vertex fails; last-ulp BLAS
differences between machines do not.

Rewrite the golden file after an intended change with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from instances import INSTANCE_A_TEXT, INSTANCE_C_TEXT  # noqa: E402
from bilevelsense.cli import main  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "artifacts.json"
NM2 = Path(__file__).resolve().parent.parent / "perfbench" / "problems" / "nm2.blp"

INSTANCE_B_TEXT = """
# F = |x| + y, f = |y - x|, K = [-1, 1]: phi_o(x) = |x| + clip(x)
[dims]
n = 1
m = 1
[upper]
objective = abs(x1) + y1
[lower]
objective = abs(y1 - x1)
constraint = -y1 - 1
constraint = y1 - 1
[box]
x1 = -1.5, 1.5
y1 = -2, 2
"""

# phi = 0 at y1 = 0, and the band bound 0 + 1e-6 (1 + 0) is f at y1 = 1
# exactly and one ulp below f at y1 = -1
KNIFE_EDGE_TEXT = """
[dims]
n = 1
m = 1
[upper]
objective = y1 + 0.1 * x1
[lower]
objective = 1e-6 * max(y1, 0) + 1.0000000000000002e-06 * max(-y1, 0)
[box]
x1 = -1, 1
y1 = -1, 1
"""

# p = 0: S(x) = {x}, phi_o(x) = (x - 0.5)^2, and Lambda is the one empty
# multiplier vector at every stationary y
FREE_FOLLOWER_TEXT = """
[dims]
n = 1
m = 1
[upper]
objective = (x1 - 0.5)^2 + (y1 - x1)^2
[lower]
objective = (y1 - x1)^2
[box]
x1 = -1, 1
y1 = -1, 1
"""

FILES = {
    "A.blp": INSTANCE_A_TEXT,
    "B.blp": INSTANCE_B_TEXT,
    "C.blp": INSTANCE_C_TEXT,
    "edge.blp": KNIFE_EDGE_TEXT,
    "free.blp": FREE_FOLLOWER_TEXT,
}

ONE = ["--grid", "21", "--refine", "2"]
TWO = ["--grid", "11", "--refine", "1"]

CASES = {
    "A/sample_phi_o": ["sample", "A.blp", "--which", "phi_o", "--range", "0:1:5", *ONE],
    "A/sample_phi_p": ["sample", "A.blp", "--which", "phi_p", "--range", "-1:1:5", *ONE],
    "A/estimate": ["estimate", "A.blp", "--x", "0.5", *ONE],
    "A/estimate_convex": ["estimate", "A.blp", "--x", "0.5", "--variant", "convex",
                          *ONE],
    "A/estimate_semicontinuous": ["estimate", "A.blp", "--x", "0.5", "--y", "0.5",
                                  "--variant", "semicontinuous", *ONE],
    "A/estimate_infeasible": ["estimate", "A.blp", "--x", "-1", *ONE],
    "A/cq": ["cq", "A.blp", "--x", "0.5", *ONE],
    "A/certify_ii": ["certify", "A.blp", "--x", "0.5", *ONE],
    "A/certify_iii": ["certify", "A.blp", "--x", "0.5", "--y", "0.5", "--variant",
                      "iii", *ONE],
    "A/certify_value": ["certify", "A.blp", "--x", "0.5", "--variant", "value", *ONE],
    "A/reduce": ["reduce", "A.blp", "--x", "0.5", *ONE],
    "B/sample_phi": ["sample", "B.blp", "--which", "phi", "--range", "-1:1:5", *ONE],
    "B/estimate": ["estimate", "B.blp", "--x", "0", *ONE],
    "B/cq_convex": ["cq", "B.blp", "--x", "0", "--variant", "convex", *ONE],
    "B/certify_i": ["certify", "B.blp", "--x", "0", "--variant", "i", *ONE],
    "B/certify_value": ["certify", "B.blp", "--x", "0", "--variant", "value", *ONE],
    "C/sample_phi_p": ["sample", "C.blp", "--which", "phi_p", "--range", "-1:1:5", *ONE],
    "C/estimate": ["estimate", "C.blp", "--x", "0", *ONE],
    "C/estimate_simple": ["estimate", "C.blp", "--x", "0", "--variant", "simple", *ONE],
    "C/cq_y": ["cq", "C.blp", "--x", "0", "--y", "0.5", *ONE],
    "C/certify_i": ["certify", "C.blp", "--x", "0", "--variant", "i", *ONE],
    "C/certify_ii_at_1": ["certify", "C.blp", "--x", "1", *ONE],
    "C/certify_iii": ["certify", "C.blp", "--x", "0", "--y", "0", "--variant", "iii",
                      *ONE],
    "C/reduce": ["reduce", "C.blp", "--x", "0", *ONE],
    "nm2/sample_phi_o": ["sample", "nm2.blp", "--which", "phi_o", "--grid", "5",
                         "--refine", "1"],
    "nm2/estimate": ["estimate", "nm2.blp", "--x", "0.2,0.1", *TWO],
    "nm2/cq": ["cq", "nm2.blp", "--x", "0.2,0.1", *TWO],
    "nm2/certify_ii": ["certify", "nm2.blp", "--x", "0.2,0.1", *TWO],
    "nm2/certify_value": ["certify", "nm2.blp", "--x", "0.2,0.1", "--variant", "value",
                          *TWO],
    "nm2/reduce": ["reduce", "nm2.blp", "--x", "0.2,0.1", *TWO],
    "nm2/short_point": ["estimate", "nm2.blp", "--x", "0.2", *TWO],
    "edge/sample_phi_o": ["sample", "edge.blp", "--which", "phi_o", "--range",
                          "-1:1:3", *ONE],
    "edge/sample_phi_p": ["sample", "edge.blp", "--which", "phi_p", "--range",
                          "-1:1:3", *ONE],
    "edge/sample_phi_p_coarse": ["sample", "edge.blp", "--which", "phi_p", "--range",
                                 "-1:1:3", "--grid", "21", "--refine", "0"],
    "free/estimate_convex": ["estimate", "free.blp", "--x", "0.3", "--variant",
                             "convex", "--grid", "41", "--refine", "2"],
}

REL = 1e-12
ABS_FLOOR = 1e-15


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def run_case(key, workdir):
    """{"exit", and "stdout" or "error"} of the case's command, run with
    workdir as the working directory (the problem path is in the JSON)."""
    argv = CASES[key]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(here)
    result = {"exit": code}
    if err.getvalue():
        result["error"] = err.getvalue()
    if argv[0] == "sample":
        result["stdout"] = [[_cell(c) for c in line.split(",")]
                            for line in out.getvalue().splitlines()]
    elif out.getvalue():
        result["stdout"] = json.loads(out.getvalue())
    return result


def write_problems(workdir):
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    (workdir / "nm2.blp").write_text(NM2.read_text(encoding="utf-8"),
                                     encoding="utf-8")


def _compare(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), path
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list), path
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        ok = (got == want or (math.isnan(got) and math.isnan(want))
              or math.isclose(got, want, rel_tol=REL, abs_tol=ABS_FLOOR))
        assert ok, f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems")
    write_problems(path)
    return path


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_command_matches_golden(key, golden, workdir):
    # a JSON round trip, as in the stored file
    got = json.loads(json.dumps(run_case(key, workdir)))
    _compare(got, golden[key], key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_problems(Path(tmp))
        data = {key: run_case(key, tmp) for key in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
