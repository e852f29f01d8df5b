"""Golden certificates: every (mode, variant) search at fixed points.

Each case stores `Certificate.to_json_dict()` plus the recheck residual for
value stationarity and the three optimistic and three pessimistic variants
at A-constrained x = 0.5 and x = 0, B at 0, C at 0 and C at 1, with the CQ
bundle on and seed 0.  Strings, statuses and list shapes must match
exactly; floats must agree to 1e-12 relative, with a 1e-15 absolute floor
for round-off-level zeros.  A search that lands on a different LP vertex
fails; last-ulp BLAS differences between machines do not.

Rewrite the golden file after an intended change with

    PYTHONPATH=src python tests/test_certify_golden.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from instances import (  # noqa: E402
    instance_a_constrained,
    instance_b,
    instance_c,
)
from bilevelsense.certify import (  # noqa: E402
    certify_optimistic,
    certify_pessimistic,
    certify_value_stationarity,
    recheck_certificate,
)
from bilevelsense.errors import ToolkitError  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "certify.json"

POINTS = (
    ("A_constrained", instance_a_constrained, 0.5),
    ("A_constrained", instance_a_constrained, 0.0),
    ("B", instance_b, 0.0),
    ("C", instance_c, 0.0),
    ("C", instance_c, 1.0),
)
PAIRS = (
    ("value", "value"),
    ("optimistic", "i"),
    ("optimistic", "ii"),
    ("optimistic", "iii"),
    ("pessimistic", "i"),
    ("pessimistic", "ii"),
    ("pessimistic", "iii"),
)
CASES = {
    f"{name}@{x}/{mode}/{variant}": (make, x, mode, variant)
    for name, make, x in POINTS
    for mode, variant in PAIRS
}

REL = 1e-12
ABS_FLOOR = 1e-15


def run_case(key):
    make, x, mode, variant = CASES[key]
    prog = make()
    try:
        if mode == "value":
            cert = certify_value_stationarity(prog, [x], seed=0)
        elif mode == "optimistic":
            cert = certify_optimistic(prog, [x], variant, seed=0)
        else:
            cert = certify_pessimistic(prog, [x], variant, seed=0)
    except ToolkitError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    payload = cert.to_json_dict()
    payload["caps"].pop("simplex_steps", None)
    return {"certificate": payload,
            "recheck": float(recheck_certificate(prog, cert))}


def _compare(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), path
        for k in want:
            _compare(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)), path
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]")
    elif isinstance(want, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), path
        ok = (got == want) or math.isclose(got, want, rel_tol=REL,
                                           abs_tol=ABS_FLOOR)
        assert ok, f"{path}: {got!r} != {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", list(CASES))
def test_certificate_matches_golden(key, golden):
    # a JSON round trip turns tuples into lists, as in the stored file
    got = json.loads(json.dumps(run_case(key)))
    _compare(got, golden[key], key)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {key: run_case(key) for key in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(data)} cases to {GOLDEN}")
