"""tools/digest.py: a seed list prints what each seed prints alone (the
sha256, sweep and memo lines), and a reader that closes stdout early ends
it without a traceback.
tools/code_lines.py: what counts as a code line."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
DIGEST = TOOLS / "digest.py"
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _digest(*args):
    proc = subprocess.run([sys.executable, str(DIGEST), *args],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    return [line for line in proc.stdout.splitlines()
            if not line.startswith(("cpu_s", "minflt"))]


def test_a_seed_list_prints_each_seed_as_it_runs_alone():
    # the first ops of the two seeds share their inputs, so seed 13's sweep
    # and memo lines match its own run only when the memos are cleared and
    # the sweep count restarts between seeds
    both = _digest("certify", "7,13", "2")
    alone = _digest("certify", "7", "2") + _digest("certify", "13", "2")
    assert both == alone
    sweeps = [line.split() for line in both if line.startswith("sweeps ")]
    assert [words[:2] + words[3:4] for words in sweeps] == \
        [["sweeps", "batches", "x"]] * 2
    assert [line.split("  ")[1] for line in both if "  seed " in line] == \
        ["seed 7", "seed 13"]


def test_a_closed_stdout_ends_it_quietly():
    proc = subprocess.Popen(
        [sys.executable, str(DIGEST), "certify", "7,13,29", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first.endswith(b"  seed 7\n")
    assert err == b""
    assert proc.returncode == 1


SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment after code

# a comment alone


class Thing:
    """Class docstring."""

    def method(self, a,
               b):
        """Function docstring
        on two lines."""
        text = """not a docstring,
        three lines
        long"""
        return (a +
                b)
'''


def test_code_lines_counts_code_and_skips_docstrings_and_comments():
    spec = importlib.util.spec_from_file_location("code_lines",
                                                  TOOLS / "code_lines.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import 1, class 1, the two-line def 2, the three-line string 3 and
    # the two-line return 2; docstrings, comments and blank lines none
    assert tool.code_lines(SNIPPET) == 9
