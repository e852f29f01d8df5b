"""Traced stand-in for `python -m bilevelsense.cli ARGS`, one request.

    python perfbench/cli_child.py ARGS...

Times `import bilevelsense.cli` and `cli.main(ARGS)`, with the layer
wrappers installed between the two, so stdout and the exit code are the
CLI's own.  The timings and the per-boundary totals go to the JSON file
named by PERFBENCH_TRACE_SUMMARY, and the spans are appended to the TSV
file named by PERFBENCH_TRACE_SPANS under operation id PERFBENCH_TRACE_OP.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import bilevelsense.cli as cli  # noqa: E402
t1 = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import layertrace  # noqa: E402


def main():
    recorder = layertrace.Recorder()
    recorder.op_id = int(os.environ["PERFBENCH_TRACE_OP"])
    recorder.install()
    t2 = time.perf_counter()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        t3 = time.perf_counter()
        sys.stdout.flush()
        spans = os.environ["PERFBENCH_TRACE_SPANS"]
        recorder.write_spans(spans, mode="a" if os.path.exists(spans) else "w")
        with open(os.environ["PERFBENCH_TRACE_SUMMARY"], "w", encoding="utf-8") as fh:
            json.dump({"import_s": t1 - t0, "main_s": t3 - t2,
                       "trace": recorder.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
