"""One fresh interpreter doing one workload's set-up, and then its work.

    python perfbench/worker.py --workload W --seed S --out DIR
        [--seconds T] [--trace 0|1] [--setup-only]

Prints `ready` once bilevelsense is imported and the workload's programs
are generated and parsed (run.py times set-up up to that line).  Without
--setup-only it then runs the closed loop for T seconds (one client: the
next operation starts when the previous one returns), checks every output
against the workload's oracle after the clock stops, and prints one JSON
line with the raw results.  With --trace 1 the layer wrappers are
installed before the loop and the spans are written to DIR afterwards.
run.py sets PYTHONPATH to the checkout's src/ and pins BLAS threads to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402


def _import_checkout():
    """Import bilevelsense and insist it is the checkout's own copy."""
    import bilevelsense
    src = os.environ.get("PERFBENCH_SRC", "")
    if not src or not os.path.abspath(bilevelsense.__file__).startswith(src + os.sep):
        raise SystemExit(f"bilevelsense imported from {bilevelsense.__file__}, "
                         f"not from {src}")
    return bilevelsense


def setup(workload, seed, out_dir):
    """Everything a run pays before its first operation."""
    _import_checkout()
    import workloads
    if workload == "cli_cold":
        from bilevelsense.model import parse_program
        requests, files = workloads.cli_requests(seed, os.path.join(out_dir, f"cli-{seed}"))
        for path in files:
            with open(path, encoding="utf-8") as fh:
                parse_program(fh.read())
        return requests
    return workloads.LIBRARY[workload](seed)


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(wl, seconds, recorder):
    """Closed loop for `seconds`.

    Returns ops, outputs, errors, the loop clock (calibrate.TimedLoop) and
    the peak RSS after the first FIXED_OPS operations.  Taking the peak over
    a fixed amount of work keeps a faster commit, which fills the sweep
    cache further in the same time, from reading as one that needs more
    memory.
    """
    ops, outputs, errors = [], [], []
    peak_rss_mb = None
    clock = time.perf_counter
    loop = calibrate.TimedLoop(seconds)
    i = 0
    while loop.running():
        op = wl.op(i)
        if recorder is not None:
            recorder.op_id = i
        start = clock()
        try:
            out = wl.run(op)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            out = None
            errors.append((i, f"{type(exc).__name__}: {exc}"))
        loop.record(start, clock() - start)
        ops.append(op)
        outputs.append(out)
        i += 1
        if i == wl.FIXED_OPS:
            peak_rss_mb = _rss_mb()
    return ops, outputs, errors, loop, peak_rss_mb or _rss_mb()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = setup(args.workload, args.seed, args.out)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    recorder = None
    if args.trace:
        import layertrace
        recorder = layertrace.Recorder()
        recorder.install()
    ops, outputs, errors, loop, peak_rss_mb = run_loop(wl, args.seconds, recorder)

    failed_at = {i for i, _ in errors}
    verdicts = {"ok": 0, "wrong": 0, "known": 0, "unchecked": 0}
    digest = hashlib.sha256()
    digest_ops = 0
    props = {}
    for i, (op, out) in enumerate(zip(ops, outputs)):
        for key, val in wl.properties(op).items():
            props.setdefault(key, {}).setdefault(str(val), 0)
            props[key][str(val)] += 1
        if i < wl.FIXED_OPS:
            digest.update(b"failed" if i in failed_at else wl.encode(op, out))
            digest.update(b"\n")
            digest_ops += 1
        if i not in failed_at:
            verdicts[wl.check(op, out)] += 1

    result = {
        "attempted": len(ops),
        "failed": len(errors),
        **loop.result(failed_at),
        "peak_rss_mb": peak_rss_mb,
        "verdicts": verdicts,
        "digest": digest.hexdigest(),
        "digest_ops": digest_ops,
        "digest_target": wl.FIXED_OPS,
        "properties": props,
        "errors": errors[:5],
    }
    if recorder is not None:
        spans_path = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.tsv")
        result["trace"] = recorder.summary()
        recorder.write_spans(spans_path)
        result["spans_file"] = spans_path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
