"""bilevelsense benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Workloads (see README.md for why each exists):

  cli_cold     one fresh `python -m bilevelsense.cli` process per request
  containment  acceptance criterion 3 per base point at the oracle grid
  certify      one certification per operation, then its re-check
  tabulate     phi, phi_o, phi_p of n = m = 2 programs, one value per op

Every workload is a closed loop with one client: the next operation starts
when the previous one returns.  Library workloads run in a fresh worker
interpreter (worker.py), so the lower-level sweep cache starts empty.

--trace 0 prints the end-to-end metrics.  --trace 1 runs T/2 seconds
untraced and T/2 seconds traced, each in a fresh interpreter, and prints
the per-layer metrics (layertrace.py) with the tracing overhead.  The last
stdout line is the result object; the line before it holds the details
(environment, tail percentile, oracle verdicts, artifact digest, input
properties).  Spans and results are written under perfbench/_out/.
"""

from __future__ import annotations

import os
import sys

# BLAS threads must not compete with the single client; children inherit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for this process and every child it starts, so the reference task
# (calibrate.py) and the work it scales always run on the same core.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "_out")
WORKLOADS = ("cli_cold", "containment", "certify", "tabulate")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    # children keep byte-code caches, as an installed package has them
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["PERFBENCH_SRC"] = SRC
    return env


def _kill_later(proc):
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def _worker_cmd(workload, seed, *extra):
    return [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", OUT, *extra]


def run_worker(cmd):
    """Spawn a worker; return (set-up seconds up to `ready`, stdout after it)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    timer = _kill_later(proc)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    return ready, rest


def time_setup(workload, seed):
    """Raw and scaled set-up times of SETUP_SAMPLES fresh interpreters.

    The median is reported, which also discounts a first start that writes
    byte-code caches.  Each sample is scaled by the reference speed
    measured just before and just after it (calibrate.py)."""
    import calibrate
    speed = calibrate.Speed()
    cmd = _worker_cmd(workload, seed, "--setup-only")
    starts, raw = [], []
    speed.bracket()
    for _ in range(SETUP_SAMPLES):
        starts.append(time.perf_counter())
        raw.append(run_worker(cmd)[0])
        speed.bracket()
    scaled = [r * speed.factor(s, s + r) for s, r in zip(starts, raw)]
    return raw, scaled


def library_phase(workload, seed, seconds, trace):
    _, rest = run_worker(_worker_cmd(workload, seed, "--seconds", str(seconds),
                                     "--trace", str(trace)))
    return json.loads(rest.strip().splitlines()[-1])


def cli_phase(seed, seconds, trace):
    """Closed loop of fresh CLI processes; the same shape as a worker result."""
    import calibrate
    import workloads
    requests, _ = workloads.cli_requests(seed, os.path.join(OUT, f"cli-{seed}"))
    env = child_env()
    out_path = os.path.join(OUT, "cli-stdout")
    err_path = os.path.join(OUT, "cli-stderr")
    spans_path = os.path.join(OUT, f"spans-cli_cold-seed{seed}.tsv")
    summary_path = os.path.join(OUT, "cli-trace.json")
    if trace and os.path.exists(spans_path):
        os.remove(spans_path)
    errors, summaries, imports, mains = [], [], [], []
    verdicts = {"ok": 0, "wrong": 0, "known": 0, "unchecked": 0}
    seen, digest, digest_ops = {}, hashlib.sha256(), 0
    peak_kb = 0
    loop = calibrate.TimedLoop(seconds)
    i = 0
    while loop.running():
        argv, expect, kind, _ = requests[i % len(requests)]
        if trace:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), *argv]
            env.update(PERFBENCH_TRACE_OP=str(i), PERFBENCH_TRACE_SPANS=spans_path,
                       PERFBENCH_TRACE_SUMMARY=summary_path)
        else:
            cmd = [sys.executable, "-m", "bilevelsense.cli", *argv]
        with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=env, cwd=ROOT)
            timer = _kill_later(proc)
            _, status, usage = os.wait4(proc.pid, 0)
            loop.record(start, time.perf_counter() - start)
            timer.cancel()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        peak_kb = max(peak_kb, usage.ru_maxrss)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        if code != expect:
            errors.append((i, f"exit {code}, expected {expect}: "
                              f"{stderr.decode(errors='replace')[-300:]}"))
        else:
            verdict = workloads.check_cli(kind, stdout, stderr)
            blob = hashlib.sha256(stdout + stderr).hexdigest()
            if seen.setdefault(tuple(argv), blob) != blob:
                verdict = "wrong"   # a repeated request must repeat its bytes
            verdicts[verdict] += 1
        if i < workloads.CLI_FIXED_OPS:
            digest.update(f"{code}\n".encode() + stdout + b"\n")
            digest_ops += 1
        if trace:
            if not os.path.exists(summary_path):
                raise BenchError(f"traced CLI request {i} wrote no trace summary")
            with open(summary_path, encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(summary_path)
            summaries.append(child["trace"])
            imports.append(child["import_s"])
            mains.append(child["main_s"])
        i += 1
    result = {
        "attempted": i, "failed": len(errors),
        **loop.result({e[0] for e in errors}),
        "peak_rss_mb": peak_kb / 1024.0, "verdicts": verdicts,
        "digest": digest.hexdigest(), "digest_ops": digest_ops,
        "digest_target": workloads.CLI_FIXED_OPS,
        "properties": {"command": _count(requests[k % len(requests)].argv[0]
                                         for k in range(i)),
                       "m": _count(requests[k % len(requests)].m for k in range(i))},
        "errors": errors[:5],
    }
    if trace:
        import layertrace
        result["trace"] = layertrace.merge(summaries)
        result["spans_file"] = spans_path
        result["cli"] = {"import_s": imports, "main_s": mains}
    return result


def _count(values):
    out = {}
    for v in values:
        out[str(v)] = out.get(str(v), 0) + 1
    return out


def _tail(lat):
    """Latency at the highest percentile with >= 10 samples beyond it."""
    s = sorted(lat)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[len(s) - 11], 100.0 * (len(s) - 10) / len(s)


def environment():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "blas_threads": {v: os.environ[v] for v in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def phase(workload, seed, seconds, trace):
    if workload == "cli_cold":
        return cli_phase(seed, seconds, trace)
    return library_phase(workload, seed, seconds, trace)


def ops_per_s(res, scaled=True):
    wall = res["scaled_wall_s"] if scaled else res["wall_s"]
    return len(res["latencies"]) / wall


def end_to_end(workload, seed, seconds):
    setups, scaled_setups = time_setup(workload, seed)
    res = phase(workload, seed, seconds, 0)
    if not res["latencies"]:
        raise BenchError("no operation completed")
    tail, pct = _tail(res["scaled_latencies"])
    v = res["verdicts"]
    checked = v["ok"] + v["wrong"] + v["known"]
    metrics = {
        "setup_s": (statistics.median(scaled_setups), "s"),
        "ops_per_s": (ops_per_s(res), "1/s"),
        "op_p50_s": (statistics.median(res["scaled_latencies"]), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_op_ratio": (1.0 - res["failed"] / res["attempted"], "ratio"),
        "right_result_ratio": (v["ok"] / checked if checked else 0.0, "ratio"),
    }
    detail = {
        "setup_samples_s": setups,
        "raw": {"setup_s": statistics.median(setups), "ops_per_s": ops_per_s(res, False),
                "op_p50_s": statistics.median(res["latencies"]),
                "op_tail_s": _tail(res["latencies"])[0]},
        "reference_s": res["reference_s"],
        "op_tail_percentile": pct,
        "op_samples": len(res["latencies"]),
        "failed_op_ratio": res["failed"] / res["attempted"],
        "wrong_result_ratio": (v["wrong"] + v["known"]) / checked if checked else None,
        "known_defect_ratio": v["known"] / checked if checked else None,
        "checked": checked,
    }
    return [res], metrics, detail


def per_layer(workload, seed, seconds):
    import layertrace
    half = seconds / 2.0
    plain = phase(workload, seed, half, 0)
    traced = phase(workload, seed, half, 1)
    n_ops = len(traced["latencies"])
    metrics = layertrace.layer_metrics(traced["trace"], n_ops)
    cli = traced.get("cli")
    metrics["cli.import_s"] = (statistics.median(cli["import_s"]) if cli else 0.0, "s")
    metrics["cli.main_s"] = (statistics.median(cli["main_s"]) if cli else 0.0, "s")
    metrics["cli.process_s"] = (statistics.median(traced["latencies"]) if cli else 0.0, "s")
    overhead = ops_per_s(traced) / ops_per_s(plain) if plain["latencies"] else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    detail = {"traced_ops": n_ops, "untraced_ops": len(plain["latencies"]),
              "spans": traced["trace"]["n_spans"], "spans_file": traced["spans_file"]}
    return [plain, traced], metrics, detail


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bilevelsense", "__init__.py")):
        print(f"error: no bilevelsense sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        for old in glob.glob(os.path.join(OUT, "spans-*.tsv")):
            os.remove(old)
    try:
        if args.trace:
            runs, metrics, detail = per_layer(args.workload, args.seed, args.seconds)
        else:
            runs, metrics, detail = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(r["verdicts"]["wrong"] for r in runs)
    checked = sum(r["verdicts"][k] for r in runs for k in ("ok", "wrong", "known"))
    digests = {r["digest"] for r in runs if r["digest_ops"] == r["digest_target"]}
    correct = wrong == 0 and checked > 0 and len(digests) <= 1
    detail.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "load": "closed loop, one client, one process",
        "digest_sha256": [r["digest"] for r in runs],
        "digest_ops": [r["digest_ops"] for r in runs],
        "properties": runs[-1]["properties"],
        "verdicts": [r["verdicts"] for r in runs],
        "errors": [e for r in runs for e in r["errors"]],
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
