"""Hash a benchmark workload's outputs in one process.

    OPENBLAS_NUM_THREADS=1 python tools/digest.py WORKLOAD SEEDS N [WARMUP]

WORKLOAD is a library workload of perfbench/workloads.py (tabulate,
containment or certify), which is imported as it is and not modified.
SEEDS is one seed or a comma-separated list (7,13,29); each seed runs on
its own, after every memo of `bilevelsense._memo.REGISTRY` is cleared, so
it prints what a run of that seed alone prints.  Per seed, operations
0 .. WARMUP-1 run unhashed (WARMUP defaults to 0); the next N operations
are hashed: one sha256 over their `encode(op, out)` bytes laid end to end,
with b"failed" for an operation that raised.  Prints, per seed, a line
`SHA256  seed SEED`, the CPU seconds of the N hashed operations
(`cpu_s`), the minor page faults they took (`minflt`, from
`resource.getrusage`, so that allocator churn shows next to the hash),
the lower-level sweep work they did (`sweeps batches B x X`: B calls of
`valuefn._sweep_batch`, which sweep X points in all, counted by a wrapper
bound to that module global, which `_solve_lower` looks up on every miss),
then one line per memo: its hits and misses over the N hashed
operations, from `cache_info()`.  Writes no bytecode, and exits quietly
when stdout closes early (`| head -1`).  Two trees whose outputs on those
operations are byte-identical print the same sha256.
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bilevelsense import valuefn  # noqa: E402
from bilevelsense._memo import REGISTRY  # noqa: E402

# [batches, points] swept by valuefn._sweep_batch
SWEPT = [0, 0]


def _counted(sweep_batch):
    def counting(m, f, g, box_y, F, x_keys, grid):
        SWEPT[0] += 1
        SWEPT[1] += len(x_keys)
        return sweep_batch(m, f, g, box_y, F, x_keys, grid)

    return counting


def digest(workload, seed, count, warmup):
    """Print the sha256, CPU, page-fault, sweep and memo lines of one
    seed."""
    for memo in REGISTRY.values():
        memo.cache_clear()
    wl = workloads.LIBRARY[workload](seed)
    for i in range(warmup):
        try:
            wl.run(wl.op(i))
        except Exception:  # noqa: BLE001 - an operation that raised is a result
            pass
    sha = hashlib.sha256()
    before = {name: memo.cache_info() for name, memo in REGISTRY.items()}
    SWEPT[:] = [0, 0]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    for i in range(warmup, warmup + count):
        op = wl.op(i)
        try:
            out = wl.encode(op, wl.run(op))
        except Exception:  # noqa: BLE001 - a failed operation is a result
            out = b"failed"
        sha.update(out)
    cpu = time.process_time() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    print(f"{sha.hexdigest()}  seed {seed}")
    print(f"cpu_s {cpu:.3f}")
    print(f"minflt {faults}")
    print(f"sweeps batches {SWEPT[0]} x {SWEPT[1]}")
    for name, memo in REGISTRY.items():
        info, old = memo.cache_info(), before[name]
        print(f"memo {name} hits {info.hits - old.hits} "
              f"misses {info.misses - old.misses}", flush=True)


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    workload, count = argv[0], int(argv[2])
    warmup = int(argv[3]) if len(argv) == 4 else 0
    valuefn._sweep_batch = _counted(valuefn._sweep_batch)
    for seed in argv[1].split(","):
        digest(workload, int(seed), count, warmup)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
