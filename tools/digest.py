"""Hash a benchmark workload's outputs in one process.

    OPENBLAS_NUM_THREADS=1 python tools/digest.py WORKLOAD SEED N [WARMUP]

WORKLOAD is a library workload of perfbench/workloads.py (tabulate,
containment or certify), which is imported as it is and not modified.
Operations 0 .. WARMUP-1 run unhashed (WARMUP defaults to 0); the next N
operations are hashed: one sha256 over their `encode(op, out)` bytes laid
end to end, with b"failed" for an operation that raised.  Prints the
sha256 and the CPU seconds of the N hashed operations, then one line per
memo of `bilevelsense._memo.REGISTRY`: its hits and misses over the N
hashed operations, from `cache_info()`.  Writes no bytecode.  Two trees
whose outputs on those operations are byte-identical print the same
sha256.
"""

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from bilevelsense._memo import REGISTRY  # noqa: E402


def main(argv):
    if len(argv) not in (3, 4):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    name, seed, count = argv[0], int(argv[1]), int(argv[2])
    warmup = int(argv[3]) if len(argv) == 4 else 0
    wl = workloads.LIBRARY[name](seed)
    for i in range(warmup):
        try:
            wl.run(wl.op(i))
        except Exception:  # noqa: BLE001 - an operation that raised is a result
            pass
    digest = hashlib.sha256()
    before = {name: memo.cache_info() for name, memo in REGISTRY.items()}
    start = time.process_time()
    for i in range(warmup, warmup + count):
        op = wl.op(i)
        try:
            out = wl.encode(op, wl.run(op))
        except Exception:  # noqa: BLE001 - a failed operation is a result
            out = b"failed"
        digest.update(out)
    cpu = time.process_time() - start
    print(digest.hexdigest())
    print(f"cpu_s {cpu:.3f}")
    for name, memo in REGISTRY.items():
        info, old = memo.cache_info(), before[name]
        print(f"memo {name} hits {info.hits - old.hits} "
              f"misses {info.misses - old.misses}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
