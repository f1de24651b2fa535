"""Time one set-up of a workload in a fresh interpreter; print the seconds.

    python3 perfbench/probe_setup.py SRC_DIR WORKLOAD < pickled-warm-up-input

The clock starts before `import edgekeep` and stops after one warm-up
operation on the small input read from stdin. The input is generated by the
caller, so its generation is not counted.
"""

import pickle
import sys
import time


def main() -> None:
    src, name = sys.argv[1], sys.argv[2]
    data = sys.stdin.buffer.read()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import edgekeep
    import workloads
    workload = workloads.WORKLOADS[name](edgekeep)
    workload.op(workload.prepare(pickle.loads(data)))
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
