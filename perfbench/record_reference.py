"""Record the reference outputs that runs with the reference seed must match.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: for each workload and each distinct input of
workloads.REFERENCE_SEED, the SNR and both edge-preserving exponents of the
filtered image, or the run_bench CSV. Re-record only when a change is meant
to alter what the filter computes, and say so where the change is described.
"""

from __future__ import annotations

import json

import run
import workloads


def main() -> None:
    ek = run.import_package()
    reference = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(ek)
        entries = []
        for index in range(workloads.DISTINCT_INPUTS):
            prepared = workload.prepare(workload.make_input(workloads.REFERENCE_SEED, index))
            entries.append(workload.summary(prepared, workload.op(prepared)))
        reference["workloads"][name] = entries
    path = run.BENCH_DIR / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
