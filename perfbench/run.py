"""Benchmark edgekeep on one seeded workload and print one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from
./src, never from an installed copy, and the run fails without a result when
the sources are missing. The metrics, their units and the workloads are
declared in ./BENCHMARK.json.

With --trace 0 the run times operations back to back for S seconds of
operation time and reports the end-to-end metrics; set-up time is the median
of several fresh-interpreter set-ups made between the operations. With
--trace 1 it alternates untraced and traced operations and reports the
per-layer metrics; the spans go to perfbench/results/. Outputs are checked
outside the timed region (see workloads.py); an operation whose checks fail
counts in `failed`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from layers import layer_metrics
from spans import TRACED, Tracer, package_modules

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
#: A timing's tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10

#: Machine-speed reference. A shared machine's speed drifts by a quarter and
#: more over tens of minutes, for every program on it. Each run therefore
#: also times a fixed window-filter loop written in plain numpy (no edgekeep
#: code, so no change to the package can move it) and reports its times
#: scaled by REFERENCE_NOMINAL_S over the loop's median time in the run, so
#: that a slow phase of the machine largely cancels. The raw times and the
#: factor are kept in the run's result file. The nominal time is a round
#: figure near the loop's median on the machine the baseline was recorded on.
REFERENCE_NOMINAL_S = 0.15
REFERENCE_REPEATS = 12


def import_package():
    if not (SRC / "edgekeep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no edgekeep sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import edgekeep
    if Path(edgekeep.__file__).resolve().parent != (SRC / "edgekeep").resolve():
        raise SystemExit(f"perfbench: edgekeep was imported from {edgekeep.__file__}, not {SRC}")
    return edgekeep


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with
    TAIL_BEYOND samples beyond it.

    A run of large images has too few samples for that; below 4 * TAIL_BEYOND
    samples the tail has a quarter of them beyond it (about the 75th
    percentile) instead, which a single slow operation cannot move.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - min(TAIL_BEYOND, n // 4)
    return ordered[rank - 1], 100.0 * rank / n


def _l3_cache() -> str:
    try:
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "edgekeep").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts(ek, workload: str, seed: int) -> dict:
    return {"workload": workload, "seed": seed, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "l3_cache": _l3_cache(), "git_sha": _git_sha(), "src_sha256": _source_digest(),
            "edgekeep": getattr(ek, "__version__", "unknown")}


def setup_seconds(workload, warmup: bytes) -> float:
    """One set-up in a fresh interpreter; see probe_setup.py."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe_setup.py"), str(SRC), workload.name],
        input=warmup, capture_output=True, timeout=120, check=True)
    return float(done.stdout.decode().split()[-1])


def reference_seconds(fields: list[np.ndarray]) -> float:
    """Time the machine-speed reference: a 5x5 range-weighted window mean
    over each field, in the manner of a bilateral filter pass."""
    start = time.perf_counter()
    for field in fields:
        h, w = field.shape
        padded = np.pad(field, 2, mode="edge")
        numerator = np.zeros_like(field)
        denominator = np.zeros_like(field)
        for dy in range(-2, 3):
            for dx in range(-2, 3):
                diff = padded[2 + dy:2 + dy + h, 2 + dx:2 + dx + w] - field
                weight = np.exp(-(diff * diff * 12.5 + (dx * dx + dy * dy) * 0.125))
                numerator += weight * diff
                denominator += weight
        field + numerator / denominator
    return time.perf_counter() - start


def reference_fields() -> list[np.ndarray]:
    """Inputs of the reference: one large field and many small ones, as the
    workloads filter large images and run_bench small ones."""
    rng = np.random.default_rng(0)
    return [rng.random((512, 512))] + [rng.random((64, 64)) for _ in range(48)]


def spread_over(seconds: float, count: int) -> list[float]:
    """Operation-time marks at which `count` side measurements are due."""
    return [seconds * j / count for j in range(count)]


def bindings(modules, names) -> dict:
    """Identity snapshot of every traced name in every package module."""
    return {(mod.__name__, name): id(getattr(mod, name))
            for mod in modules for name in names if hasattr(mod, name)}


def run_workload(ek, workload, seed: int, seconds: float, trace: bool) -> dict:
    prepared = [workload.prepare(workload.make_input(seed, i))
                for i in range(workloads.DISTINCT_INPUTS)]
    workload.op(workload.prepare(workload.warmup_input()))

    tracer = Tracer()
    names = [name for _, name in TRACED]
    before = bindings(package_modules(), names)
    n_inputs = len(prepared)
    first_out: dict[int, object] = {}
    first_print: dict[int, bytes] = {}
    op_input: list[int] = []
    op_errors: list[list[str]] = []
    walls: list[float] = []
    traced_ops: dict[int, float] = {}
    first_traced: dict[int, int] = {}
    # Set-ups and reference timings are spread over the run, between
    # operations, so that they meet the same changes in machine load as the
    # operations do.
    setup: list[float] = []
    reference: list[float] = []
    setup_due = [] if trace else spread_over(seconds, SETUP_REPEATS)
    reference_due = [] if trace else spread_over(seconds, REFERENCE_REPEATS)
    fields = reference_fields()
    warmup = pickle.dumps(workload.warmup_input())
    measured = 0.0
    i = 0
    # Trace runs alternate untraced and traced rounds over the inputs and
    # need at least one of each.
    while measured < seconds or (trace and i < 2 * n_inputs):
        while setup_due and measured >= setup_due[0]:
            setup.append(setup_seconds(workload, warmup))
            setup_due.pop(0)
        while reference_due and measured >= reference_due[0]:
            reference.append(reference_seconds(fields))
            reference_due.pop(0)
        k = i % n_inputs
        traced = trace and (i // n_inputs) % 2 == 1
        if traced:
            tracer.op = i
            with tracer:
                start = time.perf_counter()
                out = workload.op(prepared[k])
                wall = time.perf_counter() - start
            traced_ops[i] = wall
            first_traced.setdefault(k, i)
        else:
            start = time.perf_counter()
            out = workload.op(prepared[k])
            wall = time.perf_counter() - start
            walls.append(wall)
        measured += wall
        errors = workload.check_output(prepared[k], out)
        fingerprint = workload.fingerprint(out)
        if k not in first_out:
            first_out[k], first_print[k] = out, fingerprint
        elif fingerprint != first_print[k]:
            errors.append(f"output of op {i} differs from op {op_input.index(k)} "
                          f"on the same input{' (traced)' if traced else ''}")
        op_input.append(k)
        op_errors.append(errors)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += [setup_seconds(workload, warmup) for _ in setup_due]
    reference += [reference_seconds(fields) for _ in reference_due]

    run_errors = []
    if bindings(package_modules(), names) != before:
        run_errors.append("a traced function was not restored after tracing")
    references = {}
    if seed == workloads.REFERENCE_SEED:
        reference_file = json.loads((BENCH_DIR / "reference.json").read_text())
        references = dict(enumerate(reference_file["workloads"][workload.name]))
    summaries = {}
    for k, out in first_out.items():
        errors = workload.check_input(prepared[k], out)
        summaries[k] = workload.summary(prepared[k], out)
        if k in references:
            errors += workload.compare(summaries[k], references[k])
        for number, input_index in enumerate(op_input):
            if input_index == k:
                op_errors[number] = op_errors[number] + errors
    failures = [f"op {number}: {error}" for number, errors in enumerate(op_errors)
                for error in errors] + run_errors

    result = {"attempted": len(op_input),
              "failed": sum(1 for errors in op_errors if errors),
              "failures": failures, "run_errors": run_errors,
              "summaries": summaries, "op_walls": walls, "setup_samples": setup,
              "reference_samples": reference}
    if trace:
        result["metrics"] = layer_metrics(ek, tracer, traced_ops, walls,
                                          set(first_traced.values()))
        result["absent"] = tracer.absent
        result["traced_walls"] = traced_ops
        result["spans"] = [{"name": s.name, "op": s.op, "parent": s.parent,
                            "start": s.start, "end": s.end} for s in tracer.spans]
    else:
        tail_value, tail_percentile = tail(walls)
        speed = REFERENCE_NOMINAL_S / statistics.median(reference)
        result["tail_percentile"] = tail_percentile
        result["speed_factor"] = speed
        result["raw_metrics"] = {
            "mpix_s": workload.mpix_per_op * len(walls) / measured,
            "op_s.p50": statistics.median(walls),
            "op_s.tail": tail_value,
            "setup_s": statistics.median(setup),
        }
        result["metrics"] = {name: value / speed if name == "mpix_s" else value * speed
                             for name, value in result["raw_metrics"].items()}
        result["metrics"]["peak_rss_mb"] = peak_rss_mb
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ek = import_package()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](ek)
    facts = machine_facts(ek, args.workload, args.seed)

    result = run_workload(ek, workload, args.seed, args.seconds, bool(args.trace))
    metrics = result["metrics"]

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match the "
                         f"declared {sorted(units)}")
    line = {"correct": result["failed"] == 0 and not result["run_errors"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}

    RESULTS.mkdir(exist_ok=True)
    dump = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail = {key: value for key, value in result.items() if key != "metrics"}
    dump.write_text(json.dumps({"facts": facts, "result": line,
                                "failed_frac": result["failed"] / result["attempted"],
                                **detail}, indent=1, default=str) + "\n")
    for failure in result["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("# facts " + json.dumps(facts))
    if not args.trace:
        print(f"# op_s.tail is percentile {result['tail_percentile']:g} "
              f"of {len(result['op_walls'])} samples")
    print(f"# failed_frac {result['failed'] / result['attempted']:g}; "
          f"details in {dump.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
