"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]
                                  [--out perfbench/results/baseline.json]
                                  [--against perfbench/baseline.json]

Runs the command from BENCHMARK.json once per (workload, seed), one run at a
time, and reports for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
With --against it also reports how far each median moved from an earlier
summary, in the metric's worse direction, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench/results/baseline.json")
    parser.add_argument("--against", default="")
    args = parser.parse_args(argv)
    earlier = json.loads((ROOT / args.against).read_text())["workloads"] if args.against else {}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    facts = {}
    for name in names:
        runs = []
        for seed in seed_list(args.seeds):
            start = time.perf_counter()
            done = subprocess.run(
                spec["command"] + ["--workload", name, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
            line = json.loads(done.stdout.strip().splitlines()[-1])
            line["seed"], line["wall_s"] = seed, time.perf_counter() - start
            dump = json.loads((ROOT / "perfbench" / "results"
                               / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            facts = dump["facts"]
            line["tail_percentile"] = dump.get("tail_percentile")
            line["samples"] = len(dump["op_walls"])
            runs.append(line)
            print(f"{name} seed {seed}: correct={line['correct']} "
                  f"attempted={line['attempted']} failed={line['failed']} "
                  f"wall={line['wall_s']:.1f}s", flush=True)
        metrics = {}
        for metric in declared:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            metrics[metric["name"]] = {"unit": metric["unit"], "bound": metric.get("bound"),
                                       **summarise(values), "values": values}
            stats = metrics[metric["name"]]
            moved = ""
            if name in earlier:
                before = earlier[name]["metrics"][metric["name"]]["median"]
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (stats["median"] - before) / abs(before) if before else 0.0
                moved = f" worse by {worse:+.4f} than {args.against}"
            print(f"  {metric['name']:36s} median {stats['median']:.6g} "
                  f"spread {stats['spread']:.4f} bound {metric.get('bound')}{moved}", flush=True)
        keys = ("seed", "correct", "attempted", "failed", "wall_s", "tail_percentile", "samples")
        summary[name] = {"runs": [{k: run[k] for k in keys} for run in runs],
                         "metrics": metrics}
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    facts.pop("seed", None)
    facts.pop("workload", None)
    out.write_text(json.dumps({"run_seconds": spec["run_seconds"], "trace": args.trace,
                               "facts": facts, "workloads": summary}, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
