"""Fold perfbench result files into one committed BENCH_<n>.json record.

    python3 scripts/bench_record.py OUT.json NAME=DIR [NAME=DIR ...] [STAGES.json]

for example `BENCH_1.json parent=A/perfbench/results change=B/perfbench/results`.

Each NAME=DIR names one side of a comparison and the directory of perfbench
result files (<workload>-seed<N>-trace<0|1>.json) its runs wrote. For every
side and workload the record holds each metric's value per seed and the
median, quartiles and spread that perfbench/baseline.py reports for them
(end-to-end metrics from --trace 0 runs, per-layer metrics from --trace 1
runs; two runs or more each), the git SHAs and source digests measured, and
the machine facts: numpy, python, nproc and perfbench's machine-speed factor,
and the traced functions a run found absent. End-to-end runs also give the
raw metrics, the times and rates before perfbench scales them by the factor.
Every side after the first is also compared with the first, seed by seed, in
the direction BENCHMARK.json declares for each end-to-end metric, and given a
verdict against that metric's bound (see verdict); so is its speed factor,
which scales every metric but peak_rss_mb.

An argument without "=" names the JSON that scripts/stages.py printed; it
becomes the record's `stages` section, each tree after the first compared with
the first per stage and clock (see fold_stages).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from baseline import summarise  # noqa: E402  (perfbench's own spread measure)


def spread(values: list[float]) -> dict:
    """perfbench's median, quartiles and spread, plus the values themselves."""
    if len(values) < 2:
        raise SystemExit("bench_record: every side and workload needs two runs or more")
    return dict(summarise(values), n=len(values), values=values)


def load_side(results: Path) -> dict:
    """{workload: {"trace0": {seed: result file}, "trace1": {...}}} of one side."""
    runs: dict = {}
    for path in sorted(results.glob("*-seed*-trace*.json")):
        workload, rest = path.stem.rsplit("-seed", 1)
        seed, trace = rest.split("-trace")
        runs.setdefault(workload, {}).setdefault(f"trace{trace}", {})[int(seed)] = \
            json.loads(path.read_text())
    if not runs:
        raise SystemExit(f"bench_record: no perfbench result files in {results}")
    return runs


def summarize(runs: dict) -> dict:
    summary = {}
    for workload, by_trace in sorted(runs.items()):
        entry: dict = {}
        every = [run for files in by_trace.values() for run in files.values()]
        facts = [run["facts"] for run in every]
        for key in ("git_sha", "src_sha256", "numpy", "python", "nproc"):
            entry[key] = sorted({str(fact[key]) for fact in facts})
        for trace, section in (("trace0", "end_to_end"), ("trace1", "per_layer")):
            files = by_trace.get(trace, {})
            if not files:
                continue
            seeds = sorted(files)
            ordered = [files[seed] for seed in seeds]
            names = ordered[0]["result"]["metrics"]
            entry[section] = {
                "seeds": seeds,
                "failed": sum(run["failed"] for run in ordered),
                "metrics": {name: spread([run["result"]["metrics"][name]["value"]
                                          for run in ordered]) for name in names},
            }
            if trace == "trace0":  # perfbench times its speed reference in these only
                entry[section]["speed_factor"] = spread(
                    [run["speed_factor"] for run in ordered])
                entry[section]["raw_metrics"] = {
                    name: spread([run["raw_metrics"][name] for run in ordered])
                    for name in ordered[0]["raw_metrics"]}
            else:
                entry[section]["absent"] = sorted(
                    {name for run in ordered for name in run.get("absent", [])})
        summary[workload] = entry
    return summary


def verdict(base: list[float], other: list[float], better: str, bound: float) -> str:
    """One end-to-end metric's reading of paired runs, base against other:

    - "better": other wins 9/10 of the pairs or more, and the medians differ
      by more than the distance between base's quartiles;
    - "worse": other's median is worse than base's by more than `bound`, a
      share of base's median;
    - "unresolved": base's spread is wider than `bound`, and not every run
      of other beats every run of base;
    - "within bound": anything else.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * (y - x) > 0: y is worse
    wins = sum(sign * (y - x) < 0 for x, y in zip(base, other))
    stats = spread(base)
    gain = sign * (stats["median"] - statistics.median(other))
    if 10 * wins >= 9 * len(base) and gain > stats["q3"] - stats["q1"]:
        return "better"
    if -gain > bound * abs(stats["median"]):
        return "worse"
    every_run_beats = max(sign * y for y in other) < min(sign * x for x in base)
    if stats["spread"] > bound and not every_run_beats:
        return "unresolved"
    return "within bound"


def paired(base: list[float], other: list[float], better: str) -> dict:
    """The median ratio other/base and the pairs on which `other` is better."""
    wins = sum((y > x) if better == "higher" else (y < x) for x, y in zip(base, other))
    base_median = statistics.median(base)
    return {"ratio_of_medians": statistics.median(other) / base_median if base_median else None,
            "better_pairs": wins}


def compare(base: dict, other: dict, end_to_end: list[dict]) -> dict:
    """Per workload and end-to-end metric: median ratio other/base, the
    number of shared seeds on which `other` is better, and the verdict. A
    metric that perfbench also reports unscaled by its speed factor gets the
    same ratio and pair count of the raw values ("raw_..."), so that a gain
    the factor made, or hid, shows next to the verdict; the factor itself gets
    its ratio and the pairs in which other's is higher ("speed_factor")."""
    out = {}
    for workload in sorted(set(base) & set(other)):
        a, b = base[workload].get("trace0", {}), other[workload].get("trace0", {})
        seeds = sorted(set(a) & set(b))
        if not seeds:
            continue
        rows = {}
        for metric in end_to_end:
            name, direction = metric["name"], metric["better"]
            va = [a[s]["result"]["metrics"][name]["value"] for s in seeds]
            vb = [b[s]["result"]["metrics"][name]["value"] for s in seeds]
            rows[name] = dict(paired(va, vb, direction), pairs=len(seeds),
                              verdict=verdict(va, vb, direction, metric["bound"]))
            if all(name in runs[s].get("raw_metrics", {}) for runs in (a, b) for s in seeds):
                raw = paired([a[s]["raw_metrics"][name] for s in seeds],
                             [b[s]["raw_metrics"][name] for s in seeds], direction)
                rows[name].update({f"raw_{key}": value for key, value in raw.items()})
        if all("speed_factor" in runs[s] for runs in (a, b) for s in seeds):
            factor = paired([a[s]["speed_factor"] for s in seeds],
                            [b[s]["speed_factor"] for s in seeds], "higher")
            rows["speed_factor"] = {"ratio_of_medians": factor["ratio_of_medians"],
                                    "higher_pairs": factor["better_pairs"], "pairs": len(seeds)}
        out[workload] = rows
    return out


def fold_stages(stages: dict) -> dict:
    """scripts/stages.py's output plus, for each tree after the first, per stage
    and clock: the ratio of its median MP/s to the first tree's and the rounds
    in which it ran faster (paired, as the rounds interleave the trees)."""
    first, *others = stages["order"]
    comparisons: dict = {tree: {} for tree in others}
    for stage, entry in stages["stages"].items():
        base = entry["trees"][first]
        for tree in others:
            comparisons[tree][stage] = {
                clock: dict(paired(base[clock]["values"], entry["trees"][tree][clock]["values"],
                                   "higher"), rounds=len(base[clock]["values"]))
                for clock in base}
    return dict(stages, compared_with=first, comparisons=comparisons)


def main(argv: list[str]) -> int:
    sides = [arg.split("=", 1) for arg in argv[1:] if "=" in arg]
    stages = [arg for arg in argv[1:] if "=" not in arg]
    if not sides or len(stages) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {name: load_side(Path(directory)) for name, directory in sides}
    first = sides[0][0]
    record = {
        "sides": {name: summarize(runs[name]) for name, _ in sides},
        "compared_with": first,
        "comparisons": {name: compare(runs[first], runs[name], spec["end_to_end"])
                        for name, _ in sides[1:]},
    }
    if stages:
        record["stages"] = fold_stages(json.loads(Path(stages[0]).read_text()))
    Path(argv[0]).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
