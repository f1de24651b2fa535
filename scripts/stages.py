"""Time edgekeep's stages on two or more source trees, each in its own process.

    python3 scripts/stages.py NAME=SRC NAME=SRC [...] [--size N] [--rounds R]

for example `parent=A/src change=B/src > stages.json`. Each SRC is a `src`
directory holding an `edgekeep` package. The inputs are perfbench's
(perfbench/inputs.py) of seed SEED: for the image stages the N x N gray mosaic
with salt-and-pepper noise (N even, 1024 by default as in gray_multilateral_1024),
for run_bench the sweep base seed. R rounds are timed, 31 by default.

A round runs every tree in a fresh interpreter of its own (multiprocessing's
spawn), in a tree order that reverses from round to round, so that a drift in
the machine's speed meets every tree alike and no two trees share a process.
There the tree's edgekeep is imported, each stage is called once for warm-up,
the inputs are made afresh, and each stage counts the fastest of REPEAT calls,
which sheds most of the page faults and preemptions of a shared machine. A
filter_pass stage is one pass of filter_image in its mode with the tree's
texture map of the input supplied, so no texture work is timed in it; its
parameters are gray_multilateral_1024's with one pass. Inputs of later stages
(energies, maps, filtered images) come from each tree itself.

The JSON printed on stdout holds the tree names in the order given and, per
stage, the megapixels one call handles and, per tree, the median, quartiles,
spread and per-round values of its MP/s by wall time (time.perf_counter,
"wall") and by the CPU time of the whole process, band threads included
(time.process_time, "cpu"), side by side. scripts/bench_record.py folds it
into a record's `stages` section.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench's seeded input generators)
from baseline import summarise  # noqa: E402  (perfbench's spread measure)
from workloads import SWEEP_MPIX, GrayMultilateral  # noqa: E402

CLOCKS = {"wall": time.perf_counter, "cpu": time.process_time}
#: Calls per tree, stage and round; the fastest one counts.
REPEAT = 3
#: The seed of every input, as in perfbench's seed-1 runs.
SEED = 1


def import_tree(src: Path):
    """The edgekeep package under src; an edgekeep from anywhere else raises."""
    sys.path.insert(0, str(src))
    import edgekeep
    if not Path(edgekeep.__file__).resolve().is_relative_to((src / "edgekeep").resolve()):
        raise ImportError(f"stages: imported {edgekeep.__file__}, not the edgekeep in {src}")
    return edgekeep


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "edgekeep").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def stages(ek, size: int) -> dict:
    """{stage: (megapixels, call)} of one tree; each call runs its stage once."""
    data = inputs.gray_mosaic_pgm(SEED, 0, size=size, cell=math.gcd(size, 64))
    img = ek.load_pnm(data)
    basis = ek.decompose(img.pixels)
    energies = ek.local_energy(basis)
    tex = ek.compute_texture_map(img)
    params = dataclasses.replace(GrayMultilateral(ek).params, passes=1)
    filtered = ek.filter_image(img, params, "multilateral", texture=tex)
    base_seed = inputs.sweep_base_seed(SEED, 0)
    mpix = size * size / 1e6
    table = {
        "load_pnm": (mpix, lambda: ek.load_pnm(data)),
        "save_pnm": (mpix, lambda: ek.save_pnm(img)),
        "decompose": (mpix, lambda: ek.decompose(img.pixels)),
        "local_energy": (mpix, lambda: ek.local_energy(basis)),
        "classify": (mpix, lambda: ek.classify(energies)),
        "compute_texture_map": (mpix, lambda: ek.compute_texture_map(img)),
    }
    for mode in ("bilateral", "multilateral", "average"):
        table[f"filter_pass.{mode}"] = (
            mpix, lambda mode=mode: ek.filter_image(img, params, mode, texture=tex))
    table["evaluate_pair"] = (mpix, lambda: ek.evaluate_pair(img, filtered))
    table["run_bench"] = (SWEEP_MPIX, lambda: ek.run_bench(base_seed=base_seed))
    return table


def tree_rates(src: Path, size: int) -> dict:
    """{stage: (megapixels, {clock: MP/s})}: one round of the tree under src."""
    ek = import_tree(src)
    for _, call in stages(ek, size).values():
        call()
    rates = {}
    for stage, (mpix, call) in stages(ek, size).items():
        best = dict.fromkeys(CLOCKS, math.inf)
        for _ in range(REPEAT):
            start = {clock: read() for clock, read in CLOCKS.items()}
            call()
            for clock, read in CLOCKS.items():
                best[clock] = min(best[clock], read() - start[clock])
        # A clock may not tick at all over a tiny input's call.
        rates[stage] = (mpix, {clock: mpix / max(seconds, 1e-9)
                               for clock, seconds in best.items()})
    return rates


def measure(srcs: dict, size: int, rounds: int) -> dict:
    """{stage: {"mpix": megapixels, "trees": {tree: {clock: [MP/s per round]}}}}."""
    spawn = multiprocessing.get_context("spawn")
    order = list(srcs)
    rates: dict = {}
    for r in range(rounds):
        for tree in order if r % 2 == 0 else order[::-1]:
            with spawn.Pool(1) as pool:  # a fresh interpreter for each tree and round
                result = pool.apply(tree_rates, (srcs[tree], size))
            for stage, (mpix, by_clock) in result.items():
                entry = rates.setdefault(stage, {"mpix": mpix, "trees": {}})
                for clock, rate in by_clock.items():
                    entry["trees"].setdefault(tree, {}).setdefault(clock, []).append(rate)
    return rates


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="NAME=SRC")
    parser.add_argument("--size", type=int, default=1024)
    parser.add_argument("--rounds", type=int, default=31)
    args = parser.parse_args(argv)
    srcs = {name: Path(src).resolve()
            for name, src in (arg.split("=", 1) for arg in args.trees if "=" in arg)}
    if len(srcs) != len(args.trees) or not all(
            (src / "edgekeep" / "__init__.py").is_file() for src in srcs.values()):
        parser.error("give each tree as NAME=SRC, each under its own name, SRC holding edgekeep/")
    if args.size < 1 or args.size % 2:
        parser.error("--size must be a positive even number")
    if args.rounds < 2:
        parser.error("--rounds must be 2 or more")
    rates = measure(srcs, args.size, args.rounds)
    report = {
        "order": list(srcs),  # the trees as given: the first is the base of comparisons
        "facts": {"size": args.size, "seed": SEED, "rounds": args.rounds,
                  "repeat": REPEAT, "nproc": len(os.sched_getaffinity(0)),
                  "python": platform.python_version(), "numpy": np.__version__},
        "trees": {name: {"src": str(src), "src_sha256": source_digest(src)}
                  for name, src in srcs.items()},
        "stages": {stage: {"mpix": entry["mpix"], "trees": {
            tree: {clock: dict(summarise(values), n=len(values), values=values)
                   for clock, values in by_clock.items()}
            for tree, by_clock in entry["trees"].items()}} for stage, entry in rates.items()},
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
