"""Time edgekeep's stages on two or more source trees, interleaved, in one process.

    python3 scripts/stages.py NAME=SRC NAME=SRC [...] [--size N] [--rounds R]

for example `parent=A/src change=B/src > stages.json`. Each SRC is a `src`
directory holding an `edgekeep` package, imported as package edgekeep_NAME, so
that the trees' modules and band threads stay apart. The inputs are
perfbench's (perfbench/inputs.py) of seed SEED: for the image stages the
N x N gray mosaic with salt-and-pepper noise (N = 1024 by default, as in
gray_multilateral_1024), for run_bench the sweep base seed. R rounds are
timed, 11 by default.

Each stage is called once per tree for warm-up. Then a round times every
stage, each on all trees back to back, in a tree order that reverses from
round to round, so that a drift in the machine's speed meets every tree alike.
A tree's time in a round is the fastest of REPEAT calls, which sheds most of
the page faults and preemptions of a shared machine, and every round makes
its inputs afresh, untimed, so that no tree keeps a lucky or unlucky placement
of its arrays in memory throughout. A filter_pass stage is one pass of
filter_image in its mode with the tree's texture map of the input supplied, so
no texture work is timed in it; its parameters are gray_multilateral_1024's
with one pass.
Inputs of later stages (energies, maps, filtered images) come from each tree
itself.

The JSON printed on stdout holds the tree names in the order given and, per
stage, the megapixels one call handles
and, per tree, the median, quartiles, spread and per-round values of its MP/s
by wall time (time.perf_counter, "wall") and by the CPU time of the whole
process, band threads included (time.process_time, "cpu"), side by side.
scripts/bench_record.py folds it into a record's `stages` section.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
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


def load_tree(name: str, src: Path):
    """The edgekeep package under src, imported as edgekeep_<name>."""
    init = src / "edgekeep" / "__init__.py"
    if not name.isidentifier() or not init.is_file():
        raise SystemExit(f"stages: {name}={src} is not NAME=SRC with an edgekeep package in SRC")
    package = f"edgekeep_{name}"
    spec = importlib.util.spec_from_file_location(
        package, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[package] = module  # the package's relative imports find it here
    spec.loader.exec_module(module)
    return module


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


def measure(trees: dict, size: int, rounds: int) -> dict:
    """{stage: {"mpix": megapixels, "trees": {tree: {clock: [MP/s per round]}}}},
    the trees interleaved."""
    for ek in trees.values():
        for _, call in stages(ek, size).values():
            call()
    order = list(trees)
    rates: dict = {}
    for r in range(rounds):
        tables = {tree: stages(ek, size) for tree, ek in trees.items()}
        for stage in tables[order[0]]:
            for tree in order if r % 2 == 0 else order[::-1]:
                mpix, call = tables[tree][stage]
                best = dict.fromkeys(CLOCKS, math.inf)
                for _ in range(REPEAT):
                    start = {clock: read() for clock, read in CLOCKS.items()}
                    call()
                    for clock, read in CLOCKS.items():
                        best[clock] = min(best[clock], read() - start[clock])
                entry = rates.setdefault(stage, {"mpix": mpix, "trees": {}})
                for clock, seconds in best.items():
                    # A clock may not tick at all over a tiny input's call.
                    entry["trees"].setdefault(tree, {}).setdefault(clock, []).append(
                        mpix / max(seconds, 1e-9))
    return rates


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="+", metavar="NAME=SRC")
    parser.add_argument("--size", type=int, default=1024)
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args(argv)
    pairs = [arg.split("=", 1) for arg in args.trees if "=" in arg]
    names = [name for name, _ in pairs]
    if len(pairs) != len(args.trees) or len(set(names)) != len(names):
        parser.error("give each tree as NAME=SRC, each under its own name")
    if args.rounds < 2:
        parser.error("--rounds must be 2 or more")
    srcs = {name: Path(src).resolve() for name, src in pairs}
    trees = {name: load_tree(name, src) for name, src in srcs.items()}
    rates = measure(trees, args.size, args.rounds)
    report = {
        "order": names,  # the trees as given: the first is the base of comparisons
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
