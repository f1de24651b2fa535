"""Tooling: the traced function names, the perf-record and stage scripts, and
the README's figures for the library's bounds."""

import ast
import importlib.util
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edgekeep.filters import PASSES_LIMIT
from edgekeep.image import AREA_FACTOR, RADIUS_FLOOR

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def traced_names() -> list[tuple[str, str]]:
    """The TRACED (module, function) pairs, read from the source, not imported."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TRACED"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {SPANS}")


def test_every_traced_function_resolves_in_the_package():
    # A traced name the package loses is reported "absent" and its per-layer
    # metric silently drops out of every run.
    pairs = traced_names()
    assert pairs
    missing = []
    for module, function in pairs:
        mod = importlib.import_module(f"edgekeep.{module}")
        if not callable(getattr(mod, function, None)):
            missing.append(f"{module}.{function}")
    assert missing == []


def test_readme_bounds_match_the_library():
    # The one bound rule lives in the library; its documented figures follow it.
    readme = (SPANS.parent.parent / "README.md").read_text()
    paragraph = readme[readme.index("\nParameter checks:"):].split("\n\n")[0]
    text = " ".join(paragraph.split())
    assert re.findall(r"more than (\d+) passes", text) == [str(PASSES_LIMIT)]
    assert re.findall(r"height, width and (\d+)", text) == [str(RADIUS_FLOOR)]
    assert re.findall(r"past (\d+) times the larger of its area h x w and (\d+)²", text) == \
        [(str(AREA_FACTOR), str(RADIUS_FLOOR))]


def _load_bench_record():
    path = SPANS.parent.parent / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_run(directory, seed, trace, metrics, sha, raw=None, speed_factor=1.0):
    """One perfbench result file; `raw` holds the unscaled metrics of an
    end-to-end run (by default the scaled ones, as at speed factor 1)."""
    directory.mkdir(parents=True, exist_ok=True)
    run = {"facts": {"git_sha": sha, "src_sha256": "d" + sha, "numpy": "2", "python": "3",
                     "nproc": 2},
           "result": {"metrics": {name: {"value": value} for name, value in metrics.items()}},
           "failed": 0}
    if trace:
        run["absent"] = []
    else:
        run["speed_factor"] = speed_factor
        run["raw_metrics"] = raw if raw is not None else {
            name: value for name, value in metrics.items() if name != "peak_rss_mb"}
    name = f"gray_multilateral_1024-seed{seed}-trace{trace}.json"
    (directory / name).write_text(json.dumps(run))


def test_bench_record_folds_runs_into_medians_and_pair_wins(tmp_path):
    record_script = _load_bench_record()
    names = ("mpix_s", "op_s.p50", "op_s.tail", "peak_rss_mb", "setup_s")
    for seed, (old, new) in zip((5, 6, 7), ((2.0, 2.6), (2.2, 2.1), (1.9, 2.5))):
        _write_run(tmp_path / "a", seed, 0, dict.fromkeys(names, old), "aaa")
        _write_run(tmp_path / "b", seed, 0, dict.fromkeys(names, new), "bbb")
    _write_run(tmp_path / "b", 8, 1, {"texture.mpix_s": 4.0}, "bbb")
    _write_run(tmp_path / "b", 9, 1, {"texture.mpix_s": 4.4}, "bbb")
    out = tmp_path / "BENCH.json"
    assert record_script.main([str(out), f"parent={tmp_path / 'a'}",
                               f"change={tmp_path / 'b'}"]) == 0
    record = json.loads(out.read_text())
    change = record["sides"]["change"]["gray_multilateral_1024"]
    assert change["git_sha"] == ["bbb"]
    # The quartiles perfbench/baseline.py reports: statistics.quantiles' default.
    assert change["end_to_end"]["metrics"]["mpix_s"] == {
        "median": 2.5, "q1": 2.1, "q3": 2.6, "spread": (2.6 - 2.1) / 2.5, "n": 3,
        "values": [2.6, 2.1, 2.5]}
    assert change["per_layer"]["metrics"]["texture.mpix_s"]["median"] == 4.2
    assert change["per_layer"]["absent"] == []
    mpix = record["comparisons"]["change"]["gray_multilateral_1024"]["mpix_s"]
    assert mpix["better_pairs"] == 2 and mpix["pairs"] == 3
    assert mpix["ratio_of_medians"] == 2.5 / 2.0
    assert mpix["verdict"] == "within bound"  # 2 of 3 pairs is no gain
    # Lower is better for times: the change is slower on 2 of 3 seeds.
    assert record["comparisons"]["change"]["gray_multilateral_1024"]["setup_s"][
        "better_pairs"] == 1


def test_bench_record_shows_raw_metrics_next_to_each_verdict(tmp_path):
    # The change's op times are raw-slower on every seed, but its runs met a
    # slower speed reference, so the scaled times read faster.
    record_script = _load_bench_record()
    for seed in range(10):
        for side, sha, op_s, factor in (("a", "aaa", 0.100, 1.0), ("b", "bbb", 0.110, 0.8)):
            _write_run(tmp_path / side, seed, 0,
                       {"op_s.p50": op_s * factor + seed * 1e-4, "peak_rss_mb": 50.0}, sha,
                       raw={"op_s.p50": op_s + seed * 1e-4}, speed_factor=factor)
    spec = [{"name": "op_s.p50", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    change = record_script.summarize(record_script.load_side(tmp_path / "b"))[
        "gray_multilateral_1024"]["end_to_end"]
    assert change["speed_factor"]["values"] == [0.8] * 10
    assert change["raw_metrics"]["op_s.p50"]["median"] == pytest.approx(0.11045)
    rows = record_script.compare(record_script.load_side(tmp_path / "a"),
                                 record_script.load_side(tmp_path / "b"), spec)
    p50 = rows["gray_multilateral_1024"]["op_s.p50"]
    assert p50["verdict"] == "better" and p50["better_pairs"] == 10
    assert p50["raw_better_pairs"] == 0
    assert p50["raw_ratio_of_medians"] == pytest.approx(0.11045 / 0.10045)
    # perfbench reports no raw peak RSS: it is not scaled.
    assert "raw_better_pairs" not in rows["gray_multilateral_1024"]["peak_rss_mb"]


def test_bench_record_compares_the_speed_factor_per_pair(tmp_path):
    # A higher factor at the change scales its op times up: the raw gain shrinks.
    record_script = _load_bench_record()
    factors = ((1.10, 1.30), (1.39, 1.43), (1.20, 1.26), (1.25, 1.20))
    for seed, (old, new) in enumerate(factors):
        _write_run(tmp_path / "a", seed, 0, {"op_s.p50": 0.1 * old}, "aaa",
                   raw={"op_s.p50": 0.1}, speed_factor=old)
        _write_run(tmp_path / "b", seed, 0, {"op_s.p50": 0.09 * new}, "bbb",
                   raw={"op_s.p50": 0.09}, speed_factor=new)
    rows = record_script.compare(record_script.load_side(tmp_path / "a"),
                                 record_script.load_side(tmp_path / "b"),
                                 [{"name": "op_s.p50", "better": "lower", "bound": 0.25}])
    factor = rows["gray_multilateral_1024"]["speed_factor"]
    assert factor == {"ratio_of_medians": pytest.approx(1.28 / 1.225), "higher_pairs": 3,
                      "pairs": 4}
    assert rows["gray_multilateral_1024"]["op_s.p50"]["raw_better_pairs"] == 4


STAGES = {"load_pnm", "save_pnm", "decompose", "local_energy", "classify",
          "compute_texture_map", "filter_pass.bilateral", "filter_pass.multilateral",
          "filter_pass.average", "evaluate_pair", "run_bench"}


def test_stage_script_times_every_stage_of_each_tree(tmp_path):
    # The same tree twice, under two names: each is its own package in one process.
    root = SPANS.parent.parent
    done = subprocess.run([sys.executable, str(root / "scripts" / "stages.py"),
                           f"b={root / 'src'}", f"a={root / 'src'}", "--size", "32",
                           "--rounds", "2"],
                          capture_output=True, text=True, timeout=300, check=True)
    stages = json.loads(done.stdout)
    assert stages["order"] == ["b", "a"]
    assert stages["facts"]["size"] == 32 and stages["facts"]["rounds"] == 2
    assert stages["trees"]["a"]["src_sha256"] == stages["trees"]["b"]["src_sha256"]
    assert set(stages["stages"]) == STAGES
    assert stages["stages"]["load_pnm"]["mpix"] == 32 * 32 / 1e6
    for entry in stages["stages"].values():
        assert set(entry["trees"]) == {"a", "b"}
        for tree in entry["trees"].values():
            assert set(tree) == {"wall", "cpu"}
            for clock in tree.values():
                assert clock["n"] == 2 and len(clock["values"]) == 2
                assert all(0 < value < math.inf for value in clock["values"])
                assert clock["q1"] <= clock["median"] <= clock["q3"]
    # It folds into a record next to perfbench's sides.
    for seed in (5, 6):
        _write_run(tmp_path / "runs", seed, 0, {"mpix_s": 2.0}, "aaa")
    (tmp_path / "stages.json").write_text(done.stdout)
    out = tmp_path / "BENCH.json"
    assert _load_bench_record().main(
        [str(out), f"parent={tmp_path / 'runs'}", str(tmp_path / "stages.json")]) == 0
    folded = json.loads(out.read_text())["stages"]
    assert folded["compared_with"] == "b"
    assert set(folded["comparisons"]["a"]) == STAGES
    assert folded["comparisons"]["a"]["run_bench"]["cpu"]["rounds"] == 2


def test_bench_record_compares_stages_round_by_round():
    def tree(wall, cpu):
        return {"wall": {"values": wall}, "cpu": {"values": cpu}}

    # The trees' keys come sorted from JSON; "order" keeps the order given.
    stages = {"order": ["parent", "change", "other"],
              "trees": {"change": {}, "other": {}, "parent": {}},
              "stages": {"classify": {"mpix": 1.0, "trees": {
                  "parent": tree([2.0, 2.2, 1.9], [1.0, 1.0, 1.0]),
                  "change": tree([2.6, 2.1, 2.5], [0.9, 1.1, 0.8]),
                  "other": tree([2.0, 2.0, 2.0], [2.0, 2.0, 2.0])}}}}
    folded = _load_bench_record().fold_stages(stages)
    assert folded["compared_with"] == "parent" and folded["stages"] == stages["stages"]
    change = folded["comparisons"]["change"]["classify"]
    assert change["wall"] == {"ratio_of_medians": 2.5 / 2.0, "better_pairs": 2, "rounds": 3}
    assert change["cpu"] == {"ratio_of_medians": 0.9, "better_pairs": 1, "rounds": 3}
    assert folded["comparisons"]["other"]["classify"]["cpu"]["better_pairs"] == 3


def test_bench_record_takes_one_stages_file_at_most(tmp_path, capsys):
    assert _load_bench_record().main(
        [str(tmp_path / "BENCH.json"), f"parent={tmp_path}", "s1.json", "s2.json"]) == 2
    assert "STAGES.json" in capsys.readouterr().err


def test_bench_record_refuses_a_single_run(tmp_path):
    record_script = _load_bench_record()
    _write_run(tmp_path / "a", 5, 0, {"mpix_s": 2.0}, "aaa")
    with pytest.raises(SystemExit, match="two runs"):
        record_script.main([str(tmp_path / "BENCH.json"), f"parent={tmp_path / 'a'}"])


STEADY = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize("base, other, better, expected", [
    (STEADY, [9.0] * 10, "lower", "better"),
    ([2.0, 2.1, 1.9, 2.0], [2.5, 2.6, 2.4, 2.5], "higher", "better"),
    # 9 of 10 pairs still counts; the one lost pair does not undo the gain.
    (STEADY, [9.0] * 9 + [10.5], "lower", "better"),
    # Every pair won, but by less than the base's own quartile distance.
    (STEADY, [x - 0.05 for x in STEADY], "lower", "within bound"),
    (STEADY, [12.0] * 10, "lower", "worse"),
    ([2.0, 2.1, 1.9, 2.0], [1.5, 1.6, 1.4, 1.5], "higher", "worse"),
    # The base spreads wider than the 10% bound: a flat median resolves nothing...
    ([5.0, 10.0, 15.0, 10.0], [10.0, 9.0, 11.0, 10.0], "lower", "unresolved"),
    # ...unless every run of the change beats every run of the base.
    ([5.0, 10.0, 15.0, 20.0], [4.0] * 4, "lower", "within bound"),
    (STEADY, [10.05, 10.0, 10.0, 10.1, 10.2, 9.9, 10.0, 10.0, 9.9, 10.1], "lower",
     "within bound"),
])
def test_bench_record_verdict(base, other, better, expected):
    assert _load_bench_record().verdict(base, other, better, 0.1) == expected
