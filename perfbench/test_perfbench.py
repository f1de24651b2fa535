"""Tests of the benchmark's own parts: input generators, tracer, checks.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import edgekeep  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import CLASS_NAMES, cross_label_pairs, layer_metrics  # noqa: E402
from spans import TRACED, Tracer, package_modules  # noqa: E402


def _as_bytes(value) -> bytes:
    return value if isinstance(value, bytes) else np.asarray(value).tobytes()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    workload = workloads.WORKLOADS[name](edgekeep)
    first = _as_bytes(workload.make_input(7, 0))
    assert _as_bytes(workload.make_input(7, 0)) == first
    assert _as_bytes(workload.make_input(8, 0)) != first
    assert _as_bytes(workload.make_input(7, 1)) != first


def test_gray_input_is_a_pgm_the_package_reads():
    img = edgekeep.load_pnm(inputs.gray_mosaic_pgm(3, 0, size=128))
    assert img.pixels.shape == (128, 128)
    labels = edgekeep.compute_texture_map(img).labels
    assert len(np.unique(labels)) == len(CLASS_NAMES)


def _bindings():
    names = [name for _, name in TRACED]
    return run.bindings(package_modules(), names)


def _small_gray_op(workload):
    return workload.op(workload.prepare(inputs.gray_mosaic_pgm(5, 0, size=96, cell=32)))


def test_traced_outputs_are_bit_identical_and_functions_restored():
    workload = workloads.GrayMultilateral(edgekeep)
    before = _bindings()
    plain = _small_gray_op(workload)
    tracer = Tracer()
    with tracer:
        assert _bindings() != before
        traced = _small_gray_op(workload)
    assert _bindings() == before
    assert workload.fingerprint(traced) == workload.fingerprint(plain)
    assert traced[1] == plain[1]
    assert tracer.absent == []
    names = {span.name for span in tracer.spans}
    assert {"image.load_pnm", "image.save_pnm", "filters.filter_image",
            "texture.compute_texture_map", "texture.decompose", "kernels.convolve",
            "kernels.window_mean", "texture.classify"} <= names


def test_spans_nest_and_self_times_add_up_to_the_roots():
    workload = workloads.GrayMultilateral(edgekeep)
    tracer = Tracer()
    with tracer:
        _small_gray_op(workload)
    spans = tracer.spans
    for span in spans:
        if span.name == "texture.decompose":
            assert spans[span.parent].name == "texture.compute_texture_map"
            assert spans[spans[span.parent].parent].name == "filters.filter_image"
    roots = sum(span.duration for span in spans if span.parent is None)
    assert sum(tracer.self_times()) == pytest.approx(roots, rel=1e-9)
    assert all(value >= 0.0 for value in tracer.self_times())


def test_absent_function_is_reported_not_raised(monkeypatch):
    for mod in package_modules():
        if hasattr(mod, "window_mean"):
            monkeypatch.delattr(mod, "window_mean")
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.absent == ["kernels.window_mean"]


def test_layer_metrics_count_pair_evaluations_and_classes():
    workload = workloads.GrayMultilateral(edgekeep)
    tracer = Tracer()
    with tracer:
        _small_gray_op(workload)
    wall = sum(span.duration for span in tracer.spans if span.parent is None)
    metrics = layer_metrics(edgekeep, tracer, {0: wall}, [wall], {0})
    assert metrics["filters.pair_evals"] == 96 * 96 * 25 * 2
    assert sum(metrics[f"texture.class_frac.{name}"] for name in CLASS_NAMES) == \
        pytest.approx(1.0)
    assert metrics["texture.calls"] == 8
    assert 0.0 < metrics["filters.cross_label_frac"] < 1.0
    assert metrics["trace.overhead_frac"] == 0.0


def test_cross_label_pairs_by_hand():
    labels = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    # Brute-force count over each pixel's 3x3 window, edges replicated.
    padded = np.pad(labels, 1, mode="edge")
    expected = sum(int(padded[1 + y + dy, 1 + x + dx] != labels[y, x])
                   for y in range(2) for x in range(2)
                   for dy in (-1, 0, 1) for dx in (-1, 0, 1))
    assert cross_label_pairs(labels, 1, None) == (expected, 32)
    assert cross_label_pairs(np.zeros((3, 4), np.uint8), 2, "mirror") == (0, 3 * 4 * 24)


def test_sweep_work_matches_the_filter_calls_of_one_sweep():
    tracer = Tracer()
    with tracer:
        edgekeep.run_bench(base_seed=3, threads=1)
    pixel_passes = sum(span.detail["pixels"] * span.detail["params"].passes
                       for span in tracer.spans if span.name == "filters.filter_image")
    assert pixel_passes / 1e6 == pytest.approx(workloads.SWEEP_MPIX, rel=1e-15)


def test_tail_has_ten_samples_beyond_it_or_a_quarter_of_a_short_run():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(v) for v in range(1, 13)]) == (9.0, 75.0)
    assert run.tail([float(v) for v in range(1, 101)]) == (90.0, 90.0)


def test_machine_speed_reference_runs_no_package_code():
    tracer = Tracer()
    with tracer:
        assert run.reference_seconds(run.reference_fields()[:2]) > 0.0
    assert tracer.spans == []


def test_workloads_match_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_reference_checks_reject_a_changed_output():
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["workloads"]
    gray = workloads.GrayMultilateral(edgekeep)
    entry = reference[gray.name][0]
    assert gray.compare(dict(entry), entry) == []
    assert gray.compare({**entry, "snr_db": entry["snr_db"] * (1 + 1e-5)}, entry)
    sweep = workloads.EvalSweep(edgekeep)
    entry = reference[sweep.name][0]
    assert sweep.compare(dict(entry), entry) == []
    lines = entry["csv"].splitlines()
    fields = lines[1].split(",")
    fields[4] = f"{float(fields[4]) + 1e-5:.6f}"
    changed = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert sweep.compare({**entry, "csv": changed}, entry)


def test_run_fails_without_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "eval_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
