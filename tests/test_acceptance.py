"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the criteria are also enforced as ordinary asserts.
"""

import math
import time

import numpy as np

from edgekeep.bench import run_bench
from edgekeep.cli import main
from edgekeep.filters import FilterMode, FilterParams, filter_image, filter_oracle
from edgekeep.image import ImageBuffer
from edgekeep.metrics import edge_preserving_exponent, snr
from edgekeep.synth import grating
from edgekeep.texture import TextureClass, compute_texture_map, decompose, steerable_radius
from steering import steer

MODES = (FilterMode.AVERAGE, FilterMode.BILATERAL, FilterMode.MULTILATERAL)


def _report(criterion: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    images = 0
    for trial in range(50):
        h, w = (int(v) for v in rng.integers(5, 17, size=2))
        shape = (h, w) if trial % 2 == 0 else (h, w, 3)
        img = ImageBuffer(rng.random(shape))
        images += 1
        for mode in MODES:
            fast = filter_image(img, FilterParams(window_radius=2), mode)
            slow = filter_oracle(img, FilterParams(window_radius=2), mode)
            worst = max(worst, float(np.abs(fast.pixels - slow.pixels).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and images >= 50 and elapsed < 10.0
    _report("1 oracle equivalence", ok,
            f"{images} images, all 3 modes, max |diff| = {worst:.3g}, {elapsed:.1f}s")


def test_criterion_2_degeneracy_limits():
    rng = np.random.default_rng(102)
    img = ImageBuffer(rng.random((12, 11)))
    multi = filter_image(img, FilterParams(sigma_t=1e6), FilterMode.MULTILATERAL)
    bi = filter_image(img, FilterParams(sigma_t=1e6), FilterMode.BILATERAL)
    gap_a = float(np.abs(multi.pixels - bi.pixels).max())

    huge = FilterParams(sigma_d=1e9, sigma_r=1e9)
    bilateral = filter_image(img, huge, FilterMode.BILATERAL)
    box = filter_image(img, huge, FilterMode.AVERAGE)
    gap_b = float(np.abs(bilateral.pixels - box.pixels).max())

    ok = gap_a <= 1e-6 and gap_b <= 1e-9
    _report("2 degeneracy limits", ok,
            f"sigma_t->inf gap {gap_a:.3g} (<=1e-6), sigma_d/r->inf gap {gap_b:.3g} (<=1e-9)")


def test_criterion_3_density_ratio_trend():
    start = time.perf_counter()
    report = run_bench(images=[])  # trend sweeps only need the built-ins
    ratios = [row for row in report.density_sweep if row.filter == "ratio-multi-bi"]
    elapsed = time.perf_counter() - start
    by_density = {row.param: row.ep_h for row in ratios}
    all_above_one = all(r.ep_h is not None and r.ep_h > 1.0 for r in ratios)
    grows = by_density["0.07"] > by_density["0.01"]
    ok = all_above_one and grows and elapsed < 60.0
    _report("3 density ratio trend", ok,
            f"ratios {[f'{r.param}:{r.ep_h:.4f}' for r in ratios]}, "
            f"grow {by_density['0.01']:.4f}->{by_density['0.07']:.4f}, {elapsed:.1f}s")


def test_criterion_4_sigma_t_sweep():
    report = run_bench(images=[])
    sweep = report.sigma_t_sweep
    eph = [row.ep_h for row in sweep]
    epv = [row.ep_v for row in sweep]
    snrs = [row.snr_db for row in sweep]
    non_increasing = (all(eph[i] >= eph[i + 1] for i in range(len(eph) - 1))
                      and all(epv[i] >= epv[i + 1] for i in range(len(epv) - 1)))
    plateau = abs(eph[2] - eph[3]) <= 0.01 and abs(epv[2] - epv[3]) <= 0.01
    snr_trend = snrs[0] >= snrs[-1]
    ok = non_increasing and plateau and snr_trend
    _report("4 sigma_t sweep", ok,
            f"ep_h {[f'{v:.4f}' for v in eph]}, plateau gaps "
            f"{abs(eph[2] - eph[3]):.2g}/{abs(epv[2] - epv[3]):.2g}, "
            f"snr {snrs[0]:.3f}>= {snrs[-1]:.3f}")


def test_criterion_5_table1_direction():
    report = run_bench()  # default synthetic images, both noise kinds
    rows = report.comparison
    failures = []
    for i in range(0, len(rows), 2):
        bi, multi = rows[i], rows[i + 1]
        assert bi.filter == "bilateral" and multi.filter == "multilateral"
        if not (multi.snr_db >= bi.snr_db - 0.05
                and multi.ep_h >= bi.ep_h and multi.ep_v >= bi.ep_v):
            failures.append(f"{bi.image}/{bi.noise}")
    ok = not failures and len(rows) == 8
    _report("5 table-1 direction", ok,
            "multilateral >= bilateral on all "
            f"{len(rows) // 2} cells" + (f"; failed: {failures}" if failures else ""))


def test_criterion_6_metric_identities():
    rng = np.random.default_rng(106)
    img = ImageBuffer(rng.random((8, 8)))
    ep_identity = edge_preserving_exponent(img, img, "horizontal")
    flat = ImageBuffer(np.full((8, 8), 0.5))
    ep_flat = edge_preserving_exponent(img, flat, "vertical")

    n = 8 * 8
    delta = 0.07
    ref = np.full((8, 8), 0.5)
    test = ref.copy()
    test[2, 5] += delta
    got = snr(ImageBuffer(ref), ImageBuffer(test))
    expected = 10.0 * math.log10(n * 0.25 / (delta * delta))
    snr_gap = abs(got - expected)

    ok = ep_identity == 1.0 and ep_flat == 0.0 and snr_gap <= 1e-9
    _report("6 metric identities", ok,
            f"EP(identity)={ep_identity}, EP(const)={ep_flat}, snr gap {snr_gap:.3g} dB")


def test_criterion_7_texture_classification():
    margin = steerable_radius(1.0) + 2

    flat = ImageBuffer(np.full((32, 32), 0.5))
    smooth_frac = float((compute_texture_map(flat).labels == TextureClass.SMOOTH).mean())

    lab_x = compute_texture_map(grating(48, "x")).labels[margin:-margin, margin:-margin]
    lab_y = compute_texture_map(grating(48, "y")).labels[margin:-margin, margin:-margin]
    frac_x = float((lab_x == TextureClass.ORIENT_0).mean())
    frac_y = float((lab_y == TextureClass.ORIENT_90).mean())

    rotated = ImageBuffer(np.rot90(grating(48, "x").pixels).copy())
    lab_rot = compute_texture_map(rotated).labels[margin:-margin, margin:-margin]
    frac_rot = float((lab_rot == TextureClass.ORIENT_90).mean())

    ok = smooth_frac == 1.0 and frac_x >= 0.95 and frac_y >= 0.95 and frac_rot >= 0.95
    _report("7 texture classification", ok,
            f"smooth {smooth_frac:.2%}, orient0 {frac_x:.2%}, orient90 {frac_y:.2%}, "
            f"rot90 swap {frac_rot:.2%}")


def test_criterion_8_steering_identity():
    rng = np.random.default_rng(108)
    worst = 0.0
    for _ in range(10):
        img = ImageBuffer(rng.random((14, 13)))
        bands = steer(decompose(img.pixels))
        expected = (bands[0] + bands[1]) / math.sqrt(2.0)
        worst = max(worst, float(np.abs(bands[2] - expected).max()))
    ok = worst <= 1e-12
    _report("8 steering identity", ok, f"max |band45 - (band0+band90)/sqrt2| = {worst:.3g}")


def test_criterion_9_bench_determinism(tmp_path):
    a = tmp_path / "runA"
    b = tmp_path / "runB"
    code_a = main(["bench", str(a), "--seed", "20260809"])
    code_b = main(["bench", str(b), "--seed", "20260809"])
    same = (a / "bench.csv").read_bytes() == (b / "bench.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and same
    _report("9 bench determinism", ok, "two runs, byte-identical bench.csv")
