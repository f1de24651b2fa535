"""Golden outputs: sha256 prefixes of encoded outputs on seeded inputs.

Only outputs that read the same at every numpy SIMD dispatch level are pinned
(8-bit PNM encodings and the six-decimal bench CSV); the float64 samples
behind them differ in their last bits between, for example, the AVX512 and
AVX2 `np.exp` kernels. A change that moves an output edits golden.json in its
own diff.
"""

import hashlib
import json
import sys
from pathlib import Path

from edgekeep import (FilterParams, ImageBuffer, compute_texture_map, filter_image, load_pnm,
                      run_bench, save_pnm, texture_map_image)
from edgekeep.bench import report_to_csv

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402  (perfbench's seeded input generators, read only)

GOLDEN = Path(__file__).with_name("golden.json")


def test_encoded_outputs_match_the_golden_digests():
    gray = load_pnm(inputs.gray_mosaic_pgm(1, 0, size=128, cell=32))
    rgb = ImageBuffer(inputs.rgb_mosaic(1, 0, size=96, cell=32))
    # gray_multilateral_1024's and rgb_bilateral_r5's parameters
    gray_params = FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.2, sigma_t=1.0, passes=2)
    rgb_params = FilterParams(window_radius=5, sigma_d=3.0, sigma_r=0.1, passes=1)
    outputs = {f"filter_image gray {mode}": save_pnm(filter_image(gray, gray_params, mode))
               for mode in ("bilateral", "multilateral", "average")}
    outputs["filter_image rgb bilateral"] = save_pnm(filter_image(rgb, rgb_params, "bilateral"))
    outputs["texture_map_image gray"] = save_pnm(texture_map_image(compute_texture_map(gray)))
    # gray_multilateral_1024's own input: 1024 rows run in many bands
    outputs["texture_map_image gray 1024"] = save_pnm(texture_map_image(
        compute_texture_map(load_pnm(inputs.gray_mosaic_pgm(1, 0)))))
    for seed in (1, 2, 3):
        outputs[f"report_to_csv run_bench base_seed={seed}"] = \
            report_to_csv(run_bench(base_seed=seed)).encode()
    digests = {name: hashlib.sha256(data).hexdigest()[:16] for name, data in outputs.items()}
    assert digests == json.loads(GOLDEN.read_text())
