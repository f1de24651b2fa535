"""Benchmark harness: the three comparison sweeps behind the evaluation tables.

Three sweeps are produced from seeded noisy images:

* comparison      -- SNR and edge-preserving exponents for bilateral vs
                     multilateral on each (image, noise kind) cell;
* density sweep   -- the multilateral/bilateral exponent ratio as the
                     salt-and-pepper density grows;
* sigma_t sweep   -- how metrics respond to the texture-weight scale.

Every cell is a pure function of (image, base seed), so repeated runs emit
byte-identical reports.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from .filters import FilterMode, FilterParams, filter_image
from .image import ImageBuffer, check_count
from .metrics import evaluate_pair
from .noise import NoiseSpec, add_noise
from .synth import step_edge, two_texture
from .texture import TextureMap, compute_texture_map

#: Two-pass parameters used for every bench cell. sigma_r must stay
#: comparable to the impulse amplitude: far below it the range term alone
#: rejects impulse neighbors and the texture term never engages.
BENCH_FILTER_PARAMS = FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.2,
                                   sigma_t=1.0, passes=2)

DENSITY_SWEEP = (0.01, 0.03, 0.05, 0.07)
SIGMA_T_SWEEP = (0.1, 1.0, 10.0, 100.0)
DEFAULT_BASE_SEED = 20260809

CSV_HEADER = "image,noise,param,filter,snr_db,ep_h,ep_v"


@dataclass(frozen=True)
class BenchRow:
    image: str
    noise: str
    param: str
    filter: str
    snr_db: float | None
    ep_h: float | None
    ep_v: float | None


@dataclass(frozen=True)
class BenchReport:
    comparison: tuple[BenchRow, ...]
    density_sweep: tuple[BenchRow, ...]
    sigma_t_sweep: tuple[BenchRow, ...]

    def all_rows(self) -> tuple[BenchRow, ...]:
        return self.comparison + self.density_sweep + self.sigma_t_sweep


def default_images() -> list[tuple[str, ImageBuffer]]:
    """Hermetic stand-ins for the unavailable photographic test images."""
    return [("step-edge", step_edge(64)), ("two-texture", two_texture(128))]


def cell_seed(base_seed: int, label: str) -> int:
    """Stable per-cell seed derivation from any integer base_seed, independent
    of cell ordering."""
    base_seed = check_count("base_seed", base_seed, minimum=None)
    return (base_seed ^ zlib.crc32(label.encode())) & 0xFFFFFFFFFFFFFFFF


def _row(image: str, noise: str, param: str, label: str, report) -> BenchRow:
    return BenchRow(image, noise, param, label, report.snr_db,
                    report.ep_horizontal, report.ep_vertical)


def _both_filters(name: str, img: ImageBuffer, spec: NoiseSpec, param: str) -> list[BenchRow]:
    """Noise from spec, both filters on the noisy image, then one row per filter."""
    noisy = add_noise(img, spec)
    modes = (FilterMode.BILATERAL, FilterMode.MULTILATERAL)
    outs = [filter_image(noisy, BENCH_FILTER_PARAMS, mode) for mode in modes]
    return [_row(name, spec.kind, param, mode.value, evaluate_pair(noisy, out))
            for mode, out in zip(modes, outs)]


def _comparison_cell(name: str, img: ImageBuffer, kind: str, base_seed: int) -> list[BenchRow]:
    spec = NoiseSpec(kind=kind, seed=cell_seed(base_seed, f"comparison/{name}/{kind}"))
    return _both_filters(name, img, spec, "")


def _density_cell(img: ImageBuffer, density: float, base_seed: int) -> list[BenchRow]:
    param = f"{density:g}"
    spec = NoiseSpec(kind="salt-pepper", density=density,
                     seed=cell_seed(base_seed, f"density/{param}"))
    rows = _both_filters("two-texture", img, spec, param)
    bi, multi = rows
    ratios = [None if b in (None, 0.0) or m is None else m / b
              for b, m in ((bi.ep_h, multi.ep_h), (bi.ep_v, multi.ep_v))]
    rows.append(BenchRow("two-texture", "salt-pepper", param, "ratio-multi-bi", None, *ratios))
    return rows


def _sigma_t_cell(noisy: ImageBuffer, texture: TextureMap, sigma_t: float) -> list[BenchRow]:
    params = replace(BENCH_FILTER_PARAMS, sigma_t=sigma_t)
    out = filter_image(noisy, params, FilterMode.MULTILATERAL, texture=texture)
    return [_row("two-texture", "salt-pepper", f"{sigma_t:g}", "multilateral",
                 evaluate_pair(noisy, out))]


def run_bench(images: list[tuple[str, ImageBuffer]] | None = None,
              base_seed: int = DEFAULT_BASE_SEED, threads: int = 1) -> BenchReport:
    """Evaluate every bench cell, one after another.

    The comparison sweep runs on the given images (synthetic defaults when
    None); the density and sigma_t sweeps always use the 128x128 two-texture
    image their trends are defined on. `threads` is accepted and unused: on
    these small images a pool of cell threads ran slower than one thread,
    and an image large enough to gain from more cores gets them inside each
    filter pass.
    """
    if images is None:
        images = default_images()
    sweep_img = two_texture(128)
    sigma_t_noisy = add_noise(sweep_img, NoiseSpec(
        kind="salt-pepper", density=0.05, seed=cell_seed(base_seed, "sigma-t")))

    comparison = [row for name, img in images for kind in ("salt-pepper", "gaussian")
                  for row in _comparison_cell(name, img, kind, base_seed)]
    density = [row for d in DENSITY_SWEEP for row in _density_cell(sweep_img, d, base_seed)]
    # Every sigma_t cell's first pass classifies the same noisy image.
    texture = compute_texture_map(sigma_t_noisy)
    sigma_t = [row for s in SIGMA_T_SWEEP for row in _sigma_t_cell(sigma_t_noisy, texture, s)]
    return BenchReport(comparison=tuple(comparison), density_sweep=tuple(density),
                       sigma_t_sweep=tuple(sigma_t))


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _cells(row: BenchRow) -> list[str]:
    """The row's fields in CSV_HEADER order, metrics to six decimals."""
    return [v if isinstance(v, str) else _fmt(v) for v in vars(row).values()]


def report_to_csv(report: BenchReport) -> str:
    return "\n".join([CSV_HEADER] + [",".join(_cells(r)) for r in report.all_rows()]) + "\n"


def report_to_markdown(report: BenchReport) -> str:
    def table(rows):
        names = CSV_HEADER.split(",")
        lines = [names, ["---"] * len(names)] + [_cells(r) for r in rows]
        return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)

    parts = [
        "# edgekeep benchmark report",
        "",
        "## Filter comparison (bilateral vs multilateral)",
        "",
        table(report.comparison),
        "",
        "## Salt-and-pepper density sweep (edge-preservation ratio)",
        "",
        table(report.density_sweep),
        "",
        "## Texture-scale (sigma_t) sweep",
        "",
        table(report.sigma_t_sweep),
        "",
    ]
    return "\n".join(parts)
