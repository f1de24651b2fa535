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

import re
import zlib
from dataclasses import dataclass, fields, replace

from .filters import FilterMode, FilterParams, filter_image
from .image import ImageBuffer, check_count
from .metrics import evaluate_pair
from .noise import NOISE_KINDS, NoiseSpec, add_noise
from .synth import step_edge, two_texture
from .texture import compute_texture_map

#: Two-pass parameters used for every bench cell. sigma_r must stay
#: comparable to the impulse amplitude: far below it the range term alone
#: rejects impulse neighbors and the texture term never engages.
BENCH_FILTER_PARAMS = FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.2,
                                   sigma_t=1.0, passes=2)

DENSITY_SWEEP = (0.01, 0.03, 0.05, 0.07)
SIGMA_T_SWEEP = (0.1, 1.0, 10.0, 100.0)
DEFAULT_BASE_SEED = 20260809


@dataclass(frozen=True)
class BenchRow:
    image: str
    noise: str
    param: str
    filter: str
    snr_db: float | None
    ep_h: float | None
    ep_v: float | None


CSV_HEADER = ",".join(field.name for field in fields(BenchRow))


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
    of cell ordering; a file name's undecodable bytes hash as those bytes."""
    base_seed = check_count("base_seed", base_seed, minimum=None)
    return (base_seed ^ zlib.crc32(label.encode("utf-8", "surrogateescape"))) & 0xFFFFFFFFFFFFFFFF


def _scored(image: str, noisy: ImageBuffer, noise: str, param: str, outs) -> list[BenchRow]:
    """One row per (label, output) of outs, each output scored against noisy."""
    return [BenchRow(image, noise, param, label, r.snr_db, r.ep_horizontal, r.ep_vertical)
            for label, out in outs for r in [evaluate_pair(noisy, out)]]


def _both_filters(name: str, img: ImageBuffer, spec: NoiseSpec, param: str) -> list[BenchRow]:
    """Noise from spec, both filters on the noisy image, then one row per filter."""
    noisy = add_noise(img, spec)
    outs = [(mode.value, filter_image(noisy, BENCH_FILTER_PARAMS, mode))
            for mode in (FilterMode.BILATERAL, FilterMode.MULTILATERAL)]
    return _scored(name, noisy, spec.kind, param, outs)


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

    comparison = [row for name, img in images for kind in NOISE_KINDS for row in _both_filters(
        name, img, NoiseSpec(kind, seed=cell_seed(base_seed, f"comparison/{name}/{kind}")), "")]
    density = [row for d in DENSITY_SWEEP for row in _density_cell(sweep_img, d, base_seed)]
    # Every sigma_t cell's first pass classifies the same noisy image.
    texture = compute_texture_map(sigma_t_noisy)
    sigma_t = [row for s in SIGMA_T_SWEEP for row in _scored(
        "two-texture", sigma_t_noisy, "salt-pepper", f"{s:g}",
        [("multilateral", filter_image(sigma_t_noisy, replace(BENCH_FILTER_PARAMS, sigma_t=s),
                                       FilterMode.MULTILATERAL, texture))])]
    return BenchReport(comparison=tuple(comparison), density_sweep=tuple(density),
                       sigma_t_sweep=tuple(sigma_t))


def format_metric(value: float | None, none_word: str = "") -> str:
    """A metric to six decimals, or `none_word` where it is undefined (None)."""
    return none_word if value is None else f"{value:.6f}"


def markdown_table(header, rows) -> str:
    """A markdown table of a header and rows, each a sequence of cell strings;
    backslashes and pipes in a cell are escaped, and line breaks become <br>."""
    lines = [[re.sub(r"\r\n?|\n", "<br>", cell.replace("\\", r"\\").replace("|", r"\|"))
              for cell in cells] for cells in [header, ["---"] * len(header), *rows]]
    return "\n".join("| " + " | ".join(cells) + " |" for cells in lines)


def _cells(row: BenchRow) -> list[str]:
    """The row's fields in CSV_HEADER order, metrics to six decimals."""
    return [v if isinstance(v, str) else format_metric(v) for v in vars(row).values()]


def _csv_field(cell: str) -> str:
    """The cell as a CSV field: quoted, its quotes doubled, if it holds a comma,
    quote, carriage return or line feed."""
    return '"' + cell.replace('"', '""') + '"' if re.search(r'[,"\r\n]', cell) else cell


def report_to_csv(report: BenchReport) -> str:
    rows = [",".join(map(_csv_field, _cells(r))) for r in report.all_rows()]
    return "\n".join([CSV_HEADER] + rows) + "\n"


#: The markdown report's sections: a BenchReport field and its heading.
_SECTIONS = (
    ("comparison", "Filter comparison (bilateral vs multilateral)"),
    ("density_sweep", "Salt-and-pepper density sweep (edge-preservation ratio)"),
    ("sigma_t_sweep", "Texture-scale (sigma_t) sweep"),
)


def report_to_markdown(report: BenchReport) -> str:
    parts = ["# edgekeep benchmark report", ""]
    for field, heading in _SECTIONS:
        rows = map(_cells, getattr(report, field))
        parts += [f"## {heading}", "", markdown_table(CSV_HEADER.split(","), rows), ""]
    return "\n".join(parts)
