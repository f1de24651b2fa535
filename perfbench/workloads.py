"""The three benchmark workloads: what one operation is, and how it is checked.

An operation is one image (gray_multilateral_1024, rgb_bilateral_r5) or one
run_bench sweep (eval_sweep). Each run cycles its operations over
DISTINCT_INPUTS seeded inputs. Every output is checked for shape and range and
must equal, bit for bit, the first output computed from the same input. Each
distinct input is checked once more, outside the timed region: against
filter_oracle on a fixed crop, against the invariants its workload must keep,
and, for the reference seed, against recorded reference values.
"""

from __future__ import annotations

import math

import numpy as np

import inputs

#: Seed whose outputs are pinned in reference.json.
REFERENCE_SEED = 1

#: Seeded inputs per run; operations cycle over them.
DISTINCT_INPUTS = 2

#: Fixed crop, in rows and columns, on which filter_oracle must agree with
#: filter_image. It straddles the cell boundary at 64 of both mosaics.
CROP = slice(48, 80)
ORACLE_TOLERANCE = 1e-12

#: Relative tolerance on recorded SNR and edge-preserving exponents. It admits
#: a rounding-level change of the arithmetic, and catches any change of what
#: the filter computes.
REFERENCE_RTOL = 1e-6
#: Absolute tolerance on the six-decimal numbers of the run_bench CSV: one
#: unit in the last printed place, plus its rounding.
CSV_ATOL = 2e-6


def _csv_close(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        return abs(float(got) - float(want)) <= CSV_ATOL
    except ValueError:
        return False


def _range_errors(pixels: np.ndarray, shape: tuple) -> list[str]:
    errors = []
    if pixels.shape != shape:
        errors.append(f"output shape {pixels.shape}, expected {shape}")
    if not (np.all(pixels >= 0.0) and np.all(pixels <= 1.0)):
        errors.append("output values outside [0, 1]")
    return errors


def _close(got: float | None, want: float | None, rtol: float) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= rtol * max(abs(want), 1e-300)


class _ImageWorkload:
    """Shared checks of the two workloads whose operation filters one image."""

    mode: str
    size: int
    channels: int

    def __init__(self, ek):
        self.ek = ek

    @property
    def shape(self) -> tuple:
        return (self.size, self.size) if self.channels == 1 else (self.size, self.size, 3)

    @property
    def mpix_per_op(self) -> float:
        return self.size * self.size * self.params.passes / 1e6

    def image_of(self, prepared):
        return prepared

    def check_input(self, prepared, out) -> list[str]:
        ek = self.ek
        img = self.image_of(prepared)
        crop = ek.ImageBuffer(img.pixels[CROP, CROP])
        fast = ek.filter_image(crop, self.params, self.mode)
        slow = ek.filter_oracle(crop, self.params, self.mode)
        gap = float(np.abs(fast.pixels - slow.pixels).max())
        if gap > ORACLE_TOLERANCE:
            return [f"filter_oracle differs from filter_image by {gap:.3g} on the crop"]
        return []

    def summary(self, prepared, out) -> dict:
        report = self.ek.evaluate_pair(self.image_of(prepared), self.filtered(out))
        return {"snr_db": report.snr_db, "ep_h": report.ep_horizontal,
                "ep_v": report.ep_vertical}

    def compare(self, summary: dict, reference: dict) -> list[str]:
        return [f"{key} {summary[key]!r} differs from the reference {reference[key]!r}"
                for key in reference if not _close(summary[key], reference[key], REFERENCE_RTOL)]

    def fingerprint(self, out) -> bytes:
        return self.filtered(out).pixels.tobytes()


class GrayMultilateral(_ImageWorkload):
    """PGM bytes -> load_pnm -> multilateral filter_image -> save_pnm.

    The CLI user's path. About half the time is texture work and half filter
    work; the 8 MiB per-array working set makes filter temporaries press on the
    last-level cache, and the mosaic gives a real mix of smooth, oriented and
    complex labels.
    """

    name = "gray_multilateral_1024"
    mode = "multilateral"
    size = 1024
    channels = 1

    def __init__(self, ek):
        super().__init__(ek)
        self.params = ek.FilterParams(window_radius=2, sigma_d=2.0, sigma_r=0.2,
                                      sigma_t=1.0, passes=2)

    def make_input(self, seed: int, index: int) -> bytes:
        return inputs.gray_mosaic_pgm(seed, index, size=self.size)

    def warmup_input(self) -> bytes:
        return inputs.gray_mosaic_pgm(0, 0, size=64, cell=16)

    def prepare(self, raw: bytes) -> bytes:
        return raw

    def op(self, data: bytes):
        ek = self.ek
        out = ek.filter_image(ek.load_pnm(data), self.params, self.mode)
        return out, ek.save_pnm(out)

    def image_of(self, prepared: bytes):
        return self.ek.load_pnm(prepared)

    def filtered(self, out):
        return out[0]

    def check_output(self, prepared, out) -> list[str]:
        image, encoded = out
        errors = _range_errors(image.pixels, self.shape)
        if self.ek.load_pnm(encoded).pixels.shape != self.shape:
            errors.append("save_pnm output does not decode to the input shape")
        return errors


class RgbBilateral(_ImageWorkload):
    """Bilateral filter_image, radius 5, on an RGB mosaic with Gaussian noise.

    No texture work at all, and 121 offsets x 3 channels per pixel: any texture
    or kernels optimisation must predict no change here.
    """

    name = "rgb_bilateral_r5"
    mode = "bilateral"
    size = 512
    channels = 3

    def __init__(self, ek):
        super().__init__(ek)
        self.params = ek.FilterParams(window_radius=5, sigma_d=3.0, sigma_r=0.1, passes=1)

    def make_input(self, seed: int, index: int) -> np.ndarray:
        return inputs.rgb_mosaic(seed, index, size=self.size)

    def warmup_input(self) -> np.ndarray:
        return inputs.rgb_mosaic(0, 0, size=64, cell=16)

    def prepare(self, raw: np.ndarray):
        return self.ek.ImageBuffer(raw)

    def op(self, img):
        return self.ek.filter_image(img, self.params, self.mode)

    def filtered(self, out):
        return out

    def check_output(self, prepared, out) -> list[str]:
        return _range_errors(out.pixels, self.shape)


#: Input megapixels x passes filtered by one run_bench call with the default
#: images: the comparison sweep filters 64^2 and 128^2 images with two noise
#: kinds and two filters, the density sweep 4 x 2 filters, the sigma_t sweep
#: 4 filters on 128^2, all with 2 passes.
SWEEP_MPIX = ((64 * 64 + 128 * 128) * 2 * 2 + 128 * 128 * (4 * 2 + 4)) * 2 / 1e6

#: Rows of each section of a run_bench report with the default images.
SWEEP_ROWS = {"comparison": 8, "density_sweep": 12, "sigma_t_sweep": 4}


class EvalSweep:
    """Repeated run_bench calls with the default images and one thread.

    Many calls on 64^2-128^2 images, so fixed per-call overhead, noise and
    metrics weigh most: a large-image gain that costs small images shows here.
    """

    name = "eval_sweep"
    mpix_per_op = SWEEP_MPIX

    def __init__(self, ek):
        self.ek = ek

    def make_input(self, seed: int, index: int) -> int:
        return inputs.sweep_base_seed(seed, index)

    def warmup_input(self) -> int:
        return 0

    def prepare(self, raw: int) -> int:
        return raw

    def op(self, base_seed: int):
        return self.ek.run_bench(base_seed=base_seed, threads=1)

    def fingerprint(self, report) -> bytes:
        return self._csv(report).encode()

    def _csv(self, report) -> str:
        return self.ek.bench.report_to_csv(report)

    def check_output(self, base_seed, report) -> list[str]:
        errors = []
        for section, rows in SWEEP_ROWS.items():
            got = len(getattr(report, section))
            if got != rows:
                errors.append(f"{section} has {got} rows, expected {rows}")
        for row in report.all_rows():
            for value in (row.snr_db, row.ep_h, row.ep_v):
                if value is not None and not math.isfinite(value):
                    errors.append(f"non-finite value in row {row}")
        return errors

    def check_input(self, base_seed, report) -> list[str]:
        """The density and sigma_t trends the acceptance criteria name."""
        errors = []
        ratios = [row for row in report.density_sweep if row.filter == "ratio-multi-bi"]
        by_density = {row.param: row.ep_h for row in ratios}
        if not all(row.ep_h is not None and row.ep_h > 1.0 for row in ratios):
            errors.append("a multilateral/bilateral exponent ratio is not above 1")
        elif not by_density["0.07"] > by_density["0.01"]:
            errors.append("the exponent ratio does not grow with density")
        sweep = report.sigma_t_sweep
        for attr in ("ep_h", "ep_v"):
            values = [getattr(row, attr) for row in sweep]
            if any(a < b for a, b in zip(values, values[1:])):
                errors.append(f"sigma_t sweep {attr} increases: {values}")
            if abs(values[2] - values[3]) > 0.01:
                errors.append(f"sigma_t sweep {attr} has no plateau: {values}")
        if sweep[0].snr_db < sweep[-1].snr_db:
            errors.append("sigma_t sweep SNR rises with sigma_t")
        return errors

    def summary(self, base_seed, report) -> dict:
        return {"base_seed": base_seed, "csv": self._csv(report)}

    def compare(self, summary: dict, reference: dict) -> list[str]:
        if summary["base_seed"] != reference["base_seed"]:
            return [f"base seed {summary['base_seed']} is not the reference's"]
        got = [line.split(",") for line in summary["csv"].splitlines()]
        want = [line.split(",") for line in reference["csv"].splitlines()]
        if len(got) != len(want):
            return [f"CSV has {len(got)} lines, the reference {len(want)}"]
        return [f"CSV line {number + 1} {','.join(a)!r} differs from the reference "
                f"{','.join(b)!r}"
                for number, (a, b) in enumerate(zip(got, want))
                if len(a) != len(b) or not all(map(_csv_close, a, b))]


WORKLOADS = {cls.name: cls for cls in (GrayMultilateral, RgbBilateral, EvalSweep)}
