"""Command-line front end: filter, texture, add-noise, metrics, and bench.

Options can come from flags or from a flat JSON config file whose keys mirror
the flag names; flags override the file, unknown config keys are rejected.
Exit codes: 0 success, 1 I/O failure, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from .bench import DEFAULT_BASE_SEED, report_to_csv, report_to_markdown, run_bench
from .filters import FilterMode, FilterParams, filter_image
from .image import ImageBuffer, PnmError, load_pnm, save_pnm
from .metrics import evaluate_pair, snr
from .noise import NoiseSpec, add_noise
from .texture import (
    DEFAULT_SIGMA_G,
    TextureParams,
    check_sigma_g,
    compute_texture_map,
    texture_map_image,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

REPORT_FORMATS = ("text", "csv", "markdown")

# Config keys each command accepts (mirroring its flag names).
_FILTER_KEYS = ("mode", "radius", "sigma-d", "sigma-r", "sigma-t", "passes",
                "sigma-g", "energy-radius", "smooth-threshold", "complex-ratio")
_TEXTURE_KEYS = ("sigma-g", "energy-radius", "smooth-threshold", "complex-ratio")
_NOISE_KEYS = ("noise", "density", "std", "seed")
_METRICS_KEYS = ("report",)
_BENCH_KEYS = ("seed",)

_INT_KEYS = {"radius", "passes", "seed", "energy-radius"}

# Dataclass field names -> flag names, for error messages.
_FIELD_TO_FLAG = {
    "window_radius": "radius",
    "sigma_d": "sigma-d",
    "sigma_r": "sigma-r",
    "sigma_t": "sigma-t",
    "energy_window_radius": "energy-radius",
    "smooth_threshold": "smooth-threshold",
    "complex_ratio": "complex-ratio",
    "sigma_g": "sigma-g",
    "kind": "noise",
}


class UsageError(Exception):
    """Invalid parameters; maps to exit status 2."""


def _flagify(message: str) -> str:
    for field, flag in _FIELD_TO_FLAG.items():
        message = message.replace(field, flag)
    return message


def _load_config(path: str, keys) -> dict:
    text = Path(path).read_text()
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise UsageError(f"config {path} must hold a flat JSON object")
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"unknown config key(s): {', '.join(unknown)}")
    return config


def _merged(args, keys) -> dict:
    """Config-file values overridden by explicitly given flags."""
    values = {}
    if getattr(args, "config", None):
        values.update(_load_config(args.config, keys))
    for key in keys:
        flag_value = getattr(args, key.replace("-", "_"), None)
        if flag_value is not None:
            values[key] = flag_value
    return values


def _get_int(values: dict, key: str, default: int) -> int:
    if key not in values or values[key] is None:
        return default
    value = values[key]
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise UsageError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be an integer, got {value!r}") from None


def _get_float(values: dict, key: str, default: float | None) -> float | None:
    if key not in values or values[key] is None:
        return default
    try:
        return float(values[key])
    except (TypeError, ValueError):
        raise UsageError(f"{key} must be a number, got {values[key]!r}") from None


def _build_filter_params(values: dict) -> FilterParams:
    try:
        return FilterParams(
            window_radius=_get_int(values, "radius", 2),
            sigma_d=_get_float(values, "sigma-d", 2.0),
            sigma_r=_get_float(values, "sigma-r", 0.1),
            sigma_t=_get_float(values, "sigma-t", 1.0),
            passes=_get_int(values, "passes", 1),
        )
    except ValueError as exc:
        raise UsageError(_flagify(str(exc))) from None


def _build_texture_params(values: dict) -> TextureParams:
    try:
        return TextureParams(
            energy_window_radius=_get_int(values, "energy-radius", 2),
            smooth_threshold=_get_float(values, "smooth-threshold", None),
            complex_ratio=_get_float(values, "complex-ratio", 0.8),
        )
    except ValueError as exc:
        raise UsageError(_flagify(str(exc))) from None


def _build_noise_spec(values: dict) -> NoiseSpec:
    try:
        return NoiseSpec(
            kind=values.get("noise", "salt-pepper"),
            density=_get_float(values, "density", 0.05),
            std=_get_float(values, "std", 0.05),
            seed=_get_int(values, "seed", 0),
        )
    except ValueError as exc:
        raise UsageError(_flagify(str(exc))) from None


def _get_sigma_g(values: dict) -> float:
    sigma_g = _get_float(values, "sigma-g", DEFAULT_SIGMA_G)
    try:
        check_sigma_g(sigma_g)
    except ValueError as exc:
        raise UsageError(_flagify(str(exc))) from None
    return sigma_g


def _read_image(path: str) -> ImageBuffer:
    data = Path(path).read_bytes()
    try:
        return load_pnm(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc.args[0]}", exc.offset) from None


def _write_image(path: str, img: ImageBuffer):
    Path(path).write_bytes(save_pnm(img))


def _echo_config(values: dict):
    print(f"config: {json.dumps(values, sort_keys=True)}", file=sys.stderr)


def _metric_str(value: float | None, none_word: str) -> str:
    return none_word if value is None else f"{value:.6f}"


def cmd_filter(args) -> int:
    values = _merged(args, _FILTER_KEYS)
    mode_name = values.get("mode", "bilateral")
    try:
        mode = FilterMode(mode_name)
    except ValueError:
        raise UsageError(f"mode must be one of bilateral, multilateral, average; "
                         f"got {mode_name!r}") from None
    params = _build_filter_params(values)
    texture_params = _build_texture_params(values)
    sigma_g = _get_sigma_g(values)

    img = _read_image(args.input)
    effective = {
        "mode": mode.value, "radius": params.window_radius,
        "sigma-d": params.sigma_d, "sigma-r": params.sigma_r,
        "sigma-t": params.sigma_t, "passes": params.passes, "sigma-g": sigma_g,
        "energy-radius": texture_params.energy_window_radius,
        "smooth-threshold": texture_params.smooth_threshold,
        "complex-ratio": texture_params.complex_ratio,
    }
    _echo_config(effective)
    start = time.perf_counter()
    out = filter_image(img, params, mode, texture_params=texture_params, sigma_g=sigma_g)
    elapsed = time.perf_counter() - start
    print(f"filtered {img.width}x{img.height} in {elapsed:.3f}s "
          f"({elapsed / params.passes:.3f}s/pass)", file=sys.stderr)
    _write_image(args.output, out)
    return EXIT_OK


def cmd_texture(args) -> int:
    values = _merged(args, _TEXTURE_KEYS)
    texture_params = _build_texture_params(values)
    sigma_g = _get_sigma_g(values)
    img = _read_image(args.input)
    effective = {
        "sigma-g": sigma_g,
        "energy-radius": texture_params.energy_window_radius,
        "smooth-threshold": texture_params.smooth_threshold,
        "complex-ratio": texture_params.complex_ratio,
    }
    _echo_config(effective)
    start = time.perf_counter()
    tex = compute_texture_map(img, texture_params, sigma_g)
    elapsed = time.perf_counter() - start
    print(f"classified {img.width}x{img.height} in {elapsed:.3f}s", file=sys.stderr)
    _write_image(args.output, texture_map_image(tex))
    return EXIT_OK


def cmd_add_noise(args) -> int:
    values = _merged(args, _NOISE_KEYS)
    spec = _build_noise_spec(values)
    img = _read_image(args.input)
    effective = {"noise": spec.kind, "density": spec.density,
                 "std": spec.std, "seed": spec.seed}
    _echo_config(effective)
    _write_image(args.output, add_noise(img, spec))
    return EXIT_OK


def cmd_metrics(args) -> int:
    values = _merged(args, _METRICS_KEYS)
    report_format = values.get("report", "text")
    if report_format not in REPORT_FORMATS:
        raise UsageError(f"report must be one of {', '.join(REPORT_FORMATS)}; "
                         f"got {report_format!r}")
    input_img = _read_image(args.input)
    filtered_img = _read_image(args.filtered)
    report = evaluate_pair(input_img, filtered_img)
    pairs = [
        ("snr_db", _metric_str(report.snr_db, "identical")),
        ("ep_horizontal", _metric_str(report.ep_horizontal, "undefined")),
        ("ep_vertical", _metric_str(report.ep_vertical, "undefined")),
    ]
    if args.clean:
        clean_img = _read_image(args.clean)
        pairs.append(("snr_clean_db", _metric_str(snr(clean_img, filtered_img), "identical")))

    if report_format == "text":
        for key, value in pairs:
            print(f"{key}={value}")
    elif report_format == "csv":
        print(",".join(key for key, _ in pairs))
        print(",".join(value for _, value in pairs))
    else:
        print("| metric | value |")
        print("| --- | --- |")
        for key, value in pairs:
            print(f"| {key} | {value} |")
    return EXIT_OK


def _thread_cap() -> int:
    raw = os.environ.get("EDGEKEEP_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"EDGEKEEP_THREADS must be an integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError(f"EDGEKEEP_THREADS must be >= 1, got {cap}")
    return cap


def cmd_bench(args) -> int:
    values = _merged(args, _BENCH_KEYS)
    base_seed = _get_int(values, "seed", DEFAULT_BASE_SEED)

    images = None
    if args.images:
        missing = [p for p in args.images if not Path(p).is_file()]
        if missing:
            print(f"edgekeep: missing test image(s): {', '.join(missing)}",
                  file=sys.stderr)
            return EXIT_IO
        images = [(Path(p).stem, _read_image(p)) for p in args.images]

    report = run_bench(images, base_seed, threads=_thread_cap())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "bench.csv"
    md_path = outdir / "bench.md"
    csv_path.write_text(report_to_csv(report))
    md_path.write_text(report_to_markdown(report))
    print(f"wrote {csv_path} and {md_path}", file=sys.stderr)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgekeep",
        description="Edge-preserving bilateral/multilateral image filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="flat JSON config file; flags override it")

    f = sub.add_parser("filter", help="filter an image")
    f.add_argument("input")
    f.add_argument("output")
    f.add_argument("--mode", help="bilateral | multilateral | average")
    f.add_argument("--radius", type=int, help="window radius m")
    f.add_argument("--sigma-d", type=float, help="spatial scale (pixels)")
    f.add_argument("--sigma-r", type=float, help="range scale (intensity)")
    f.add_argument("--sigma-t", type=float, help="texture scale (multilateral)")
    f.add_argument("--passes", type=int, help="filtering passes")
    f.add_argument("--sigma-g", type=float, help="steerable base Gaussian scale")
    f.add_argument("--energy-radius", type=int, help="texture energy window radius")
    f.add_argument("--smooth-threshold", type=float, help="absolute smooth threshold")
    f.add_argument("--complex-ratio", type=float, help="complex-texture energy ratio")
    add_config(f)
    f.set_defaults(func=cmd_filter)

    t = sub.add_parser("texture", help="write the 6-level texture map as PGM")
    t.add_argument("input")
    t.add_argument("output")
    t.add_argument("--sigma-g", type=float, help="steerable base Gaussian scale")
    t.add_argument("--energy-radius", type=int, help="texture energy window radius")
    t.add_argument("--smooth-threshold", type=float, help="absolute smooth threshold")
    t.add_argument("--complex-ratio", type=float, help="complex-texture energy ratio")
    add_config(t)
    t.set_defaults(func=cmd_texture)

    n = sub.add_parser("add-noise", help="corrupt an image with seeded noise")
    n.add_argument("input")
    n.add_argument("output")
    n.add_argument("--noise", help="salt-pepper | gaussian")
    n.add_argument("--density", type=float, help="salt-pepper corruption fraction")
    n.add_argument("--std", type=float, help="gaussian standard deviation")
    n.add_argument("--seed", type=int, help="PRNG seed")
    add_config(n)
    n.set_defaults(func=cmd_add_noise)

    m = sub.add_parser("metrics", help="SNR and edge-preserving exponents for a pair")
    m.add_argument("input", help="the image that was fed to the filter")
    m.add_argument("filtered", help="the filter output")
    m.add_argument("--clean", help="optional clean reference for a separate SNR")
    m.add_argument("--report", help="text | csv | markdown")
    add_config(m)
    m.set_defaults(func=cmd_metrics)

    b = sub.add_parser("bench", help="run the benchmark sweeps and write reports")
    b.add_argument("outdir", help="directory for bench.csv and bench.md")
    b.add_argument("images", nargs="*", help="optional PNM test images "
                                             "(defaults to bundled synthetics)")
    b.add_argument("--seed", type=int, help="base seed for all noise realizations")
    add_config(b)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"edgekeep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PnmError, OSError) as exc:
        print(f"edgekeep: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # domain validation surfacing through a command (e.g. mismatched
        # metric image shapes)
        print(f"edgekeep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
