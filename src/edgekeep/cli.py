"""Command-line front end: filter, texture, add-noise, metrics, and bench.

Options can come from flags or from a flat JSON config file whose keys mirror
the flag names; flags override the file, unknown config keys are rejected.
Every command echoes its effective options, once validated, as one
`config: {...}` JSON line on stderr that `--config` accepts back unchanged.
Exit codes: 0 success, 1 I/O failure, 2 invalid parameters.
"""

from __future__ import annotations

import argparse
import inspect
import json
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

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
    steerable_radius,
    texture_map_image,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

REPORT_FORMATS = ("text", "csv", "markdown")

#: A radius above max(height, width, RADIUS_FLOOR) is rejected: past the image
#: size it only repeats edge samples, while the padded fields grow with its
#: square, so an unbounded radius is an unbounded allocation.
RADIUS_FLOOR = 64

#: The most filtering passes the CLI runs: each pass costs a full filter run,
#: and an unbounded count is an unbounded run time.
PASSES_LIMIT = 100


class Option(NamedTuple):
    flag: str  # without the leading "--"; also the config key
    type: type  # int, float or str
    default: object
    help: str
    field: str  # the library parameter the value is passed as
    commands: tuple[str, ...]


_FILTER, _TEXTURE, _NOISE = ("filter",), ("filter", "texture"), ("add-noise",)
# flag, type, default, help, library field, commands
OPTIONS = tuple(Option(*row) for row in (
    ("mode", str, "bilateral", "bilateral | multilateral | average", "mode", _FILTER),
    ("radius", int, 2, "window radius m", "window_radius", _FILTER),
    ("sigma-d", float, 2.0, "spatial scale (pixels)", "sigma_d", _FILTER),
    ("sigma-r", float, 0.1, "range scale (intensity)", "sigma_r", _FILTER),
    ("sigma-t", float, 1.0, "texture scale (multilateral)", "sigma_t", _FILTER),
    ("passes", int, 1, "filtering passes", "passes", _FILTER),
    ("sigma-g", float, DEFAULT_SIGMA_G, "steerable base Gaussian scale", "sigma_g", _TEXTURE),
    ("energy-radius", int, 2, "texture energy window radius", "energy_window_radius", _TEXTURE),
    ("smooth-threshold", float, None, "absolute smooth threshold", "smooth_threshold", _TEXTURE),
    ("complex-ratio", float, 0.8, "complex-texture energy ratio", "complex_ratio", _TEXTURE),
    ("noise", str, "salt-pepper", "salt-pepper | gaussian", "kind", _NOISE),
    ("density", float, 0.05, "salt-pepper corruption fraction", "density", _NOISE),
    ("std", float, 0.05, "gaussian standard deviation", "std", _NOISE),
    ("seed", int, 0, "PRNG seed", "seed", _NOISE),
    ("report", str, "text", "text | csv | markdown", "report", ("metrics",)),
    ("seed", int, DEFAULT_BASE_SEED, "base seed for all noise realizations", "base_seed",
     ("bench",)),
))

_FLAG_OF = {opt.field: opt.flag for opt in OPTIONS}

# The flags setting a radius that texture classification pads by.
_TEXTURE_RADII = ("energy-radius", "sigma-g")


def _options(command: str) -> list[Option]:
    return [opt for opt in OPTIONS if command in opt.commands]


def _load_config(path: str, flags) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a flat JSON object")
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return config


def _convert(opt: Option, value):
    """A flag or config value as the option's type; None selects the default."""
    if value is None or opt.type is str:
        return opt.default if value is None else value
    try:
        if opt.type is int and (isinstance(value, bool)
                                or isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return opt.type(value)
    except (TypeError, ValueError):
        noun = "an integer" if opt.type is int else "a number"
        raise ValueError(f"{opt.flag} must be {noun}, got {value!r}") from None


def _resolve(args) -> dict:
    """The command's options by flag: flag over config file over default."""
    options = _options(args.command)
    config = _load_config(args.config, [opt.flag for opt in options]) if args.config else {}
    values = {}
    for opt in options:
        value = getattr(args, opt.flag.replace("-", "_"))
        values[opt.flag] = _convert(opt, config.get(opt.flag) if value is None else value)
    return values


def _construct(make, values: dict):
    """Call make with the option values its parameters name, by library field.

    Library messages open with the field name; that word becomes the flag.
    """
    kwargs = {name: values[_FLAG_OF[name]] for name in inspect.signature(make).parameters
              if _FLAG_OF.get(name) in values}
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ValueError(re.sub(r"^\w+", lambda m: _FLAG_OF.get(m[0], m[0]), str(exc))) from None


def _check_radii(img: ImageBuffer, values: dict, flags):
    limit = max(img.height, img.width, RADIUS_FLOOR)
    for flag in flags:
        radius = steerable_radius(values[flag]) if flag == "sigma-g" else values[flag]
        if radius > limit:
            raise ValueError(f"{flag} {values[flag]} sets a radius above {limit}, the largest "
                             f"of the image height, width and {RADIUS_FLOOR}")


def _read_image(path: str) -> ImageBuffer:
    data = Path(path).read_bytes()
    try:
        return load_pnm(data)
    except PnmError as exc:
        raise PnmError(f"{path}: {exc.args[0]}", exc.offset) from None


def _echo_config(values: dict):
    print(f"config: {json.dumps(values, sort_keys=True)}", file=sys.stderr)


def _metric_str(value: float | None, none_word: str) -> str:
    return none_word if value is None else f"{value:.6f}"


def cmd_filter(args, values: dict) -> int:
    modes = [m.value for m in FilterMode]
    if values["mode"] not in modes:
        raise ValueError(f"mode must be one of {', '.join(modes)}; got {values['mode']!r}")
    mode = FilterMode(values["mode"])
    if values["passes"] > PASSES_LIMIT:
        raise ValueError(f"passes must be <= {PASSES_LIMIT}, got {values['passes']:.6g}")
    params = _construct(FilterParams, values)
    texture_params = _construct(TextureParams, values)
    _construct(check_sigma_g, values)
    img = _read_image(args.input)
    texture_radii = _TEXTURE_RADII if mode is FilterMode.MULTILATERAL else ()
    _check_radii(img, values, ("radius",) + texture_radii)
    _echo_config(values)
    start = time.perf_counter()
    out = filter_image(img, params, mode, texture_params=texture_params,
                       sigma_g=values["sigma-g"])
    elapsed = time.perf_counter() - start
    print(f"filtered {img.width}x{img.height} in {elapsed:.3f}s "
          f"({elapsed / params.passes:.3f}s/pass)", file=sys.stderr)
    Path(args.output).write_bytes(save_pnm(out))
    return EXIT_OK


def cmd_texture(args, values: dict) -> int:
    texture_params = _construct(TextureParams, values)
    _construct(check_sigma_g, values)
    img = _read_image(args.input)
    _check_radii(img, values, _TEXTURE_RADII)
    _echo_config(values)
    start = time.perf_counter()
    tex = compute_texture_map(img, texture_params, values["sigma-g"])
    elapsed = time.perf_counter() - start
    print(f"classified {img.width}x{img.height} in {elapsed:.3f}s", file=sys.stderr)
    Path(args.output).write_bytes(save_pnm(texture_map_image(tex)))
    return EXIT_OK


def cmd_add_noise(args, values: dict) -> int:
    spec = _construct(NoiseSpec, values)
    img = _read_image(args.input)
    _echo_config(values)
    Path(args.output).write_bytes(save_pnm(add_noise(img, spec)))
    return EXIT_OK


def cmd_metrics(args, values: dict) -> int:
    report_format = values["report"]
    if report_format not in REPORT_FORMATS:
        raise ValueError(f"report must be one of {', '.join(REPORT_FORMATS)}; "
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
    _echo_config(values)

    if report_format == "text":
        lines = [f"{key}={value}" for key, value in pairs]
    elif report_format == "csv":
        lines = [",".join(column) for column in zip(*pairs)]
    else:
        lines = ["| metric | value |", "| --- | --- |"]
        lines += [f"| {key} | {value} |" for key, value in pairs]
    print("\n".join(lines))
    return EXIT_OK


def cmd_bench(args, values: dict) -> int:
    images = None
    if args.images:
        missing = [p for p in args.images if not Path(p).is_file()]
        if missing:
            raise FileNotFoundError(f"missing test image(s): {', '.join(missing)}")
        images = [(Path(p).stem, _read_image(p)) for p in args.images]
    _echo_config(values)

    report = run_bench(images, values["seed"])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "bench.csv"
    md_path = outdir / "bench.md"
    csv_path.write_text(report_to_csv(report))
    md_path.write_text(report_to_markdown(report))
    print(f"wrote {csv_path} and {md_path}", file=sys.stderr)
    return EXIT_OK


# command: (handler, help, arguments added before the table's options)
_IN_OUT = [("input", {}), ("output", {})]
_COMMANDS = {
    "filter": (cmd_filter, "filter an image", _IN_OUT),
    "texture": (cmd_texture, "write the 6-level texture map as PGM", _IN_OUT),
    "add-noise": (cmd_add_noise, "corrupt an image with seeded noise", _IN_OUT),
    "metrics": (cmd_metrics, "SNR and edge-preserving exponents for a pair", [
        ("input", {"help": "the image that was fed to the filter"}),
        ("filtered", {"help": "the filter output"}),
        ("--clean", {"help": "optional clean reference for a separate SNR"})]),
    "bench": (cmd_bench, "run the benchmark sweeps and write reports", [
        ("outdir", {"help": "directory for bench.csv and bench.md"}),
        ("images", {"nargs": "*", "help": "optional PNM test images "
                                          "(defaults to bundled synthetics)"})]),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgekeep",
        description="Edge-preserving bilateral/multilateral image filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (handler, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        for opt in _options(command):
            p.add_argument(f"--{opt.flag}", type=opt.type, help=opt.help)
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, _resolve(args))
    except (PnmError, OSError) as exc:
        print(f"edgekeep: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # invalid parameters, or a domain check such as metric image shapes
        print(f"edgekeep: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
