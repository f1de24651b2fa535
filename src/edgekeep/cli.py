"""Command-line front end: filter, texture, add-noise, metrics, and bench.

Options can come from flags or from a flat JSON config file whose keys mirror
the flag names; flags override the file, unknown config keys are rejected.
Every command echoes its effective options, once validated, as one
`config: {...}` JSON line on stderr that `--config` accepts back unchanged.
Exit codes: 0 success, 1 I/O failure or out of memory, 2 invalid parameters.
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

from .bench import format_metric, markdown_table, report_to_csv, report_to_markdown, run_bench
from .filters import FilterMode, FilterParams, filter_image
from .image import ImageBuffer, PnmError, load_pnm, save_pnm
from .metrics import evaluate_pair, snr
from .noise import NOISE_KINDS, NoiseSpec, add_noise
from .texture import TextureParams, compute_texture_map, texture_map_image

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2

REPORT_FORMATS = ("text", "csv", "markdown")


class Option(NamedTuple):
    flag: str  # without the leading "--"; also the config key
    type: type  # int, float or str; a default may be None, so it is stated here
    help: str  # "" lists the choices
    field: str  # the library parameter the value is passed as
    commands: tuple[str, ...]
    choices: tuple[str, ...] = ()  # the values a str option takes; () for any


_FILTER, _TEXTURE, _NOISE = ("filter",), ("filter", "texture"), ("add-noise",)
# flag, type, help, library field, commands[, choices]
OPTIONS = tuple(Option(*row) for row in (
    ("mode", str, "", "mode", _FILTER, tuple(mode.value for mode in FilterMode)),
    ("radius", int, "window radius m", "window_radius", _FILTER),
    ("sigma-d", float, "spatial scale (pixels)", "sigma_d", _FILTER),
    ("sigma-r", float, "range scale (intensity)", "sigma_r", _FILTER),
    ("sigma-t", float, "texture scale (multilateral)", "sigma_t", _FILTER),
    ("passes", int, "filtering passes", "passes", _FILTER),
    ("sigma-g", float, "steerable base Gaussian scale", "sigma_g", _TEXTURE),
    ("energy-radius", int, "texture energy window radius", "energy_window_radius", _TEXTURE),
    ("smooth-threshold", float, "absolute smooth threshold", "smooth_threshold", _TEXTURE),
    ("complex-ratio", float, "complex-texture energy ratio", "complex_ratio", _TEXTURE),
    ("noise", str, "", "kind", _NOISE, NOISE_KINDS),
    ("density", float, "salt-pepper corruption fraction", "density", _NOISE),
    ("std", float, "gaussian standard deviation", "std", _NOISE),
    ("seed", int, "PRNG seed", "seed", _NOISE),
    ("report", str, "", "report", ("metrics",), REPORT_FORMATS),
    ("seed", int, "base seed for all noise realizations", "base_seed", ("bench",)),
))

_FLAG_OF = {opt.field: opt.flag for opt in OPTIONS}
# Each option's default by library field: its library parameter's, else its first choice.
_DEFAULTS = {opt.field: opt.choices[0] for opt in OPTIONS if opt.choices} | {
    name: p.default.value if isinstance(p.default, FilterMode) else p.default
    for make in (FilterParams, filter_image, TextureParams, NoiseSpec, run_bench)
    for name, p in inspect.signature(make).parameters.items()
    if name in _FLAG_OF and p.default is not p.empty}


def _options(command: str) -> list[Option]:
    return [opt for opt in OPTIONS if command in opt.commands]


def _load_config(path: str, flags) -> dict:
    try:
        config = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding, deep nesting
        raise ValueError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"config {path} must hold a flat JSON object")
    unknown = sorted(set(config) - set(flags))
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    return config


def _convert(opt: Option, value, flag: bool):
    """A flag string or config value as the option's type; None selects the default.
    An int option takes 3, not 3.0, and a config number must be a JSON number."""
    if value is None:
        return _DEFAULTS[opt.field]
    if opt.choices and value not in opt.choices:
        raise ValueError(f"{opt.flag} must be one of {', '.join(opt.choices)}; got {value!r}")
    if opt.type is str:
        return value
    try:
        if type(value) not in ((str,) if flag else (int,) if opt.type is int else (int, float)):
            raise TypeError
        return opt.type(value)
    except (TypeError, ValueError):
        noun = "an integer" if opt.type is int else "a number"
        raise ValueError(f"{opt.flag} must be {noun}, got {value!r}") from None
    except OverflowError:  # a JSON integer past the float range
        raise ValueError(f"{opt.flag} is too large for a float") from None


def _resolve(args) -> dict:
    """The command's options by flag: flag over config file over default."""
    options = _options(args.command)
    config = _load_config(args.config, [opt.flag for opt in options]) if args.config else {}
    values = {}
    for opt in options:
        value = getattr(args, opt.flag.replace("-", "_"))
        values[opt.flag] = (_convert(opt, config.get(opt.flag), False) if value is None
                            else _convert(opt, value, True))
    return values


def _construct(make, values: dict):
    """Call make with the option values its parameters name, by library field."""
    return make(**{name: values[_FLAG_OF[name]] for name in inspect.signature(make).parameters
                   if _FLAG_OF.get(name) in values})


def _read_image(path: str) -> ImageBuffer:
    try:
        return load_pnm(Path(path).read_bytes())
    except PnmError as exc:
        exc.args = (f"{path}: {exc}",)  # str(exc) ends in the byte offset already
        raise


def _write(outputs: dict[Path, bytes]):
    """Replace each path whole, by way of .NAME.partial beside it. Every partial
    file is written before the first rename, so a failed write changes nothing."""
    temps = {path: path.with_name(f".{path.name}.partial") for path in outputs}
    try:
        for path, data in outputs.items():
            temps[path].write_bytes(data)
        for path, temp in temps.items():
            temp.replace(path)
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def _echo_config(values: dict):
    print(f"config: {json.dumps(values, sort_keys=True)}", file=sys.stderr)


def _image_command(args, values: dict, op, timing: str = "", passes: int = 1):
    """Read the input image, run `op`, echo the config, print `timing` (formatted
    with w, h, s seconds and p per pass; none if empty) and write op's image."""
    img = _read_image(args.input)
    start = time.perf_counter()
    out = op(img)
    s = time.perf_counter() - start
    _echo_config(values)
    if timing:
        print(timing.format(w=img.width, h=img.height, s=s, p=s / passes), file=sys.stderr)
    _write({Path(args.output): save_pnm(out)})


def cmd_filter(args, values: dict):
    params = _construct(FilterParams, values)
    # Only multilateral mode classifies texture; other modes never read, and
    # so never check, the texture settings.
    texture_params = (_construct(TextureParams, values)
                      if values["mode"] == "multilateral" else None)
    _image_command(args, values, lambda img: filter_image(
        img, params, values["mode"], texture_params=texture_params),
        "filtered {w}x{h} in {s:.3f}s ({p:.3f}s/pass)", params.passes)


def cmd_texture(args, values: dict):
    texture_params = _construct(TextureParams, values)
    _image_command(args, values, lambda img: texture_map_image(
        compute_texture_map(img, texture_params)), "classified {w}x{h} in {s:.3f}s")


def cmd_add_noise(args, values: dict):
    spec = _construct(NoiseSpec, values)
    _image_command(args, values, lambda img: add_noise(img, spec))


def cmd_metrics(args, values: dict):
    input_img = _read_image(args.input)
    filtered_img = _read_image(args.filtered)
    report = evaluate_pair(input_img, filtered_img)
    pairs = [(name, format_metric(getattr(report, name), none_word)) for name, none_word in
             (("snr_db", "identical"), ("ep_horizontal", "undefined"),
              ("ep_vertical", "undefined"))]
    if args.clean:
        clean_img = _read_image(args.clean)
        pairs.append(("snr_clean_db", format_metric(snr(clean_img, filtered_img), "identical")))
    _echo_config(values)

    if values["report"] == "text":
        print("\n".join(f"{key}={value}" for key, value in pairs))
    elif values["report"] == "csv":
        print("\n".join(",".join(column) for column in zip(*pairs)))
    else:
        print(markdown_table(["metric", "value"], pairs))


def cmd_bench(args, values: dict):
    images = [(Path(p).stem, _read_image(p)) for p in args.images] or None
    _echo_config(values)
    report = run_bench(images, values["seed"])
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    # Both reports are rendered before either file is replaced, so they always match.
    _write({outdir / name: render(report).encode("utf-8", "surrogateescape")
            for name, render in (("bench.csv", report_to_csv), ("bench.md", report_to_markdown))})
    print(f"wrote {outdir / 'bench.csv'} and {outdir / 'bench.md'}", file=sys.stderr)


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
            p.add_argument(f"--{opt.flag}", help=opt.help or " | ".join(opt.choices))
        p.add_argument("--config", help="flat JSON config file; flags override it")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.handler(args, _resolve(args))  # returns on success, raises on failure
        return EXIT_OK
    except (PnmError, OSError, MemoryError) as exc:  # numpy's MemoryError names its array
        print(f"edgekeep: error: {exc or type(exc).__name__}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # invalid parameters, or a domain check such as metric image shapes;
        # a library message's leading field name becomes the flag name
        message = re.sub(r"^\w+", lambda m: _FLAG_OF.get(m[0], m[0]), str(exc))
        print(f"edgekeep: error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
