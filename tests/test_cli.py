"""CLI behavior: commands, config handling, exit codes, and determinism."""

import csv as csv_module
import errno
import inspect
import json
import math
import os
import re
from enum import Enum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgekeep.bench import run_bench
from edgekeep.cli import OPTIONS, main
from edgekeep.filters import FilterParams, filter_image
from edgekeep.image import ImageBuffer, load_pnm, save_pnm
from edgekeep.noise import NoiseSpec
from edgekeep.synth import grating, step_edge
from edgekeep.texture import TextureParams, steerable_radius


def write_pnm(path, img):
    path.write_bytes(save_pnm(img))
    return str(path)


@pytest.fixture
def gray_file(tmp_path):
    rng = np.random.default_rng(0)
    return write_pnm(tmp_path / "in.pgm", ImageBuffer(rng.random((12, 10))))


def test_filter_writes_same_dimension_image(tmp_path, gray_file):
    out = tmp_path / "out.pgm"
    code = main(["filter", "--mode", "multilateral", "--passes", "2",
                 "--sigma-t", "1.0", gray_file, str(out)])
    assert code == 0
    img = load_pnm(out.read_bytes())
    assert (img.width, img.height) == (10, 12)


def test_filter_rgb_ppm_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    src = write_pnm(tmp_path / "in.ppm", ImageBuffer(rng.random((8, 8, 3))))
    out = tmp_path / "out.ppm"
    assert main(["filter", "--mode", "multilateral", src, str(out)]) == 0
    img = load_pnm(out.read_bytes())
    assert img.channels == 3 and (img.width, img.height) == (8, 8)


def test_filter_constant_image_is_byte_identical(tmp_path):
    src = tmp_path / "const.pgm"
    write_pnm(src, ImageBuffer(np.full((9, 9), 0.25)))
    out = tmp_path / "out.pgm"
    for mode in ("bilateral", "multilateral", "average"):
        assert main(["filter", "--mode", mode, str(src), str(out)]) == 0
        assert out.read_bytes() == src.read_bytes()


def test_filter_invalid_sigma_r_names_flag(tmp_path, gray_file, capsys):
    code = main(["filter", "--mode", "bilateral", "--sigma-r", "-1",
                 gray_file, str(tmp_path / "out.pgm")])
    assert code == 2
    assert "sigma-r" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--sigma-r", "1e-300"), ("--sigma-d", "1e-200"), ("--sigma-d", "1e300"),
    ("--sigma-r", "1e300"), ("--sigma-t", "1e-300")])
def test_filter_sigma_out_of_range_is_usage_error(tmp_path, flag, value, capsys):
    src = write_pnm(tmp_path / "a.pgm",
                    ImageBuffer(np.random.default_rng(1).random((8, 8))))
    code = main(["filter", flag, value, src, str(tmp_path / "b.pgm")])
    assert code == 2
    assert flag[2:] in capsys.readouterr().err


@pytest.mark.parametrize("command", [["filter", "--mode", "multilateral"], ["texture"]])
def test_smallest_sigma_g_in_range_runs(tmp_path, command):
    # 1e-154 passes the sigma check although -u / sigma_g^2 overflows at the
    # outer derivative taps; the taps are finite and the run succeeds.
    src = write_pnm(tmp_path / "a.pgm",
                    ImageBuffer(np.random.default_rng(1).random((8, 8))))
    assert main(command + ["--sigma-g=1e-154", src, str(tmp_path / "b.pgm")]) == 0


@pytest.mark.parametrize("value", ["inf", "nan", "1e-300", "1e-160"])
@pytest.mark.parametrize("command", [["filter", "--mode", "multilateral"], ["texture"]])
def test_sigma_g_out_of_range_is_usage_error(tmp_path, command, value, capsys):
    src = write_pnm(tmp_path / "a.pgm",
                    ImageBuffer(np.random.default_rng(1).random((8, 8))))
    code = main(command + [f"--sigma-g={value}", src, str(tmp_path / "b.pgm")])
    assert code == 2
    assert "sigma-g" in capsys.readouterr().err


def test_filter_invalid_mode(tmp_path, gray_file, capsys):
    code = main(["filter", "--mode", "sharpen", gray_file, str(tmp_path / "o.pgm")])
    assert code == 2
    assert "mode" in capsys.readouterr().err


def test_missing_input_is_io_failure(tmp_path, capsys):
    code = main(["filter", str(tmp_path / "absent.pgm"), str(tmp_path / "o.pgm")])
    assert code == 1


def test_malformed_image_is_io_failure(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n\x00\x01")  # truncated
    code = main(["filter", str(bad), str(tmp_path / "o.pgm")])
    assert code == 1
    assert "byte offset" in capsys.readouterr().err


def test_malformed_image_names_path_and_offset_once(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P4\n2 2\n" + bytes(2))
    assert main(["filter", str(bad), str(tmp_path / "o.pgm")]) == 1
    err = capsys.readouterr().err
    assert f"{bad}: expected P5 or P6 magic, got b'P4' (byte offset 0)\n" in err
    assert err.count("byte offset") == 1


def test_out_of_memory_is_io_failure_in_one_line(tmp_path, gray_file, capsys, monkeypatch):
    # numpy's MemoryError names the array it could not allocate.
    message = "Unable to allocate 32.0 MiB for an array with shape (4, 1024, 1024)"

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("edgekeep.texture.local_energy", exhausted)
    assert main(["filter", "--mode", "multilateral", gray_file, str(tmp_path / "o.pgm")]) == 1
    assert capsys.readouterr().err == f"edgekeep: error: {message}\n"
    assert [path.name for path in tmp_path.iterdir()] == ["in.pgm"]


@pytest.mark.parametrize("argv, outputs", [
    (["filter", "in.pgm", "o.pgm"], ["o.pgm"]),
    (["bench", "r", "in.pgm"], ["r/bench.csv", "r/bench.md"])])
def test_failed_write_leaves_old_outputs_and_no_partial_file(
        tmp_path, gray_file, capsys, monkeypatch, argv, outputs):
    monkeypatch.chdir(tmp_path)
    for name in outputs:
        Path(name).parent.mkdir(exist_ok=True)
        Path(name).write_text(f"old {name}")

    def disk_full(path, data):  # writes half, then fails as a full disk does
        with open(path, "wb") as file:
            file.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(Path, "write_bytes", disk_full)
    assert main(argv) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert {str(path) for path in Path().rglob("*") if path.is_file()} == {"in.pgm", *outputs}
    assert all(Path(name).read_text() == f"old {name}" for name in outputs)


def test_config_file_and_flag_override(tmp_path, gray_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "average", "radius": 3}))
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    assert main(["filter", "--config", str(cfg), gray_file, str(out1)]) == 0
    # flag overrides the file's radius
    assert main(["filter", "--config", str(cfg), "--radius", "1",
                 gray_file, str(out2)]) == 0
    assert out1.read_bytes() != out2.read_bytes()


def test_unknown_config_key_rejected(tmp_path, gray_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "average", "sigma-x": 1.0}))
    code = main(["filter", "--config", str(cfg), gray_file, str(tmp_path / "o.pgm")])
    assert code == 2
    assert "sigma-x" in capsys.readouterr().err


@pytest.mark.parametrize("content, reason", [
    (b"{", "Expecting property name"),
    (b"[" * 100000 + b"]" * 100000, "maximum recursion depth"),
    (bytes(range(256)), "codec can't decode"),
], ids=["truncated", "deeply-nested", "binary"])
def test_undecodable_config_is_usage_error(tmp_path, gray_file, capsys, content, reason):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code = main(["filter", "--config", str(cfg), gray_file, str(tmp_path / "o.pgm")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"edgekeep: error: config {cfg} is not valid JSON: ")
    assert reason in err and "Traceback" not in err


def _echo_line(capsys) -> str:
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("config: ")]
    assert len(lines) == 1
    return lines[0][len("config: "):]


def _positionals(command, tmp_path, gray_file):
    if command == "metrics":
        return [gray_file, gray_file]
    if command == "bench":
        return [str(tmp_path / "bench"), gray_file]
    return [gray_file, str(tmp_path / "out.pgm")]


def test_config_echo_round_trips(tmp_path, gray_file, capsys):
    non_default_flags = {
        "filter": ["--mode", "multilateral", "--sigma-d", "1.5"],
        "texture": ["--energy-radius", "3", "--smooth-threshold", "0.01"],
        "add-noise": ["--noise", "gaussian", "--std", "0.2", "--seed", "7"],
        "metrics": ["--report", "csv"],
        "bench": ["--seed", "5"],
    }
    cfg = tmp_path / "echo.json"
    for command, flags in non_default_flags.items():
        positionals = _positionals(command, tmp_path, gray_file)
        assert main([command] + flags + positionals) == 0
        echoed = _echo_line(capsys)
        cfg.write_text(echoed)
        assert main([command, "--config", str(cfg)] + positionals) == 0
        assert _echo_line(capsys) == echoed


DEFAULT_ECHO = {
    "filter": {"mode": "bilateral", "radius": 2, "sigma-d": 2.0, "sigma-r": 0.1,
               "sigma-t": 1.0, "passes": 1, "sigma-g": 1.0, "energy-radius": 2,
               "smooth-threshold": None, "complex-ratio": 0.8},
    "texture": {"sigma-g": 1.0, "energy-radius": 2, "smooth-threshold": None,
                "complex-ratio": 0.8},
    "add-noise": {"noise": "salt-pepper", "density": 0.05, "std": 0.05, "seed": 0},
    "metrics": {"report": "text"},
    "bench": {"seed": 20260809},
}


@pytest.mark.parametrize("command", list(DEFAULT_ECHO))
def test_default_config_echo(tmp_path, gray_file, capsys, command):
    assert main([command] + _positionals(command, tmp_path, gray_file)) == 0
    echoed = json.loads(_echo_line(capsys))
    assert echoed == DEFAULT_ECHO[command]
    assert {key: type(v) for key, v in echoed.items()} == \
        {key: type(v) for key, v in DEFAULT_ECHO[command].items()}


LIBRARY_FIELDS = ("window_radius", "energy_window_radius", "energy_radius", "sigma_d",
                  "sigma_r", "sigma_t", "sigma_g", "smooth_threshold", "complex_ratio",
                  "kind", "base_seed")

# Every numeric option of every command, each with a value outside its domain.
OUT_OF_RANGE = [
    ("filter", "radius", 0), ("filter", "sigma-d", -1.0), ("filter", "sigma-r", -1.0),
    ("filter", "sigma-t", 0.0), ("filter", "passes", 0), ("filter", "passes", 101),
    ("filter", "passes", 1000000000), ("filter", "passes", 1e300), ("filter", "sigma-g", 0.0),
    ("filter", "energy-radius", 0), ("filter", "smooth-threshold", -1.0),
    ("filter", "smooth-threshold", math.nan), ("filter", "complex-ratio", 2.0),
    ("texture", "sigma-g", 0.0), ("texture", "energy-radius", 0),
    ("texture", "smooth-threshold", -1.0), ("texture", "smooth-threshold", math.nan),
    ("texture", "complex-ratio", 2.0),
    ("add-noise", "density", 2.0), ("add-noise", "std", -1.0),
    ("add-noise", "std", math.nan), ("add-noise", "std", math.inf), ("add-noise", "seed", 1.5),
    ("bench", "seed", 1.5),
    ("filter", "sigma-d", True), ("texture", "smooth-threshold", True),
    ("add-noise", "density", False),
]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, flag, value", OUT_OF_RANGE)
def test_out_of_range_option_names_flag(tmp_path, gray_file, capsys, command, flag,
                                        value, via):
    if via == "flag":
        options = [f"--{flag}={value}"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag: value}))
        options = ["--config", str(cfg)]
    extra = ["--mode", "multilateral"] if command == "filter" else []
    code = main([command] + extra + options + _positionals(command, tmp_path, gray_file))
    err = capsys.readouterr().err
    assert code == 2
    assert re.search(rf"(?<![\w-])(--)?{flag}(?![\w-])", err), err
    assert not re.search(rf"\b({'|'.join(LIBRARY_FIELDS)})\b", err), err
    assert "config: " not in err


@pytest.mark.parametrize("argv, flag", [
    (["filter", "--radius=100000"], "radius"),
    (["filter", "--mode=multilateral", "--energy-radius=100000"], "energy-radius"),
    (["texture", "--energy-radius=100000"], "energy-radius"),
    (["texture", "--sigma-g=1e5"], "sigma-g"),
    (["texture", "--sigma-g=1e150"], "sigma-g"),
])
def test_radius_above_image_bound_is_usage_error(tmp_path, capsys, argv, flag):
    src = write_pnm(tmp_path / "a.pgm",
                    ImageBuffer(np.random.default_rng(1).random((8, 8))))
    code = main(argv + [src, str(tmp_path / "b.pgm")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"edgekeep: error: {flag} ") and "64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["filter", "--radius=65536"], "radius"),
    (["filter", "--radius=4"], "radius"),
    (["filter", "--mode=multilateral", "--radius=3000"], "radius"),
    (["texture", "--energy-radius=65536"], "energy-radius"),
    (["texture", "--sigma-g=21845"], "sigma-g"),
])
def test_radius_padding_a_thin_image_past_the_area_bound_is_usage_error(tmp_path, capsys,
                                                                        argv, flag):
    # A 1 x 65536 image allows r <= 3: its padded area (1 + 2r)(65536 + 2r) may
    # not pass 9 times its own area.
    thin = ImageBuffer(np.random.default_rng(2).random((1, 65536)))
    src = write_pnm(tmp_path / "thin.pgm", thin)
    assert main(["filter", "--radius=3", src, str(tmp_path / "b.pgm")]) == 0
    capsys.readouterr()
    assert main(argv + [src, str(tmp_path / "b.pgm")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"edgekeep: error: {flag} ") and "pads the 1 x 65536 image" in err
    assert "Traceback" not in err


def test_radius_bound_is_largest_of_image_side_and_floor(tmp_path):
    small = write_pnm(tmp_path / "a.pgm", ImageBuffer(np.zeros((8, 8))))
    wide = write_pnm(tmp_path / "w.pgm", ImageBuffer(np.zeros((2, 70))))
    out = str(tmp_path / "b.pgm")
    assert main(["texture", "--energy-radius=64", small, out]) == 0
    assert main(["texture", "--energy-radius=65", small, out]) == 2
    assert main(["texture", "--energy-radius=70", wide, out]) == 0
    assert main(["texture", "--energy-radius=71", wide, out]) == 2
    # bilateral never classifies texture, so only its own radius is bounded
    assert main(["filter", "--energy-radius=100000", "--sigma-g=1e5", small, out]) == 0


def test_texture_settings_are_checked_only_in_multilateral_mode(tmp_path, capsys):
    src = write_pnm(tmp_path / "a.pgm", ImageBuffer(np.random.default_rng(1).random((8, 8))))
    out = str(tmp_path / "b.pgm")
    for mode in ("bilateral", "average"):
        assert main(["filter", f"--mode={mode}", "--sigma-g=0", src, out]) == 0
    assert main(["filter", "--mode=multilateral", "--sigma-g=0", src, out]) == 2
    assert "sigma-g" in capsys.readouterr().err


def test_passes_bound_is_inclusive(tmp_path):
    src = write_pnm(tmp_path / "a.pgm", ImageBuffer(np.random.default_rng(1).random((8, 8))))
    out = str(tmp_path / "b.pgm")
    assert main(["filter", "--passes=100", src, out]) == 0
    assert main(["filter", "--passes=101", src, out]) == 2


def test_readme_flags_match_parser(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("\nFlags:"):].split("\n\n")[0]
    documented = set(re.findall(r"`(--[a-z-]+)`", paragraph))
    in_parser = set()
    for command in DEFAULT_ECHO:
        assert main([command, "--help"]) == 0
        in_parser |= set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert documented == in_parser - {"--help"}


_ELAPSED = r"\d+\.\d{3}s"


def test_image_commands_print_the_config_then_their_timing_line(tmp_path, gray_file, capsys):
    filter_config = ('{"complex-ratio": 0.8, "energy-radius": 2, "mode": "bilateral", '
                     '"passes": 2, "radius": 2, "sigma-d": 2.0, "sigma-g": 1.0, '
                     '"sigma-r": 0.1, "sigma-t": 1.0, "smooth-threshold": null}')
    texture_config = ('{"complex-ratio": 0.8, "energy-radius": 2, "sigma-g": 1.0, '
                      '"smooth-threshold": null}')
    noise_config = '{"density": 0.05, "noise": "salt-pepper", "seed": 0, "std": 0.05}'
    runs = {
        "filter": [re.escape(f"config: {filter_config}"),
                   rf"filtered 10x12 in {_ELAPSED} \({_ELAPSED}/pass\)"],
        "texture": [re.escape(f"config: {texture_config}"), f"classified 10x12 in {_ELAPSED}"],
        "add-noise": [re.escape(f"config: {noise_config}")],  # no timing line
    }
    for command, patterns in runs.items():
        extra = ["--passes=2"] if command == "filter" else []
        assert main([command] + extra + [gray_file, str(tmp_path / "o.pgm")]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == len(patterns), lines
        for line, pattern in zip(lines, patterns):
            assert re.fullmatch(pattern, line), line


def test_texture_constant_input_all_smooth_level(tmp_path):
    src = tmp_path / "flat.pgm"
    write_pnm(src, ImageBuffer(np.full((16, 16), 0.5)))
    out = tmp_path / "tex.pgm"
    assert main(["texture", str(src), str(out)]) == 0
    img = load_pnm(out.read_bytes())
    assert (img.width, img.height) == (16, 16)
    assert np.all(img.pixels == 0.0)


def test_texture_grating_interior_level(tmp_path):
    src = tmp_path / "grating.pgm"
    write_pnm(src, grating(32, "x"))
    out = tmp_path / "tex.pgm"
    assert main(["texture", str(src), str(out)]) == 0
    data = out.read_bytes()
    img = load_pnm(data)
    margin = steerable_radius(1.0) + 2
    inner = img.pixels[margin:-margin, margin:-margin]
    assert np.all(inner == 102 / 255.0)  # ORIENT_0 export level


def test_add_noise_deterministic(tmp_path, gray_file):
    a = tmp_path / "a.pgm"
    b = tmp_path / "b.pgm"
    args = ["add-noise", "--noise", "salt-pepper", "--density", "0.1", "--seed", "9"]
    assert main(args + [gray_file, str(a)]) == 0
    assert main(args + [gray_file, str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != (tmp_path / "in.pgm").read_bytes()


def test_add_noise_bad_kind(tmp_path, gray_file, capsys):
    code = main(["add-noise", "--noise", "speckle", gray_file, str(tmp_path / "o.pgm")])
    assert code == 2
    assert "noise" in capsys.readouterr().err


def test_metrics_text_identical_pair(tmp_path, gray_file, capsys):
    assert main(["metrics", gray_file, gray_file]) == 0
    out = capsys.readouterr().out
    assert "snr_db=identical" in out
    assert "ep_horizontal=1.000000" in out
    assert "ep_vertical=1.000000" in out


def test_metrics_csv_and_markdown(tmp_path, gray_file, capsys):
    noisy = tmp_path / "noisy.pgm"
    assert main(["add-noise", "--seed", "4", gray_file, str(noisy)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--report", "csv", gray_file, str(noisy)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "snr_db,ep_horizontal,ep_vertical"
    assert len(lines[1].split(",")) == 3
    assert main(["metrics", "--report", "markdown", gray_file, str(noisy)]) == 0
    md = capsys.readouterr().out
    assert md.startswith("| metric | value |")


def test_metrics_clean_reference_reported_separately(tmp_path, gray_file, capsys):
    noisy = tmp_path / "noisy.pgm"
    assert main(["add-noise", "--seed", "4", gray_file, str(noisy)]) == 0
    capsys.readouterr()
    assert main(["metrics", "--clean", gray_file, str(noisy), str(noisy)]) == 0
    out = capsys.readouterr().out
    assert "snr_clean_db=" in out and "snr_db=identical" in out


def test_metrics_bad_report_format(gray_file, capsys):
    assert main(["metrics", "--report", "yaml", gray_file, gray_file]) == 2
    assert "report" in capsys.readouterr().err


def test_metrics_shape_mismatch_is_usage_error(tmp_path, gray_file, capsys):
    other = write_pnm(tmp_path / "other.pgm", ImageBuffer(np.zeros((3, 3))))
    assert main(["metrics", gray_file, other]) == 2
    assert "shapes differ" in capsys.readouterr().err


def test_bench_writes_reports_and_is_deterministic(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert main(["bench", str(out1), "--seed", "5"]) == 0
    assert main(["bench", str(out2), "--seed", "5"]) == 0
    csv1 = (out1 / "bench.csv").read_bytes()
    assert csv1 == (out2 / "bench.csv").read_bytes()
    assert (out1 / "bench.md").read_bytes() == (out2 / "bench.md").read_bytes()
    header = csv1.decode().splitlines()[0]
    assert header == "image,noise,param,filter,snr_db,ep_h,ep_v"


def test_bench_threads_env_does_not_change_output(tmp_path, monkeypatch):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["bench", str(serial), "--seed", "6"]) == 0
    monkeypatch.setenv("EDGEKEEP_THREADS", "4")
    assert main(["bench", str(threaded), "--seed", "6"]) == 0
    assert (serial / "bench.csv").read_bytes() == (threaded / "bench.csv").read_bytes()


def test_bench_missing_images_listed(tmp_path, capsys):
    code = main(["bench", str(tmp_path / "r"), str(tmp_path / "nope.pgm")])
    assert code == 1
    assert "nope.pgm" in capsys.readouterr().err


def test_bench_user_images(tmp_path):
    img = tmp_path / "custom.pgm"
    write_pnm(img, step_edge(24))
    out = tmp_path / "r"
    assert main(["bench", str(out), str(img), "--seed", "3"]) == 0
    csv = (out / "bench.csv").read_text()
    assert "custom," in csv


def test_bench_reports_quote_any_image_name(tmp_path):
    # Each file stem becomes an `image` cell, whatever characters or bytes
    # the file name holds.
    stems = ["a,b", 'q"t', "c|d", "e\nf", "g\rh", os.fsdecode(b"\xff")]
    paths = [write_pnm(tmp_path / f"{stem}.pgm", step_edge(16)) for stem in stems]
    out = tmp_path / "r"
    assert main(["bench", str(out), *paths, "--seed", "3"]) == 0
    with open(out / "bench.csv", newline="", encoding="utf-8", errors="surrogateescape") as f:
        rows = list(csv_module.reader(f))
    assert {len(row) for row in rows} == {7}
    assert {row[0] for row in rows[1:]} >= set(stems)
    table_rows = [line for line in (out / "bench.md").read_bytes().split(b"\n")
                  if line.startswith(b"|")]
    assert len(table_rows) == len(rows) - 1 + 6  # a header and a rule per section
    assert {len(re.split(rb"(?<!\\)\|", row)) - 2 for row in table_rows} == {7}


def test_option_defaults_match_the_library():
    # OPTIONS repeats each library default; neither side may change alone. The
    # report format and the noise kind have none in the library: the CLI's own.
    library = {"filter": (FilterParams, filter_image), "texture": (TextureParams,),
               "add-noise": (NoiseSpec,), "bench": (run_bench,)}
    checked = []
    for opt in OPTIONS:
        if opt.commands == ("metrics",):
            continue
        found = [parameters[opt.field]
                 for make in {make for command in opt.commands for make in library[command]}
                 if opt.field in (parameters := inspect.signature(make).parameters)]
        assert len(found) == 1, opt.flag
        if (default := found[0].default) is inspect.Parameter.empty:
            continue
        default = default.value if isinstance(default, Enum) else default
        assert (default, type(default)) == (opt.default, type(opt.default)), opt.flag
        checked.append(opt.flag)
    assert len(checked) == len(OPTIONS) - 2


def test_usage_error_without_command(capsys):
    assert main([]) == 2


# --- fuzz ---

# Valid values stay small, so every draw runs in milliseconds on 8x8 images.
_VALID = {
    "mode": st.sampled_from(["bilateral", "multilateral", "average"]),
    "radius": st.integers(1, 3), "passes": st.integers(1, 2),
    "energy-radius": st.integers(1, 3),
    "sigma-d": st.floats(0.1, 10.0), "sigma-r": st.floats(0.01, 1.0),
    "sigma-t": st.floats(0.01, 100.0) | st.just(math.inf), "sigma-g": st.floats(0.3, 2.0),
    "smooth-threshold": st.floats(0.0, 1.0), "complex-ratio": st.floats(0.05, 1.0),
    "noise": st.sampled_from(["salt-pepper", "gaussian"]),
    "density": st.floats(0.0, 1.0), "std": st.floats(0.0, 1.0),
    "seed": st.integers(-2**70, 2**70),
    "report": st.sampled_from(["text", "csv", "markdown"]),
}
# Radii past the bound of every fuzzed image: 64 for the 8 x 8 ones, and
# below 8 for the thin ones, whose padded area bounds them (image.AREA_FACTOR).
for flag in ("radius", "energy-radius"):
    _VALID[flag] |= st.integers(65, 2**17)
_VALID["sigma-g"] |= st.floats(21.5, 2.0**17)  # steerable radius 66 and up
# Out of every option's range, or of its type; none of these is a small
# valid radius or pass count.
_INVALID = st.one_of(
    st.just(math.nan), st.floats(max_value=0.0), st.integers(max_value=0),
    st.floats(min_value=1e6), st.integers(min_value=10**6), st.text(max_size=4),
    st.booleans(), st.none(), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_FUZZ_COMMANDS = ("filter", "texture", "add-noise", "metrics")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    write_pnm(path / "gray.pgm", ImageBuffer(rng.random((8, 8))))
    write_pnm(path / "rgb.ppm", ImageBuffer(rng.random((8, 8, 3))))
    write_pnm(path / "row.pgm", ImageBuffer(rng.random((1, 4096))))
    write_pnm(path / "column.pgm", ImageBuffer(rng.random((4096, 1))))
    write_pnm(path / "two-rows.ppm", ImageBuffer(rng.random((2, 4096, 3))))
    return path


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exits_0_1_or_2(fuzz_dir, data):
    command = data.draw(st.sampled_from(_FUZZ_COMMANDS))
    # Half the draws hold only valid values, so the runs that succeed are
    # not rare.
    broken = data.draw(st.booleans())
    flags = [opt.flag for opt in OPTIONS if command in opt.commands] + ["bogus"] * broken

    def value(flag):
        valid = _VALID.get(flag, _INVALID)
        return data.draw(valid | _INVALID if broken else valid)

    argv = [command]
    for flag in data.draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv.append(f"--{flag}={value(flag)}")
    if data.draw(st.booleans()):
        keys = data.draw(st.lists(st.sampled_from(flags), max_size=4, unique=True))
        config = {flag: value(flag) for flag in keys}
        if broken:
            config = data.draw(st.just(config) | _INVALID)
        (fuzz_dir / "config.json").write_text(json.dumps(config))
        argv += ["--config", str(fuzz_dir / "config.json")]
    images = st.sampled_from(["gray.pgm", "rgb.ppm", "row.pgm", "column.pgm", "two-rows.ppm",
                              "absent.pgm"])
    argv.append(str(fuzz_dir / data.draw(images)))
    if command == "metrics":
        argv.append(str(fuzz_dir / data.draw(images)))
        if data.draw(st.booleans()):
            argv += ["--clean", str(fuzz_dir / data.draw(images))]
    else:
        argv.append(str(fuzz_dir / "out.pnm"))
    assert main(argv) in (0, 1, 2)
