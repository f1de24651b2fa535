"""CLI behavior: commands, config handling, exit codes, and determinism."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edgekeep.cli import OPTIONS, main
from edgekeep.image import ImageBuffer, load_pnm, save_pnm
from edgekeep.synth import grating, step_edge
from edgekeep.texture import steerable_radius


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
    images = st.sampled_from(["gray.pgm", "rgb.ppm", "absent.pgm"])
    argv.append(str(fuzz_dir / data.draw(images)))
    if command == "metrics":
        argv.append(str(fuzz_dir / data.draw(images)))
        if data.draw(st.booleans()):
            argv += ["--clean", str(fuzz_dir / data.draw(images))]
    else:
        argv.append(str(fuzz_dir / "out.pnm"))
    assert main(argv) in (0, 1, 2)
