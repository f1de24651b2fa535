"""CLI behavior: commands, config handling, exit codes, and determinism."""

import json

import numpy as np
import pytest

from edgekeep.cli import main
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


def test_config_echo_round_trips(tmp_path, gray_file, capsys):
    out = tmp_path / "out.pgm"
    assert main(["filter", "--mode", "multilateral", "--sigma-d", "1.5",
                 gray_file, str(out)]) == 0
    err = capsys.readouterr().err
    echoed = next(line for line in err.splitlines() if line.startswith("config: "))
    cfg = tmp_path / "echo.json"
    cfg.write_text(echoed[len("config: "):])
    assert main(["filter", "--config", str(cfg), gray_file, str(out)]) == 0
    err2 = capsys.readouterr().err
    echoed2 = next(line for line in err2.splitlines() if line.startswith("config: "))
    assert echoed2 == echoed


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
