"""Command-line harness: pipelines, sweeps, exit codes, determinism."""

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gvflow as gv
from gvflow import cli
from gvflow import ioformats as io
from gvflow.cli import (
    EXIT_DIVERGENCE,
    EXIT_IO,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VALIDATION,
    build_mask,
    build_parser,
    foreground_bbox,
    main,
)


@pytest.fixture(scope="module")
def u64(tmp_path_factory):
    path = tmp_path_factory.mktemp("img") / "u64.pgm"
    io.write_pgm(io.synth_ushape(64, 64), path)
    return path


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A 16x16 image with a bright rectangle, and a stored field of it."""
    d = tmp_path_factory.mktemp("tiny")
    a = np.zeros((16, 16))
    a[5:11, 4:12] = 255.0
    io.write_pgm(gv.ScalarField.from_array(a), d / "tiny.pgm")
    rng = np.random.default_rng(11)
    io.write_field(gv.VectorField.from_arrays(rng.random((16, 16)), rng.random((16, 16))),
                   d / "field.gvf")
    return d / "tiny.pgm", d / "field.gvf"


@pytest.fixture(scope="module")
def u128(tmp_path_factory):
    path = tmp_path_factory.mktemp("img") / "u128.pgm"
    io.write_pgm(io.synth_ushape(128, 128), path)
    return path


def summary_of(out_dir):
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def without_wall(summary):
    out = dict(summary)
    out.pop("wall_ms", None)
    return out


class TestSynth:
    def test_writes_pgm(self, tmp_path):
        out = tmp_path / "d.pgm"
        assert main(["synth", "--shape", "disk", "--width", "64", "--height", "64",
                     "--cx", "32", "--cy", "32", "--radius", "10",
                     "--out-image", str(out)]) == EXIT_OK
        img = io.read_pgm(out)
        assert img.values[32, 32] == 255

    def test_disk_requires_geometry(self, tmp_path):
        assert main(["synth", "--shape", "disk", "--width", "64", "--height", "64",
                     "--out-image", str(tmp_path / "d.pgm")]) == EXIT_VALIDATION

    @pytest.mark.parametrize("shape", ["ushape", "box-hole", "disk"])
    @pytest.mark.parametrize("width, height", [(10**12, 10**12), (2049, 2048), (2, 64),
                                               (64, -5), (-4, -4)])
    def test_size_out_of_range_is_validation_error(self, tmp_path, capsys, shape, width,
                                                   height):
        # checked before the image is allocated: 10**24 pixels would not fit
        out = tmp_path / "x.pgm"
        code = main(["synth", "--shape", shape, "--width", str(width), "--height", str(height),
                     "--cx", "32", "--cy", "32", "--radius", "10", "--out-image", str(out)])
        assert code == EXIT_VALIDATION
        assert "synthetic image" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shape, flags, message", [
        ("ushape", ["--radius", "5", "--cx", "3", "--hole-box", "1,1,2,2"],
         "--hole-box applies to --shape box-hole only"),
        ("ushape", ["--radius", "5"], "--radius applies to --shape disk only"),
        ("box-hole", ["--cy", "3"], "--cy applies to --shape disk only"),
        ("disk", ["--cx", "32", "--cy", "32", "--radius", "10", "--hole-box", "1,1,2,2"],
         "--hole-box applies to --shape box-hole only"),
    ])
    def test_flag_of_another_shape_is_validation_error(self, tmp_path, capsys, shape, flags,
                                                        message):
        out = tmp_path / "x.pgm"
        code = main(["synth", "--shape", shape, "--width", "64", "--height", "64", *flags,
                     "--out-image", str(out)])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_gvf_artifacts_and_summary(self, u64, tmp_path):
        out = tmp_path / "run"
        code = main(["gvf", "--image", str(u64), "--out", str(out),
                     "--g", "2.0", "--h", "0.05", "--delta", "1e-3"])
        assert code == EXIT_OK
        for name in ("field.gvf", "field_magnitude.ppm", "field_arrows.ppm", "summary.json"):
            assert (out / name).exists()
        s = summary_of(out)
        assert s["converged"] is True and s["NI"] >= 1
        assert s["pixel_updates"] == s["NI"] * s["inside_count"]
        # the run is reconstructible: every solver knob is in the summary
        for key in ("g", "h", "dt", "delta", "threshold", "t_max", "sigma"):
            assert key in s["effective_config"]

    def test_constant_image_one_iteration_zero_field(self, tmp_path):
        img = tmp_path / "c.pgm"
        io.write_pgm(gv.ScalarField.from_array(np.full((16, 16), 80.0)), img)
        out = tmp_path / "run"
        assert main(["gvf", "--image", str(img), "--out", str(out)]) == EXIT_OK
        s = summary_of(out)
        assert s["NI"] == 1 and s["converged"] is True
        field = io.read_field(out / "field.gvf")
        assert np.all(field.u.values == 0) and np.all(field.v.values == 0)

    @pytest.mark.parametrize("command, flags", [("gvf", ["--h", "0.2"]), ("ggvf", ["--k", "1"])])
    def test_periodic_summary_residual_uses_the_periodic_stencil(self, tmp_path, command, flags):
        img = tmp_path / "r.pgm"
        io.write_pgm(gv.ScalarField.from_array(
            255.0 * np.random.default_rng(3).random((24, 24))), img)
        out = tmp_path / "run"
        assert main([command, "--image", str(img), "--out", str(out), "--periodic",
                     "--delta", "1e-12", "--t-max", "100000", *flags]) == EXIT_OK
        s = summary_of(out)
        assert s["converged"] is True and s["residual"] <= 1e-9

    def test_validation_failure_names_constraint(self, u64, tmp_path, capsys):
        code = main(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                     "--g", "2.5", "--delta", "1e-3"])
        assert code == EXIT_VALIDATION
        assert "r < 1/4" in capsys.readouterr().err

    def test_ggvf_validation_failure_names_constraint(self, u64, tmp_path, capsys):
        code = main(["ggvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                     "--dt", "0.3"])
        assert code == EXIT_VALIDATION
        assert "r < 1/4" in capsys.readouterr().err

    def test_nan_snake_parameter_is_validation_error(self, u64, tmp_path, capsys):
        code = main(["ggvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                     "--delta", "0.05", "--snake", "31.5,31.5,25", "--b", "nan"])
        assert code == EXIT_VALIDATION
        assert "b must be finite and >= 0" in capsys.readouterr().err

    def test_missing_image_is_io_error(self, tmp_path):
        assert main(["gvf", "--image", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "x")]) == EXIT_IO

    def test_divergence_exit_code(self, u64, tmp_path):
        code = main(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                     "--g", "1.5", "--h", "0.0", "--dt", "0.2", "--force"])
        assert code == EXIT_DIVERGENCE

    def test_forced_overflow_is_divergence_without_a_warning(self, tiny, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["gvf", "--image", str(tiny[0]), "--out", str(tmp_path / "x"),
                         "--g", "1e300", "--dt", "0.1", "--t-max", "5", "--force"])
        assert code == EXIT_DIVERGENCE

    def test_nonconvergence_exit_code(self, u64, tmp_path):
        code = main(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                     "--delta", "1e-12", "--t-max", "5"])
        assert code == EXIT_NO_CONVERGENCE
        s = summary_of(tmp_path / "x")
        assert s["converged"] is False and s["NI"] == 5

    def test_byte_identical_reruns(self, u64, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["gvf", "--image", str(u64), "--out", str(out),
                         "--h", "0.05", "--delta", "1e-3"]) == EXIT_OK
            outs.append(out)
        a, b = outs
        for name in ("field.gvf", "field_magnitude.ppm", "field_arrows.ppm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert without_wall(summary_of(a)) == without_wall(summary_of(b))

    def test_config_file_and_flag_precedence(self, u64, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 1.0, "h": 0.05, "delta": 1e-3}))
        out = tmp_path / "run"
        assert main(["gvf", "--image", str(u64), "--out", str(out),
                     "--config", str(cfg), "--g", "2.0"]) == EXIT_OK
        echoed = json.loads(capsys.readouterr().out.splitlines()[0])
        assert echoed["effective_config"]["g"] == 2.0   # flag wins
        assert echoed["effective_config"]["h"] == 0.05  # config beats default

    def test_masked_run_records_smaller_domain(self, u128, tmp_path):
        out_full = tmp_path / "full"
        out_hole = tmp_path / "hole"
        common = ["--image", str(u128), "--h", "0.05", "--delta", "1e-3", "--threshold", "4"]
        assert main(["gvf", *common, "--out", str(out_full)]) == EXIT_OK
        assert main(["gvf", *common, "--out", str(out_hole),
                     "--inner-box", "56,40,12,12"]) == EXIT_OK
        full, hole = summary_of(out_full), summary_of(out_hole)
        assert hole["inside_count"] == full["inside_count"] - 144
        field = io.read_field(out_hole / "field.gvf")
        assert np.all(field.u.values[40:52, 56:68] == 0)


class TestSnakeCommand:
    def test_ggvf_with_snake_end_to_end(self, u128, tmp_path):
        out = tmp_path / "run"
        code = main(["ggvf", "--image", str(u128), "--out", str(out),
                     "--delta", "0.05", "--snake", "63.5,63.5,50",
                     "--b", "0.1", "--tensile-sign", "-1.0",
                     "--snake-iters", "30000"])
        assert code == EXIT_OK
        s = summary_of(out)
        assert s["snake"]["converged"] is True
        assert (out / "contour.csv").exists() and (out / "snake_overlay.ppm").exists()
        pts = io.read_contour(out / "contour.csv")
        assert len(pts) >= 4

    def test_standalone_snake_on_stored_field(self, tmp_path):
        img = tmp_path / "disk.pgm"
        io.write_pgm(io.synth_disk(128, 128, 64, 64, 25), img)
        run = tmp_path / "field_run"
        assert main(["ggvf", "--image", str(img), "--out", str(run),
                     "--delta", "0.02"]) == EXIT_OK
        out = tmp_path / "snake_run"
        code = main(["snake", "--field", str(run / "field.gvf"), "--out", str(out),
                     "--init-circle", "64,64,40", "--b", "0.2",
                     "--tensile-sign", "-1.0", "--snake-iters", "20000"])
        assert code == EXIT_OK
        pts = io.read_contour(out / "contour.csv")
        d = np.abs(np.hypot(pts[:, 0] - 64, pts[:, 1] - 64) - 25)
        assert d.mean() < 1.5


class TestTypedErrors:
    """Malformed input ends in a typed error and its exit code, never a traceback."""

    @pytest.fixture
    def stored_field(self, tmp_path):
        path = tmp_path / "field.gvf"
        rng = np.random.default_rng(3)
        io.write_field(gv.VectorField.from_arrays(rng.random((32, 32)), rng.random((32, 32))),
                       path)
        return path

    def run(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_infinite_snake_step_is_validation_error(self, stored_field, tmp_path, capsys):
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-circle", "16,16,8", "--step", "inf"], capsys)
        assert code == EXIT_VALIDATION
        assert "step must be finite" in err

    def test_overflowing_snake_displacement_is_divergence_without_a_warning(
            self, stored_field, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(["snake", "--field", str(stored_field),
                                  "--out", str(tmp_path / "s"), "--init-circle", "15.5,15.5,12",
                                  "--b", "1e308"], capsys)
        assert code == EXIT_DIVERGENCE
        assert "non-finite snaxel displacement (iteration 3)" in err
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
    def test_bad_force_scale_is_validation_error(self, stored_field, tmp_path, capsys, scale):
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-circle", "16,16,8", "--force-scale", scale], capsys)
        assert code == EXIT_VALIDATION
        assert "--force-scale" in err

    @pytest.mark.parametrize("circle", ["a,b,c", "16,16", "16,16,nan", "16,16,8,x"])
    def test_malformed_init_circle_is_validation_error(self, stored_field, tmp_path, capsys,
                                                       circle):
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-circle", circle], capsys)
        assert code == EXIT_VALIDATION
        assert "cx,cy,r[,n]" in err

    def test_malformed_snake_circle_fails_before_the_solve(self, u64, tmp_path, capsys):
        out = tmp_path / "x"
        code, err = self.run(["ggvf", "--image", str(u64), "--out", str(out),
                              "--snake", "a,b,c"], capsys)
        assert code == EXIT_VALIDATION
        assert "cx,cy,r[,n]" in err
        assert not (out / "field.gvf").exists()

    @pytest.mark.parametrize("box", ["a,1,2,3", "1,2,3"])
    def test_malformed_inner_box_is_validation_error(self, u64, tmp_path, capsys, box):
        code, err = self.run(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                              "--inner-box", box], capsys)
        assert code == EXIT_VALIDATION
        assert "x,y,w,h" in err

    def test_malformed_sweep_list_is_validation_error(self, u64, tmp_path, capsys):
        code, err = self.run(["sweep", "--image", str(u64), "--out", str(tmp_path / "sw"),
                              "--g-list", "1,x"], capsys)
        assert code == EXIT_VALIDATION
        assert "'1,x'" in err

    @pytest.mark.parametrize("margins", ["abc", "none;1.5"])
    def test_malformed_outer_list_is_validation_error(self, u64, tmp_path, capsys, margins):
        out = tmp_path / "sw"
        code, err = self.run(["sweep", "--image", str(u64), "--out", str(out),
                              "--outer-list", margins], capsys)
        assert code == EXIT_VALIDATION
        assert "--outer-list" in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["nan", "inf", "-1", "1e300"])
    def test_bad_sigma_is_validation_error(self, tiny, tmp_path, capsys, sigma):
        out = tmp_path / "x"
        code, err = self.run(["gvf", "--image", str(tiny[0]), "--out", str(out),
                              "--sigma", sigma], capsys)
        assert code == EXIT_VALIDATION
        assert "sigma" in err
        assert not (out / "field.gvf").exists()

    @pytest.mark.parametrize("stride", ["0", "-4"])
    def test_nonpositive_render_stride_is_validation_error(self, stored_field, tmp_path, capsys,
                                                           stride):
        code, err = self.run(["render", "--field", str(stored_field), "--mode", "arrows",
                              "--out-image", str(tmp_path / "r.ppm"), "--stride", stride],
                             capsys)
        assert code == EXIT_VALIDATION
        assert "stride" in err

    @pytest.mark.parametrize("line", ["3,x", "3", "3,4,5", "nan,4"])
    def test_malformed_contour_is_format_error(self, stored_field, tmp_path, capsys, line):
        contour = tmp_path / "c.csv"
        contour.write_text(f"1,1\n20,1\n{line}\n1,20\n")
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-contour", str(contour)], capsys)
        assert code == EXIT_IO
        assert "line 3" in err

    @pytest.mark.parametrize("command", ["gvf", "ggvf", "snake"])
    @pytest.mark.parametrize("peak", ["0", "-1", "nan", "inf"])
    def test_bad_force_peak_is_validation_error(self, u64, stored_field, tmp_path, capsys,
                                                command, peak):
        out = tmp_path / "x"
        if command == "snake":
            argv = ["snake", "--field", str(stored_field), "--init-circle", "16,16,8"]
        else:
            argv = [command, "--image", str(u64), "--snake", "31.5,31.5,20"]
        code, err = self.run(argv + ["--out", str(out), "--force-peak", peak], capsys)
        assert code == EXIT_VALIDATION
        assert "--force-peak" in err
        assert not (out / "field.gvf").exists()

    @pytest.mark.parametrize("config, message", [
        ({"g": "abc"}, "config key 'g'"),
        ({"t_max": 2.5}, "config key 't_max'"),
        ({"force": "yes"}, "config key 'force'"),
        ({"gg": 3}, "unknown config key(s): 'gg'"),
        ({"stride": 8}, "unknown config key(s): 'stride'"),
    ])
    def test_bad_config_is_validation_error(self, u64, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, err = self.run(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                              "--config", str(cfg)], capsys)
        assert code == EXIT_VALIDATION
        assert message in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("line_no, text, message", [
        (3, "nan 0.5", "non-finite value pair on line 4"),
        (2, "nan 1", "grid spacing"),
    ])
    def test_malformed_field_file_is_format_error(self, stored_field, tmp_path, capsys,
                                                  line_no, text, message):
        lines = stored_field.read_text().splitlines()
        lines[line_no] = text
        stored_field.write_text("\n".join(lines) + "\n")
        code, err = self.run(["render", "--field", str(stored_field), "--mode", "arrows",
                              "--out-image", str(tmp_path / "r.ppm")], capsys)
        assert code == EXIT_IO
        assert message in err

    @pytest.mark.parametrize("body, message", [
        (b"abc 1", "bad value pair on line 4"),
        (b"1 0.5 2", "bad value pair on line 4"),
        (b"1 \xc3\xa9", "non-ASCII byte in field file"),
    ])
    def test_bad_field_value_is_format_error(self, stored_field, tmp_path, capsys, body,
                                             message):
        lines = stored_field.read_bytes().splitlines()
        lines[3] = body
        stored_field.write_bytes(b"\n".join(lines) + b"\n")
        code, err = self.run(["render", "--field", str(stored_field), "--mode", "arrows",
                              "--out-image", str(tmp_path / "r.ppm")], capsys)
        assert code == EXIT_IO
        assert message in err

    def test_non_ascii_contour_is_format_error(self, stored_field, tmp_path, capsys):
        contour = tmp_path / "c.csv"
        contour.write_bytes(b"1,1\n20,1\n20,\xff20\n1,20\n")
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-contour", str(contour)], capsys)
        assert code == EXIT_IO
        assert "non-ASCII byte in contour file (byte offset 12)" in err

    @pytest.mark.parametrize("circle, message", [
        ("16,16,8,6.7", "must be an integer, got 6.7"),
        ("16,16,8,1e12", "count 1e+12 exceeds the 32x32 grid's 1024 pixels"),
        ("16,16,1e300", "exceeds the 32x32 grid's 1024 pixels"),
    ])
    def test_bad_init_circle_count_is_validation_error(self, stored_field, tmp_path, capsys,
                                                       circle, message):
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                              "--init-circle", circle], capsys)
        assert code == EXIT_VALIDATION
        assert message in err

    @pytest.mark.parametrize("circle, message", [
        ("31.5,31.5,20,6.7", "must be an integer"),
        ("31.5,31.5,20,4097", "count 4097 exceeds the 64x64 grid's 4096 pixels"),
    ])
    def test_bad_snake_circle_count_fails_before_the_solve(self, u64, tmp_path, capsys, circle,
                                                          message):
        out = tmp_path / "x"
        code, err = self.run(["ggvf", "--image", str(u64), "--out", str(out),
                              "--snake", circle], capsys)
        assert code == EXIT_VALIDATION
        assert message in err
        assert not (out / "field.gvf").exists()

    def test_integral_circle_count_is_accepted(self, stored_field, tmp_path, capsys):
        code, _ = self.run(["snake", "--field", str(stored_field), "--out", str(tmp_path / "s"),
                            "--init-circle", "16,16,8,24.0", "--snake-iters", "1"], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)

    def test_image_smaller_than_3x3_is_format_error(self, tmp_path, capsys):
        image = tmp_path / "tiny.pgm"
        image.write_bytes(b"P2\n2 2\n255\n0 255 255 0\n")
        code, err = self.run(["gvf", "--image", str(image), "--out", str(tmp_path / "x")],
                             capsys)
        assert code == EXIT_IO
        assert "at least 3x3" in err

    def test_huge_p2_header_is_format_error(self, tmp_path, capsys):
        # 10**10 samples would take 74.5 GiB; refused before the raster is allocated
        image = tmp_path / "huge.pgm"
        image.write_bytes(b"P2\n100000 100000\n255\n0 255 255 0\n")
        out = tmp_path / "x"
        code, err = self.run(["gvf", "--image", str(image), "--out", str(out)], capsys)
        assert code == EXIT_IO
        assert "truncated raster" in err
        assert not (out / "field.gvf").exists()

    def test_overflowing_snake_spacing_is_divergence(self, tmp_path, capsys):
        # perimeter / spacing is inf: past the snaxel cap, not an OverflowError
        image = tmp_path / "u32.pgm"
        io.write_pgm(io.synth_ushape(32, 32), image)
        code, err = self.run(["gvf", "--image", str(image), "--out", str(tmp_path / "x"),
                              "--snake", "16,16,10", "--spacing", "1e-320"], capsys)
        assert code == EXIT_DIVERGENCE
        assert "past the cap of 1024" in err

    @pytest.mark.parametrize("cx, cy, radius", [("nan", "24", "10"), ("24", "nan", "10"),
                                               ("24", "24", "nan")])
    def test_non_finite_disk_geometry_is_validation_error(self, tmp_path, capsys, cx, cy,
                                                          radius):
        out = tmp_path / "d.pgm"
        code, err = self.run(["synth", "--shape", "disk", "--width", "48", "--height", "48",
                              "--cx", cx, "--cy", cy, "--radius", radius,
                              "--out-image", str(out)], capsys)
        assert code == EXIT_VALIDATION
        assert "disk geometry must be finite" in err
        assert not out.exists()

    def test_tiny_ggvf_k_leaks_no_warning(self, tiny, tmp_path, capsys):
        # |grad f|^2 / K^2 overflows to inf off the flat pixels: weight 0 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = self.run(["ggvf", "--image", str(tiny[0]), "--out", str(tmp_path / "x"),
                                "--k", "1e-158", "--t-max", "5"], capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)

    def test_ggvf_k_whose_square_underflows_is_validation_error(self, tiny, tmp_path, capsys):
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(["ggvf", "--image", str(tiny[0]), "--out", str(out),
                                  "--k", "1e-200"], capsys)
        assert code == EXIT_VALIDATION
        assert "K must be > 0 with K*K > 0" in err
        assert not (out / "field.gvf").exists()

    def test_config_that_is_not_json_is_format_error(self, u64, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{g: 1")
        code, err = self.run(["gvf", "--image", str(u64), "--out", str(tmp_path / "x"),
                              "--config", str(cfg)], capsys)
        assert code == EXIT_IO
        assert "not valid JSON" in err


SOLVE = {"dt", "delta", "threshold", "t_max", "sigma", "edge_sign"}
DOMAIN = {"force", "periodic", "outer_margin", "inner_box"}
SNAKE = {"b", "gamma", "step", "eps", "snake_iters", "spacing", "normalize", "tensile_sign",
         "force_peak"}
# the configurable flags each command reads, and so echoes
READS = {
    "gvf": {"g", "h"} | SOLVE | DOMAIN | SNAKE,
    "ggvf": {"k"} | SOLVE | DOMAIN | SNAKE,
    "snake": SNAKE,
    "spectral": {"g", "h"} | SOLVE,
    "sweep": {"g", "h", "force"} | SOLVE,
}
# flags that name files; the fuzzing below leaves them alone
PATH_FLAGS = {"image", "out", "field", "config", "init_contour", "out_image", "contour"}


def subparser(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def base_argv(command, tiny, out):
    image, field = tiny
    if command == "synth":
        return ["synth", "--shape", "disk", "--width", "48", "--height", "48",
                "--cx", "24", "--cy", "24", "--radius", "10", "--out-image", str(out)]
    if command == "snake":
        return ["snake", "--field", str(field), "--out", str(out), "--init-circle", "7.5,7.5,5"]
    if command == "render":
        return ["render", "--field", str(field), "--mode", "arrows",
                "--out-image", str(out / "r.ppm")]
    return [command, "--image", str(image), "--out", str(out)]


def short_run(command):
    """Caps that keep a run on the 16x16 image short, for the flags the command has."""
    dests = {a.dest for a in subparser(command)._actions}
    return (["--t-max", "5"] if "t_max" in dests else []) + (
        ["--snake-iters", "5"] if "snake_iters" in dests else [])


class TestCommandLine:
    """Each command takes exactly the flags it reads, without abbreviations;
    a malformed command line is a validation error, not a SystemExit."""

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    @pytest.mark.parametrize("command", sorted(READS))
    def test_echo_holds_exactly_the_registered_flags(self, tiny, tmp_path, capsys, command):
        registered = {a.dest for a in subparser(command)._actions} & set(cli._FLAGS)
        assert registered == READS[command]
        out = tmp_path / "run"
        code, captured = self.run(base_argv(command, tiny, out) + short_run(command), capsys)
        assert code in (EXIT_OK, EXIT_NO_CONVERGENCE)
        echoed = json.loads(captured.out.splitlines()[0])["effective_config"]
        assert set(echoed) == registered
        if command != "sweep":
            assert set(summary_of(out)["effective_config"]) == registered

    @pytest.mark.parametrize("command, flags", [
        # flags the command does not read
        ("gvf", ["--k", "5"]),
        ("ggvf", ["--g", "3"]),
        ("ggvf", ["--h", "0.5"]),
        ("spectral", ["--k", "5"]),
        ("spectral", ["--periodic"]),
        ("spectral", ["--force"]),
        ("spectral", ["--outer-margin", "3"]),
        ("spectral", ["--inner-box", "1,1,2,2"]),
        ("sweep", ["--k", "5"]),
        ("sweep", ["--periodic"]),
        ("sweep", ["--outer-margin", "3"]),
        ("sweep", ["--inner-box", "1,1,2,2"]),
        ("render", ["--config", "cfg.json"]),
        # prefixes of flags: --gamma, --help, --eps, --threshold
        ("snake", ["--g", "3"]),
        ("snake", ["--h", "0.5"]),
        ("gvf", ["--ep", "0.5", "--thr", "4"]),
        # unknown flags and values that do not parse
        ("gvf", ["--bogus"]),
        ("gvf", ["--g", "abc"]),
        ("snake", ["--snake-iters", "2.5"]),
        ("gvf", ["--edge-sign", "up"]),
        ("render", ["--stride", "x"]),
    ])
    def test_malformed_command_line_is_validation_error(self, tiny, tmp_path, capsys, command,
                                                        flags):
        out = tmp_path / "x"
        code, captured = self.run(base_argv(command, tiny, out) + flags, capsys)
        assert code == EXIT_VALIDATION
        assert captured.err.startswith("error: gvflow")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], ["gvf"], ["spectral", "--image", "x.pgm"]])
    def test_missing_command_or_required_flag_is_validation_error(self, capsys, argv):
        code, captured = self.run(argv, capsys)
        assert code == EXIT_VALIDATION
        assert "required" in captured.err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ggvf", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--k" in text and "--g " not in text

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_any_argv_ends_in_a_documented_exit_code(self, tiny, data):
        command = data.draw(st.sampled_from(["synth", "gvf", "ggvf", "snake", "spectral",
                                             "sweep", "render"]))
        actions = [a for a in subparser(command)._actions
                   if a.option_strings and a.dest not in PATH_FLAGS | {"help"}]
        token = st.one_of(
            st.text(max_size=8),
            st.floats().map(repr),
            st.integers().map(str),
            st.lists(st.integers(-40, 40), min_size=1, max_size=5).map(
                lambda v: ",".join(map(str, v))),
        )
        flags = []
        for action in data.draw(st.lists(st.sampled_from(actions), max_size=4)):
            flags.append(action.option_strings[0])
            if action.nargs != 0:
                flags.append(data.draw(token))
        with tempfile.TemporaryDirectory() as d:
            argv = base_argv(command, tiny, Path(d) / "out") + flags + short_run(command)
            err = StringIO()
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in range(5)
        assert "Traceback" not in err.getvalue()


def json_values():
    """Arbitrary JSON values, with the floats that break arithmetic drawn often."""
    edge = st.sampled_from([5e-324, 1e-320, 1e-200, 1e-158, -0.0, 1e308, math.inf, -math.inf,
                            math.nan, 2**63, -(2**63), 10**30])
    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), edge,
                        st.text(max_size=8), edge.map(repr))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=6)


class TestConfigFuzz:
    """A config file of _FLAGS keys, unknown keys and arbitrary JSON values
    ends every command in a documented exit code, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["gvf", "ggvf", "snake", "spectral", "sweep"]),
           config=st.dictionaries(st.one_of(st.sampled_from(sorted(cli._FLAGS)),
                                            st.text(max_size=6)),
                                  json_values(), max_size=4))
    # perimeter / spacing overflows to inf at the first resampling
    @example(command="gvf", config={"spacing": 5e-324})
    @example(command="snake", config={"spacing": 5e-324})
    @example(command="ggvf", config={"k": 1e-200})
    def test_any_config_ends_in_a_documented_exit_code(self, tiny, command, config):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "cfg.json"
            path.write_text(json.dumps(config))
            argv = base_argv(command, tiny, Path(d) / "out") + short_run(command)
            if command == "gvf":
                argv += ["--snake", "7.5,7.5,5"]
            err = StringIO()
            with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--config", str(path)])
        assert code in range(5)
        assert "Traceback" not in err.getvalue()


class TestConfigRoundTrip:
    def test_effective_config_of_a_run_is_a_valid_config(self, u64, tmp_path):
        # the echoed configuration holds "inf", null and a box as a list
        first, second = tmp_path / "a", tmp_path / "b"
        common = ["--image", str(u64), "--delta", "1e-3", "--inner-box", "28,20,8,12"]
        assert main(["gvf", "--out", str(first)] + common) == EXIT_OK
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(summary_of(first)["effective_config"]))
        assert main(["gvf", "--image", str(u64), "--out", str(second),
                     "--config", str(cfg)]) == EXIT_OK
        assert (first / "field.gvf").read_bytes() == (second / "field.gvf").read_bytes()


class TestColdStart:
    def test_cli_commands_load_no_scipy(self, tmp_path):
        # no gvflow code imports scipy; only the test suite uses it, as a reference
        script = f"""
import sys
from pathlib import Path
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
from gvflow.cli import main
if scipy_modules():
    sys.exit(f"import gvflow.cli loaded {{scipy_modules()[:3]}}")
d = Path({str(tmp_path)!r})
runs = [
    ["synth", "--shape", "ushape", "--width", "32", "--height", "32",
     "--out-image", str(d / "u.pgm")],
    ["gvf", "--image", str(d / "u.pgm"), "--out", str(d / "g"), "--t-max", "50",
     "--snake", "15.5,15.5,10", "--snake-iters", "20"],
    ["ggvf", "--image", str(d / "u.pgm"), "--out", str(d / "gg"), "--t-max", "50"],
    ["snake", "--field", str(d / "gg" / "field.gvf"), "--out", str(d / "s"),
     "--init-circle", "15.5,15.5,10", "--snake-iters", "20"],
    ["spectral", "--image", str(d / "u.pgm"), "--out", str(d / "sp"), "--t-max", "50"],
    ["sweep", "--image", str(d / "u.pgm"), "--out", str(d / "sw"), "--t-max", "50"],
    ["render", "--field", str(d / "g" / "field.gvf"), "--mode", "arrows",
     "--out-image", str(d / "r.ppm")],
]
for argv in runs:
    code = main(argv)
    if code not in (0, 4) or scipy_modules():
        sys.exit(f"{{argv[0]}} exited {{code}} and loaded {{scipy_modules()[:3]}}")
print("ok")
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(gv.__file__).resolve().parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "ok"


class TestSpectralCommand:
    def test_reports_small_error(self, u64, tmp_path, capsys):
        out = tmp_path / "spec"
        code = main(["spectral", "--image", str(u64), "--out", str(out),
                     "--g", "1.0", "--h", "0.1", "--delta", "1e-10",
                     "--t-max", "50000"])
        assert code == EXIT_OK
        s = summary_of(out)
        assert s["relative_l2_error"] < 1e-8
        assert s["steady_energy"] <= s["source_energy"] * (1 + 1e-9)


class TestSweep:
    def test_table_and_failed_rows(self, u64, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--image", str(u64), "--out", str(out),
                     "--g-list", "1.0,2.0,2.5", "--h-list", "0.05",
                     "--delta", "1e-3"])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "g,h,dt,delta,T,d_in,d_out,NI,converged,residual,wall_ms,error"
        assert len(lines) == 4
        # the g = 2.5 row fails validation but the sweep continues
        assert "r < 1/4" in lines[3]
        assert lines[1].split(",")[7] != ""

    def test_row_order_lexicographic_and_deterministic(self, u64, tmp_path):
        def run(name):
            out = tmp_path / name
            assert main(["sweep", "--image", str(u64), "--out", str(out),
                         "--g-list", "1.0,2.0", "--h-list", "0.02,0.05",
                         "--delta", "1e-3"]) == EXIT_OK
            rows = (out / "sweep.csv").read_text().splitlines()
            return [",".join(np.array(r.split(","))[[0, 1, 7, 8]]) for r in rows[1:]]

        a, b = run("a"), run("b")
        assert a == b
        gs = [row.split(",")[0] for row in a]
        assert gs == ["1.0", "1.0", "2.0", "2.0"]

    def test_outer_and_inner_lists(self, u128, tmp_path):
        out = tmp_path / "sw"
        code = main(["sweep", "--image", str(u128), "--out", str(out),
                     "--h-list", "0.05", "--delta", "1e-3", "--threshold", "4",
                     "--outer-list", "none;16", "--inner-list", "none;56,40,12,12"])
        assert code == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5
        assert any("16" == line.split(",")[6] for line in lines[1:])


class TestRenderCommand:
    def test_render_with_overlay(self, u64, tmp_path):
        run = tmp_path / "run"
        assert main(["gvf", "--image", str(u64), "--out", str(run),
                     "--h", "0.05", "--delta", "1e-3"]) == EXIT_OK
        contour = tmp_path / "c.csv"
        io.write_contour(np.array([[5.0, 5], [20, 5], [20, 20], [5, 20]]), contour)
        out = tmp_path / "r.ppm"
        assert main(["render", "--field", str(run / "field.gvf"),
                     "--mode", "direction-hue", "--out-image", str(out),
                     "--contour", str(contour)]) == EXIT_OK
        assert out.exists()


class TestMaskHelpers:
    def test_foreground_bbox(self):
        img = io.synth_ushape(64, 64)
        assert foreground_bbox(img) == (16, 16, 32, 32)
        flat = gv.ScalarField.from_array(np.full((8, 8), 3.0))
        assert foreground_bbox(flat) is None

    def test_outer_margin_clips_to_frame(self):
        img = io.synth_ushape(64, 64)
        near = build_mask(img, 4, None)
        assert near.inside_count == (32 + 8) ** 2
        wide = build_mask(img, 60, None)
        assert wide.is_full

    def test_real_window_crop_barely_moves_iteration_count(self):
        # shrinking the active window down to a 16 px margin around the
        # object leaves the iteration count within the 15% band
        img = io.synth_ushape(128, 128)
        f = gv.edge_map(img, sigma=2.0)
        p = gv.GvfParams(g=2.0, h=0.02, dt=0.12, delta=1e-4, cap=4.0, max_iter=60000)
        full = gv.gvf_solve(f, p)
        cropped = gv.gvf_solve(f, p, build_mask(img, 16, None))
        assert cropped.inside_count < full.inside_count
        assert cropped.iterations <= full.iterations * 1.15
