"""Command-line harness: pipelines, sweeps, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from io import StringIO
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

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
from test_fingerprints import rational_ring
from test_solver import traced_peak


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

    @pytest.mark.parametrize("shape, flags", [
        ("ushape", ["--cx", "5"]),
        ("box-hole", ["--radius", "5"]),
        ("disk", ["--cx", "5", "--cy", "5", "--radius", "3", "--hole-box", "1,1,2,2"]),
    ])
    def test_flag_of_another_shape_is_refused_before_the_image_is_built(
            self, tmp_path, monkeypatch, shape, flags):
        built = []
        for name in ("synth_ushape", "synth_box_with_hole", "synth_disk"):
            monkeypatch.setattr(io, name, lambda *args, name=name: built.append(name))
        code = main(["synth", "--shape", shape, "--width", "2048", "--height", "2048", *flags,
                     "--out-image", str(tmp_path / "x.pgm")])
        assert code == EXIT_VALIDATION and built == []


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
        # the error line is validate_params' worst-case violation, word for word
        violations = gv.validate_params(gv.GgvfParams(dt=0.3))
        assert violations == ["stability violated: dt*max(h + 4g + 4*sqrt(g*max g)) = 2.4 >= 2 "
                              "(r < 1/4 at h = 0) (GGVF worst case g = 1, h = 0)"]
        assert capsys.readouterr().err == f"error: {violations[0]}\n"

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

    @pytest.mark.parametrize("command", ["snake", "render"])
    def test_stored_field_commands_peak_below_seven_arrays(self, tmp_path, command):
        # traced peak at 256^2 in H x W float64 arrays: the field read in
        # two, the scaled force in two more, the overlay's magnitude and
        # image; the reader used to hold twenty
        rng = np.random.default_rng(53)
        field = gv.VectorField.from_arrays(rng.normal(size=(256, 256)),
                                           rng.normal(size=(256, 256)))
        io.write_field(field, tmp_path / "field.gvf")
        argv = {"snake": ["snake", "--field", str(tmp_path / "field.gvf"), "--out",
                          str(tmp_path / "run"), "--init-circle", "127.5,127.5,100",
                          "--force-scale", "4", "--snake-iters", "20"],
                "render": ["render", "--field", str(tmp_path / "field.gvf"), "--mode",
                           "direction-hue", "--out-image", str(tmp_path / "hue.ppm")]}[command]
        main(argv)  # the first run's one-time costs are not the command's
        assert traced_peak(lambda: main(argv), field.spec) <= 7


# a small circle in the U's corner that shrinks to a point in 50 steps
COLLAPSING = ["--b", "0.5", "--tensile-sign", "-1", "--eps", "0.002", "--snake-iters", "5000"]


class TestRunEnd:
    """How a run of gvf, ggvf, snake, spectral or sweep ends: summary.json is
    written however a run that made its artifact directory ends, and the
    exit code follows the solve and the snake."""

    @pytest.fixture
    def u48(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        io.write_pgm(io.synth_ushape(48, 48), "u48.pgm")
        return ["--image", "u48.pgm", "--sigma", "0", "--threshold", "40"]

    def test_collapsed_snake_exits_4_with_the_solve_in_the_summary(self, u48, capsys):
        assert main(["gvf", *u48, "--out", "c", "--snake", "6,6,4,16", *COLLAPSING]) == 4
        s = summary_of(Path("c"))
        assert s["converged"] is True and s["NI"] > 0 and s["residual"] > 0
        assert s["snake"] == {"iterations": 50, "converged": False, "snaxels": 4,
                              "collapsed": True}
        assert "error" not in s and s["wall_ms"] > 0
        assert len(io.read_contour("c/contour.csv")) == 4
        # the stored field, scaled by the gvf run's gradient peak (the threshold)
        assert main(["snake", "--field", "c/field.gvf", "--out", "cs", "--init-circle",
                     "6,6,4,16", "--force-scale", "40", *COLLAPSING]) == 4
        assert without_wall(summary_of(Path("cs"))) == {
            "command": "snake", "field": "c/field.gvf",
            "effective_config": summary_of(Path("cs"))["effective_config"],
            **s["snake"], "artifacts": list(cli._SNAKE_ARTIFACTS)}
        assert capsys.readouterr().err == ""

    def test_snake_divergence_after_the_solve_keeps_the_solve_in_the_summary(self, u48,
                                                                            capsys):
        assert main(["gvf", *u48, "--out", "d", "--snake", "24,24,20,32",
                     "--b", "1e308"]) == EXIT_DIVERGENCE
        s = summary_of(Path("d"))
        assert s["NI"] > 0 and s["residual"] > 0 and "snake" not in s
        assert s["error"] == "non-finite snaxel displacement (iteration 3)"
        assert capsys.readouterr().err == f"error: {s['error']}\n"
        assert s["artifacts"] == ["field.gvf", "field_magnitude.ppm", "field_arrows.ppm"]

    @pytest.mark.parametrize("argv, code", [
        (["gvf", "--dt", "1"], EXIT_VALIDATION),
        (["spectral", "--h", "0"], EXIT_VALIDATION),
    ])
    def test_error_after_the_directory_is_made_is_in_the_summary(self, u48, capsys, argv,
                                                                 code):
        assert main([*argv, *u48, "--out", "e"]) == code
        s = summary_of(Path("e"))
        assert capsys.readouterr().err == f"error: {s['error']}\n"
        assert set(s) == {"command", "image", "effective_config", "wall_ms", "error"}

    def test_sweep_summary_holds_the_frame_rows_and_table(self, u48, capsys):
        assert main(["sweep", *u48, "--out", "sw", "--g-list", "1,2", "--t-max", "50"]) == 0
        s = summary_of(Path("sw"))
        assert without_wall(s) == {
            "command": "sweep", "image": "u48.pgm", "effective_config": s["effective_config"],
            "rows": 2, "artifacts": ["sweep.csv"]}
        assert s["effective_config"]["sigma"] == 0 and s["effective_config"]["t_max"] == 50
        assert len(Path("sw/sweep.csv").read_text().splitlines()) == 3
        assert capsys.readouterr().err == ""

    def test_sweep_with_a_missing_image_leaves_the_error_in_the_summary(self, u48, capsys):
        assert main(["sweep", "--image", "missing.pgm", "--out", "m"]) == EXIT_IO
        s = summary_of(Path("m"))
        assert capsys.readouterr().err == f"error: {s['error']}\n"
        assert "missing.pgm" in s["error"]
        assert set(s) == {"command", "image", "effective_config", "wall_ms", "error"}

    @pytest.mark.parametrize("flags, message", [
        ([], "need --init-circle or --init-contour"),
        (["--init-circle", "6,6,4", "--force-scale", "0"], "--force-scale must be finite"),
        (["--init-circle", "1,2"], "expected finite cx,cy,r[,n]"),
        (["--init-circle", "6,6,-4"], "circle radius must be > 0"),
        (["--init-circle", "6,6,0,16"], "circle radius must be > 0"),
        (["--init-circle", "6,6,4,3"], "at least 4 snaxels"),
        # pi * r, the default count, is past the float range
        (["--init-circle", "24,24,1e308"], "no finite default snaxel count"),
        # the contour path was never read: the circle won
        (["--init-circle", "24,24,20,32", "--init-contour", "missing.csv"],
         "--init-circle and --init-contour exclude each other"),
    ])
    def test_snake_flag_errors_make_no_directory(self, tmp_path, capsys, flags, message):
        code = main(["snake", "--field", "missing.gvf", "--out", str(tmp_path / "bad"), *flags])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and message in err and "Traceback" not in err
        assert not (tmp_path / "bad").exists()

    def test_snake_circle_past_the_float_range_makes_no_directory(self, tmp_path, capsys):
        code = main(["gvf", "--image", "missing.pgm", "--out", str(tmp_path / "bad"),
                     "--snake", "24,24,1e308"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION and "no finite default snaxel count" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bad").exists()


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

    @pytest.mark.parametrize("peak, scale", [(1.0, "1e-310"), (1e300, "1e-10")])
    def test_force_scale_past_the_float_range_is_validation_error(self, tmp_path, capsys, peak,
                                                                   scale):
        # zero rows, as a masked solve leaves them, would make 0 * inf a NaN
        u = np.zeros((32, 32))
        u[2:-2, 2:-2] = peak
        path = tmp_path / "field.gvf"
        io.write_field(gv.VectorField.from_arrays(u, u), path)
        out = tmp_path / "s"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(["snake", "--field", str(path), "--out", str(out),
                                  "--init-circle", "16,16,8", "--force-scale", scale], capsys)
        assert code == EXIT_VALIDATION
        assert f"--force-peak 0.3 over the gradient peak {float(scale)!r}" in err
        assert "float range" in err
        assert not (out / "contour.csv").exists()

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

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    @pytest.mark.parametrize("command", ["gvf", "ggvf"])
    def test_memory_exhaustion_is_a_size_error(self, tmp_path, command):
        # a 4096^2 image in a process whose address space is capped at
        # 600 MiB: each H x W array takes 128 MiB, so the run cannot get
        # its memory, and ends as a validation error with its summary
        image = tmp_path / "big.pgm"
        image.write_bytes(b"P5\n4096 4096\n255\n" + bytes(range(256)) * (4096 * 16))
        out = tmp_path / "x"
        cap = 600 * 2**20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            [str(Path(gv.__file__).resolve().parent.parent)]
            + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        run = subprocess.run(
            [sys.executable, "-m", "gvflow.cli", command, "--image", str(image), "--out", str(out),
             "--sigma", "0", "--t-max", "2"],
            env=env, capture_output=True, text=True, timeout=300,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        assert run.returncode == EXIT_VALIDATION, run.stderr
        assert "Traceback" not in run.stderr
        message = f"{command} ran out of memory on the 4096x4096 grid"
        assert run.stderr == f"error: {message}\n"
        assert summary_of(out)["error"] == message

    @pytest.mark.parametrize("stage, grid", [("read_field", ""),
                                             ("snake_evolve", " on the 32x32 grid")])
    def test_memory_exhaustion_names_the_grid_once_it_is_read(self, stored_field, tmp_path,
                                                             capsys, monkeypatch, stage, grid):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(io if stage == "read_field" else cli, stage, exhausted)
        out = tmp_path / "s"
        code, err = self.run(["snake", "--field", str(stored_field), "--out", str(out),
                              "--init-circle", "16,16,8"], capsys)
        assert code == EXIT_VALIDATION
        assert err == f"error: snake ran out of memory{grid}\n"
        assert summary_of(out)["error"] == f"snake ran out of memory{grid}"

    @pytest.mark.parametrize("stride", [str(2**25), str(10**400)],
                             ids=["2**25", "10**400"])
    def test_render_stride_past_the_image_draws_no_arrow(self, tmp_path, capsys, stride):
        # peak just above 2**-1000, so the field is not rescaled: stride /
        # peak overflowed for 2**25 and raised OverflowError for 10**400
        rng = np.random.default_rng(5)
        field = tmp_path / "tiny.gvf"
        io.write_field(gv.VectorField.from_arrays(
            *np.ldexp(rng.uniform(1.0, 1.1, (2, 16, 16)), -1000)), field)
        out = tmp_path / "r.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = self.run(["render", "--field", str(field), "--mode", "arrows",
                                  "--out-image", str(out), "--stride", stride], capsys)
        assert code == 0 and err == ""
        assert out.read_bytes() == b"P6\n16 16\n255\n" + bytes(16 * 16 * 3)

    def test_memory_exhaustion_without_a_summary_is_a_size_error(self, stored_field, tmp_path,
                                                                 capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(io, "render", exhausted)
        code, err = self.run(["render", "--field", str(stored_field), "--mode", "arrows",
                              "--out-image", str(tmp_path / "r.ppm")], capsys)
        assert code == EXIT_VALIDATION
        assert err == "error: render ran out of memory\n"

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


    def test_negative_infinity_is_echoed_with_its_sign(self, u64, tmp_path, capsys):
        main(["gvf", "--image", str(u64), "--out", str(tmp_path / "g"), "--threshold=-inf",
              "--t-max", "5"])
        echoed = json.loads(capsys.readouterr().out.splitlines()[0])["effective_config"]
        assert echoed["threshold"] == "-inf"


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

    @pytest.mark.parametrize("argv, message", [
        (["--h", "0"], "h must be finite and > 0"),
        (["--g", "1e308", "--h", "1e-10"], "g / h must be finite"),
    ])
    def test_oracle_checks_g_and_h_before_the_solve(self, u64, tmp_path, monkeypatch,
                                                     capsys, argv, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("gvf_solve ran before the oracle's checks")

        monkeypatch.setattr(cli, "gvf_solve", no_solve)
        code = main(["spectral", "--image", str(u64), "--out", str(tmp_path / "spec"),
                     "--delta", "1e-6", *argv])
        assert code == EXIT_VALIDATION
        assert message in capsys.readouterr().err


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


    def test_negative_infinite_T_keeps_its_sign(self, u64, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--image", str(u64), "--out", str(out), "--t-list=-inf,inf",
                     "--t-max", "5"]) == EXIT_OK
        with open(out / "sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["T"], r["error"]) for r in rows] == [
            ("-inf", "cap must be > 0, got -inf"), ("inf", "")]


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


def sha_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_without_wall(path) -> bytes:
    """summary.json's bytes without its wall_ms line."""
    lines = Path(path).read_bytes().splitlines(keepends=True)
    return b"".join(ln for ln in lines if not ln.startswith(b'  "wall_ms":'))


def sweep_without_wall(path) -> bytes:
    """sweep.csv re-serialized without its wall_ms column."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("wall_ms")
    buf = StringIO()
    csv.writer(buf).writerows(row[:col] + row[col + 1:] for row in rows)
    return buf.getvalue().encode()


# the effective-config echo of a gvf run with every flag at its default
GVF_ECHO = "1d0fb428c51e4b665a0d8c854bfc00ad34ce8eaef04fbbcef81d9c8e911d11eb"


class TestFingerprint:
    """The bytes of the CLI's artifacts, stdout, stderr and exit codes.

    The inputs avoid the platform's transcendental functions: a 48x48 U
    without smoothing, the GVF field (GGVF's weight calls exp) and a
    snake from a contour on a rational parameterization of the circle
    (--init-circle calls cos and sin).  The commands run in the
    artifact directory with relative paths, so the paths a summary
    records do not depend on where the test runs.  Wall times are left
    out.
    """

    # name -> (exit code, SHA-256 of stdout, stderr), or the SHA-256 of an artifact
    EXPECTED = {
        "gvf": (0, "6a786587458c1b180dcaf2d0b8275646efd9c11fa6d0d473a114f7e2db39c822", ""),
        "snake": (4, "13efa127e486b613a4a2c2b319c4976ede5388a95f4caee2985da205166a1f65", ""),
        "sweep": (0, "0f8cb2639ea0d9d288abfc0fb60be5e2100fb98f189f94d0003411f6e9cca3b6", ""),
        "circle": (1, GVF_ECHO, "error: expected finite cx,cy,r[,n] but got '1,2'\n"),
        "unstable": (1, "e4483aeafca88078edb5a228c9c0792dc386f9306c88d8fcfef2648e9cb854df",
                     "error: stability violated: dt*max(h + 4g + 4*sqrt(g*max g)) = 16.02 >= 2"
                     " (r < 1/4 at h = 0)\n"),
        "io": (2, GVF_ECHO, "error: [Errno 2] No such file or directory: 'missing.pgm'\n"),
        "geometry": (1, "5a39ac4533e4085976bd5567dad6ece7228c0cf866f9712d55476ce71e3de0b1",
                     "error: contour has (near) zero perimeter\n"),
        "field.gvf": "29053648caa549ba99b8ce757d93c0d2f82896c2a99935c9b20d2c7a8f90999e",
        "field_magnitude.ppm": "3cd7609c491bd585e46f1063089882caeb09e7d43eb6ae59eb47a14c35d9a444",
        "field_arrows.ppm": "f7e9d39df288b7c9461e55c206013f043f95bb9879f22781b5bb410d249589fa",
        "contour.csv": "dfea7fbdb89ee21c9e4f65d359c69cb56660d2a902215e88f60f3ed3b5691ff3",
        "snake_overlay.ppm": "67d293ede7fe0e2b23a56d0f9aed2457fe21b70b6a01cab07c6a659787ec0279",
        "run/summary.json": "da9d3a96c0188022f8d44d61012c1e05b3262026def8381e10ef32065f1beb56",
        "snake/summary.json": "c6d647f2993f3e1575bcc37bd71fa72780268c973ac23c33838e52682a10974d",
        "sweep.csv": "1e29f1f4c9ba0818dcfa3b4a107d3f4627b519f47b1804bea85b5145a491814e",
    }

    def run(self, capsys, *argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, sha_bytes(out.encode()), err

    def test_artifacts_streams_and_exit_codes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        io.write_pgm(io.synth_ushape(48, 48), "u48.pgm")
        io.write_contour(rational_ring(24.0, 24.0, 20.0, 32).points, "ring.csv")
        io.write_contour(np.full((4, 2), 5.0), "point.csv")
        got = {
            "gvf": self.run(capsys, "gvf", "--image", "u48.pgm", "--out", "run",
                            "--sigma", "0"),
            "snake": self.run(capsys, "snake", "--field", "run/field.gvf",
                              "--init-contour", "ring.csv", "--out", "snake", "--b", "0.05",
                              "--snake-iters", "400"),
            "sweep": self.run(capsys, "sweep", "--image", "u48.pgm", "--out", "sweep",
                              "--sigma", "0", "--g-list", "1,2,4"),
            "circle": self.run(capsys, "gvf", "--image", "u48.pgm", "--out", "bad",
                               "--snake", "1,2"),
            "unstable": self.run(capsys, "gvf", "--image", "u48.pgm", "--out", "unstable",
                                 "--sigma", "0", "--dt", "1"),
            "io": self.run(capsys, "gvf", "--image", "missing.pgm", "--out", "missing"),
            "geometry": self.run(capsys, "snake", "--field", "run/field.gvf",
                                 "--init-contour", "point.csv", "--out", "point"),
        }
        for name in ("field.gvf", "field_magnitude.ppm", "field_arrows.ppm"):
            got[name] = sha_bytes((tmp_path / "run" / name).read_bytes())
        for name in ("contour.csv", "snake_overlay.ppm"):
            got[name] = sha_bytes((tmp_path / "snake" / name).read_bytes())
        got["run/summary.json"] = sha_bytes(summary_without_wall("run/summary.json"))
        got["snake/summary.json"] = sha_bytes(summary_without_wall("snake/summary.json"))
        got["sweep.csv"] = sha_bytes(sweep_without_wall("sweep/sweep.csv"))
        assert not (tmp_path / "bad").exists()
        assert got == self.EXPECTED

    def test_pipeline_snake_matches_library_calls(self, tmp_path, monkeypatch, capsys):
        # the snake stage of gvf --snake: the force is scaled so the capped
        # source gradient's peak moves a snaxel force_peak pixels per step
        monkeypatch.chdir(tmp_path)
        image = io.synth_ushape(48, 48)
        io.write_pgm(image, "u48.pgm")
        code = main(["gvf", "--image", "u48.pgm", "--out", "run", "--sigma", "0",
                     "--threshold", "40", "--snake", "24,24,20,32", "--snake-iters", "300",
                     "--b", "0.05"])
        capsys.readouterr()
        f = gv.edge_map(image)
        report = gv.gvf_solve(f, gv.GvfParams(g=2.0, h=0.02, dt=0.12, delta=1e-4, cap=40.0,
                                              max_iter=20000))
        peak = gv.clamp_magnitude(gv.gradient_central(f), 40.0).magnitude().max()
        scaled = gv.VectorField(report.field.spec, report.field.values * (0.3 / peak))
        result = gv.snake_evolve(gv.Snake.circle(24.0, 24.0, 20.0, 32), scaled,
                                 gv.SnakeParams(b=0.05, max_iter=300))
        io.write_contour(result.snake.points, "expected.csv")
        assert (tmp_path / "run" / "contour.csv").read_bytes() == Path("expected.csv").read_bytes()
        assert summary_of(tmp_path / "run")["snake"] == {
            "iterations": result.iterations, "converged": result.converged,
            "snaxels": len(result.snake)}
        assert code == (EXIT_OK if report.converged and result.converged else EXIT_NO_CONVERGENCE)

    def test_spectral_summary_matches_library_calls(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        image = io.synth_ushape(48, 48)
        io.write_pgm(image, "u48.pgm")
        code = main(["spectral", "--image", "u48.pgm", "--out", "spec", "--sigma", "0",
                     "--g", "1", "--h", "0.1", "--delta", "1e-8"])
        printed = json.loads(capsys.readouterr().out.splitlines()[-1])
        f = gv.edge_map(image)
        grad = gv.gradient_central(f)
        report = gv.gvf_solve(f, gv.GvfParams(g=1.0, h=0.1, dt=0.12, delta=1e-8,
                                              max_iter=20000), periodic=True)
        exact = gv.spectral_steady_state(grad, 1.0, 0.1)
        du = report.field.u.values - exact.u.values
        dv = report.field.v.values - exact.v.values
        rel = math.sqrt(float((du**2 + dv**2).sum())) / math.sqrt(
            float((exact.u.values**2 + exact.v.values**2).sum()))
        s = summary_of(tmp_path / "spec")
        assert code == EXIT_OK and report.converged
        assert printed == {"relative_l2_error": rel}
        assert without_wall(s) == {
            "command": "spectral", "image": "u48.pgm", "effective_config": s["effective_config"],
            "NI": report.iterations, "converged": True, "relative_l2_error": rel,
            "source_energy": gv.parseval_energy(grad),
            "steady_energy": gv.parseval_energy(exact)}
