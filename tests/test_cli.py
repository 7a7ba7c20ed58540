"""End to end tests of the command line interface."""

import dataclasses
import errno
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvinpaint
from mvinpaint import Mask, SolverConfig, cli, errors
from mvinpaint.fileio import read_mask, read_mvi, write_mask, write_mvi
from mvinpaint.synthetic import cut_mask, generate_spd_image, generate_sphere_image

from conftest import random_point


def run_cli(*args):
    return cli.run([str(a) for a in args])


def json_summary(err):
    lines = [ln for ln in err.strip().splitlines() if ln.startswith("{")]
    assert lines, f"no JSON summary on stderr: {err!r}"
    return json.loads(lines[-1])


class TestGenerate:
    def test_writes_sphere_image(self, tmp_path, capsys):
        out = tmp_path / "img.mvi"
        assert run_cli("generate", "--manifold", "s2",
                       "--rows", 8, "--cols", 10, "-o", out) == 0
        img = read_mvi(out)
        assert img.data.tobytes() == generate_sphere_image(8, 10).data.tobytes()
        summary = json_summary(capsys.readouterr().err)
        assert summary["command"] == "generate"
        assert summary["status"] == "ok"
        assert summary["output"] == str(out)

    def test_writes_spd_image(self, tmp_path, capsys):
        out = tmp_path / "img.mvi"
        assert run_cli("generate", "--manifold", "spd2",
                       "--rows", 6, "--cols", 6, "-o", out) == 0
        img = read_mvi(out)
        assert img.descriptor.kind == "spd"
        img.validate()

    def test_rejects_bad_dimensions(self, tmp_path, capsys):
        rc = run_cli("generate", "--manifold", "s2",
                     "--rows", 0, "--cols", 4, "-o", tmp_path / "x.mvi")
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestMaskCommand:
    def test_writes_hole_mask(self, tmp_path, capsys):
        out = tmp_path / "hole.pbm"
        assert run_cli("mask", "--rows", 8, "--cols", 8,
                       "--rect", "2,2,3,3", "-o", out) == 0
        mask = read_mask(out)
        assert np.array_equal(mask.known, cut_mask(8, 8, (2, 2, 3, 3)).known)
        summary = json_summary(capsys.readouterr().err)
        assert summary["unknown_pixels"] == 9
        assert summary["parameters"]["rect"] == [2, 2, 3, 3]

    def test_rejects_malformed_rect(self, tmp_path, capsys):
        rc = run_cli("mask", "--rows", 8, "--cols", 8,
                     "--rect", "1,2,3", "-o", tmp_path / "x.pbm")
        assert rc == 1

    def test_rejects_covering_rect(self, tmp_path, capsys):
        rc = run_cli("mask", "--rows", 4, "--cols", 4,
                     "--rect", "0,0,4,4", "-o", tmp_path / "x.pbm")
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestPipeline:
    def test_full_cycle(self, tmp_path, capsys):
        img_p = tmp_path / "truth.mvi"
        mask_p = tmp_path / "hole.pbm"
        out_p = tmp_path / "filled.mvi"
        ppm_p = tmp_path / "filled.ppm"

        assert run_cli("generate", "--manifold", "s2",
                       "--rows", 16, "--cols", 16, "-o", img_p) == 0
        assert run_cli("mask", "--rows", 16, "--cols", 16,
                       "--rect", "6,6,4,4", "-o", mask_p) == 0
        capsys.readouterr()

        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p, "-o", out_p,
                     "--k", 4, "--p", 2, "--r", 6,
                     "--eps", "1e-6", "--max-iter", 200)
        assert rc == 0
        summary = json_summary(capsys.readouterr().err)
        assert summary["command"] == "inpaint"
        assert summary["parameters"]["k"] == 4
        assert "solve_s" in summary["timings"]
        assert "total_s" in summary["timings"]
        assert len(summary["layers"]) >= 1
        for rec in summary["layers"]:
            assert set(rec) == {"index", "border_size", "active_size", "rounds",
                                "multi_support", "iterations", "residual", "converged",
                                "lipschitz", "sigma", "min_candidates", "graph_s", "solve_s"}
            assert 0 <= rec["multi_support"] <= rec["active_size"]
            assert rec["lipschitz"] > 0.0
            assert rec["sigma"] > 0.0
            assert rec["graph_s"] >= 0.0 and rec["solve_s"] >= 0.0
        # every 13x13 search window holds the whole 4x4 hole: its known
        # pixels are 169 - 16 in layer 1 and 169 - 4 once the outer ring of
        # the hole is known, and each of them overlaps its target's patch
        assert [rec["min_candidates"] for rec in summary["layers"]] == [153, 165]
        layer_s = sum(rec["graph_s"] + rec["solve_s"] for rec in summary["layers"])
        assert layer_s <= summary["timings"]["solve_s"]
        assert 1 <= summary["threads"] <= (os.cpu_count() or 1)
        assert set(summary["versions"]) == {"python", "numpy"}
        assert summary["versions"]["numpy"] == np.__version__
        assert summary["versions"]["python"].count(".") == 2
        assert summary["peak_rss_kb"] > 0

        truth = read_mvi(img_p)
        filled = read_mvi(out_p)
        filled.validate()
        known = read_mask(mask_p).known
        assert filled.data[known].tobytes() == truth.data[known].tobytes()

        assert run_cli("render", "-i", out_p, "-m", mask_p, "-o", ppm_p) == 0
        raw = ppm_p.read_bytes()
        assert raw.startswith(b"P6\n16 16\n255\n")
        assert len(raw) == 13 + 16 * 16 * 3
        summary = json_summary(capsys.readouterr().err)
        assert summary["style"] == "ppm"

        assert run_cli("compare", "-a", out_p, "-b", img_p, "-m", mask_p) == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert lines[0] == "pixels 16"
        assert lines[1].startswith("mean ")
        assert lines[2].startswith("max ")
        assert lines[3].startswith("rms ")
        report = json_summary(err)["report"]
        assert report["pixels"] == 16
        assert abs(report["mean"] - float(lines[1].split()[1])) < 1e-9
        assert report["mean"] < 0.5

    def test_render_svg_for_spd(self, tmp_path, capsys):
        img_p = tmp_path / "field.mvi"
        svg_p = tmp_path / "field.svg"
        assert run_cli("generate", "--manifold", "spd2",
                       "--rows", 6, "--cols", 6, "-o", img_p) == 0
        assert run_cli("render", "-i", img_p, "-o", svg_p) == 0
        text = svg_p.read_text()
        assert text.startswith("<?xml")
        assert text.count("<ellipse") == 36


class TestSummaryRouting:
    def test_log_file_instead_of_stderr(self, tmp_path, capsys):
        log = tmp_path / "run.json"
        assert run_cli("generate", "--manifold", "s2", "--rows", 4,
                       "--cols", 4, "-o", tmp_path / "x.mvi",
                       "--log", log) == 0
        assert capsys.readouterr().err == ""
        summary = json.loads(log.read_text())
        assert summary["command"] == "generate"
        assert summary["status"] == "ok"

    def test_failure_summary_records_exit_code(self, tmp_path, capsys):
        log = tmp_path / "run.json"
        rc = run_cli("inpaint", "-i", tmp_path / "missing.mvi",
                     "-m", tmp_path / "missing.pbm",
                     "-o", tmp_path / "out.mvi", "--log", log)
        assert rc == 2
        summary = json.loads(log.read_text())
        assert summary["status"] == "error"
        assert summary["exit_code"] == 2
        assert "error" in summary

    def test_unwritable_log_is_reported(self, tmp_path, capsys):
        log = tmp_path / "no-such-dir" / "run.json"
        assert run_cli("generate", "--manifold", "s2", "--rows", 4,
                       "--cols", 4, "-o", tmp_path / "x.mvi",
                       "--log", log) == 0
        err = capsys.readouterr().err
        notes = [ln for ln in err.splitlines() if ln.startswith("log error")]
        assert len(notes) == 1
        assert str(log) in notes[0]
        assert "No such file or directory" in notes[0]
        assert json_summary(err)["status"] == "ok"


# usage errors: the command line, and a part of the message it gives
USAGE_ERRORS = [
    ([], "arguments are required"),
    (["frobnicate"], "invalid choice"),
    (["generate", "--manifold", "m3", "--rows", "4", "--cols", "4", "-o", "x.mvi"],
     "invalid choice"),
    (["generate", "--manifold", "s2", "--rows", "four", "--cols", "4", "-o", "x.mvi"],
     "invalid int value"),
    (["inpaint"], "arguments are required"),
    # the summary goes to stderr, as --log is not read
    (["inpaint", "-i", "i.mvi", "-m", "m.pbm", "-o", "o.mvi", "--k", "x", "--log", "s.json"],
     "invalid int value"),
    (["inpaint", "-i", "i.mvi", "-m", "m.pbm", "-o", "o.mvi", "--sigma", "x"],
     'sigma must be a number or "auto"'),
    (["mask", "--rows", "4", "--cols", "4", "--rect", "1,1,x,1", "-o", "m.pbm"],
     "expected four integers i0,j0,height,width"),
    (["mask", "--rows", "0", "--cols", "4", "--rect", "0,0,1,1", "-o", "m.pbm"],
     "rows and cols must be positive"),
    # the output style is checked before any file is read
    (["render", "-i", "missing.mvi", "-o", "x.png"], "output must end in .ppm or .svg"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv, error", USAGE_ERRORS,
                             ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))])
    def test_usage_errors_exit_1(self, argv, error, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.run(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err
        summary = json_summary(err)
        assert (summary["status"], summary["exit_code"]) == ("error", 1)
        assert error in summary["error"]
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_0(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_inpaint_defaults_are_solver_config_defaults(self):
        args = cli.build_parser().parse_args(["inpaint", "-i", "a", "-m", "b", "-o", "c"])
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert {f: getattr(args, f) for f in fields} == dataclasses.asdict(SolverConfig())

    def test_tau_out_of_range_exits_1(self, tmp_path, capsys):
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 6, "--cols", 6,
                "-o", img_p)
        run_cli("mask", "--rows", 6, "--cols", 6, "--rect", "2,2,2,2",
                "-o", mask_p)
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi", "--tau", 2)
        assert rc == 1
        assert "usage error" in capsys.readouterr().err

    def test_config_checked_before_reading_files(self, tmp_path, capsys):
        rc = run_cli("inpaint", "-i", tmp_path / "nope.mvi",
                     "-m", tmp_path / "nope.pbm", "-o", tmp_path / "o.mvi",
                     "--tau", 2)
        assert rc == 1
        assert "usage error: tau must lie in (0, 1]" in capsys.readouterr().err

    def test_unconverged_layers_exit_0(self, tmp_path, capsys):
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 8, "--cols", 8,
                "-o", img_p)
        # with --cumulative-active the second layer is coupled: it takes
        # Euler steps, which max_iter stops.  The first is decoupled and
        # solved by its 1-centres, which never stop early
        run_cli("mask", "--rows", 8, "--cols", 8, "--rect", "2,3,4,4",
                "-o", mask_p)
        capsys.readouterr()
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi",
                     "--k", 4, "--p", 1, "--r", 3, "--max-iter", 1,
                     "--cumulative-active")
        assert rc == 0
        layers = json_summary(capsys.readouterr().err)["layers"]
        assert len(layers) == 2
        assert [rec["iterations"] for rec in layers] == [0, 1]
        assert [rec["converged"] for rec in layers] == [True, False]

    def test_render_needs_known_extension(self, tmp_path, capsys):
        img_p = tmp_path / "i.mvi"
        run_cli("generate", "--manifold", "s2", "--rows", 4, "--cols", 4,
                "-o", img_p)
        assert run_cli("render", "-i", img_p, "-o", tmp_path / "o.png") == 1

    def test_missing_input_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o.mvi"
        rc = run_cli("inpaint", "-i", tmp_path / "nope.mvi",
                     "-m", tmp_path / "nope.pbm", "-o", out)
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "data error" in err
        summary = json_summary(err)
        assert "layer" not in summary and "vertex" not in summary

    def test_directory_input_exits_2(self, tmp_path, capsys):
        rc = run_cli("render", "-i", tmp_path, "-o", tmp_path / "o.ppm")
        assert rc == 2

    def test_corrupt_image_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.mvi"
        bad.write_bytes(b"not an image at all\n")
        rc = run_cli("render", "-i", bad, "-o", tmp_path / "o.ppm")
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 8, "--cols", 8,
                "-o", img_p)
        run_cli("mask", "--rows", 6, "--cols", 6, "--rect", "2,2,2,2",
                "-o", mask_p)
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi")
        assert rc == 2
        assert "6x6" in capsys.readouterr().err

    def test_tiny_sigma_exits_0(self, tmp_path, capsys):
        # weights are relative to each pixel's nearest neighbor, so no
        # sigma can leave a pixel without one
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 8, "--cols", 8,
                "-o", img_p)
        run_cli("mask", "--rows", 8, "--cols", 8, "--rect", "3,3,2,2",
                "-o", mask_p)
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi",
                     "--k", 3, "--p", 1, "--r", 3, "--sigma", "1e-300")
        assert rc == 0
        summary = json_summary(capsys.readouterr().err)
        assert summary["status"] == "ok"
        assert [rec["sigma"] for rec in summary["layers"]] == [1e-300]
        read_mvi(tmp_path / "o.mvi").validate()

    def test_graph_build_error_names_layer_and_vertex(self, tmp_path, capsys, monkeypatch):
        # every patch distance is NaN, so the first target of layer 1 has
        # no candidate with a finite one
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 8, "--cols", 8,
                "-o", img_p)
        run_cli("mask", "--rows", 8, "--cols", 8, "--rect", "3,3,2,2",
                "-o", mask_p)
        capsys.readouterr()
        kernel = type(mvinpaint.ManifoldDescriptor.sphere2().kernel)
        monkeypatch.setattr(kernel, "_dist2", lambda self, x, y, out: out.fill(np.nan))
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi", "--k", 3, "--p", 1, "--r", 3)
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error: layer 1: vertex " in err
        assert "no candidate with a finite patch distance" in err
        summary = json_summary(err)
        assert summary["exit_code"] == 3
        assert summary["layer"] == 1
        named = re.search(r"layer 1: vertex (\d+):", err).group(1)
        assert summary["vertex"] == int(named)

    def test_not_positive_definite_names_the_layer(self, tmp_path, capsys, monkeypatch):
        # validation rejects a pixel of 1e-200 * I by the kernel's own test;
        # with it switched off, the pixel fails the definiteness test of a
        # patch distance in the first layer
        monkeypatch.setattr(mvinpaint.MvImage, "validate", lambda self: None)
        img = generate_spd_image(6, 6)
        img.data[1, 1] = [1e-200, 0.0, 0.0, 1e-200]
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        write_mvi(img, img_p)
        write_mask(cut_mask(6, 6, (2, 2, 2, 2)), mask_p)
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p,
                     "-o", tmp_path / "o.mvi", "--k", 3, "--p", 1, "--r", 2)
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error: layer 1: " in err
        summary = json_summary(err)
        assert summary["exit_code"] == 3
        assert summary["layer"] == 1

    @pytest.mark.parametrize("exc, label, code", [
        (errors.ConfigError("bad setting"), "usage error", 1),
        (errors.DimensionMismatch("bad shape"), "data error", 2),
        (errors.FileFormatError("bad file"), "data error", 2),
        (FileNotFoundError(errno.ENOENT, "no such file"), "data error", 2),
        (NotADirectoryError(errno.ENOTDIR, "not a directory"), "data error", 2),
        (OSError(errno.ENOSPC, "no space left"), "data error", 2),
    ] + [
        (cls("numerical trouble"), "numerical error", 3)
        for cls in (errors.CutLocusError, errors.NotPositiveDefinite,
                    errors.EigenConvergenceError, errors.GraphBuildError, errors.SolverError)
    ], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
    def test_error_families_map_to_exit_codes(self, exc, label, code,
                                              tmp_path, capsys, monkeypatch):
        def fail(args, summary):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "generate", fail)
        rc = run_cli("generate", "--manifold", "s2", "--rows", 4, "--cols", 4,
                     "-o", tmp_path / "x.mvi")
        assert rc == code
        err = capsys.readouterr().err
        assert f"{label}: " in err
        assert json_summary(err)["exit_code"] == code

    def test_output_under_a_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        log = tmp_path / "s.json"
        rc = run_cli("generate", "--manifold", "s2", "--rows", 4, "--cols", 4,
                     "-o", blocker / "x.mvi", "--log", log)
        assert rc == 2
        assert "data error" in capsys.readouterr().err
        summary = json.loads(log.read_text())
        assert summary["status"] == "error" and summary["exit_code"] == 2

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        desc = mvinpaint.ManifoldDescriptor.spd(3)
        pts = random_point(desc, np.random.default_rng(3), size=(36,))
        write_mvi(mvinpaint.MvImage(desc, pts.reshape(6, 6, 9)), img_p)
        write_mask(cut_mask(6, 6, (2, 2, 2, 2)), mask_p)

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        # reading validates every spd(3) pixel through the eigensolver
        monkeypatch.setattr(np.linalg, "eigh", fail)
        out = tmp_path / "o.mvi"
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p, "-o", out)
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical error" in err
        assert json_summary(err)["exit_code"] == 3
        assert not out.exists()


class TestDeterminism:
    def _inpaint(self, tmp_path, img_p, mask_p, out_name, *extra):
        out = tmp_path / out_name
        rc = run_cli("inpaint", "-i", img_p, "-m", mask_p, "-o", out,
                     "--k", 3, "--p", 1, "--r", 4, "--eps", "1e-6",
                     "--max-iter", 150, *extra)
        assert rc == 0
        return out.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        img_p, mask_p = tmp_path / "i.mvi", tmp_path / "m.pbm"
        run_cli("generate", "--manifold", "s2", "--rows", 12, "--cols", 12,
                "-o", img_p)
        run_cli("mask", "--rows", 12, "--cols", 12, "--rect", "4,4,4,4",
                "-o", mask_p)
        first = self._inpaint(tmp_path, img_p, mask_p, "a.mvi", "--threads", 1)
        again = self._inpaint(tmp_path, img_p, mask_p, "b.mvi", "--threads", 1)
        pooled = self._inpaint(tmp_path, img_p, mask_p, "c.mvi", "--threads", 4)
        assert first == again
        assert first == pooled

    def test_thread_count_capped_at_cpu_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert SolverConfig(threads=100000).resolved_threads() == 2
        assert SolverConfig(threads=1).resolved_threads() == 1
        assert SolverConfig().resolved_threads() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert SolverConfig(threads=8).resolved_threads() == 1


class TestPeakMemory:
    # measured (numpy 2.4, Python 3.11, one thread): 47.5 MB, of which about
    # 27.5 MB is the interpreter with numpy imported
    BOUND_KB = 64 * 1024

    def test_whole_run_on_a_256x256_dropout_image(self, tmp_path):
        pytest.importorskip("resource")
        image, mask, log = tmp_path / "in.mvi", tmp_path / "mask.pbm", tmp_path / "log.json"
        write_mvi(generate_sphere_image(256, 256), image)
        known = np.ones(256 * 256, dtype=bool)
        rng = np.random.default_rng(0)
        known[rng.choice(known.size, size=known.size // 50, replace=False)] = False
        write_mask(Mask(known.reshape(256, 256)), mask)
        # the summary's peak_rss_kb is the run's own ru_maxrss.  Linux keeps a
        # process's peak across exec, and a forked child starts at its
        # parent's resident size, so the run is spawned from a small launcher
        # rather than from this process
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=str(Path(mvinpaint.__file__).resolve().parents[1]))
        launch = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
        done = subprocess.run(
            [sys.executable, "-c", launch,
             sys.executable, "-c", "import sys; from mvinpaint.cli import main; sys.exit(main())",
             "inpaint", "-i", str(image), "-m", str(mask), "-o", str(tmp_path / "out.mvi"),
             "--k", "10", "--p", "6", "--r", "8", "--max-iter", "20", "--threads", "1",
             "--log", str(log)],
            env=env, capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr
        summary = json.loads(log.read_text())
        # one decoupled layer, solved by its 1-centres without Euler steps
        assert [layer["iterations"] for layer in summary["layers"]] == [0]
        assert summary["layers"][0]["multi_support"] > 0
        assert 0 < summary["peak_rss_kb"] < self.BOUND_KB


@pytest.mark.skipif(shutil.which("mvinpaint") is None,
                    reason="console script not on PATH")
def test_console_script(tmp_path):
    exe = shutil.which("mvinpaint")
    done = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    assert "inpaint" in done.stdout

    out = tmp_path / "img.mvi"
    done = subprocess.run(
        [exe, "generate", "--manifold", "s2", "--rows", "4", "--cols", "4",
         "-o", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0
    assert out.exists()
    assert json.loads(done.stderr.splitlines()[-1])["status"] == "ok"


def test_cli_import_does_not_load_the_thread_pool():
    # only a graph build of two or more workers takes a thread pool, so a
    # one-thread run never imports concurrent.futures, nor the logging,
    # queue and traceback modules it pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(mvinpaint.__file__).resolve().parents[1]))
    code = "import sys, mvinpaint.cli; sys.exit('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "mvinpaint.cli loaded concurrent.futures"
