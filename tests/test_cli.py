import hashlib
import importlib
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asympatch.cli import (SCHEMAS, TRAIN_KEYS, UsageError, _train_config,
                           load_config, main, read_ppm, write_ppm)
from asympatch.serialize import MAGIC, VERSION, load_arrays, save_arrays
from asympatch.train import smoke_config

GOLDEN_ANALYZE_CSV = """\
strategy,crop_model,s1,s2,gamma,grid,trials,analytic,estimate,std_error
naive,identical,0.25,0.25,0.0,32,8192,0.0625,0.06255447864532471,6.518579410733891e-05
selective,random,0.25,0.25,0.0,32,8192,0.03125,0.04216327995917135,0.00018238069173739943
selective,random,0.25,0.25,1.0,32,8192,0.020833333333333332,0.021847613343549448,8.7664684117096e-05
selective,random,0.25,0.25,2.0,32,8192,0.015625,0.014304021568880453,6.021478573088665e-05
selective,random,0.25,0.25,3.0,32,8192,0.0125,0.010153294751191989,4.513045029279988e-05
selective,random,0.25,0.25,4.0,32,8192,0.010416666666666666,0.007654425039064735,3.5064692769352126e-05
"""
GOLDEN_ANALYZE_TXT_SHA256 = (
    "955d7a5a69bf8ded624fa7f7f79572d09387b8506126d44ea1403c2afc53df6f")


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*argv):
    return main(list(argv))


def src_env() -> dict:
    """This process's environment, with the package source on the path of a
    child interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


class TestPixmaps:
    def test_round_trip(self, tmp_path):
        img = np.linspace(0, 1, 4 * 5 * 3).reshape(4, 5, 3)
        path = tmp_path / "img.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (4, 5, 3)
        assert np.allclose(back, img, atol=1 / 255)

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_ppm(path, np.zeros((2, 2, 3)))
        assert path.read_bytes()[:2] == b"P6"


class TestAnalyze:
    def write_config(self, tmp_path, body):
        path = tmp_path / "cfg.ini"
        path.write_text(body)
        return str(path)

    def test_default_rows_and_files(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "[analyze]\ntrials = 2000\ngrid = 8\n")
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", cfg, "--out", str(out),
                       "--seed", "1") == 0
        csv = (out / "analyze_report.csv").read_text()
        lines = csv.splitlines()
        assert lines[0].startswith("strategy,")
        # default gamma grid includes 3 (analytic 0.0125) and 0 (0.03125)
        assert any(",3.0," in l and "0.0125" in l for l in lines[1:])
        assert any("0.03125" in l for l in lines[1:])
        assert (out / "analyze_report.txt").exists()
        dens = (out / "density_curves.csv").read_text().splitlines()
        assert dens[0] == "gamma,s1,r,p_sel"
        assert len(dens) > 100

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_config(tmp_path, "[analyze]\ntrials = 1500\ngrid = 8\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("analyze", "--config", cfg, "--out", str(out_a), "--seed", "7")
        run_cli("analyze", "--config", cfg, "--out", str(out_b), "--seed", "7")
        for name in ("analyze_report.csv", "density_curves.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_a_failed_rewrite_leaves_the_old_files_whole(self, tmp_path,
                                                         capsys, monkeypatch):
        cfg = self.write_config(tmp_path, "[analyze]\ntrials = 1500\ngrid = 8\n")
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", cfg, "--out", str(out),
                       "--seed", "7") == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        capsys.readouterr()

        def fails(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fails)
        assert run_cli("analyze", "--config", cfg, "--out", str(out),
                       "--seed", "8") == 1
        err = capsys.readouterr().err
        assert err == "error: disk full\n"
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_zero_trials_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "[analyze]\ntrials = 0\n")
        code = run_cli("analyze", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" == err[-1]

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, "[analyze]\nbogus_knob = 3\n")
        assert run_cli("analyze", "--config", cfg,
                       "--out", str(tmp_path / "o")) != 0

    @pytest.mark.parametrize("body", [
        "trials = 2000\n",
        "[analyze]\ntrials = 2000\n[analyze]\ngrid = 8\n",
    ], ids=["no-section-header", "duplicate-section"])
    def test_malformed_config_one_error_line(self, tmp_path, capsys, body):
        cfg = self.write_config(tmp_path, body)
        out = tmp_path / "o"
        assert run_cli("analyze", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad config file") and err.count("\n") == 1
        assert not out.exists()

    def test_percent_in_a_value_is_a_literal(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path,
                                "[analyze]\ntrials = 1000\ncrop_model = 50%random\n")
        assert load_config(cfg, "analyze")["crop_model"] == "50%random"
        out = tmp_path / "o"
        assert run_cli("analyze", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "50%random" in err

    def test_golden_default_report(self, tmp_path, capsys):
        # default analyze at seed 0 with 8192 trials (two full chunks per
        # configuration); bytes recorded before the kernel was tiled
        cfg = self.write_config(tmp_path, "[analyze]\ntrials = 8192\n")
        out = tmp_path / "out"
        assert run_cli("analyze", "--config", cfg, "--out", str(out),
                       "--seed", "0") == 0
        assert (out / "analyze_report.csv").read_text() == GOLDEN_ANALYZE_CSV
        assert hashlib.sha256((out / "analyze_report.txt").read_bytes()) \
            .hexdigest() == GOLDEN_ANALYZE_TXT_SHA256
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"49152 trials in \d+\.\d\d s "
                            r"\(\d+\.\d µs/trial\)", last)
        assert "trials in" not in (out / "analyze_report.txt").read_text()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, "[mystery]\nx = 1\n")
        assert run_cli("analyze", "--config", cfg,
                       "--out", str(tmp_path / "o")) != 0

    def test_grid_too_large_to_allocate_is_one_error_line(self, tmp_path,
                                                          capsys):
        # one row of the work arrays would take 512 PiB, more than any
        # address space, so the allocation fails on every host
        cfg = self.write_config(tmp_path,
                                "[analyze]\ngrid = 268435456\ntrials = 1000\n")
        out = tmp_path / "o"
        assert run_cli("analyze", "--config", cfg, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_importing_the_module_entry_runs_nothing(self):
        # a tool that imports every module of the package, as a span tracer
        # does, must not start the command line
        importlib.import_module("asympatch.__main__")

    def test_runs_as_a_module(self):
        done = subprocess.run(
            [sys.executable, "-m", "asympatch", "analyze", "--help"],
            capture_output=True, text=True, env=src_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: asympatch analyze")


class TestDemo:
    def test_outputs_are_valid_p6(self, tmp_path):
        out = tmp_path / "demo"
        assert run_cli("demo", "--out", str(out), "--seed", "3") == 0
        for name in ("crop1.ppm", "crop2.ppm", "view1_mask.ppm",
                     "overlap_heat.ppm", "view2_mask.ppm"):
            data = (out / name).read_bytes()
            assert data[:2] == b"P6"

    def test_selective_mask_avoids_view1(self, tmp_path):
        # identical full crops and a harsh power: selected view-2 patches
        # must overlap view 1 strictly less than the unselected ones
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demo]\narea_lo = 1.0\narea_hi = 1.0\ngamma = 8\n")
        out = tmp_path / "demo"
        assert run_cli("demo", "--config", str(cfg), "--out", str(out),
                       "--seed", "5") == 0
        heat = read_ppm(out / "overlap_heat.ppm")[..., 0]
        mask2 = read_ppm(out / "view2_mask.ppm")[..., 0] > 0.5
        sel_mean = heat[mask2].mean()
        unsel_mean = heat[~mask2].mean()
        assert sel_mean < unsel_mean

    def test_full_sampling_mask_all_on(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demo]\ns1 = 1.0\n")
        out = tmp_path / "demo"
        assert run_cli("demo", "--config", str(cfg), "--out", str(out),
                       "--seed", "2") == 0
        mask1 = read_ppm(out / "view1_mask.ppm")
        assert np.all(mask1 > 0.99)

    def test_scale_below_one_fails_closed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demo]\nscale = 0\n")
        out = tmp_path / "demo"
        assert run_cli("demo", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "scale must be >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("maxval,sample", [(65535, b"\xff\xff"),
                                               (0, b"\x00")])
    def test_maxval_outside_one_byte_fails_closed(self, tmp_path, capsys,
                                                  maxval, sample):
        image = tmp_path / "in.ppm"
        image.write_bytes(f"P6\n4 4\n{maxval}\n".encode() + sample * 48)
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[demo]\nimage = {image}\npatch = 1\n")
        out = tmp_path / "demo"
        assert run_cli("demo", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"maxval {maxval}" in err
        assert not out.exists()

    def test_unreadable_input_fails(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[demo]\nimage = /does/not/exist.ppm\n")
        assert run_cli("demo", "--config", str(cfg),
                       "--out", str(tmp_path / "o")) != 0


MISSING_CIFAR = "dataset = cifar\ncifar_path = no/such/data_batch.bin"


class TestTrainAndProbe:
    def write_train_config(self, tmp_path, total_steps=4):
        cfg = tmp_path / "train.ini"
        cfg.write_text(
            "[train]\n"
            "backbone = vit-micro\nheads = micro\n"
            "dataset = synthetic\nclasses = 2\nper_class = 16\n"
            "image_size = 16\ndataset_seed = 3\n"
            f"batch = 8\nwarmup_steps = 2\ntotal_steps = {total_steps}\n"
            "knn_k = 3\n"
        )
        return str(cfg)

    def test_dry_run_prints_plan_and_writes_nothing(self, tmp_path, capsys):
        cfg = self.write_train_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--out", str(out),
                       "--dry-run") == 0
        text = capsys.readouterr().out
        assert "dry run" in text and "total=4" in text
        assert not out.exists()

    def test_train_writes_artifacts_and_probe_reproduces(self, tmp_path, capsys):
        cfg = self.write_train_config(tmp_path)
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--out", str(out),
                       "--seed", "5") == 0
        assert (out / "metrics.csv").exists()
        assert (out / "final.ckpt").exists()
        manifest = (out / "dataset_manifest.txt").read_text()
        assert "seed=3" in manifest and "classes=2" in manifest
        report = (out / "probe_report.txt").read_text()
        logged = float(report.splitlines()[1].split("=")[1])
        probe_out = tmp_path / "probe"
        assert run_cli("probe", "--checkpoint", str(out / "final.ckpt"),
                       "--out", str(probe_out)) == 0
        reprobed = float((probe_out / "probe_report.txt").read_text()
                         .splitlines()[1].split("=")[1])
        assert reprobed == logged

    def test_metric_log_deterministic_across_runs(self, tmp_path):
        cfg = self.write_train_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("train", "--config", cfg, "--out", str(out_a), "--seed", "9")
        run_cli("train", "--config", cfg, "--out", str(out_b), "--seed", "9")
        assert (out_a / "metrics.csv").read_bytes() \
            == (out_b / "metrics.csv").read_bytes()

    @pytest.mark.parametrize("line,message", [
        ("backbone = bogus", "unknown backbone 'bogus'"),
        ("heads = bogus", "unknown heads 'bogus'"),
        ("batch = 0", "batch size must be >= 1"),
        ("total_steps = 0", "total_steps must be >= 1"),
        ("knn_k = 0", "knn_k must be >= 1"),
        ("knn_k = -3", "knn_k must be >= 1"),
        ("checkpoint_every = -1", "checkpoint_every must be >= 0"),
        ("lr = nan", "base_lr must be finite and > 0"),
        ("lr = inf", "base_lr must be finite and > 0"),
        ("lr = 0", "base_lr must be finite and > 0"),
        ("lr = -1", "base_lr must be finite and > 0"),
        ("weight_decay = -0.5", "weight_decay must be finite and >= 0"),
        ("weight_decay = nan", "weight_decay must be finite and >= 0"),
        ("clip = yes", "bad value for 'clip': 'yes'"),
        ("clip = On", "bad value for 'clip': 'On'"),
        ("momentum_encoder = true", "bad value for 'momentum_encoder': 'true'"),
        ("gamma = nan", "gamma must be finite and >= 0"),
        ("tau = nan", "tau must be finite and > 0"),
        ("tau = inf", "tau must be finite and > 0"),
        ("tau = 0", "tau must be finite and > 0"),
        ("tau = -0.1", "tau must be finite and > 0"),
        ("clip_alpha = nan", "alpha must be finite and > 0"),
        ("clip_alpha = inf", "alpha must be finite and > 0"),
        ("clip_alpha = 0", "alpha must be finite and > 0"),
        ("clip_m = 1", "momentum m must lie in [0, 1)"),
        ("clip_m = nan", "momentum m must lie in [0, 1)"),
        ("dataset = cifra", "unknown dataset kind 'cifra'"),
        ("image_size = 0", "image_size must be >= 1"),
        ("classes = 0", "n_classes must be >= 1"),
        ("per_class = 0", "n_per_class must be >= 1"),
        ("per_class = 3", "synthetic dataset of 6 images is smaller than one "
                          "batch of 8"),
        (MISSING_CIFAR, "No such file or directory"),
    ])
    def test_bad_train_config_fails_closed(self, tmp_path, capsys, line,
                                           message):
        cfg = tmp_path / "bad.ini"
        key = line.split(" = ")[0]
        good = open(self.write_train_config(tmp_path)).read()
        bad, found = re.subn(rf"^{key} = .*$", line, good, flags=re.M)
        cfg.write_text(bad if found else good + line + "\n")
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert not out.exists()
        # a dry run builds the config but reads no data file
        if line != MISSING_CIFAR:
            assert run_cli("train", "--config", str(cfg), "--out", str(out),
                           "--dry-run") == 1
            assert not out.exists()

    def test_diverging_run_is_one_error_line(self, tmp_path):
        # a separate process: pytest records warnings itself, so in-process
        # stderr would not show numpy's floating-point warnings
        cfg = tmp_path / "diverge.ini"
        cfg.write_text(open(self.write_train_config(tmp_path, total_steps=3))
                       .read() + "lr = 1e300\n")
        done = subprocess.run(
            [sys.executable, "-m", "asympatch.cli", "train", "--config",
             str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env(), timeout=300)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "non-finite activations" in done.stderr

    def test_outputs_do_not_depend_on_the_blas_thread_variables(self,
                                                                tmp_path):
        # OpenBLAS on several threads rounds some products differently;
        # asympatch sets it to one thread, whatever the variables say
        cfg = tmp_path / "train.ini"
        cfg.write_text(open(self.write_train_config(tmp_path, total_steps=6))
                       .read() + "views = 4\nclip = on\nmomentum_encoder = on\n")
        runs = []
        for threads in (None, "1"):
            env = src_env()
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
                env.pop(var, None)
                if threads:
                    env[var] = threads
            out = tmp_path / f"threads-{threads}"
            done = subprocess.run(
                [sys.executable, "-m", "asympatch.cli", "train", "--config",
                 str(cfg), "--out", str(out), "--seed", "0"],
                capture_output=True, text=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr
            runs.append({f.name: f.read_bytes() for f in out.iterdir()})
        assert sorted(runs[0]) == ["dataset_manifest.txt", "final.ckpt",
                                   "metrics.csv", "probe_report.txt"]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command", ["demo", "train"])
    def test_image_size_below_one_is_one_error_line(self, tmp_path, command):
        # a separate process, as above: numpy's warnings must not show
        cfg = tmp_path / "zero.ini"
        cfg.write_text(f"[{command}]\nimage_size = 0\n")
        done = subprocess.run(
            [sys.executable, "-m", "asympatch.cli", command, "--config",
             str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env(), timeout=300)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1
        assert "image_size" in done.stderr

    def test_probe_renders_images_at_the_backbones_size(self, tmp_path):
        # 8-pixel images on the 16-pixel vit-micro: the probe encodes each
        # whole image resized, as training encodes its crops
        cfg = tmp_path / "small.ini"
        cfg.write_text(open(self.write_train_config(tmp_path, total_steps=2))
                       .read().replace("image_size = 16", "image_size = 8"))
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(cfg), "--out", str(out)) == 0
        assert (out / "probe_report.txt").exists()

    def test_probe_empty_checkpoint_header_fails_closed(self, tmp_path, capsys):
        header = b"{}"
        path = tmp_path / "empty.ckpt"
        path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                         + struct.pack("<Q", len(header)) + header)
        assert run_cli("probe", "--checkpoint", str(path),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "header" in err

    def test_probe_wrong_typed_meta_fails_closed(self, tmp_path, capsys):
        cfg = self.write_train_config(tmp_path, total_steps=2)
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--out", str(out)) == 0
        ckpt = out / "final.ckpt"
        arrays, meta = load_arrays(ckpt)
        meta["rng_state"] = []
        save_arrays(ckpt, arrays, meta)
        capsys.readouterr()
        assert run_cli("probe", "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "rng_state" in err

    def test_probe_checkpoint_missing_an_array_fails_closed(self, tmp_path,
                                                            capsys):
        cfg = self.write_train_config(tmp_path, total_steps=2)
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--out", str(out)) == 0
        ckpt = out / "final.ckpt"
        arrays, meta = load_arrays(ckpt)
        del arrays["params.embed.w"]
        save_arrays(ckpt, arrays, meta)
        capsys.readouterr()
        assert run_cli("probe", "--checkpoint", str(ckpt),
                       "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "missing params.embed.w" in err
        assert not (tmp_path / "o").exists()

    def test_probe_rejects_k_below_one(self, tmp_path, capsys):
        cfg = self.write_train_config(tmp_path, total_steps=2)
        out = tmp_path / "out"
        assert run_cli("train", "--config", cfg, "--out", str(out)) == 0
        probe_cfg = tmp_path / "probe.ini"
        probe_cfg.write_text("[probe]\nk = 0\n")
        capsys.readouterr()
        probe_out = tmp_path / "o"
        assert run_cli("probe", "--config", str(probe_cfg), "--checkpoint",
                       str(out / "final.ckpt"), "--out", str(probe_out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "k must be >= 1" in err
        assert not probe_out.exists()

    def test_dry_run_rejects_warmup_beyond_total(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(open(self.write_train_config(tmp_path)).read()
                       .replace("warmup_steps = 2", "warmup_steps = 10"))
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(cfg), "--out", str(out),
                       "--dry-run") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "warmup_steps" in err
        assert not out.exists()

    def test_probe_without_checkpoint_fails(self, tmp_path):
        assert run_cli("probe", "--out", str(tmp_path / "o")) != 0

    def test_missing_subcommand_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            run_cli()
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ("analyze", "--dry-run"), ("demo", "--dry-run"),
        ("probe", "--dry-run"), ("probe", "--seed", "1")])
    def test_a_flag_the_subcommand_does_not_read_exits_with_usage(
            self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--out", str(out))
        assert exc.value.code == 2
        assert not out.exists()


# for every [train] key: a value other than smoke_config()'s, as written in
# a config file, and the TrainConfig field it sets
OTHER_TRAIN_VALUES = {
    "backbone": ("vit-tiny-2", "backbone"), "heads": ("cifar", "heads"),
    "dataset": ("cifar", "dataset.kind"), "classes": ("3", "dataset.n_classes"),
    "per_class": ("64", "dataset.n_per_class"),
    "image_size": ("32", "dataset.image_size"),
    "dataset_seed": ("8", "dataset.seed"),
    "cifar_path": ("data.bin", "dataset.path"), "s1": ("0.5", "sampler.s1"),
    "s2": ("0.5", "sampler.s2"), "gamma": ("2", "sampler.gamma"),
    "views": ("4", "sampler.n_views"), "tau": ("0.2", "tau"),
    "lr": ("1e-3", "base_lr"), "weight_decay": ("0.1", "weight_decay"),
    "batch": ("16", "batch_size"), "warmup_steps": ("5", "warmup_steps"),
    "total_steps": ("100", "total_steps"), "clip": ("on", "clip_enabled"),
    "clip_m": ("0.5", "clip_m"), "clip_alpha": ("1.1", "clip_alpha"),
    "momentum_encoder": ("on", "momentum_encoder"), "seed": ("1", "seed"),
    "checkpoint_every": ("10", "checkpoint_every"), "knn_k": ("3", "knn_k"),
}


def config_fields(config):
    """Every field of a TrainConfig, nested specs' as ``spec.field``."""
    out = {}
    for name, value in asdict(config).items():
        if isinstance(value, dict):
            out.update({f"{name}.{k}": v for k, v in value.items()})
        else:
            out[name] = value
    return out


class TestTrainConfig:
    def test_no_keys_is_the_smoke_preset(self):
        assert _train_config({}, None) == smoke_config()
        assert _train_config({"seed": 1}, 4) == smoke_config(seed=4)

    @pytest.mark.parametrize("key", sorted(TRAIN_KEYS))
    def test_each_key_sets_exactly_its_field(self, key):
        # a cifar dataset needs a path, so "dataset" is given with one
        given = [key] + (["cifar_path"] if key == "dataset" else [])
        cfg = {k: SCHEMAS["train"][k](OTHER_TRAIN_VALUES[k][0]) for k in given}
        before = config_fields(smoke_config())
        after = config_fields(_train_config(cfg, None))
        changed = {f: after[f] for f in before if after[f] != before[f]}
        assert changed == {OTHER_TRAIN_VALUES[k][1]: cfg[k] for k in given}


CONFIG_LINES = st.sampled_from([
    "[analyze]", "[demo]", "[train]", "[probe]", "[mystery]", "[analyze",
    "trials = 5000", "grid = 8", "grid: 4", "trials = x", "gammas = 1,%(x)s",
    "crop_model = 50%random", "s1 = 0.3", "  continued", "# comment", "=",
    "k = %", "batch = 1e3", "image = a%%b.ppm", "",
])


class TestLoadConfigFuzz:
    @given(lines=st.lists(st.one_of(CONFIG_LINES, st.text(
               alphabet=st.characters(blacklist_categories=("Cs",)),
               max_size=30)), max_size=12),
           section=st.sampled_from(sorted(SCHEMAS)))
    def test_returns_a_dict_or_raises_usage_error(self, lines, section):
        fd, path = tempfile.mkstemp(suffix=".ini")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines))
            try:
                out = load_config(path, section)
            except UsageError as exc:
                assert "\n" not in str(exc)
            else:
                assert isinstance(out, dict)
                assert set(out) <= set(SCHEMAS[section])
        finally:
            os.remove(path)

    def test_non_utf8_bytes_are_a_usage_error(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[analyze]\ncrop_model = caf\xe9\n")
        with pytest.raises(UsageError, match="bad config file"):
            load_config(path, "analyze")
