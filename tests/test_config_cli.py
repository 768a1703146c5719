import dataclasses
import json
import os
import shutil
import subprocess
import sys
import zlib

import numpy as np
import pytest

from evtrack.cli import main
from evtrack.config import RunConfig, load_config, parse_config_text
from evtrack.errors import ConfigError, UsageError
from evtrack.pipeline import TrackerConfig, load_tracks_csv
from evtrack.training import TrainConfig


class TestConfig:
    def test_defaults_match_published_setup(self):
        cfg = load_config()
        tracker = cfg.tracker
        assert (tracker.bins, tracker.window, tracker.t_step, tracker.iterations) == (5, 16, 8, 4)
        assert (tracker.downsample, tracker.channels) == (4, 128)
        assert cfg.train.lr == pytest.approx(0.0005)

    def test_parse_sections_comments_and_bools(self):
        text = """
        # tracker knobs
        [tracker]
        channels = 64
        time_embed = false

        [train]
        lr = 0.001   # bumped
        """
        values = parse_config_text(text)
        assert values == {"channels": 64, "time_embed": False, "lr": 0.001}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("not_a_knob = 3")
        with pytest.raises(ConfigError):
            load_config(None, {"nope": "1"})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("channels = many")
        with pytest.raises(ConfigError):
            parse_config_text("time_embed = maybe")
        with pytest.raises(ConfigError):
            parse_config_text("just a line")

    def test_overrides_beat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("channels = 64\nwindow = 8\n")
        cfg = load_config(str(path), {"channels": "32"})
        assert cfg.tracker.channels == 32
        assert cfg.tracker.window == 8

    def test_cross_field_validation(self):
        with pytest.raises(ConfigError):
            load_config(None, {"t_step": "16", "window": "16"})
        with pytest.raises(ConfigError, match="t_step=0, window=16"):
            load_config(None, {"t_step": "0"})
        with pytest.raises(ConfigError, match="dt_track_us"):
            load_config(None, {"dt_track_us": "0"})
        with pytest.raises(ConfigError, match="accumulate_mode"):
            load_config(None, {"accumulate_mode": "bogus"})
        with pytest.raises(ConfigError, match="use_frames/use_events"):
            load_config(None, {"use_frames": "false", "use_events": "false"})
        with pytest.raises(ConfigError, match="speed_min"):
            load_config(None, {"speed_min": "60", "speed_max": "50"})
        with pytest.raises(UsageError, match="gamma"):
            load_config(None, {"gamma": "0"})

    @pytest.mark.parametrize("key, value", [("lr", "-1"), ("lr", "nan"), ("lr", "inf"),
                                            ("weight_decay", "-1"), ("warmup_steps", "-5"),
                                            ("checkpoint_every", "-1"), ("steps", "-3")])
    def test_bad_train_values_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: float(value) if key in ("lr", "weight_decay") else int(value)})

    def test_train_edge_values_accepted(self):
        train = load_config(None, {"steps": "0", "warmup_steps": "0", "checkpoint_every": "0",
                                   "weight_decay": "0"}).train
        assert (train.steps, train.warmup_steps, train.checkpoint_every, train.weight_decay) == (0, 0, 0, 0)

    def test_derived_t_step_validated(self):
        with pytest.raises(ConfigError, match=r"t_step=0 \(derived as window // 2\)"):
            load_config(None, {"window": "1"})
        with pytest.raises(ConfigError, match="derived"):
            TrackerConfig(window=1)

    def test_t_step_defaults_to_half_window(self):
        cfg = load_config(None, {"window": "6"})
        assert cfg.tracker.t_step == 3
        assert TrackerConfig(window=4).t_step == 2
        assert TrackerConfig().t_step == 8

    def test_flat_keys_are_the_component_fields(self):
        def names(cls):
            return {f.name for f in dataclasses.fields(cls)}

        tracker, train = names(TrackerConfig), names(TrainConfig)
        synth = names(RunConfig) - {"tracker", "train"}
        assert not (tracker & train or tracker & synth or train & synth)
        for key in tracker | train | synth:
            assert key in parse_config_text(f"{key} = 1")
        for key in ("delta_px", "log_every", "tracker", "train"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(f"{key} = 1")

    @pytest.mark.parametrize("key, value", [
        ("downsample", "2"), ("bins", "0"), ("iterations", "0"), ("channels", "0"),
        ("levels", "0"), ("frame_channels", "0"), ("dim", "0"), ("heads", "0"),
        ("heads", "3"), ("mlp_ratio", "0"), ("freqs", "0"), ("radius", "-1"),
        ("pairs", "-1"), ("pos_wavelength", "0"),
        ("pos_wavelength", "nan"), ("time_wavelength", "-1"),
    ])
    def test_bad_tracker_value_rejected_at_load(self, key, value):
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})

    @pytest.mark.parametrize("value", ["-5", "5000"])
    def test_fixed_window_key_is_unknown(self, value):
        """`fixed` mode reads the last dt_track_us of events; no key sets another window."""
        with pytest.raises(ConfigError, match="unknown config key 'fixed_window_us'"):
            load_config(None, {"fixed_window_us": value, "accumulate_mode": "fixed"})

    def test_t_step_parses_as_int(self):
        assert parse_config_text("t_step = 4") == {"t_step": 4}
        with pytest.raises(ConfigError):
            parse_config_text("t_step = half")


@pytest.fixture(scope="module")
def tiny_cli_args():
    return [
        "--set", "channels=16", "--set", "dim=32", "--set", "heads=2",
        "--set", "pairs=1", "--set", "freqs=4", "--set", "bins=2",
        "--set", "window=4", "--set", "t_step=2", "--set", "iterations=2",
        "--set", "radius=1", "--set", "levels=2",
        "--set", "duration_us=150000", "--set", "frame_period_us=50000",
        "--set", "dt_track_us=25000", "--set", "sprites=1",
        "--set", "steps=2", "--set", "warmup_steps=1", "--set", "checkpoint_every=0",
    ]


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory, tiny_cli_args):
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    weights = str(root / "weights.bin")
    assert main(["gen-synth", "--out", data, "--seed", "1", "--scenes", "1",
                 "--size", "48x48", *tiny_cli_args]) == 0
    assert main(["train", "--data", data, "--out", weights, *tiny_cli_args]) == 0
    return root, data, weights


class TestCli:
    def test_gen_synth_deterministic(self, tmp_path, tiny_cli_args):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            assert main(["gen-synth", "--out", out, "--seed", "7", "--scenes", "1",
                         "--size", "48x48", *tiny_cli_args]) == 0
        fa = open(f"{a}/seq_000/events.bin", "rb").read()
        fb = open(f"{b}/seq_000/events.bin", "rb").read()
        assert fa == fb

    def test_gen_synth_scene_count(self, tmp_path, tiny_cli_args):
        out = str(tmp_path / "ds")
        assert main(["gen-synth", "--out", out, "--seed", "0", "--scenes", "3",
                     "--size", "48x48", *tiny_cli_args]) == 0
        assert sorted(os.listdir(out)) == ["seq_000", "seq_001", "seq_002"]

    def test_train_then_track_then_eval(self, pipeline_dirs, tiny_cli_args, capsys):
        root, data, weights = pipeline_dirs
        assert os.path.exists(weights) and os.path.exists(weights + ".json")
        seq = os.path.join(data, "seq_000")
        tracks_csv = str(root / "tracks.csv")
        assert main(["track", "--data", seq, "--weights", weights,
                     "--queries", os.path.join(seq, "queries.csv"),
                     "--out", tracks_csv, *tiny_cli_args]) == 0
        out = capsys.readouterr().out
        assert "track ok" in out
        pred = load_tracks_csv(tracks_csv)
        n_slices = 150_000 // 25_000 + 1
        assert all(len(s) == n_slices for s in pred.values())

        report_json = str(root / "report.json")
        assert main(["eval", "--pred", tracks_csv, "--gt", seq, "--delta", "8",
                     "--out", report_json]) == 0
        report = json.loads(open(report_json).read())
        assert 0.0 <= report["efa_avg"] <= report["fa_avg"] <= 1.0
        assert report["delta_px"] == 8.0

    def test_eval_perfect_prediction(self, pipeline_dirs, capsys):
        _, data, _ = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        gt_csv = os.path.join(seq, "gt_tracks.csv")
        assert main(["eval", "--pred", gt_csv, "--gt", seq, "--delta", "5"]) == 0
        out = capsys.readouterr().out
        assert "fa_avg=1.000000 efa_avg=1.000000" in out

    @pytest.mark.parametrize("delta", ["nan", "0"])
    def test_eval_rejects_bad_delta(self, pipeline_dirs, capsys, delta):
        _, data, _ = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        gt_csv = os.path.join(seq, "gt_tracks.csv")
        assert main(["eval", "--pred", gt_csv, "--gt", seq, "--delta", delta]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: delta_px must be finite and positive")
        assert captured.err.strip().count("\n") == 0 and captured.out == ""

    def test_track_deterministic(self, pipeline_dirs, tiny_cli_args, tmp_path):
        root, data, weights = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        outs = [str(tmp_path / "t1.csv"), str(tmp_path / "t2.csv")]
        for out in outs:
            assert main(["track", "--data", seq, "--weights", weights,
                         "--queries", os.path.join(seq, "queries.csv"),
                         "--out", out, *tiny_cli_args]) == 0
        assert open(outs[0]).read() == open(outs[1]).read()

    def test_plot_writes_pngs(self, pipeline_dirs, tmp_path):
        root, data, weights = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        plot_dir = str(tmp_path / "plots")
        assert main(["plot", "--data", seq, "--pred", str(root / "tracks.csv"),
                     "--gt", seq, "--out", plot_dir]) == 0
        pngs = sorted(os.listdir(plot_dir))
        assert len(pngs) == 4
        sig = open(os.path.join(plot_dir, pngs[0]), "rb").read(8)
        assert sig == b"\x89PNG\r\n\x1a\n"

    def test_errors_exit_nonzero_with_single_line(self, capsys, tmp_path):
        assert main(["train", "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "w.bin")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert captured.err.strip().count("\n") == 0

        assert main(["eval", "--pred", str(tmp_path / "nope.csv"),
                     "--gt", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_track_rejects_changed_tracker_config(self, pipeline_dirs, tiny_cli_args,
                                                  tmp_path, capsys):
        _, data, weights = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        assert main(["track", "--data", seq, "--weights", weights,
                     "--queries", os.path.join(seq, "queries.csv"),
                     "--out", str(tmp_path / "t.csv"), *tiny_cli_args,
                     "--set", "time_wavelength=2.0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "time_wavelength" in err

    @pytest.mark.parametrize("resume, extra, error", [
        ("checkpoint.bin", ["--set", "iterations=4"], "iterations=2 (now 4)"),
        ("weights.bin", [], "holds no optimizer state"),
    ], ids=["config-changed", "no-optimizer-state"])
    def test_resume_must_resume_exactly(self, pipeline_dirs, tiny_cli_args, tmp_path, capsys,
                                       resume, extra, error):
        """A resumed run continues the saved one: same tracker config, saved Adam moments."""
        root, data, _ = pipeline_dirs
        assert main(["train", "--data", data, "--out", str(tmp_path / "w.bin"),
                     "--resume", str(root / resume), *tiny_cli_args, *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and error in err
        assert not os.path.exists(tmp_path / "loss_log.csv")

    def test_track_rejects_bad_tracker_value(self, pipeline_dirs, tiny_cli_args, tmp_path,
                                             capsys):
        _, data, weights = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        assert main(["track", "--data", seq, "--weights", weights,
                     "--queries", os.path.join(seq, "queries.csv"),
                     "--out", str(tmp_path / "t.csv"), *tiny_cli_args, "--set", "bins=0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bins must be >= 1")
        assert captured.err.strip().count("\n") == 0 and captured.out == ""

    def test_gen_synth_reads_the_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("scenes = 1\nseed = 7\nsynth_width = 48\nsprites = 1\n"
                        "duration_us = 100000\nframe_period_us = 50000\n")
        out = tmp_path / "ds"
        assert main(["gen-synth", "--out", str(out), "--config", str(path)]) == 0
        assert f"gen-synth ok scenes=1 seed=7 out={out}" in capsys.readouterr().out
        assert os.listdir(out) == ["seq_000"]
        manifest = json.loads((out / "seq_000" / "manifest.json").read_text())
        assert (manifest["width"], manifest["height"], manifest["seed"]) == (48, 64, 7)

    @pytest.mark.parametrize("args, error", [
        (["--size", "32x32"], "a 22 px sprite cannot stay inside the 32x32 canvas"),
        (["--set", "dt_sim_us=0"], "dt_sim_us must be >= 1, got 0"),
        (["--set", "theta=nan"], "theta must be positive and finite, got nan"),
        (["--set", "duration_us=-5"], "duration_us must be >= 1, got -5"),
        (["--set", "sprites=-1"], "sprites must be >= 1, got -1"),
        (["--set", "frame_period_us=0"], "frame_period_us must be >= 1, got 0"),
        (["--set", "speed_min=nan"], "speed_min must be >= 0 and finite, got nan"),
        (["--set", "synth_width=0"], "synth_width must be >= 1, got 0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_gen_synth_rejects_bad_synthetic_values(self, tmp_path, args, error):
        """One `error:` line and exit code 1 within seconds: no traceback, no hang."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run(
            [sys.executable, "-m", "evtrack.cli", "gen-synth", "--out", str(tmp_path / "ds"), *args],
            capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"error: {error}")
        assert proc.stderr.strip().count("\n") == 0 and proc.stdout == ""

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        assert main(["gen-synth", "--out", str(tmp_path / "x"), "--scenes", "1",
                     "--set", "bogus=1"]) == 1
        assert "bogus" in capsys.readouterr().err

    def _track_fails_naming(self, capsys, path, args):
        """`evtrack track args` exits 1 with one `error:` line that names `path`."""
        assert main(["track", *args]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and str(path) in captured.err
        assert captured.err.strip().count("\n") == 0 and captured.out == ""

    @pytest.mark.parametrize("text", [
        "{",
        '{"meta": {}}',
        '{"entries": [{"name": "w", "shape": [-2], "byte_offset": 0}]}',
        '{"entries": [{"name": "w", "shape": [2], "byte_offset": 1.5}]}',
        '{"entries": [{"name": "w", "shape": [2], "dtype": "f64", "byte_offset": 0}]}',
        '{"entries": [{"name": "w", "shape": [1], "byte_offset": 0},'
        ' {"name": "w", "shape": [1], "byte_offset": 4}]}',
    ], ids=["not-json", "no-entries", "negative-shape", "fractional-offset", "f64", "repeated-name"])
    def test_track_rejects_a_bad_weight_manifest(self, pipeline_dirs, tiny_cli_args, tmp_path,
                                                 capsys, text):
        _, data, weights = pipeline_dirs
        seq = os.path.join(data, "seq_000")
        bad = tmp_path / "w.bin"
        shutil.copyfile(weights, bad)
        (tmp_path / "w.bin.json").write_text(text)
        self._track_fails_naming(capsys, f"{bad}.json", [
            "--data", seq, "--weights", str(bad), "--queries", os.path.join(seq, "queries.csv"),
            "--out", str(tmp_path / "t.csv"), *tiny_cli_args])

    @pytest.mark.parametrize("name, text", [
        ("manifest.json", "{"),
        ("manifest.json", '{"dt_track_us": 25000}'),
        ("frames/frame_0000000000.pgm", "P5\n48 forty-eight\n255\n"),
    ], ids=["manifest-not-json", "no-frame-times", "netpbm-word"])
    def test_track_rejects_a_bad_sequence_file(self, pipeline_dirs, tiny_cli_args, tmp_path,
                                               capsys, name, text):
        _, data, weights = pipeline_dirs
        seq = tmp_path / "seq"
        shutil.copytree(os.path.join(data, "seq_000"), seq)
        (seq / name).write_text(text)
        self._track_fails_naming(capsys, seq / name, [
            "--data", str(seq), "--weights", weights, "--queries", str(seq / "queries.csv"),
            "--out", str(tmp_path / "t.csv"), *tiny_cli_args])
