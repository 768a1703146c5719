import os
import tracemalloc

import numpy as np
import pytest

from evtrack import pipeline, training
from evtrack.autodiff import Tensor, backward, load_weights, precision, read_weight_file, save_weights
from evtrack.autodiff.params import save_arrays
from evtrack.errors import ConfigError, MetricError, TrainingError, UsageError
from evtrack.metrics import GtTrack, evaluate_tracks, expected_feature_age, feature_age
from evtrack.training import (
    TrainConfig,
    iteration_weights,
    load_checkpoint,
    lr_schedule,
    save_checkpoint,
    sequence_loss,
    train,
    window_loss,
)
from fd_oracle import assert_grads_close, numerical_grad
from util_fixtures import tiny_model, tiny_sequence, traced_peak


class TestWindowLoss:
    def test_iteration_weights(self):
        assert np.allclose(iteration_weights(4, 0.8), [0.512, 0.64, 0.8, 1.0])

    def test_perfect_prediction_zero(self):
        gt = np.random.default_rng(0).uniform(0, 10, size=(4, 2, 2)).astype(np.float32)
        snaps = [Tensor(gt.copy()) for _ in range(4)]
        loss = window_loss(snaps, gt, np.ones((4, 2)), 0.8)
        assert float(loss.data) == 0.0

    def test_constant_one_pixel_error(self):
        gt = np.zeros((16, 3, 2), dtype=np.float32)
        pred = gt.copy()
        pred[..., 0] += 1.0  # 1 px error in x everywhere
        snaps = [Tensor(pred.copy()) for _ in range(4)]
        loss = window_loss(snaps, gt, np.ones((16, 3)), 0.8)
        assert float(loss.data) == pytest.approx(2.952, abs=1e-5)

    def test_mask_excludes_entries(self):
        gt = np.zeros((4, 2, 2), dtype=np.float32)
        pred = gt.copy()
        pred[:, 1, :] = 100.0  # huge error only on the masked query
        mask = np.ones((4, 2))
        mask[:, 1] = 0.0
        loss = window_loss([Tensor(pred)], gt, mask, 0.8)
        assert float(loss.data) == 0.0

    def test_shape_errors(self):
        with pytest.raises(UsageError):
            window_loss([], np.zeros((2, 2, 2)), np.ones((2, 2)), 0.8)
        with pytest.raises(UsageError):
            window_loss([Tensor(np.zeros((2, 2, 2)))], np.zeros((3, 2, 2)),
                        np.ones((2, 2)), 0.8)
        with pytest.raises(UsageError):
            TrainConfig(gamma=0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        with precision("f64"):
            gt = rng.uniform(0, 4, size=(3, 2, 2))
            mask = (rng.random((3, 2)) > 0.3).astype(np.float64)
            arrays = [gt + rng.uniform(0.5, 2.0, gt.shape) * rng.choice([-1, 1], gt.shape)
                      for _ in range(3)]

            def scalar_fn(*arrs):
                with precision("f64"):
                    snaps = [Tensor(a) for a in arrs]
                    return float(window_loss(snaps, gt, mask, 0.8).data)

            tensors = [Tensor(a, requires_grad=True) for a in arrays]
            loss = window_loss(tensors, gt, mask, 0.8)
            backward(loss)
            for i, t in enumerate(tensors):
                num = numerical_grad(scalar_fn, arrays, i)
                assert_grads_close(t.grad, num, 1e-4, label=f"snapshot{i}")


def _step_grads(model, seq, monkeypatch=None):
    """Parameter gradients of one `sequence_loss`. With `monkeypatch`, the
    whole-sequence oracle instead: the session makes no cuts, and the
    window losses are summed and back-propagated once at the end."""
    frames, events, queries, gt_by_id = seq
    model.store.zero_grad()
    if monkeypatch is None:
        sequence_loss(model, frames, events, queries, gt_by_id, 0.8)
    else:
        losses = []
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "cut", lambda t: False)
            patch.setattr(training, "backward", losses.append)
            sequence_loss(model, frames, events, queries, gt_by_id, 0.8)
        total = losses[0]
        for loss in losses[1:]:
            total = total + loss
        backward(total)
    return [np.zeros_like(p.data) if p.grad is None else p.grad for _, p in model.store.items()]


def _rel_l2(got, want):
    num = sum(float(np.sum((g.astype(np.float64) - w) ** 2)) for g, w in zip(got, want))
    return np.sqrt(num / sum(float(np.sum(w.astype(np.float64) ** 2)) for w in want))


def _seq(duration_us):
    frames, events, queries, gt_by_id, _, slice_times = tiny_sequence(seed=1, duration_us=duration_us)
    return (frames, events, queries, gt_by_id), len(slice_times)


class TestWindowedBackward:
    """Each window's loss goes back when the window is refined, the rest of
    the graph when the session lets go of it: the gradients are those of
    one backward over the whole sequence, and memory is that of a window."""

    @pytest.mark.parametrize("mode", [{}, {"use_frames": False}, {"use_events": False},
                                      {"accumulate_mode": "fixed"}])
    def test_gradients_match_one_whole_sequence_backward(self, mode, monkeypatch):
        seq, n_slices = _seq(375_000)
        assert n_slices == 16  # 7 windows of 4 slices, 2 apart
        for precision_kind, bound in (("f32", 1e-5), ("f64", 1e-12)):
            with precision(precision_kind):
                got = _step_grads(tiny_model(seed=0, randomize_heads=True, **mode), seq)
                want = _step_grads(tiny_model(seed=0, randomize_heads=True, **mode), seq,
                                   monkeypatch)
            assert _rel_l2(got, want) < bound, precision_kind

    @pytest.mark.parametrize("mode", [{}, {"use_frames": False}, {"use_events": False}])
    def test_staggered_births_match_one_whole_sequence_backward(self, mode, monkeypatch):
        """Queries born at three frames: each birth group's template block
        gathers its windows' gradients and goes back at `finish`."""
        (frames, events, queries, gt_by_id), _ = _seq(375_000)
        rows, gt = [], {}
        for k, t_birth in enumerate((0, 100_000, 250_000)):
            for qid, _, _, _ in queries:
                samples = [s for s in gt_by_id[qid] if s[0] >= t_birth]
                assert samples[0][0] == t_birth
                rows.append((10 * qid + k, t_birth, samples[0][1], samples[0][2]))
                gt[10 * qid + k] = samples
        seq = (frames, events, rows, gt)
        with precision("f64"):
            got = _step_grads(tiny_model(seed=0, randomize_heads=True, **mode), seq)
            want = _step_grads(tiny_model(seed=0, randomize_heads=True, **mode), seq, monkeypatch)
        assert _rel_l2(got, want) < 1e-12

    def test_seven_windows_peak_within_one_and_a_half_of_one(self):
        model = tiny_model(seed=0, randomize_heads=True)

        def peak(seq):
            _step_grads(model, seq)  # warm
            model.store.zero_grad()
            return traced_peak(lambda: sequence_loss(model, *seq, 0.8))[1]

        (one, n_one), (seven, n_seven) = _seq(75_000), _seq(375_000)
        assert (n_one, n_seven) == (4, 16)
        assert peak(seven) <= 1.5 * peak(one)

    def test_one_window_peaks_near_what_its_forward_holds(self, monkeypatch):
        """Forward plus backward of one window peaks at most at what the
        forward holds when its loss goes back, plus what a backward makes:
        one gradient per parameter and the largest conv backward's columns,
        the event stem's Cin*7*7 x (16x16 outputs), which conv2d rebuilds
        per call. The peak is the first slice release's stem backward.

        This was a ratio, at most 1.3x what the forward holds, while graph
        nodes held their tensors: 1014 kB against 874 kB held (1.16x, so
        1135 kB allowed). With nodes holding only what vjps read, the
        forward holds 554 kB and the peak is 791 kB (1.43x): the stem's
        201 kB of columns did not shrink with what is held. The sum below
        allows 963 kB."""
        seq, n_slices = _seq(75_000)
        assert n_slices == 4
        model = tiny_model(seed=0, randomize_heads=True)
        _step_grads(model, seq)  # warm
        held = []

        def measured_backward(root):
            held.append(tracemalloc.get_traced_memory()[0])
            backward(root)

        def measured_loss():
            held.append(tracemalloc.get_traced_memory()[0])  # the base
            return sequence_loss(model, *seq, 0.8)

        monkeypatch.setattr(training, "backward", measured_backward)
        model.store.zero_grad()
        _, peak, _ = traced_peak(measured_loss)
        assert len(held) == 2
        base, at_backward = held
        grads = sum(p.data.nbytes for _, p in model.store.items())
        stem = model.event_encoder.stem.weight.data
        columns = stem[0].nbytes * 16 * 16  # a 32x32 sensor, stride 2
        assert peak <= (at_backward - base) + grads + columns


class TestLrSchedule:
    def test_warmup_endpoints(self):
        assert lr_schedule(0, 5e-4, 100, 1000) == 0.0
        assert lr_schedule(100, 5e-4, 100, 1000) == pytest.approx(5e-4)
        assert lr_schedule(50, 5e-4, 100, 1000) == pytest.approx(2.5e-4)

    def test_cosine_decays_to_zero(self):
        values = [lr_schedule(s, 5e-4, 10, 200) for s in range(10, 201, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(0.0, abs=1e-9)


class TestFeatureAge:
    def make_gt(self, n=10, dt=1000):
        return GtTrack(0, [(i * dt, float(i), 0.0) for i in range(n)])

    def test_hand_case_point_six(self):
        gt = self.make_gt(10)
        # within delta for the first 6 slices, then far off
        pred = [(i * 1000, float(i), 0.0) for i in range(6)]
        pred += [(i * 1000, float(i) + 50.0, 0.0) for i in range(6, 10)]
        assert feature_age(pred, gt, delta_px=5.0) == pytest.approx(0.6)

    def test_always_within_is_one(self):
        gt = self.make_gt(8)
        pred = [(t, x + 0.5, y) for t, x, y in gt.samples]
        assert feature_age(pred, gt, delta_px=1.0) == 1.0

    def test_fail_at_first_slice_is_zero(self):
        gt = self.make_gt(5)
        pred = [(t, x + 100.0, y) for t, x, y in gt.samples]
        assert feature_age(pred, gt, delta_px=5.0) == 0.0

    def test_missing_samples_count_as_lost(self):
        gt = self.make_gt(10)
        pred = [(i * 1000, float(i), 0.0) for i in range(4)]  # stops early
        assert feature_age(pred, gt, delta_px=5.0) == pytest.approx(0.4)

    def test_no_reacquisition_credit(self):
        gt = self.make_gt(10)
        pred = [(t, x, y) for t, x, y in gt.samples]
        pred[3] = (3000, 99.0, 0.0)  # one bad slice in the middle
        assert feature_age(pred, gt, delta_px=5.0) == pytest.approx(0.3)

    def test_monotone_in_error(self):
        gt = self.make_gt(10)
        base = [(t, x + 1.0, y) for t, x, y in gt.samples]
        worse = list(base)
        worse[5] = (5000, gt.samples[5][1] + 10.0, 0.0)
        assert feature_age(worse, gt, 5.0) <= feature_age(base, gt, 5.0)

    def test_translation_invariance(self):
        gt = self.make_gt(10)
        pred = [(t, x + 2.0, y - 1.0) for t, x, y in gt.samples]
        shifted_gt = GtTrack(0, [(t, x + 7.0, y + 3.0) for t, x, y in gt.samples])
        shifted_pred = [(t, x + 7.0, y + 3.0) for t, x, y in pred]
        assert feature_age(pred, gt, 5.0) == feature_age(shifted_pred, shifted_gt, 5.0)

    def test_zero_lifespan_error(self):
        with pytest.raises(MetricError):
            feature_age([], GtTrack(0, []), 5.0)

    @pytest.mark.parametrize("bad", [
        (float("nan"), float("nan")), (float("nan"), 1.0), (float("inf"), 1.0),
        (1.0, float("-inf")),
    ])
    def test_non_finite_prediction_ends_track(self, bad):
        gt = GtTrack(0, [(0, 1.0, 1.0), (1000, 1.0, 1.0), (2000, 1.0, 1.0)])
        pred = [(0, 1.0, 1.0), (1000, *bad), (2000, 1.0, 1.0)]
        assert feature_age(pred, gt, delta_px=5.0) == pytest.approx(1 / 3)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_delta_rejected(self, delta):
        gt = self.make_gt(3)
        with pytest.raises(MetricError, match="delta_px must be finite and positive"):
            feature_age(gt.samples, gt, delta_px=delta)


class TestExpectedFeatureAge:
    def test_hand_case(self):
        assert expected_feature_age([0.8, 0.0]) == pytest.approx(0.4)

    def test_all_perfect(self):
        assert expected_feature_age([1.0, 1.0, 1.0]) == 1.0

    def test_all_lost(self):
        assert expected_feature_age([0.0, 0.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(MetricError):
            expected_feature_age([])


class TestEvaluateTracks:
    def test_survivor_average_vs_efa(self):
        gts = [GtTrack(0, [(i, float(i), 0.0) for i in range(10)]),
               GtTrack(1, [(i, float(i), 0.0) for i in range(10)])]
        pred = {0: [(i, float(i), 0.0) for i in range(8)]}  # 0.8 age; track 1 missing
        report = evaluate_tracks(pred, gts, delta_px=1.0)
        assert report.fa_avg == pytest.approx(0.8)
        assert report.efa_avg == pytest.approx(0.4)
        assert report.per_track[1]["tracked"] is False

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -2.5])
    def test_bad_delta_rejected(self, delta):
        gts = [GtTrack(0, [(i, float(i), 0.0) for i in range(3)])]
        with pytest.raises(MetricError, match="delta_px must be finite and positive"):
            evaluate_tracks({0: gts[0].samples}, gts, delta_px=delta)

    def test_efa_never_exceeds_fa(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            gts = []
            pred = {}
            for tid in range(n):
                gts.append(GtTrack(tid, [(i, float(i), 0.0) for i in range(10)]))
                good = int(rng.integers(0, 11))
                pred[tid] = [(i, float(i), 0.0) for i in range(good)]
            report = evaluate_tracks(pred, gts, delta_px=1.0)
            assert report.efa_avg <= report.fa_avg + 1e-12


class TestTrainingLoop:
    def test_smoke_and_resume_determinism(self, tmp_path):
        frames, events, queries, gt_by_id, _, _ = tiny_sequence(seed=0, duration_us=150_000)
        sequences = [(frames, events, queries, gt_by_id)]
        cfg = TrainConfig(steps=4, lr=1e-3, warmup_steps=2, checkpoint_every=2, seed=1)

        model_a = tiny_model(seed=1)
        hist_a = train(model_a, sequences, cfg, str(tmp_path / "a"))
        assert len(hist_a) == 4
        assert os.path.exists(tmp_path / "a" / "weights.bin")
        assert os.path.exists(tmp_path / "a" / "weights.bin.json")
        log = (tmp_path / "a" / "loss_log.csv").read_text().splitlines()
        assert log[0] == "step,loss,lr"
        assert len(log) == 5

        # run the first 2 steps, then resume from the checkpoint
        model_b = tiny_model(seed=1)
        cfg_b = TrainConfig(steps=2, lr=1e-3, warmup_steps=2, checkpoint_every=2, seed=1)
        train(model_b, sequences, cfg_b, str(tmp_path / "b"))
        model_c = tiny_model(seed=1)
        hist_c = train(model_c, sequences, cfg, str(tmp_path / "b"),
                       resume=str(tmp_path / "b" / "checkpoint.bin"))
        assert hist_c[0][0] == 2
        # the resumed step-2/3 losses equal the uninterrupted run's
        assert hist_c[0][1] == pytest.approx(hist_a[2][1], rel=1e-6)
        assert hist_c[1][1] == pytest.approx(hist_a[3][1], rel=1e-6)

    def test_loss_is_finite_and_decreases_a_little(self, tmp_path):
        frames, events, queries, gt_by_id, _, _ = tiny_sequence(seed=1, duration_us=150_000)
        model = tiny_model(seed=0)
        cfg = TrainConfig(steps=6, lr=2e-3, warmup_steps=1, checkpoint_every=0, seed=0)
        hist = train(model, [(frames, events, queries, gt_by_id)], cfg, str(tmp_path / "t"))
        losses = [h[1] for h in hist]
        assert all(np.isfinite(losses))
        assert losses[-1] < losses[0]

    def test_empty_dataset_rejected(self, tmp_path):
        model = tiny_model(seed=0)
        with pytest.raises(UsageError):
            train(model, [], TrainConfig(steps=1), str(tmp_path))

    def test_checkpoint_restores_optimizer_state(self, tmp_path):
        frames, events, queries, gt_by_id, _, _ = tiny_sequence(seed=0, duration_us=150_000)
        model = tiny_model(seed=2)
        cfg = TrainConfig(steps=2, lr=1e-3, warmup_steps=1, checkpoint_every=1, seed=2)
        train(model, [(frames, events, queries, gt_by_id)], cfg, str(tmp_path / "x"))
        fresh = tiny_model(seed=2)
        step = load_checkpoint(fresh, str(tmp_path / "x" / "checkpoint.bin"))
        assert step == 2
        name = fresh.store.names()[0]
        assert fresh.store.step == 2
        m, v = fresh.store.moments(name)
        assert np.array_equal(m, model.store.moments(name)[0])

    def test_loading_reads_each_array_once(self, tmp_path):
        """Loading the default model's weight file or checkpoint peaks at
        most 1.1x the file's size, and a checkpoint read for its weights
        alone leaves parameters that own their bytes, not views of the
        blob that would keep the moments alive."""
        model = pipeline.TrackerModel(pipeline.TrackerConfig(), seed=1)
        weights, checkpoint = str(tmp_path / "weights.bin"), str(tmp_path / "checkpoint.bin")
        save_weights(model.store, weights)
        save_checkpoint(model, checkpoint, step=0)
        _, peak, _ = traced_peak(lambda: load_weights(model.store, weights))
        assert peak <= 1.1 * os.path.getsize(weights)
        _, peak, _ = traced_peak(lambda: load_checkpoint(model, checkpoint))
        assert peak <= 1.1 * os.path.getsize(checkpoint)
        fresh = tiny_model(seed=3)
        path = str(tmp_path / "tiny.bin")
        save_checkpoint(fresh, path, step=0)
        load_weights(fresh.store, path)
        assert all(p.data.base is None and p.data.flags.owndata for _, p in fresh.store.items())
        assert all(fresh.store.moments(name) is None for name in fresh.store.names())

    def test_checkpoint_written_one_array_at_a_time(self, tmp_path):
        """Saving the default model's checkpoint, before any step (so every
        moment is written as zeros), peaks below its largest array plus
        256 KB: each array is written as it is made, not gathered first."""
        model = pipeline.TrackerModel(pipeline.TrackerConfig(), seed=1)
        largest = max(p.data.nbytes for _, p in model.store.items())
        path = str(tmp_path / "checkpoint.bin")
        _, peak, _ = traced_peak(lambda: save_checkpoint(model, path, step=0))
        assert peak < largest + (256 << 10)
        assert load_checkpoint(model, path) == 0

    @pytest.mark.parametrize("spoil, error, match", [
        pytest.param("no-moments", UsageError, "holds no optimizer state", id="no-moments"),
        pytest.param("config", ConfigError, "trained with another tracker config", id="config"),
        pytest.param("removed-key", ConfigError, "tracker keys this tracker does not have: "
                     "fixed_window_us=7000", id="removed-key"),
        pytest.param("last-shape", ConfigError, "shape mismatch", id="last-shape"),
        pytest.param("last-moment-shape", ConfigError, "shape mismatch", id="last-moment-shape"),
        pytest.param("step", ConfigError, "step 'seven' is not a whole number", id="step"),
        pytest.param("negative-step", ConfigError, "step -2 is negative", id="negative-step"),
        pytest.param("tracker-list", ConfigError, "tracker config as a list", id="tracker-list"),
    ])
    def test_rejected_checkpoint_changes_nothing(self, tmp_path, spoil, error, match):
        """A checkpoint rejected for missing optimizer state, another
        tracker config, a tracker key that no longer exists, a bad shape in the last parameter or its moment, or
        a recorded step or tracker config of the wrong type leaves every
        parameter array, every moment and the step count as they were: the
        same objects, not copies."""
        model = tiny_model(seed=0)
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(tiny_model(seed=1), path, step=3)
        load_checkpoint(model, path)
        before = {name: (p.data, *model.store.moments(name)) for name, p in model.store.items()}
        arrays, meta = read_weight_file(path)
        last = model.store.names()[-1]
        meta["step"] = 7
        if spoil == "no-moments":
            arrays = {k: a for k, a in arrays.items() if not k.startswith("opt.")}
        elif spoil == "config":
            meta["tracker"]["dt_track_us"] += 1
        elif spoil == "removed-key":  # an event window of its own, which no tracker reads now
            meta["tracker"]["fixed_window_us"] = 7000
        elif spoil in ("step", "negative-step"):
            meta["step"] = "seven" if spoil == "step" else -2
        elif spoil == "tracker-list":
            meta["tracker"] = list(meta["tracker"])
        else:
            key = last if spoil == "last-shape" else f"opt.{last}.v"
            arrays[key] = np.zeros((*arrays[key].shape, 2), dtype=np.float32)
        save_arrays(arrays, path, extra=meta)
        with pytest.raises(error, match=match):
            load_checkpoint(model, path)
        assert model.store.step == 3
        for name, p in model.store.items():
            held = (p.data, *model.store.moments(name))
            assert all(now is then for now, then in zip(held, before[name])), name

    def test_checkpoint_of_another_model_rejected(self, tmp_path):
        """A 16-channel checkpoint must not load into a 24-channel model."""
        path = str(tmp_path / "checkpoint.bin")
        save_checkpoint(tiny_model(seed=0), path, step=3)
        with pytest.raises(ConfigError, match="shape mismatch"):
            load_checkpoint(tiny_model(seed=0, channels=24), path)
