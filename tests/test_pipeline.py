import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtrack import pipeline
from evtrack.autodiff import no_grad
from evtrack.autodiff.tensor import grad_enabled
from evtrack.errors import ConfigError, EvtrackError, OrderingError, UsageError
from evtrack.events import EventStream
from evtrack.metrics import evaluate_tracks
from evtrack.pipeline import (
    Track,
    TrackerConfig,
    TrackerModel,
    TrackSession,
    frame_forward,
    load_queries_csv,
    load_tracks_csv,
    run_offline,
    save_tracks_csv,
    slice_forward,
)
from evtrack.training import sequence_loss
from test_boundary_fuzz import FIELDS, malformed_batch, malformed_frame
from util_fixtures import scramble_heads, tiny_model, tiny_sequence, traced_peak


@pytest.fixture(scope="module")
def seq():
    return tiny_sequence(seed=3)


def _samples_by_slice(tracks):
    times = sorted({t for tr in tracks for t, _, _ in tr.samples})
    return times


class TestOffline:
    def test_every_slice_emitted_once(self, seq):
        frames, events, queries, _, _, slice_times = seq
        model = tiny_model(seed=0)
        with no_grad():
            tracks, session = run_offline(model, frames, events, queries)
        assert session._n_slices == len(slice_times)
        for track in tracks:
            assert [t for t, _, _ in track.samples] == slice_times
        # strictly increasing timestamps per track
        for track in tracks:
            ts = [t for t, _, _ in track.samples]
            assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_window_starts_cover_40_slices(self):
        # 40 slices, window 16, step 8 -> refinements start at 0, 8, 16, 24
        frames, events, queries, _, _, slice_times = tiny_sequence(
            seed=1, duration_us=975_000, frame_period_us=75_000, dt_track_us=25_000
        )
        assert len(slice_times) == 40
        model = tiny_model(seed=0, window=16, t_step=8)
        runs = []
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries, on_window=runs.append)
        starts = [run.start_index for run in runs]
        assert starts == [0, 8, 16, 24]
        for track in tracks:
            assert len(track.samples) == 40

    def test_zero_weights_give_constant_tracks(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0)
        for _, p in model.store.items():
            p.data[...] = 0.0
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries)
        for track, row in zip(tracks, sorted(queries, key=lambda r: (r[1], r[0]))):
            xs = np.array([x for _, x, _ in track.samples])
            ys = np.array([y for _, _, y in track.samples])
            assert np.allclose(xs, row[2], atol=1e-5)
            assert np.allclose(ys, row[3], atol=1e-5)

    def test_first_sample_is_query_position(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries)
        by_id = {t.id: t for t in tracks}
        for qid, t_birth, x, y in queries:
            t0, x0, y0 = by_id[qid].samples[0]
            assert x0 == pytest.approx(x, abs=1e-5)
            assert y0 == pytest.approx(y, abs=1e-5)
        # with scrambled heads the later samples actually move
        moved = any(
            abs(s[1] - track.samples[0][1]) > 1e-4
            for track in tracks
            for s in track.samples[1:]
        )
        assert moved

    def test_trailing_partial_window(self):
        # 7 slices with window 4 / step 2: starts 0, 2, then final partial at 4
        frames, events, queries, _, _, slice_times = tiny_sequence(
            seed=2, duration_us=150_000, dt_track_us=25_000, frame_period_us=50_000
        )
        assert len(slice_times) == 7
        model = tiny_model(seed=0)
        runs = []
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries, on_window=runs.append)
        starts = [run.start_index for run in runs]
        assert starts == [0, 2, 4]
        lengths = [run.active.shape[0] for run in runs]
        assert lengths == [4, 4, 3]
        for track in tracks:
            assert len(track.samples) == 7


class TestOneInputPath:
    """`run_offline` reaches the session through `advance` alone: it takes
    every event batch `advance` takes and rejects what `advance` rejects,
    and it feeds each frame with the events before it in one call."""

    def test_event_columns_track_as_the_stream(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            want, _ = run_offline(model, frames, events, queries)
            got, _ = run_offline(model, frames, (events.xs, events.ys, events.ts, events.ps,
                                                 events.geometry), queries)
        assert [t.id for t in got] == [t.id for t in want]
        for a, b in zip(got, want):
            assert np.array_equal(np.array(a.samples), np.array(b.samples))

    @pytest.mark.parametrize("make", [lambda ev: None, lambda ev: (ev.xs, ev.ys, ev.ts, ev.ps)],
                             ids=["none", "four-items"])
    def test_bad_events_rejected_as_advance_rejects_them(self, seq, make):
        """`advance` reads None as no batch; as the whole sequence's
        events it is rejected by the conversion `advance` applies."""
        frames, events, queries, _, _, _ = seq
        with pytest.raises(UsageError, match="an event batch is an EventStream or") as direct:
            pipeline._event_batch(make(events))
        with pytest.raises(UsageError) as offline:
            run_offline(tiny_model(seed=0), frames, make(events), queries)
        assert str(offline.value) == str(direct.value)

    @pytest.mark.parametrize("make, match", [
        pytest.param(lambda frames: None, r"frames NoneType is not a list of \(t_us, image\) pairs",
                     id="none"),
        pytest.param(lambda frames: [frames[0], 5], r"frame int is not a \(t_us, image\) pair",
                     id="int"),
        pytest.param(lambda frames: [(*frames[0], frames[0][1])],
                     r"frame tuple is not a \(t_us, image\) pair", id="three-items"),
    ])
    def test_bad_frames_rejected(self, seq, make, match):
        frames, events, queries, _, _, _ = seq
        with pytest.raises(UsageError, match=match):
            run_offline(tiny_model(seed=0), make(frames), events, queries)

    def test_one_advance_call_per_frame_and_one_after(self, seq, monkeypatch):
        """Training on k frames makes k + 1 `advance` calls: each frame
        with the events before it, then the events after the last frame."""
        frames, events, queries, gt_by_id, _, _ = seq
        calls = []
        advance = TrackSession.advance

        def counting(self, frame=None, events=None):
            calls.append((frame is not None, events is not None))
            return advance(self, frame=frame, events=events)

        monkeypatch.setattr(TrackSession, "advance", counting)
        sequence_loss(tiny_model(seed=0), frames, events, queries, gt_by_id, 0.8)
        assert calls == [(True, True)] * len(frames) + [(False, True)]


class TestStreaming:
    def test_chunked_equals_offline(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            offline_tracks, _ = run_offline(model, frames, events, queries)

            session = TrackSession(model, queries)
            emitted = []
            inputs = [("f", t, img) for t, img in frames]
            # per-event micro-batches, interleaved with frames in time order
            for i in range(len(events)):
                inputs.append(("e", int(events.ts[i]), i))
            inputs.sort(key=lambda rec: (rec[1], rec[0] == "e"))
            for kind, t, payload in inputs:
                if kind == "f":
                    emitted += session.advance(frame=(t, payload))
                else:
                    i = payload
                    emitted += session.advance(events=EventStream(
                        events.xs[i : i + 1], events.ys[i : i + 1], events.ts[i : i + 1],
                        events.ps[i : i + 1], events.geometry,
                    ))
            emitted += session.finish()
        assert sorted(emitted) == sorted((t.id, *s) for t in offline_tracks for s in t.samples)

    def test_no_new_slices_no_emission(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0)
        with no_grad():
            session = TrackSession(model, queries)
            out = session.advance(frame=(frames[0][0], frames[0][1]))
            assert out == []

    def test_t_step_1_emits_each_slice_after_warmup(self, seq):
        frames, events, queries, _, _, slice_times = seq
        model = tiny_model(seed=0, window=4, t_step=1)
        runs = []
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries, on_window=runs.append)
        # first window covers 4 slices, then one new refinement per slice
        starts = [r.start_index for r in runs]
        assert starts == list(range(0, len(slice_times) - 3))
        for track in tracks:
            assert len(track.samples) == len(slice_times)

    def test_out_of_order_inputs_rejected(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0)

        # frame going back in time
        with no_grad():
            session = TrackSession(model, queries)
            session.advance(frame=frames[0])
            session.advance(frame=frames[1])
            with pytest.raises(OrderingError):
                session.advance(frame=(frames[1][0] - 1, frames[1][1]))

        # event batch starting before the previous batch ended
        with no_grad():
            session = TrackSession(model, queries)
            session.advance(frame=frames[0])
            session.advance(events=events)
            half = EventStream(events.xs[:5], events.ys[:5], events.ts[:5], events.ps[:5],
                               events.geometry)
            with pytest.raises(OrderingError):
                session.advance(events=half)

        # events landing on slices that were already processed
        with no_grad():
            session = TrackSession(model, queries)
            session.advance(frame=frames[0])
            session.advance(frame=frames[-1])  # watermark jumps; slices process eventless
            early = EventStream(events.xs[:5], events.ys[:5], events.ts[:5], events.ps[:5],
                                events.geometry)
            with pytest.raises(OrderingError):
                session.advance(events=early)

    def test_second_frame_at_same_time_rejected(self, seq):
        frames, _, queries, _, _, _ = seq
        t, img = frames[0]
        with no_grad():
            session = TrackSession(tiny_model(seed=0), queries)
            session.advance(frame=(t, img))
            with pytest.raises(OrderingError, match=f"second frame at {t}"):
                session.advance(frame=(t, np.full_like(img, 7.0)))
        assert np.array_equal(session._frames[t].image, img.astype(np.float32))  # the first kept

    def test_empty_queries_rejected(self, seq):
        model = tiny_model(seed=0)
        with pytest.raises(UsageError):
            TrackSession(model, [])

    def test_bad_query_positions_rejected(self, seq):
        frames, _, _, _, _, _ = seq  # 32x32 sensor
        model = tiny_model(seed=0)
        with pytest.raises(UsageError, match="not finite"):
            TrackSession(model, [(0, 0, float("nan"), 4.0)])
        for x, y in ((500.0, -300.0), (32.0, 4.0), (4.0, 32.0), (-0.5, 4.0)):
            session = TrackSession(model, [(0, 0, 4.0, 4.0), (1, 0, x, y)])
            with pytest.raises(UsageError, match="outside the 32x32 sensor"):
                session.advance(frame=frames[0])
        session = TrackSession(model, [(0, 0, 0.0, 31.9)])
        session.advance(frame=frames[0])

    @pytest.mark.parametrize("row, what", [
        ((0, float("nan"), 4.0, 4.0), "birth time nan"),
        ((0, 2.5, 4.0, 4.0), "birth time 2.5"),
        (("a", 0, 4.0, 4.0), "id 'a'"),
        ((1.5, 0, 4.0, 4.0), "id 1.5"),
    ])
    def test_bad_query_rows_rejected(self, row, what):
        with pytest.raises(UsageError, match=f"{what} is not a whole number"):
            TrackSession(tiny_model(seed=0), [(7, 0, 1.0, 1.0), row])

    @pytest.mark.parametrize("row, what", [
        pytest.param((0, 0, "4.0", 4.0), "x '4.0' is not a number", id="str"),
        pytest.param((0, 0, 4.0, True), "y True is not a number", id="bool"),
        pytest.param((0, 0, None, 4.0), "x None is not a number", id="none"),
        pytest.param((0, 0, 4.0, float("nan")), "y nan is not finite", id="nan"),
        pytest.param((0, 0, float("inf"), 4.0), "x inf is not finite", id="inf"),
        pytest.param((0, 0, 4.0, 10**400), "y 1000.* is not finite", id="int-past-float"),
    ])
    def test_query_positions_are_finite_numbers(self, row, what):
        """A position is taken as given or rejected: the string "4.0" is not
        read as 4.0, nor True as 1.0."""
        with pytest.raises(UsageError, match=f"query row .*: {what}"):
            TrackSession(tiny_model(seed=0), [(7, 0, 1.0, 1.0), row])

    @pytest.mark.filterwarnings("error")
    def test_query_position_past_float32_rejected_without_a_warning(self):
        with pytest.raises(UsageError, match=r"query 0 at \(inf, 4\) is not finite"):
            TrackSession(tiny_model(seed=0), [(0, 0, 1e39, 4.0)])

    @pytest.mark.parametrize("downsample", [4, 8])
    def test_small_sensors_rejected_at_the_first_input_or_tracked(self, downsample):
        """Every sensor from 1x1 to 9x9 is either rejected by the first
        frame, before anything is queued, or tracked through `finish`."""
        model = tiny_model(seed=0, randomize_heads=True, downsample=downsample)
        rng = np.random.default_rng(0)
        tracked = []
        for w in range(1, 10):
            for h in range(1, 10):
                session = TrackSession(model, [(0, 0, 0.0, 0.0), (1, 0, w - 0.5, h - 0.5)])
                images = rng.random((2, 1, h, w)).astype(np.float32)
                events = (np.arange(4) % w, np.arange(4) % h, np.arange(4) * 10_000 + 1,
                          np.ones(4), (w, h))
                with no_grad():
                    try:
                        session.advance(frame=(0, images[0]))
                    except ConfigError:
                        assert session._sensor is None and not session._frames
                        continue
                    session.advance(events=events)
                    session.advance(frame=(50_000, images[1]))
                    emitted = session.advance(events=(events[0], events[1], events[2] + 50_000,
                                                      events[3], (w, h))) + session.finish()
                assert len(emitted) == 2 * 4  # 2 queries, slices at 0, 25, 50, 75 ms
                assert np.isfinite([sample[2:] for sample in emitted]).all()
                tracked.append((w, h))
        # the sensor spans the stride both ways, and the 2-level pyramid
        # needs a feature map 2 cells long one way
        assert tracked == [(w, h) for w in range(1, 10) for h in range(1, 10)
                           if min(w, h) >= downsample and max(w, h) > downsample]

    def test_query_outside_sensor_rejected_when_events_come_first(self, seq):
        _, events, _, _, _, _ = seq  # 32x32 sensor
        session = TrackSession(tiny_model(seed=0), [(0, 0, 4.0, 40.0)])
        with pytest.raises(UsageError, match="outside the 32x32 sensor"):
            session.advance(events=events)

    def test_frame_size_change_rejected(self, seq):
        frames, _, queries, _, _, _ = seq
        with no_grad():
            session = TrackSession(tiny_model(seed=0), queries)
            session.advance(frame=frames[0])
            with pytest.raises(ConfigError, match="frame is 40x32, but the sensor is 32x32"):
                session.advance(frame=(frames[1][0], np.zeros((1, 32, 40), dtype=np.float32)))

    def test_frame_not_channels_height_width_rejected(self, seq):
        frames, _, queries, _, _, _ = seq
        t, img = frames[0]
        session = TrackSession(tiny_model(seed=0), queries)
        with pytest.raises(ConfigError, match=r"shape \(32, 32\), expected \(1, H, W\)"):
            session.advance(frame=(t, img[0]))
        with no_grad():
            session.advance(frame=(t, img))
        with pytest.raises(ConfigError, match=r"shape \(2, 32, 32\), expected \(1, 32, 32\)"):
            session.advance(frame=(frames[1][0], np.concatenate([img, img])))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_frame_rejected(self, seq, bad):
        frames, _, queries, _, _, _ = seq
        session = TrackSession(tiny_model(seed=0), queries)
        session.advance(frame=frames[0])
        t, image = frames[1]
        image = image.copy()
        image[0, 5, 7] = bad
        with pytest.raises(UsageError, match=f"frame at {t} has non-finite pixels"):
            session.advance(frame=(t, image))
        assert list(session._frames) == [frames[0][0]]  # not stored
        session.advance(frame=frames[1])

    def test_event_geometry_change_rejected(self, seq):
        frames, events, queries, _, _, _ = seq
        wide = EventStream(events.xs, events.ys, events.ts, events.ps, (40, 32))
        with no_grad():
            session = TrackSession(tiny_model(seed=0), queries)
            session.advance(frame=frames[0])
            with pytest.raises(ConfigError, match="event batch is 40x32, but the sensor is 32x32"):
                session.advance(events=wide)
            # events first: the frame must then match their geometry
            session = TrackSession(tiny_model(seed=0), queries)
            session.advance(events=wide)
            with pytest.raises(ConfigError, match="frame is 32x32, but the sensor is 40x32"):
                session.advance(frame=frames[0])

    def test_session_owns_grad_mode(self, seq):
        frames, events, queries, _, _, _ = seq

        def held_tensors(training):
            hook = (lambda run: None) if training else None
            session = TrackSession(tiny_model(seed=0), queries, on_window=hook)
            cursor = 0
            for t, image in frames[:4]:  # 6 slices: 2 left in the window, one frame encoded
                hi = int(np.searchsorted(events.ts, t))
                session.advance(events=EventStream(events.xs[cursor:hi], events.ys[cursor:hi],
                                                   events.ts[cursor:hi], events.ps[cursor:hi],
                                                   events.geometry))
                session.advance(frame=(t, image))
                cursor = hi
            assert grad_enabled()  # the caller's mode is left as it was
            held = [lvl for s in session._window for lvl in s.pyramid.levels]
            held += [f.features for f in session._frames.values() if f.features is not None]
            assert session._window and held
            return held

        assert all(t.node is None for t in held_tensors(False))
        # training keeps the graph of the slices in the window
        assert any(t.node is not None and t.node.parents for t in held_tensors(True))

    def test_frames_dropped_once_no_slice_or_birth_reads_them(self):
        # slices every 25 ms; two frames fall between the slices at 25 and 50 ms
        model = tiny_model(seed=0, randomize_heads=True)
        image = np.random.default_rng(0).random((1, 32, 32)).astype(np.float32)
        queries = [(0, 0, 8.0, 8.0), (1, 30_000, 20.0, 12.0), (2, 60_000, 9.0, 9.0)]
        session = TrackSession(model, queries)
        session.advance(frame=(0, image))
        session.advance(events=(np.array([3]), np.array([4]), np.array([26_000]), np.array([1]),
                                (32, 32)))
        assert list(session._frames) == [0]
        session.advance(frame=(30_000, image * 0.5))
        session.advance(frame=(40_000, image * 0.25))
        assert list(session._frames) == [0, 30_000, 40_000]
        session.advance(events=(np.array([5]), np.array([6]), np.array([51_000]), np.array([1]),
                                (32, 32)))
        # the 50 ms slice read frame 40 ms, and query 1 took its template from frame 30 ms
        assert list(session._frames) == [40_000]
        assert session._n_born == 2
        # query 2 is born after the last frame, so it is not a frame time after all
        with pytest.raises(UsageError, match="query 2 born at 60000, which is not a frame time"):
            session.advance(events=(np.array([5]), np.array([6]), np.array([76_000]),
                                    np.array([1]), (32, 32)))


class TestAllOrNothing:
    """A rejected call changes nothing: the frame and the batch of one call
    are both checked before either is held, and so is the sensor."""

    def test_rejected_batch_leaves_its_frame_unheld(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        batches = events.split([t for t, _ in frames])
        with no_grad():
            want, _ = run_offline(model, frames, events, queries)
            session = TrackSession(model, queries)
            with pytest.raises(UsageError, match="an event batch is an EventStream or"):
                session.advance(frame=frames[0], events=(1, 2, 3, 4))
            assert not session._frames and session._sensor is None
            assert session._watermark is None and session._next_slice_t is None
            emitted = []
            for frame, batch in zip(frames, batches):  # the retry is taken
                emitted += session.advance(frame=frame, events=batch)
            emitted += session.advance(events=batches[-1]) + session.finish()
        assert sorted(emitted) == sorted((t.id, *s) for t in want for s in t.samples)

    def test_rejected_first_frame_leaves_the_sensor_unfixed(self, seq):
        """A first frame after a query's birth is rejected, and the sensor
        stays open: an event batch of another size may still fix it."""
        frames, _, _, _, _, _ = seq
        session = TrackSession(tiny_model(seed=0), [(0, 5_000, 4.0, 4.0)])
        with pytest.raises(UsageError, match="query 0 born at 5000, which is not a frame time"):
            session.advance(frame=(10_000, frames[0][1]))
        assert session._sensor is None and not session._frames
        session.advance(events=EventStream([], [], [], [], (40, 32)))
        assert session._sensor == (40, 32)

    def test_frame_and_batch_of_other_sizes_rejected_together(self, seq):
        frames, events, queries, _, _, _ = seq
        wide = EventStream(events.xs, events.ys, events.ts, events.ps, (40, 32))
        session = TrackSession(tiny_model(seed=0), queries)
        with pytest.raises(ConfigError, match="event batch is 40x32, but the sensor is 32x32"):
            session.advance(frame=frames[0], events=wide)
        assert session._sensor is None and not session._frames and not session._chunks


class _HookError(Exception):
    pass


class TestFailClosed:
    """An exception that escapes the processing of accepted input leaves
    the session partial, so every later call raises a `UsageError` chained
    to it, and nothing more is taken or refined."""

    @pytest.mark.parametrize("error", [_HookError, KeyboardInterrupt])
    def test_a_hook_error_fails_the_session(self, seq, error):
        frames, events, queries, _, _, _ = seq
        calls = []

        def hook(run):
            calls.append(run.start_index)
            raise error("hook")

        session = TrackSession(tiny_model(seed=0), queries, on_window=hook)
        inputs = list(zip(frames, events.split([t for t, _ in frames])))
        with pytest.raises(error, match="hook") as first:
            for frame, batch in inputs:
                session.advance(frame=frame, events=batch)
        held = _held(session)
        for call in (lambda: session.advance(frame=frames[-1]), session.finish,
                     lambda: session.advance(events=events.split([])[0]), session.finish):
            with pytest.raises(UsageError, match="session failed: an earlier call raised") as later:
                call()
            assert later.value.__cause__ is first.value
        assert calls == [0] and _held(session) == held


def _set_first(events, column: int, value):
    """The (xs, ys, ts, ps, geometry) columns of `events`, with the first
    value of one column replaced by `value` (in a float or str copy)."""
    cols = [events.xs, events.ys, events.ts, events.ps]
    cols[column] = cols[column].astype(type(value))
    cols[column][0] = value
    return (*cols, events.geometry)


def _with_pixel(image, value):
    """A copy of `image` with one pixel set to `value`."""
    image = image.copy()
    image[0, 5, 7] = value
    return image


class TestInputValues:
    """A bad frame time, pixel type or event column is rejected by the
    `advance` call that receives it: `UsageError` for a call of the wrong
    shape, `ConfigError` for a bad value. Nothing is truncated or stored."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, error, match", [
        pytest.param(lambda img: (float("nan"), img), ConfigError,
                     "frame time nan is not a whole number", id="time-nan"),
        pytest.param(lambda img: ("a", img), ConfigError,
                     "frame time 'a' is not a whole number", id="time-str"),
        pytest.param(lambda img: (2.5, img), ConfigError,
                     "frame time 2.5 is not a whole number", id="time-2.5"),
        pytest.param(lambda img: img, UsageError,
                     r"frame ndarray is not a \(t_us, image\) pair", id="not-a-pair"),
        pytest.param(lambda img: (0, img, img), UsageError,
                     r"frame tuple is not a \(t_us, image\) pair", id="triple"),
        pytest.param(lambda img: (0, (img * 255).astype(np.uint8)), ConfigError,
                     r"frame at 0 has uint8 pixels; a frame holds floats on the \[0, 1\] scale",
                     id="uint8"),
        pytest.param(lambda img: (0, img > 0.5), ConfigError,
                     "frame at 0 has bool pixels", id="bool"),
        pytest.param(lambda img: (0, np.ones(img.shape, dtype=np.int64)), ConfigError,
                     "frame at 0 has int64 pixels", id="int64"),
        pytest.param(lambda img: (0, np.full(img.shape, 7.0, dtype=np.float32)), ConfigError,
                     r"frame at 0 has pixels from 7 to 7, off the \[0, 1\] scale", id="7.0"),
        pytest.param(lambda img: (0, _with_pixel(img, -0.1)), ConfigError,
                     r"frame at 0 has pixels from -0.1 to [0-9.]+, off the \[0, 1\] scale",
                     id="-0.1"),
        pytest.param(lambda img: (0, _with_pixel(img, 255.0)), ConfigError,
                     r"frame at 0 has pixels from [0-9.]+ to 255, off the \[0, 1\] scale",
                     id="255.0"),
        pytest.param(lambda img: (0, np.full(img.shape, 7.0, dtype=np.float16)), ConfigError,
                     r"pixels from 7 to 7, off the \[0, 1\] scale", id="float16-7.0"),
    ])
    def test_bad_frame_rejected(self, seq, make, error, match):
        frames, _, queries, _, _, _ = seq
        session = TrackSession(tiny_model(seed=0), queries)
        with pytest.raises(error, match=match):
            session.advance(frame=make(frames[0][1]))
        assert not session._frames and session._sensor is None
        session.advance(frame=frames[0])

    def test_float16_frames_are_cast_to_float32(self, seq):
        """float16 pixels on [0, 1] are accepted and cast, exactly: a
        float16 frame tracks as the float32 frame of the same values."""
        frames, events, queries, _, _, _ = seq
        half = [(t, img.astype(np.float16)) for t, img in frames]
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            got, _ = run_offline(model, half, events, queries)
            want, _ = run_offline(model, [(t, img.astype(np.float32)) for t, img in half],
                                  events, queries)
        assert [t.samples for t in got] == [t.samples for t in want]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make, error, match", [
        pytest.param(lambda ev: _set_first(ev, 0, np.nan), ConfigError,
                     r"event x outside \[0, 32\)", id="x-nan"),
        pytest.param(lambda ev: _set_first(ev, 0, 1e12), ConfigError,
                     r"event x outside \[0, 32\)", id="x-1e12"),
        pytest.param(lambda ev: _set_first(ev, 0, 1.7), ConfigError,
                     "event x 1.7 is not a whole number", id="x-1.7"),
        pytest.param(lambda ev: _set_first(ev, 0, "a"), ConfigError,
                     "event x holds <U.* values, not numbers", id="x-str"),
        pytest.param(lambda ev: _set_first(ev, 2, 10.6), ConfigError,
                     "event t 10.6 is not a whole number", id="t-10.6"),
        pytest.param(lambda ev: _set_first(ev, 3, 1.5), ConfigError,
                     r"polarity must be -1 or \+1", id="p-1.5"),
        pytest.param(lambda ev: (ev.xs, ev.ys, ev.ts, ev.ps), UsageError,
                     "an event batch is an EventStream or", id="four-items"),
        pytest.param(lambda ev: (ev.xs[:, None], ev.ys[:, None], ev.ts[:, None], ev.ps[:, None],
                                 ev.geometry), UsageError,
                     "event x must be a 1-D column", id="2d-columns"),
        pytest.param(lambda ev: (ev.xs, ev.ys, ev.ts, ev.ps, (32.7, 32)), ConfigError,
                     "sensor width 32.7 is not a whole number", id="geometry-32.7"),
        pytest.param(lambda ev: (ev.xs, ev.ys, ev.ts, ev.ps, 32), UsageError,
                     r"sensor geometry 32 is not a \(width, height\) pair", id="geometry-int"),
    ])
    def test_bad_event_batch_rejected(self, seq, make, error, match):
        _, events, queries, _, _, _ = seq
        session = TrackSession(tiny_model(seed=0), queries)
        with pytest.raises(error, match=match):
            session.advance(events=make(events))
        assert not session._chunks and session._sensor is None
        session.advance(events=events)

    def test_integer_columns_kept_as_given(self, seq):
        """Columns already of the stored dtypes are checked, not copied."""
        _, events, _, _, _, _ = seq
        cols = (events.xs.astype(np.int32), events.ys.astype(np.int32),
                events.ts.astype(np.int64), events.ps.astype(np.int8))
        stream = EventStream(*cols, events.geometry)
        assert all(a is b for a, b in zip((stream.xs, stream.ys, stream.ts, stream.ps), cols))


class TestModelState:
    def test_built_model_holds_its_weights_and_no_moments(self):
        tiny_model(seed=0)  # import what building a model imports
        model, peak, _ = traced_peak(lambda: TrackerModel(TrackerConfig(), seed=1))
        assert peak <= 1.1 * sum(p.data.nbytes for _, p in model.store.items())
        assert all(model.store.moments(name) is None for name in model.store.names())

    def test_tracking_leaves_no_moments_and_no_grads(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        run_offline(model, frames, events, queries)
        session = TrackSession(model, queries)
        edges = [0, *np.searchsorted(events.ts, [t for t, _ in frames]), len(events)]
        for (lo, hi), frame in zip(zip(edges, edges[1:]), frames + [None]):
            session.advance(events=EventStream(events.xs[lo:hi], events.ys[lo:hi],
                                               events.ts[lo:hi], events.ps[lo:hi], events.geometry))
            if frame is not None:
                session.advance(frame=frame)
        assert session.finish()
        assert all(model.store.moments(name) is None for name in model.store.names())
        assert all(p.grad is None for _, p in model.store.items())


class TestBoundedState:
    """What a session holds depends on the accumulation window, not on how
    long the stream has run."""

    @pytest.mark.parametrize("mode", ["since_frame", "fixed"])
    def test_held_state_bounded(self, mode):
        # a 2 s stream in 5 ms batches of about 300 events; 25 ms slices, 50 ms frames
        batch_us, frame_period, n_batches = 5_000, 50_000, 400
        model = tiny_model(seed=0, randomize_heads=True, accumulate_mode=mode)
        dt = model.cfg.dt_track_us
        rng = np.random.default_rng(5)
        n = n_batches * 300
        ts = np.sort(rng.integers(0, n_batches * batch_us, size=n))
        xs, ys = rng.integers(0, 64, size=n), rng.integers(0, 64, size=n)
        ps = rng.choice([-1, 1], size=n)
        image = rng.random((1, 64, 64)).astype(np.float32)
        edges = np.searchsorted(ts, np.arange(n_batches + 1) * batch_us)
        batch_max = int(np.diff(edges).max())

        def run(n):
            """A session fed the first n batches."""
            session = TrackSession(model, [(0, 0, 10.0, 12.0), (1, 0, 40.0, 50.0)])
            for k in range(n):
                lo, hi, t = edges[k], edges[k + 1], k * batch_us
                frame = (t, image) if t % frame_period == 0 else None
                session.advance(frame=frame, events=(xs[lo:hi], ys[lo:hi], ts[lo:hi], ps[lo:hi],
                                                     (64, 64)))
                t_last = (session._n_slices - 1) * dt
                t_frame = t_last - t_last % frame_period
                held = sum(len(c) for c in session._chunks)
                assert held <= np.count_nonzero(ts[:hi] >= t_frame) + batch_max
                assert len(session._frames) <= 2
            return session

        run(n_batches // 8)  # conv2d's scratch grows outside the measurement
        _, half_peak, half_held = traced_peak(lambda: run(n_batches // 2))
        session, peak, held = traced_peak(lambda: run(n_batches))
        assert session._n_slices == n_batches * batch_us // dt
        assert held <= 1.2 * half_held and peak <= 1.2 * half_peak


def _tied(seq, **overrides):
    """`seq` plus one event at every frame and slice time, so the splits
    below meet events that share a frame's timestamp, and one query born
    at 150 ms, after the first refinement, so windows hold an unborn
    query's zero template; with the model and its offline tracks."""
    frames, events, queries, _, _, slice_times = seq
    queries = queries + [(max(q[0] for q in queries) + 1, 150_000, 12.5, 17.25)]
    extra = np.array(sorted({t for t, _ in frames} | set(slice_times)), dtype=np.int64)
    ts = np.concatenate([events.ts, extra])
    order = np.argsort(ts, kind="stable")
    ones = np.ones(len(extra), dtype=np.int64)
    events = EventStream(np.concatenate([events.xs, 5 * ones])[order],
                         np.concatenate([events.ys, 7 * ones])[order], ts[order],
                         np.concatenate([events.ps, ones])[order], events.geometry)
    model = tiny_model(seed=0, randomize_heads=True, **overrides)
    with no_grad():
        tracks, _ = run_offline(model, frames, events, queries)
    return frames, events, queries, model, tracks


@pytest.fixture(scope="module")
def tied_seq(seq):
    return _tied(seq)


@pytest.fixture(scope="module")
def tied_seq_fixed(seq):
    return _tied(seq, accumulate_mode="fixed")


@st.composite
def input_splits(draw, n_events, n_frames):
    """Event cut indices, one before/after-ties flag per frame, and the
    input positions where empty event batches are slipped in."""
    cuts = draw(st.lists(st.integers(0, n_events), max_size=12))
    frame_after_ties = draw(st.lists(st.booleans(), min_size=n_frames, max_size=n_frames))
    empties = draw(st.lists(st.integers(0, n_events), max_size=4))
    return cuts, frame_after_ties, empties


def _chunked_inputs(frames, events, split):
    """Feed order for one split: ("frame", (t, image)) and ("events",
    EventStream) items, frames and events each in time order, every frame
    ahead of the events after its timestamp."""
    cuts, frame_after_ties, empties = split
    ts = events.ts
    frame_at = [int(np.searchsorted(ts, t, side="right" if after else "left"))
                for (t, _), after in zip(frames, frame_after_ties)]
    bounds = sorted({0, len(events), *cuts, *frame_at, *empties})
    empty = EventStream([], [], [], [], events.geometry)
    items = []
    for lo, hi in zip(bounds, bounds[1:] + [None]):
        items += [("frame", frame) for frame, at in zip(frames, frame_at) if at == lo]
        items += [("events", empty)] * empties.count(lo)
        if hi is not None and hi > lo:
            items.append(("events", EventStream(events.xs[lo:hi], events.ys[lo:hi], ts[lo:hi],
                                                events.ps[lo:hi], events.geometry)))
    return items


# Faults that make `advance` reject a call: one malformed field of a frame
# or an event batch, as the boundary fuzz draws them, or an input out of order.
FAULTS = [f for f in FIELDS if f.split(".")[0] in ("frame", "events")] + [
    "order.frame_again", "order.frame_before", "order.events_before", "order.events_processed"]
_NEVER_BORN = np.iinfo(np.int64).max  # a birth that no frame time passes


def _held(session):
    """What a session holds, compared across a rejected call."""
    return (list(session._frames), len(session._chunks), session._watermark, session._last_event_t,
            session._next_slice_t, [s.index for s in session._window], session._sensor,
            session._n_born)


def _malformed_call(data, session, queries, next_item):
    """Draw a call that `advance` must reject in `session`, as keyword
    arguments, sometimes with the next accepted input in the same call; or
    None when the drawn fault does not apply. A malformed field is placed
    after the watermark, so no ordering check rejects it first, and it is
    kept only if a new session with the same query positions (born when
    no frame time passes them) rejects it: then every session does."""
    fault = data.draw(st.sampled_from(FAULTS), label="fault")
    t_next = (session._watermark or 0) + 1
    last_frame = next(reversed(session._frames), None)
    one_event = lambda t: ([5], [7], [t], [1], (32, 32))
    if fault in FIELDS:
        value = data.draw(FIELDS[fault], label="value")
        kind = fault.split(".")[0]
        bad = (malformed_frame(fault, value, t_next) if kind == "frame"
               else malformed_batch(fault, value, shift=t_next))
        probe = TrackSession(session.model, [(q, _NEVER_BORN, x, y) for q, _, x, y in queries])
        try:
            probe.advance(**{kind: bad})
            return None
        except EvtrackError:
            call = {kind: bad}
    elif fault == "order.frame_again" and last_frame is not None:
        call = {"frame": (last_frame, session._frames[last_frame].image)}
    elif fault == "order.frame_before" and last_frame is not None:
        call = {"frame": (last_frame - 1, session._frames[last_frame].image)}
    elif fault == "order.events_before" and session._last_event_t is not None:
        call = {"events": one_event(session._last_event_t - 1)}
    elif fault == "order.events_processed" and session._window:
        call = {"events": one_event(session._window[-1].t_slice)}
    else:
        return None
    if next_item is not None and next_item[0] not in call and data.draw(st.booleans()):
        call[next_item[0]] = next_item[1]
    return call


class TestChunking:
    """Streaming output equals offline output for any split of the input,
    with rejected calls mixed in: each changes nothing the session holds."""

    @staticmethod
    def check_split(tied, data):
        frames, events, queries, model, offline_tracks = tied
        split = data.draw(input_splits(len(events), len(frames)))
        items = _chunked_inputs(frames, events, split)
        faults = data.draw(st.lists(st.integers(0, len(items)), max_size=4), label="fault positions")
        session = TrackSession(model, queries)
        emitted = []
        for i, item in enumerate(items + [None]):
            for _ in range(faults.count(i)):
                call = _malformed_call(data, session, queries, item)
                if call is not None:
                    before = _held(session)
                    with pytest.raises(EvtrackError):
                        session.advance(**call)
                    assert _held(session) == before
            if item is not None:
                emitted += session.advance(**{item[0]: item[1]})
        emitted += session.finish()
        assert sorted(emitted) == sorted((t.id, *s) for t in offline_tracks for s in t.samples)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_split_gives_offline_tracks(self, tied_seq, data):
        self.check_split(tied_seq, data)

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_any_split_gives_offline_tracks_fixed_window(self, tied_seq_fixed, data):
        self.check_split(tied_seq_fixed, data)


class TestHandoff:
    def test_split_counts(self):
        # 21 slices, window 5, step 2: each window carries 3 refined slices
        frames, events, queries, _, _, slice_times = tiny_sequence(seed=3, duration_us=500_000)
        model = tiny_model(seed=0, randomize_heads=True, window=5, t_step=2)
        cfg = model.cfg
        calls = []
        refine = model.refiner.refine

        def spy(state, pyramids, p_init, **kw):
            snapshots, pos, feats = refine(state, pyramids, p_init, **kw)
            calls.append((state.start_index, state.positions.copy(), state.features.data.copy(),
                          state.durations_us.copy(), pos.data.copy(), feats.data.copy()))
            return snapshots, pos, feats

        model.refiner.refine = spy
        with no_grad():
            session = TrackSession(model, queries)
            cursor = 0
            for t, img in frames + [(None, None)]:
                hi = len(events) if t is None else int(np.searchsorted(events.ts, t))
                session.advance(events=EventStream(
                    events.xs[cursor:hi], events.ys[cursor:hi], events.ts[cursor:hi],
                    events.ps[cursor:hi], events.geometry))
                assert len(session._window) <= cfg.window
                cursor = hi
                if t is not None:
                    session.advance(frame=(t, img))
                    assert len(session._window) <= cfg.window
            session.finish()
        assert len(slice_times) == 21 and len(calls) >= 5
        keep = cfg.window - cfg.t_step
        for prev, cur in zip(calls, calls[1:]):
            start0, _, _, durs0, pos0, feats0 = prev
            start, positions, features, durs, _, _ = cur
            assert start == start0 + cfg.t_step
            assert np.array_equal(positions[:keep], pos0[cfg.t_step:])
            assert np.array_equal(features[:keep], feats0[cfg.t_step:])
            assert np.array_equal(durs[:keep], durs0[cfg.t_step:])
            # the fresh slices start from the last refined position
            assert np.array_equal(positions[keep:], np.broadcast_to(pos0[-1], positions[keep:].shape))

    def test_templates_survive_handoffs(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        runs = []
        with no_grad():
            session = TrackSession(model, queries, on_window=runs.append)
            snap = {}
            cursor = 0
            for t, img in frames:
                hi = int(np.searchsorted(events.ts, t))
                if hi > cursor:
                    session.advance(events=EventStream(
                        events.xs[cursor:hi], events.ys[cursor:hi], events.ts[cursor:hi],
                        events.ps[cursor:hi], events.geometry))
                    cursor = hi
                session.advance(frame=(t, img))
                if not snap:
                    templates = session._template_matrix().data
                    snap = {n: templates[n].copy() for n in range(session._n_born)}
            session.advance(events=EventStream(
                events.xs[cursor:], events.ys[cursor:], events.ts[cursor:],
                events.ps[cursor:], events.geometry))
            session.finish()
        assert snap, "no templates were sampled early"
        assert len(runs) >= 3  # several hand-offs happened
        templates = session._template_matrix().data
        for n, before in snap.items():
            assert np.array_equal(templates[n], before)


class TestAblations:
    @pytest.mark.parametrize("flag", [
        {"accumulate_mode": "fixed"},
        {"time_embed": False},
        {"use_frames": False},
        {"use_events": False},
    ])
    def test_ablation_runs_and_differs(self, seq, flag):
        """Every ablation emits on the full tracker's slice grid: the same
        (id, t) samples, at other positions."""
        frames, events, queries, _, _, slice_times = seq
        full = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            base_tracks, _ = run_offline(full, frames, events, queries)
        ablated = tiny_model(seed=0, randomize_heads=True, **flag)
        with no_grad():
            ab_tracks, _ = run_offline(ablated, frames, events, queries)
        base_flat = [(t.id, s) for t in base_tracks for s in t.samples]
        ab_flat = [(t.id, s) for t in ab_tracks for s in t.samples]
        assert sorted((i, s[0]) for i, s in ab_flat) == sorted((i, s[0]) for i, s in base_flat)
        assert len(base_flat) == len(queries) * len(slice_times)
        assert base_flat != ab_flat

    def test_frames_only_tracks_between_frames(self):
        """Frames-only samples every ground-truth slice, not just the
        frame times, so its EFA measures the model and not the grid: an
        untrained model (the identity) holds a slow sprite within 50 px."""
        frames, events, queries, _, gtt, slice_times = tiny_sequence(seed=0)
        with no_grad():
            tracks, _ = run_offline(tiny_model(seed=0, use_events=False), frames, events, queries)
        report = evaluate_tracks({t.id: t.samples for t in tracks}, gtt, 50.0)
        assert report.efa_avg > 1 / len(slice_times)

    def test_frames_only_builds_one_pyramid_per_frame_read(self, seq, monkeypatch):
        """The slices of one frame share its pyramid: two or three slices
        read each frame here, and each frame's pyramid is built once."""
        frames, events, queries, _, _, slice_times = seq
        built = []
        build = pipeline.build_pyramid
        monkeypatch.setattr(pipeline, "build_pyramid",
                            lambda fused, *args: built.append(fused) or build(fused, *args))
        with no_grad():
            run_offline(tiny_model(seed=0, use_events=False), frames, events, queries)
        frame_times = [t for t, _ in frames]
        read = {max(t for t in frame_times if t <= ts) for ts in slice_times}
        assert len(built) == len(read) == 6 < len(slice_times)

    def test_frames_only_ignores_events(self, seq):
        """Frames-only reads event times, which move the watermark, but no
        event value: scrambled positions and polarities give the same tracks."""
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True, use_events=False)
        calls = []
        model.event_encoder = lambda *a, **k: calls.append("event_encoder")
        model.fusion = lambda *a, **k: calls.append("fusion")
        rng = np.random.default_rng(0)
        (w, h), n = events.geometry, len(events)
        scrambled = EventStream(rng.integers(0, w, n), rng.integers(0, h, n), events.ts,
                                rng.choice([-1, 1], n), events.geometry)
        assert not np.array_equal(scrambled.xs, events.xs)
        with no_grad():
            real, _ = run_offline(model, frames, events, queries)
            other, _ = run_offline(model, frames, scrambled, queries)
        assert [t.samples for t in real] == [t.samples for t in other]
        assert calls == []


class TestImageBranchCache:
    """Fusion's image branch runs once per frame that a fused slice reads."""

    @staticmethod
    def conv_image_calls(seq, **overrides):
        frames, events, queries, _, _, slice_times = seq
        model = tiny_model(seed=0, randomize_heads=True, **overrides)
        conv_image = model.fusion.conv_image
        calls = []

        def spy(x):
            calls.append(x)
            return conv_image(x)

        model.fusion.conv_image = spy
        with no_grad():
            tracks, _ = run_offline(model, frames, events, queries)
        frame_times = [t for t, _ in frames]
        read = {max(t for t in frame_times if t <= ts) for ts in slice_times}
        return len(calls), len(read), tracks

    @pytest.mark.parametrize("mode, frame_period_us, frames_read", [
        ("since_frame", 50_000, 6), ("fixed", 50_000, 6),
        ("since_frame", 125_000, 3),  # five slices read each of the first two frames
    ])
    def test_one_image_branch_per_frame_read(self, mode, frame_period_us, frames_read):
        seq = tiny_sequence(seed=3, frame_period_us=frame_period_us)
        calls, read, _ = self.conv_image_calls(seq, accumulate_mode=mode)
        assert read == frames_read and calls == read

    def test_events_only_runs_no_image_branch(self, seq):
        calls, _, tracks = self.conv_image_calls(seq, use_frames=False)
        assert calls == 0 and all(t.samples for t in tracks)


# Each ablation, and the model layers and pipeline functions its forward enters.
FORWARD_MODES = {
    "fused": ({}, {"frame_encoder", "event_encoder", "fusion", "build_pyramid",
                   "build_event_stack"}),
    "events-only": ({"use_frames": False}, {"event_encoder", "fusion", "build_pyramid",
                                            "build_event_stack"}),
    "frames-only": ({"use_events": False}, {"frame_encoder", "build_pyramid"}),
    "fixed": ({"accumulate_mode": "fixed"}, {"frame_encoder", "event_encoder", "fusion",
                                             "build_pyramid", "build_event_stack"}),
}


class TestRecordForward:
    """The model forward runs in `frame_forward` and `slice_forward`, which
    call the model's layers and `pipeline`'s `build_pyramid` and
    `build_event_stack` as plain callables: a tracer may swap each for a
    wrapper, as perfbench's `tracing.install` does."""

    @pytest.mark.parametrize("mode", FORWARD_MODES)
    def test_wrapped_layers_track_as_the_model(self, seq, monkeypatch, mode):
        frames, events, queries, _, _, _ = seq
        overrides, used = FORWARD_MODES[mode]
        model = tiny_model(seed=0, randomize_heads=True, **overrides)
        with no_grad():
            want, _ = run_offline(model, frames, events, queries)
        entered = set()

        def wrap(name, fn):
            def wrapped(*args, **kwargs):
                entered.add(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("frame_encoder", "event_encoder", "fusion"):
            monkeypatch.setattr(model, name, wrap(name, getattr(model, name)))
        for name in ("build_pyramid", "build_event_stack"):
            monkeypatch.setattr(pipeline, name, wrap(name, getattr(pipeline, name)))
        with no_grad():
            got, _ = run_offline(model, frames, events, queries)
        assert [t.samples for t in got] == [t.samples for t in want]
        assert entered == used

    @pytest.mark.parametrize("mode", FORWARD_MODES)
    def test_held_pyramid_is_the_forward_of_its_inputs(self, seq, mode):
        """The pyramid a session holds for its slice at 25 ms, which reads
        the frame at 0, is `frame_forward` of that frame and
        `slice_forward` of the same event stack, called by hand."""
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True, **FORWARD_MODES[mode][0])
        stacks = []
        encode = model.event_encoder
        model.event_encoder = lambda x: stacks.append(x.data.copy()) or encode(x)
        batches = events.split([t for t, _ in frames])
        with no_grad():
            session = TrackSession(model, queries)
            for k in range(2):  # the frames at 0 and 50 ms, and the events before 50 ms
                session.advance(frame=frames[k], events=batches[k])
            held = session._window[-1]
            assert (held.t_slice, len(session._window)) == (25_000, 2)
            image = frames[0][1].astype(np.float32)
            features, pyramid = frame_forward(model, image) if model.cfg.use_frames else (None, None)
            if model.cfg.use_events:
                pyramid, _ = slice_forward(model, stacks[-1], features, None, 0.0)
        assert len(held.pyramid.levels) == len(pyramid.levels) == model.cfg.levels
        for got, want in zip(held.pyramid.levels, pyramid.levels):
            assert np.array_equal(got.data, want.data)


def test_track_csv_roundtrip(tmp_path):
    tracks = [Track(2, [(0, 1.0, 2.0), (25_000, 1.5, 2.25)]), Track(7, [(0, 3.125, 4.0)])]
    path = str(tmp_path / "tracks.csv")
    save_tracks_csv(tracks, path)
    text = open(path).read().splitlines()
    assert text[0] == "track_id,t_us,x,y"
    assert text[1] == "2,0,1.000,2.000"
    back = load_tracks_csv(path)
    assert back[2] == [(0, 1.0, 2.0), (25_000, 1.5, 2.25)]
    assert back[7] == [(0, 3.125, 4.0)]


def test_queries_and_tracks_share_one_row_reader(tmp_path):
    """Queries are the rows and tracks the rows grouped by id; the header is
    optional and only ever the first row, and a row that does not parse
    raises ConfigError for both."""
    path = tmp_path / "rows.csv"
    path.write_text("id,t_us,x,y\n4,0,1.5,2\n\n4,25000,2,3\n9,0,5,6\n")
    assert load_queries_csv(str(path)) == [(4, 0, 1.5, 2.0), (4, 25_000, 2.0, 3.0), (9, 0, 5.0, 6.0)]
    assert load_tracks_csv(str(path)) == {4: [(0, 1.5, 2.0), (25_000, 2.0, 3.0)], 9: [(0, 5.0, 6.0)]}
    for bad in ("4,0,1.5\n", "4,0,x,2\n", "4,0.5,1,2\n", "4,0,1,2\ntrack_id,t_us,x,y\n"):
        path.write_text(bad)
        for load in (load_queries_csv, load_tracks_csv):
            with pytest.raises(ConfigError, match="expected id,t_us,x,y"):
                load(str(path))
