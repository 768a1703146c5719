import numpy as np
import pytest

from evtrack.autodiff import no_grad
from evtrack.errors import OrderingError, UsageError
from evtrack.events import EventStream
from evtrack.pipeline import (
    Track,
    TrackerConfig,
    TrackSession,
    handoff,
    load_tracks_csv,
    run_offline,
    save_tracks_csv,
)
from util_fixtures import scramble_heads, tiny_model, tiny_sequence


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
        with no_grad():
            tracks, session = run_offline(model, frames, events, queries,
                                          record_windows=True)
        starts = [run.start_index for run in session.window_runs]
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
        with no_grad():
            tracks, session = run_offline(model, frames, events, queries,
                                          record_windows=True)
        starts = [run.start_index for run in session.window_runs]
        assert starts == [0, 2, 4]
        lengths = [run.active.shape[0] for run in session.window_runs]
        assert lengths == [4, 4, 3]
        for track in tracks:
            assert len(track.samples) == 7


class TestStreaming:
    def test_chunked_equals_offline(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            offline_tracks, _ = run_offline(model, frames, events, queries)

            session = TrackSession(model, queries)
            inputs = [("f", t, img) for t, img in frames]
            # per-event micro-batches, interleaved with frames in time order
            for i in range(len(events)):
                inputs.append(("e", int(events.ts[i]), i))
            inputs.sort(key=lambda rec: (rec[1], rec[0] == "e"))
            for kind, t, payload in inputs:
                if kind == "f":
                    session.advance(frame=(t, payload))
                else:
                    i = payload
                    session.advance(events=EventStream(
                        events.xs[i : i + 1], events.ys[i : i + 1], events.ts[i : i + 1],
                        events.ps[i : i + 1], events.geometry,
                    ))
            session.finish()
        streaming_tracks = session.tracks()
        assert len(streaming_tracks) == len(offline_tracks)
        for a, b in zip(offline_tracks, streaming_tracks):
            assert a.id == b.id
            assert a.samples == b.samples

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
        with no_grad():
            tracks, session = run_offline(model, frames, events, queries,
                                          record_windows=True)
        # first window covers 4 slices, then one new refinement per slice
        starts = [r.start_index for r in session.window_runs]
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


class TestHandoff:
    def test_split_counts(self, seq):
        from evtrack.autodiff import Tensor

        rng = np.random.default_rng(0)
        final_pos = rng.standard_normal((16, 3, 2)).astype(np.float32)
        final_feat = Tensor(rng.standard_normal((16, 3, 8)).astype(np.float32))
        durs = np.arange(16, dtype=np.int64)
        carried = handoff(final_pos, final_feat, durs, 8, 0)
        assert carried.positions.shape == (8, 3, 2)
        assert np.array_equal(carried.positions, final_pos[8:])
        assert np.array_equal(carried.features.data, final_feat.data[8:])
        assert np.array_equal(carried.durations_us, durs[8:])
        assert carried.start_index == 8

    def test_templates_survive_handoffs(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            session = TrackSession(model, queries, record_windows=True)
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
                    for n, tpl in enumerate(session._templates):
                        if tpl is not None:
                            snap[n] = tpl.data.copy()
            session.advance(events=EventStream(
                events.xs[cursor:], events.ys[cursor:], events.ts[cursor:],
                events.ps[cursor:], events.geometry))
            session.finish()
        assert snap, "no templates were sampled early"
        assert len(session.window_runs) >= 3  # several hand-offs happened
        for n, before in snap.items():
            assert np.array_equal(session._templates[n].data, before)


class TestAblations:
    @pytest.mark.parametrize("flag", [
        {"accumulate_mode": "fixed"},
        {"time_embed": False},
        {"use_frames": False},
        {"use_events": False},
    ])
    def test_ablation_runs_and_differs(self, seq, flag):
        frames, events, queries, _, _, slice_times = seq
        full = tiny_model(seed=0, randomize_heads=True)
        with no_grad():
            base_tracks, _ = run_offline(full, frames, events, queries)
        ablated = tiny_model(seed=0, randomize_heads=True, **flag)
        with no_grad():
            ab_tracks, _ = run_offline(ablated, frames, events, queries)
        assert all(len(t.samples) > 0 for t in ab_tracks)
        base_flat = [(t.id, s) for t in base_tracks for s in t.samples]
        ab_flat = [(t.id, s) for t in ab_tracks for s in t.samples]
        assert base_flat != ab_flat

    def test_frames_only_rate_is_frame_rate(self, seq):
        frames, events, queries, _, _, _ = seq
        model = tiny_model(seed=0, use_events=False)
        with no_grad():
            tracks, session = run_offline(model, frames, events, queries)
        assert session._n_slices == len(frames)
        assert [t for t, _, _ in tracks[0].samples] == [t for t, _ in frames]


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
