import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtrack.autodiff import no_grad
from evtrack.errors import ConfigError, DegenerateWindowError, UsageError
from evtrack.events import (
    _HEADER,
    _RECORD_DTYPE,
    EVENT_MAGIC,
    EventStream,
    build_event_stack,
    load_binary_events,
    save_binary_events,
)
from evtrack.pipeline import TrackSession, run_offline
from oracles import event_stack_oracle
from util_fixtures import tiny_model, tiny_sequence


def stream_of(rows, geometry):
    """An EventStream from (x, y, t_us, polarity) rows."""
    cols = np.array(rows, dtype=np.int64).reshape(-1, 4).T
    return EventStream(*cols, geometry)


def random_stream(rng, x_ext=12, y_ext=9, n=None, t_max=10_000):
    n = rng.integers(0, 60) if n is None else n
    ts = np.sort(rng.integers(0, t_max + 1, size=n))
    return EventStream(
        rng.integers(0, x_ext, size=n),
        rng.integers(0, y_ext, size=n),
        ts,
        rng.choice([-1, 1], size=n),
        (x_ext, y_ext),
    )


def checked_stack(stream, t_start, t_end, bins):
    """build_event_stack's output, checked bit for bit against the oracle."""
    stack = build_event_stack(stream, t_start, t_end, bins)
    x_ext, y_ext = stream.geometry
    assert stack.shape == (2 * bins, y_ext, x_ext) and stack.dtype == np.float32
    assert np.array_equal(stack, event_stack_oracle(stream, t_start, t_end, bins).transpose(2, 1, 0))
    return stack


def test_empty_stream_gives_zeros():
    stream = EventStream([], [], [], [], (8, 6))
    stack = checked_stack(stream, 0, 1000, 5)
    assert stack.shape == (10, 6, 8)
    assert not stack.any()


def test_single_event_hand_case():
    # t* = 500/1000 * 4 = 2.0 -> positive channel, bin 2
    stream = stream_of([(3, 4, 500, 1)], (8, 8))
    stack = checked_stack(stream, 0, 1000, 5)
    expected = np.zeros((10, 8, 8), dtype=np.float32)
    expected[2, 4, 3] = 2.0  # (channel, y, x)
    assert np.array_equal(stack, expected)


def test_same_bin_max_wins():
    stream = stream_of([(3, 4, 500, 1), (3, 4, 700, 1)], (8, 8))
    stack = checked_stack(stream, 0, 1000, 5)
    assert stack[2, 4, 3] == np.float32(2.8)


def test_event_at_window_end_lands_in_last_bin():
    stream = stream_of([(1, 1, 1000, -1)], (4, 4))
    stack = checked_stack(stream, 0, 1000, 5)
    assert stack[5 + 4, 1, 1] == np.float32(4.0)


def test_events_outside_window_ignored():
    stream = stream_of([(0, 0, 50, 1), (1, 1, 5000, 1)], (4, 4))
    stack = checked_stack(stream, 100, 1000, 3)
    assert not stack.any()


def test_degenerate_window_rejected():
    stream = EventStream([], [], [], [], (4, 4))
    with pytest.raises(DegenerateWindowError):
        build_event_stack(stream, 1000, 1000, 5)


def test_window_span_past_int64_rejected():
    """An event at 2^62 in [-2^62, 2^62 + 1]: the span is 2^63 + 1, so each
    event's offset from the start would wrap in int64 and the event would
    be dropped from an all-zero stack. The window is rejected instead; its
    half, [0, 2^62 + 1], still stacks the event."""
    stream = EventStream([1], [2], [2**62], [1], (4, 4))
    with pytest.raises(ConfigError, match="spans more than int64 holds"):
        build_event_stack(stream, -(2**62), 2**62 + 1, 2)
    assert np.count_nonzero(build_event_stack(stream, 0, 2**62 + 1, 2)) == 1


def test_values_bounded_and_channels_disjoint():
    rng = np.random.default_rng(2)
    stream = random_stream(rng, n=400)
    stack = checked_stack(stream, 0, 10_000, 5)
    assert stack.min() >= 0.0
    assert stack.max() <= 4.0

    # drop all negative events: the negative half must be zero and the
    # positive half identical to the mixed-stream result
    pos = stream.ps > 0
    only_pos = EventStream(stream.xs[pos], stream.ys[pos], stream.ts[pos], stream.ps[pos], stream.geometry)
    stack_pos = checked_stack(only_pos, 0, 10_000, 5)
    assert not stack_pos[5:].any()
    assert np.array_equal(stack_pos[:5], stack[:5])


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(7)
    for _ in range(100):
        stream = random_stream(rng)
        bins = int(rng.choice([1, 3, 5]))
        t_hi = int(rng.integers(500, 10_000))
        checked_stack(stream, 0, t_hi, bins)


def test_oracle_bit_identity_repeated_pixels():
    # a 3x2 sensor and up to 150 events: most cells get several events,
    # many with equal timestamps, and windows start and end mid-stream
    rng = np.random.default_rng(11)
    for _ in range(200):
        stream = random_stream(rng, x_ext=3, y_ext=2, n=int(rng.integers(1, 150)), t_max=2_000)
        t_lo = int(rng.integers(0, 1_000))
        t_hi = t_lo + int(rng.integers(1, 1_500))
        checked_stack(stream, t_lo, t_hi, int(rng.integers(1, 6)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5),
                          st.integers(0, 1000), st.sampled_from([-1, 1])),
                max_size=40))
def test_permutation_invariance(raw):
    events = sorted(raw, key=lambda e: e[2])
    base = checked_stack(stream_of(events, (8, 6)), 0, 1000, 4)
    rng = np.random.default_rng(0)
    perm = list(rng.permutation(len(events)))
    # permuted arrival order has to re-sort timestamps to stay a valid
    # stream, but the max-reduction result is identical either way
    shuffled = sorted((events[i] for i in perm), key=lambda e: e[2])
    again = checked_stack(stream_of(shuffled, (8, 6)), 0, 1000, 4)
    assert np.array_equal(base, again)


def test_temporal_monotonicity():
    stream = stream_of([(2, 2, 400, 1)], (6, 6))
    before = checked_stack(stream, 0, 1000, 5)[:5, 2, 2].copy()
    later = stream_of([(2, 2, 400, 1), (2, 2, 900, 1)], (6, 6))
    after = checked_stack(later, 0, 1000, 5)[:5, 2, 2]
    assert np.all(after >= before)


def run_schedule(frame_times, t_end, dt_track_us, birth=None, monkeypatch=None):
    """Track one query through blank 16x16 frames and one event at t_end.

    Returns the slice times of the track and, when `monkeypatch` is given,
    {t_slice: duration_us} as the refiner saw it.
    """
    model = tiny_model(dt_track_us=dt_track_us)
    durations = {}
    if monkeypatch is not None:
        refine = model.refiner.refine

        def spy(state, *args, **kwargs):
            durations.update(zip(state.slice_times.tolist(), state.durations_us.tolist()))
            return refine(state, *args, **kwargs)

        monkeypatch.setattr(model.refiner, "refine", spy)
    frames = [(t, np.zeros((1, 16, 16), dtype=np.float32)) for t in frame_times]
    events = stream_of([(0, 0, t_end, 1)], (16, 16))
    query = (0, frame_times[0] if birth is None else birth, 8.0, 8.0)
    with no_grad():
        tracks, _ = run_offline(model, frames, events, [query])
    return [t for t, _, _ in tracks[0].samples], durations


def test_make_schedule_hand_case(monkeypatch):
    times, durations = run_schedule([0, 50_000], 100_000, 5_000, monkeypatch=monkeypatch)
    assert len(times) == 21
    assert times[0] == 0 and times[-1] == 100_000
    assert np.all(np.diff(times) == 5_000)
    # each slice accumulates events since the latest frame at or before it
    assert sorted(durations) == times
    for t_slice, duration in durations.items():
        assert duration == t_slice - (0 if t_slice < 50_000 else 50_000)


def test_make_schedule_single_slice_and_errors():
    times, _ = run_schedule([100], 150, 1_000_000)
    assert times == [100]
    with pytest.raises(UsageError):  # the query needs a frame at its birth
        run_schedule([500], 1000, 100, birth=100)
    with pytest.raises(ConfigError):
        tiny_model(dt_track_us=0)


def test_schedule_rate_independent_of_frames():
    # 24 Hz frames, 5 ms slices -> 200 Hz output
    frames = [int(i * 1e6 / 24) for i in range(25)]
    times, _ = run_schedule(frames, 1_000_000, 5_000)
    assert len(times) == 201
    per_frame = len(times) / 24
    assert 8.0 < per_frame < 8.7


def test_binary_roundtrip(tmp_path, rng):
    stream = random_stream(rng, n=50)
    path = str(tmp_path / "events.bin")
    save_binary_events(stream, path)
    back = load_binary_events(path)
    assert back.geometry == stream.geometry
    assert np.array_equal(back.ts, stream.ts)
    assert np.array_equal(back.xs, stream.xs)
    assert np.array_equal(back.ys, stream.ys)
    assert np.array_equal(back.ps, stream.ps)
    # 16-byte header + 16 bytes per record
    import os

    assert os.path.getsize(path) == 16 + 16 * len(stream)


def test_saving_a_negative_event_time_is_rejected(tmp_path):
    """The format stores u8 times, where -5 would wrap to 2^64 - 5 and the
    file would not load back; nothing is written."""
    path = tmp_path / "events.bin"
    with pytest.raises(ConfigError, match="event time -5 is negative"):
        save_binary_events(EventStream([0, 1], [0, 0], [-5, 3], [1, 1], (4, 4)), str(path))
    assert not path.exists()


def test_saving_an_extent_past_16_bits_is_rejected(tmp_path):
    """The header stores the sensor extents as u2: a 70001-pixel-wide
    sensor is a `ConfigError`, raised before the file is opened. 65535
    still round-trips."""
    path = tmp_path / "events.bin"
    with pytest.raises(ConfigError, match=r"\(70001, 2\) does not fit"):
        save_binary_events(EventStream([70000], [1], [0], [1], (70001, 2)), str(path))
    assert not path.exists()
    save_binary_events(EventStream([65534], [1], [0], [1], (65535, 2)), str(path))
    back = load_binary_events(str(path))
    assert back.geometry == (65535, 2) and back.xs.tolist() == [65534]


def test_stream_validation():
    with pytest.raises(ConfigError):
        EventStream([5], [0], [0], [1], (4, 4))
    with pytest.raises(ConfigError):
        EventStream([0, 1], [0, 0], [10, 5], [1, 1], (4, 4))
    with pytest.raises(ConfigError):
        EventStream([0], [0], [0], [2], (4, 4))
    for geometry in ((0, 0), (-4, 8), (4, 0)):
        with pytest.raises(ConfigError, match="not positive"):
            EventStream([], [], [], [], geometry)


def test_binary_event_time_past_int64_is_rejected(tmp_path):
    """A stored u8 time of 2^63 does not fit int64: loading it raises
    instead of wrapping it to a negative time."""
    records = np.zeros(2, dtype=_RECORD_DTYPE)
    records["t"] = [5, 2**63]
    records["p"] = 1
    path = str(tmp_path / "events.bin")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(EVENT_MAGIC, 4, 4))
        f.write(records.tobytes())
    with pytest.raises(ConfigError, match="event t outside"):
        load_binary_events(path)


def test_event_times_wrapping_to_int64_min_are_out_of_order():
    """10 then -2^63 + 5 goes back in time; their difference overflows
    int64 to a positive number, so only a comparison sees it."""
    with pytest.raises(ConfigError, match="non-decreasing"):
        EventStream([0, 1], [0, 0], [10, -(2**63) + 5], [1, 1], (4, 4))


def test_event_times_half_range_apart_are_out_of_order():
    """2^62 + 1 then -2^62 goes back in time by more than int64 holds."""
    with pytest.raises(ConfigError, match="non-decreasing"):
        EventStream([0, 1], [0, 0], [2**62 + 1, -(2**62)], [1, 1], (4, 4))


def test_held_events_checked_once(monkeypatch):
    """A batch is checked when it arrives; the slices it completes stack the
    join of the held chunks, which equals their checked concatenation and
    builds no EventStream. `run_offline` checks its stream once: the
    batches it feeds are cuts of it, built unchecked."""
    frames, events, queries, _, _, _ = tiny_sequence(seed=3)
    bounds = [0, *np.searchsorted(events.ts, [60_000, 140_000]), len(events)]
    chunks = [EventStream(events.xs[lo:hi], events.ys[lo:hi], events.ts[lo:hi],
                          events.ps[lo:hi], events.geometry)
              for lo, hi in zip(bounds, bounds[1:])]
    assert all(len(c) for c in chunks)
    joined = EventStream.join(chunks)
    checked = EventStream(*(np.concatenate([getattr(c, k) for c in chunks])
                            for k in ("xs", "ys", "ts", "ps")), events.geometry)
    assert joined.geometry == checked.geometry
    for k in ("xs", "ys", "ts", "ps"):
        assert getattr(joined, k).dtype == getattr(checked, k).dtype
        assert np.array_equal(getattr(joined, k), getattr(checked, k))

    built = []
    init = EventStream.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    with no_grad():
        session = TrackSession(tiny_model(), queries)
        session.advance(frame=frames[0])
        monkeypatch.setattr(EventStream, "__init__", counting_init)
        for chunk in chunks:
            n_slices = session._n_slices
            session.advance(events=chunk)
            assert session._n_slices > n_slices
        assert built == []
        run_offline(tiny_model(), frames, events, queries)
    assert built == []


def test_split_cuts_before_each_time():
    stream = EventStream([0, 1, 2, 3], [0, 0, 0, 0], [5, 10, 10, 20], [1, -1, 1, -1], (4, 1))
    cuts = stream.split([0, 10, 15, 30])
    assert [c.ts.tolist() for c in cuts] == [[], [5], [10, 10], [20], []]
    assert [c.xs.tolist() for c in cuts] == [[], [0], [1, 2], [3], []]
    assert [c.ps.tolist() for c in cuts] == [[], [1], [-1, 1], [-1], []]
    for c in cuts:
        assert c.geometry == (4, 1) and c.xs.dtype == np.int32 and c.ts.dtype == np.int64
    assert [c.ts.tolist() for c in stream.split([])] == [[5, 10, 10, 20]]
