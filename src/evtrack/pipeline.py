"""End-to-end tracking session: slicing, encoding, fusion, windowing.

The session is streaming-first: frames and event batches arrive in time
order, slices are produced once the input watermark passes them, windows
refine as soon as they fill, and each slice is emitted exactly once. The
offline entry point feeds a whole sequence through the same path, so
offline and incremental runs are identical by construction.

Rolling window: the session holds the slices it has not emitted yet,
oldest first, and refines them once there are W. A refinement stores each
slice's position and (detached) working feature, then emits and drops the
oldest T_step slices, so W-T_step refined slices carry over. The T_step
slices appended next start from the last refined position and the
persistent template, and later windows refine the carried ones again; a
slice is emitted only when it leaves the window (or at the end of the
stream).

Held input: each event batch is validated once, on arrival, and kept as a
chunk; a slice stacks the join of the chunks held. After each slice the
session drops what no later slice or template can read: event chunks that
end before the next slice's earliest event time (its frame in
`since_frame` mode, `t_slice - event_window_us()` in `fixed` mode), and
frame records before the next slice's frame, none of which an unborn
query is born at. A frame record holds the image, its features and
fusion's image branch, each computed once per frame. Emitted samples go
back to the caller and are not kept. Held state thus depends on the
accumulation window, not on how long the stream has run. Forward passes
record no graph unless `record_windows` keeps the windows for training.
"""

from __future__ import annotations

import bisect
import contextlib
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, no_grad, ops
from .correlation import CorrelationPyramid, WindowState, build_pyramid
from .encoders import FpnEncoder, MotionGatedFusion, mean_flow
from .errors import ConfigError, OrderingError, UsageError
from .events import EventStream, build_event_stack
from .refiner import WindowRefiner

_UNBORN = np.iinfo(np.int64).max


@dataclass
class TrackerConfig:
    """Every tracker value: the encoders, fusion and refiner read it directly."""

    bins: int = 5  # event-stack bins per polarity
    window: int = 16  # W slices per refinement window
    t_step: int | None = None  # window advance in slices; unset → window // 2
    iterations: int = 4  # refinement passes per window
    downsample: int = 4  # feature stride S, 4 or 8
    channels: int = 128  # feature channels C
    radius: int = 3  # correlation offsets in [-r, r]
    levels: int = 4  # correlation pyramid levels
    dt_track_us: int = 5000  # slice period
    frame_channels: int = 1
    # refiner
    dim: int = 256
    pairs: int = 2  # temporal/spatial attention block pairs
    heads: int = 4
    mlp_ratio: int = 4
    freqs: int = 16  # K sin/cos frequencies per encoded scalar
    pos_wavelength: float = 512.0  # px, coarsest encoding period
    time_wavelength: float = 1_000_000.0  # µs
    # ablation toggles
    accumulate_mode: str = "since_frame"  # or "fixed"
    fixed_window_us: int = 0  # 0 -> dt_track_us
    time_embed: bool = True
    use_frames: bool = True
    use_events: bool = True

    def __post_init__(self):
        if self.downsample not in (4, 8):
            raise ConfigError(f"downsample must be 4 or 8, got {self.downsample}")
        for name, low in (("bins", 1), ("iterations", 1), ("channels", 1), ("levels", 1),
                          ("frame_channels", 1), ("dim", 1), ("heads", 1), ("mlp_ratio", 1),
                          ("freqs", 1), ("dt_track_us", 1), ("radius", 0), ("pairs", 0),
                          ("fixed_window_us", 0)):
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("pos_wavelength", "time_wavelength"):
            if not 0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.dim % self.heads != 0:
            raise ConfigError(f"dim {self.dim} is not divisible by {self.heads} heads")
        derived = self.t_step is None
        if derived:
            self.t_step = self.window // 2  # half-window overlap
        if not (1 <= self.t_step < self.window):
            origin = " (derived as window // 2)" if derived else ""
            raise ConfigError(
                f"need 1 <= t_step < window, got t_step={self.t_step}{origin}, window={self.window}"
            )
        if self.accumulate_mode not in ("since_frame", "fixed"):
            raise ConfigError(f"unknown accumulate_mode {self.accumulate_mode!r}")
        if not (self.use_frames or self.use_events):
            raise ConfigError("at least one of use_frames/use_events must be set")

    def event_window_us(self) -> int:
        return self.fixed_window_us if self.fixed_window_us > 0 else self.dt_track_us


class TrackerModel:
    """All learnable pieces behind one ParamStore, built from a seed."""

    def __init__(self, cfg: TrackerConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        from .autodiff import ParamStore

        self.store = ParamStore()
        self.frame_encoder = FpnEncoder(self.store, "frame_enc", cfg, cfg.frame_channels, rng)
        self.event_encoder = FpnEncoder(self.store, "event_enc", cfg, 2 * cfg.bins, rng,
                                        input_scale=1.0 / max(1, cfg.bins - 1))
        self.fusion = MotionGatedFusion(self.store, "fusion", cfg.channels, rng)
        self.refiner = WindowRefiner(self.store, "refiner", cfg, rng)


@dataclass
class Track:
    """Emitted samples for one query: (t_us, x, y), strictly increasing t."""

    id: int
    samples: list[tuple[int, float, float]] = field(default_factory=list)


@dataclass
class _Frame:
    """One frame the session still holds."""

    image: np.ndarray
    features: Tensor | None = None  # frame-encoder output, computed on first use
    branch: tuple[Tensor, Tensor] | None = None  # fusion's image branch, likewise


@dataclass
class _Slice:
    """One slice of the rolling window; a refinement fills in the rest."""

    index: int
    t_slice: int
    duration_us: int
    pyramid: CorrelationPyramid
    position: np.ndarray | None = None  # (N, 2) refined
    feature: np.ndarray | None = None  # (N, C) refined, detached


@dataclass
class WindowRun:
    """One refinement's snapshots, kept for the training loss."""

    snapshots: list[Tensor]
    start_index: int
    slice_times: np.ndarray
    active: np.ndarray  # (W, N) float mask


class TrackSession:
    """Single-writer streaming tracker over one input sequence."""

    def __init__(self, model: TrackerModel, query_rows, record_windows: bool = False):
        self.model = model
        self.cfg = model.cfg
        rows = sorted(query_rows, key=lambda r: (r[1], r[0]))
        if not rows:
            raise UsageError("session needs at least one query")
        self.query_ids = [int(r[0]) for r in rows]
        if len(set(self.query_ids)) != len(self.query_ids):
            raise ConfigError("duplicate query ids")
        self.p_init = np.array([[r[2], r[3]] for r in rows], dtype=np.float32)
        self._reject_queries(~np.isfinite(self.p_init).all(axis=1), "is not finite")
        self.t_birth = np.array([r[1] for r in rows], dtype=np.int64)
        n = len(rows)
        self._templates: list[Tensor | None] = [None] * n
        self._valid_from = np.full(n, _UNBORN, dtype=np.int64)

        self.record_windows = record_windows
        self.window_runs: list[WindowRun] = []

        self._sensor: tuple[int, int] | None = None  # (W, H), fixed by the first input
        self._frames: dict[int, _Frame] = {}  # by time, oldest first
        self._chunks: list[EventStream] = []  # event batches, oldest first
        self._watermark: int | None = None
        self._last_event_t: int | None = None

        self._next_slice_t: int | None = None
        self._n_slices = 0
        self._window: list[_Slice] = []  # slices not emitted yet, oldest first
        self._flow_pair = None  # (last, prev, active) refined positions
        self._finished = False

    # ------------------------------------------------------------------ input

    def advance(self, frame=None, events=None):
        """Feed the next frame (t_us, image) or event batch; returns new samples."""
        if self._finished:
            raise UsageError("session already finished")
        last_slice = self._window[-1].t_slice if self._window else None
        if frame is not None:
            t, image = frame
            t = int(t)
            last_frame = next(reversed(self._frames), None)
            if last_frame is not None and t < last_frame:
                raise OrderingError(f"frame at {t} after frame at {last_frame}")
            if t == last_frame:
                raise OrderingError(f"second frame at {t}")
            if last_slice is not None and t <= last_slice:
                raise OrderingError(f"frame at {t} arrived after slices past it were processed")
            image = np.asarray(image, dtype=np.float32)
            self._check_frame_shape(image.shape)
            if not np.isfinite(image).all():
                raise UsageError(f"frame at {t} has non-finite pixels")
            if self.cfg.use_frames:
                self._check_births_between(last_frame, t)
            self._frames[t] = _Frame(image)
            self._watermark = t if self._watermark is None else max(self._watermark, t)
        if events is not None:
            batch = events if isinstance(events, EventStream) else EventStream(*events)
            self._fix_sensor(batch.geometry, "event batch")
            if len(batch):
                t0, t1 = int(batch.ts[0]), int(batch.ts[-1])
                if self._last_event_t is not None and t0 < self._last_event_t:
                    raise OrderingError(f"event batch starts at {t0} before {self._last_event_t}")
                if last_slice is not None and t0 <= last_slice:
                    raise OrderingError("events arrived for already-processed slices")
                self._chunks.append(batch)
                self._last_event_t = t1
                self._watermark = t1 if self._watermark is None else max(self._watermark, t1)
        with self._grad_mode():
            return self._pump(flush=False)

    def finish(self):
        """Flush remaining slices, refine any trailing partial window, emit all."""
        if self._finished:
            return []
        with self._grad_mode():
            emitted = self._pump(flush=True)
            if self._window and self._window[-1].position is None:
                emitted += self._refine_and_emit(final=True)
            else:
                emitted += self._emit(len(self._window))
        self._finished = True
        return emitted

    # -------------------------------------------------------------- internals

    def _grad_mode(self):
        """Record a graph only when the windows are kept for training."""
        return contextlib.nullcontext() if self.record_windows else no_grad()

    def _reject_queries(self, bad: np.ndarray, what: str):
        if bad.any():
            n = int(np.argmax(bad))
            x, y = self.p_init[n]
            raise UsageError(f"query {self.query_ids[n]} at ({x:g}, {y:g}) {what}")

    def _check_frame_shape(self, shape: tuple[int, ...]):
        c = self.cfg.frame_channels
        if len(shape) != 3 or shape[0] != c:
            w, h = self._sensor or ("W", "H")
            raise ConfigError(f"frame has shape {shape}, expected ({c}, {h}, {w})")
        self._fix_sensor((shape[2], shape[1]), "frame")

    def _check_births_between(self, last_frame: int | None, t: int):
        """Templates come from the frame at a query's birth, so a birth
        strictly between two consecutive frames (or before the first one)
        can never be served."""
        lo = -np.inf if last_frame is None else last_frame
        bad = (self.t_birth > lo) & (self.t_birth < t)
        if bad.any():
            n = int(np.argmax(bad))
            raise UsageError(
                f"query {self.query_ids[n]} born at {int(self.t_birth[n])}, which is not a frame time"
            )

    def _fix_sensor(self, size: tuple[int, int], what: str):
        """The first frame or event batch fixes the sensor (W, H); later ones must match."""
        w, h = size
        if self._sensor is None:
            x, y = self.p_init[:, 0], self.p_init[:, 1]
            self._reject_queries((x < 0) | (x >= w) | (y < 0) | (y >= h),
                                 f"lies outside the {w}x{h} sensor")
            self._sensor = size
        elif size != self._sensor:
            raise ConfigError(
                f"{what} is {w}x{h}, but the sensor is {self._sensor[0]}x{self._sensor[1]}"
            )

    def _frame_features(self, t_frame: int) -> Tensor:
        frame = self._frames[t_frame]
        if frame.features is None:
            frame.features = self.model.frame_encoder(Tensor(frame.image))
        return frame.features

    def _frame_before(self, t: int) -> int | None:
        """Time of the latest frame at or before t."""
        times = list(self._frames)
        i = bisect.bisect_right(times, t) - 1
        return times[i] if i >= 0 else None

    def _next_slice_time(self) -> int | None:
        if self._next_slice_t is None:
            if not self._frames:
                return None
            self._next_slice_t = next(iter(self._frames))
        if not self.cfg.use_events:
            # frames-only ablation: the slice grid is the frame times
            return next((t for t in self._frames if t >= self._next_slice_t), None)
        return self._next_slice_t

    def _drop_unread(self):
        """Drop the frames and event chunks that no later slice or template can read.

        A frame before the next slice's frame is not the birth frame of an
        unborn query: any frame after the slice just processed raised the
        watermark past that slice, so at most one such frame has arrived.
        """
        t_next = self._next_slice_t
        t_frame = self._frame_before(t_next)
        for t in [t for t in self._frames if t < t_frame]:
            del self._frames[t]
        t_read = self._events_from(t_next, t_frame)
        self._chunks = [c for c in self._chunks if c.ts[-1] >= t_read]

    def _events_from(self, t_slice: int, t_frame: int) -> int:
        """Earliest event time the slice at t_slice reads; t_frame is its frame."""
        if self.cfg.accumulate_mode == "since_frame":
            return t_frame
        return t_slice - self.cfg.event_window_us()

    def _pump(self, flush: bool):
        emitted = []
        while True:
            t_slice = self._next_slice_time()
            if t_slice is None or self._watermark is None:
                break
            if flush:
                if t_slice > self._watermark:
                    break
            elif t_slice >= self._watermark:
                break
            self._process_slice(t_slice)
            self._next_slice_t = t_slice + (self.cfg.dt_track_us if self.cfg.use_events else 1)
            self._drop_unread()
            if len(self._window) == self.cfg.window:
                emitted += self._refine_and_emit(final=False)
        return emitted

    def _gate_input(self) -> float:
        if self._flow_pair is None:
            return 0.0
        last, prev, active = self._flow_pair
        return mean_flow(last, prev, active)

    def _process_slice(self, t_slice: int):
        cfg = self.cfg
        idx = self._n_slices
        t_frame = self._frame_before(t_slice)
        if t_frame is None:
            raise UsageError(f"no frame at or before slice time {t_slice}")

        t_ev0 = self._events_from(t_slice, t_frame)
        duration = max(0, t_slice - t_ev0)

        if cfg.use_events:
            if duration > 0 and self._chunks:
                cols = (np.concatenate([getattr(c, k) for c in self._chunks])
                        for k in ("xs", "ys", "ts", "ps"))
                raw = build_event_stack(EventStream(*cols, self._sensor), t_ev0, t_slice, cfg.bins)
            else:
                # a slice coinciding with its frame accumulates no events yet
                x_ext, y_ext = self._sensor
                raw = np.zeros((2 * cfg.bins, y_ext, x_ext), dtype=np.float32)
            f_event = self.model.event_encoder(Tensor(raw))
            f_image = self._frame_features(t_frame) if cfg.use_frames else None
            frame = self._frames[t_frame]
            fused, frame.branch = self.model.fusion(
                f_image, f_event, self._gate_input(), frame.branch, use_frames=cfg.use_frames)
        else:
            fused = self._frame_features(t_frame)
            duration = 0

        pyramid = build_pyramid(fused, cfg.levels, cfg.downsample)
        self._window.append(_Slice(idx, t_slice, duration, pyramid))
        self._n_slices += 1

        newly = (self._valid_from == _UNBORN) & (self.t_birth <= t_slice)
        for n in np.nonzero(newly)[0]:
            self._valid_from[n] = idx
            self._sample_template(int(n), fused)

    def _sample_template(self, n: int, fused: Tensor):
        cfg = self.cfg
        if cfg.use_frames:
            t_birth = int(self.t_birth[n])
            if t_birth not in self._frames:
                raise UsageError(
                    f"query {self.query_ids[n]} born at {t_birth}, which is not a frame time"
                )
            source = self._frame_features(t_birth)
        else:
            # events-only ablation: template from the first fused map instead
            source = fused
        pts = (self.p_init[n : n + 1] / cfg.downsample).astype(np.float32)
        self._templates[n] = ops.getitem(ops.bilinear_sample(source, pts), 0)

    def _template_matrix(self) -> Tensor:
        zero = None
        cols = []
        for tpl in self._templates:
            if tpl is None:
                if zero is None:
                    zero = Tensor(np.zeros(self.cfg.channels, dtype=np.float32))
                cols.append(zero)
            else:
                cols.append(tpl)
        return ops.stack(cols, axis=0)

    def _assemble_state(self) -> WindowState:
        """Refined slices keep their position and feature; fresh ones start
        from the last refined position (or the query position) and the template."""
        refined = [s for s in self._window if s.position is not None]
        n_fresh = len(self._window) - len(refined)
        last = refined[-1].position if refined else self.p_init
        fresh = ops.stack([self._template_matrix()] * n_fresh, axis=0)
        features = fresh
        if refined:
            features = ops.concat([np.stack([s.feature for s in refined]), fresh], axis=0)
        return WindowState(
            positions=np.stack([s.position for s in refined] + [last] * n_fresh).astype(np.float32),
            features=features,
            durations_us=np.array([s.duration_us for s in self._window], dtype=np.int64),
            slice_times=np.array([s.t_slice for s in self._window], dtype=np.int64),
            valid_from=self._valid_from.copy(),
            start_index=self._window[0].index,
        )

    def _refine_and_emit(self, final: bool):
        state = self._assemble_state()
        snapshots, pos_final, feats_final = self.model.refiner.refine(
            state, [s.pyramid for s in self._window], self.p_init
        )
        pos_data = pos_final.data
        for s, position, feature in zip(self._window, pos_data, feats_final.data):
            s.position, s.feature = position, feature
        if state.window >= 2:
            active = (state.start_index + state.window - 1) >= self._valid_from
            self._flow_pair = (pos_data[-1], pos_data[-2], active)

        if self.record_windows:
            self.window_runs.append(
                WindowRun(snapshots, state.start_index, state.slice_times, state.active_mask())
            )
        return self._emit(len(self._window) if final else self.cfg.t_step)

    def _emit(self, count: int):
        """Emit the oldest `count` window slices and drop them from the window."""
        emitted = []
        for s in self._window[:count]:
            for n, qid in enumerate(self.query_ids):
                if self._valid_from[n] <= s.index:
                    emitted.append((qid, s.t_slice, float(s.position[n, 0]), float(s.position[n, 1])))
        del self._window[:count]
        return emitted


def run_offline(model: TrackerModel, frames, events: EventStream, query_rows,
                record_windows: bool = False):
    """Track a whole sequence: feed inputs in merged time order, then flush.

    `frames` is a list of (t_us, image) pairs. Returns (tracks, session);
    the tracks are built from the samples `advance` and `finish` return,
    one per query in the session's order.
    """
    session = TrackSession(model, query_rows, record_windows=record_windows)
    frames = sorted(frames, key=lambda p: p[0])
    emitted = []
    cursor = 0
    for t_frame, image in frames:
        hi = int(np.searchsorted(events.ts, t_frame, side="left"))
        if hi > cursor:
            emitted += session.advance(events=_slice_stream(events, cursor, hi))
            cursor = hi
        emitted += session.advance(frame=(t_frame, image))
    if cursor < len(events):
        emitted += session.advance(events=_slice_stream(events, cursor, len(events)))
    emitted += session.finish()
    tracks = {qid: Track(qid) for qid in session.query_ids}
    for qid, *sample in emitted:
        tracks[qid].samples.append(tuple(sample))
    return list(tracks.values()), session


def _slice_stream(events: EventStream, lo: int, hi: int) -> EventStream:
    return EventStream(
        events.xs[lo:hi], events.ys[lo:hi], events.ts[lo:hi], events.ps[lo:hi], events.geometry
    )


def save_tracks_csv(tracks, path: str) -> None:
    """Write "track_id,t_us,x,y" rows with 3-decimal fixed-point pixels.

    `tracks` are predicted `Track`s or ground-truth `GtTrack`s: anything
    with an `id` and (t_us, x, y) `samples`.
    """
    with open(path, "w") as f:
        f.write("track_id,t_us,x,y\n")
        for track in tracks:
            for t, x, y in track.samples:
                f.write(f"{track.id},{t},{x:.3f},{y:.3f}\n")


def load_tracks_csv(path: str) -> dict[int, list[tuple[int, float, float]]]:
    out: dict[int, list[tuple[int, float, float]]] = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("track_id"):
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ConfigError(f"bad track row: {line!r}")
            out.setdefault(int(parts[0]), []).append((int(parts[1]), float(parts[2]), float(parts[3])))
    return out
