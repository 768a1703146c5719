"""End-to-end tracking session: slicing, encoding, fusion, windowing.

The session is streaming-first: frames and event batches arrive in time
order, slices are produced once the input watermark passes them, windows
refine as soon as they fill, and each slice is emitted exactly once. The
offline entry point, `run_offline`, feeds a whole sequence through
`advance` alone, so offline and incremental runs are identical by
construction.

Slice grid: every ablation slices at the first frame's time and then every
`dt_track_us`. A slice reads the latest frame at or before it, and the
events since that frame (`since_frame` mode) or over the last
`dt_track_us` (`fixed` mode). Frames-only slices read no event value, but
event times still move the watermark, so they are emitted as the input
passes them, like the others.

Rolling window: the session holds the slices it has not emitted yet,
oldest first, and refines them once there are W. A refinement stores each
slice's position and (detached) working feature, then emits and drops the
oldest T_step slices, so W-T_step refined slices carry over. The T_step
slices appended next start from the last refined position and the
persistent template, and later windows refine the carried ones again; a
slice is emitted only when it leaves the window (or at the end of the
stream).

Queries: rows are sorted by (birth, id), so the born queries are a prefix
of the rows and `_valid_from` is non-decreasing. Their templates are one
(P, C) block per birth group, the rows born at one frame (events-only: at
one slice), each read by one bilinear sample.

Forward: the model runs in two functions, one per input rate.
`frame_forward` encodes a frame (frames-only: and builds the pyramid its
slices share). `slice_forward` encodes a slice's event stack, fuses it
with its frame's features and builds the slice's pyramid. The session
only schedules them, holds what they return and cuts it (see Training).

Held input: a call's frame and event batch are both checked before
either is held, so a rejected call changes nothing. Each event batch is
checked once, on arrival, and kept as a chunk; a slice stacks the chunks
held, joined unchecked. After each slice the session drops what no later
slice or template can read: event chunks that end before the next
slice's earliest event time (its frame in `since_frame` mode,
`t_slice - dt_track_us` in `fixed` mode), and frame records before the
next slice's frame, none of which an unborn query is born at. A frame
record holds the image; the first slice or template that reads it adds
its features (frames-only: and its pyramid), and its first fused slice
adds fusion's image branch, which later slices pass back to fusion. Each
part is made once per frame. A window slice holds its pyramid, and a
refinement correlates against the W slices' levels where they are, so
each pyramid is the only copy of it. The window's pyramids are the
largest state held: 3.9 MB a slice at 346x260 with 128 channels and 4
levels. A slice's event stack is scaled in place and dropped once the
event encoder has read it. Emitted samples go back to the caller and
are not kept. Held state thus depends on the accumulation window, not on
how long the stream has run.

Training: forward passes record a graph only when the caller passes an
`on_window` hook, which gets each refinement's snapshots and must
back-propagate that window's loss before it returns. Windows share only
the tensors they read from held records: each slice's pyramid levels,
each frame's features, pyramid levels and image branch, and the
templates. Those are cuts (`autodiff.cut`), each made where its record
gets the tensor, so a window's backward stops at them and they gather
its gradient. A record's own graph goes back once the record is
released (a slice leaves the window, a frame is dropped, the templates
at `finish`) and every record that read its cuts has gone back: the
slices that read a frame, and the templates that read their birth frame
(or, events-only, their birth slice). The session thus holds about one
window's graph, whatever the length of the sequence. A graph is made of
nodes that hold no arrays (see `autodiff.tensor`), and a record keeps
its cuts as nodes: a graph waiting to go back holds only the arrays its
vjps read, not every intermediate output, and a dropped frame's
features are freed unless a vjp reads them.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward, cut, no_grad, ops
from .autodiff.tensor import Node
from .checks import config_fields, finite, whole
from .correlation import CorrelationPyramid, WindowState, build_pyramid, check_pyramid_depth
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
    dt_track_us: int = 5000  # slice period, in every ablation
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
    accumulate_mode: str = "since_frame"  # events since the slice's frame; "fixed": over dt_track_us
    time_embed: bool = True
    use_frames: bool = True
    use_events: bool = True

    def __post_init__(self):
        config_fields(self)
        if self.downsample not in (4, 8):
            raise ConfigError(f"downsample must be 4 or 8, got {self.downsample}")
        for name, low in (("bins", 1), ("iterations", 1), ("channels", 1), ("levels", 1),
                          ("frame_channels", 1), ("dim", 1), ("heads", 1), ("mlp_ratio", 1),
                          ("freqs", 1), ("dt_track_us", 1), ("radius", 0), ("pairs", 0)):
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


class TrackerModel:
    """All learnable pieces behind one ParamStore, built from a seed."""

    def __init__(self, cfg: TrackerConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        from .autodiff import ParamStore

        self.store = ParamStore()
        self.frame_encoder = FpnEncoder(self.store, "frame_enc", cfg, cfg.frame_channels, rng)
        self.event_encoder = FpnEncoder(self.store, "event_enc", cfg, 2 * cfg.bins, rng)
        self.fusion = MotionGatedFusion(self.store, "fusion", cfg.channels, rng)
        self.refiner = WindowRefiner(self.store, "refiner", cfg, rng)


def frame_forward(model: TrackerModel, image: np.ndarray):
    """A (C, H, W) frame's features and, frames-only, the pyramid its slices share."""
    cfg = model.cfg
    features = model.frame_encoder(Tensor(image))
    return features, None if cfg.use_events else build_pyramid(features, cfg.levels, cfg.downsample)


def slice_forward(model: TrackerModel, stack: np.ndarray, features, branch, dp_prev: float):
    """The slice-rate forward of an event stack, fused with its frame's `features`
    (None without frames): (pyramid, branch), where `branch` is fusion's image
    branch of `features`, made when None is passed. The stack is dropped once encoded."""
    f_event = model.event_encoder(Tensor(stack))
    del stack
    fused, branch = model.fusion(features, f_event, dp_prev, branch)
    return build_pyramid(fused, model.cfg.levels, model.cfg.downsample), branch


@dataclass
class Track:
    """Emitted samples for one query: (t_us, x, y), strictly increasing t."""

    id: int
    samples: list[tuple[int, float, float]] = field(default_factory=list)


class _Cuts:
    """The cut nodes of one held record, and which records' cuts its graph
    reads. It holds nodes, not tensors, so a cut's array lives only as
    long as the record or a vjp reads it."""

    __slots__ = ("nodes", "sources", "readers", "released")

    def __init__(self):
        self.nodes: list[Node] = []
        self.sources: list[_Cuts] = []
        self.readers = 0  # records that read these cuts and have not gone back yet
        self.released = False

    def add(self, *tensors: Tensor):
        """Cut the graph tensors among `tensors` that are not cuts yet."""
        self.nodes += [t.node for t in tensors if cut(t)]

    def read(self, source: _Cuts):
        """This record's graph reads the cuts of `source`."""
        self.sources.append(source)
        source.readers += 1


def _release(cuts: _Cuts):
    """No new graph will read these cuts. Back-propagate every released
    record that no pending record reads: these cuts once their readers
    have gone back, then the sources whose last reader they were."""
    cuts.released = True
    pending = [cuts]
    while pending:
        c = pending.pop()
        if not c.released or c.readers:
            continue
        if c.nodes:
            backward(c.nodes)
        for source in c.sources:
            source.readers -= 1
            pending.append(source)
        c.nodes, c.sources = [], []


@dataclass
class _Frame:
    """One frame the session still holds, filled in by the records that read it."""

    image: np.ndarray
    features: Tensor | None = None  # frame-encoder output
    pyramid: CorrelationPyramid | None = None  # frames-only: its slices' pyramid
    branch: tuple[Tensor, Tensor] | None = None  # fusion's image branch
    cuts: _Cuts = field(default_factory=_Cuts)


@dataclass
class _Slice:
    """One slice of the rolling window; a refinement fills in the rest."""

    index: int
    t_slice: int
    duration_us: int
    pyramid: CorrelationPyramid
    cuts: _Cuts
    position: np.ndarray | None = None  # (N, 2) refined
    feature: np.ndarray | None = None  # (N, C) refined, detached


@dataclass
class WindowRun:
    """One refinement's snapshots, handed to the session's `on_window` hook."""

    snapshots: list[Tensor]
    start_index: int
    slice_times: np.ndarray
    active: np.ndarray  # (W, N) float mask
    query_ids: list[int]  # the queries along the snapshots' second axis


class TrackSession:
    """Single-writer streaming tracker over one input sequence.

    `query_rows` are (id, t_birth_us, x, y). `on_window(run)`, if given,
    is called with a `WindowRun` after each refinement; the session then
    records a graph and back-propagates it piece by piece, as the module
    docstring describes.

    Threads: sessions on different threads are independent. Each holds
    its own state, and the autodiff modes (`no_grad`, `precision`) hold
    in the context that sets them: its thread and the shares that thread
    runs through `ops._run_shares`. So one thread tracking under `no_grad`
    leaves another thread's training step recording. A model's parameters
    and their `.grad` are shared by every session on it: a model trains
    on one thread at a time, and an optimizer step changes the weights in
    place under every session that reads them.

    Failure: a call whose input is rejected raises an `EvtrackError` and
    changes nothing. An exception that escapes while accepted input is
    processed (an `on_window` hook that raises, a `KeyboardInterrupt`)
    leaves the held state partial and is not rolled back: the session is
    failed, and every later `advance` or `finish` raises a `UsageError`
    whose `__cause__` is that first exception.
    """

    def __init__(self, model: TrackerModel, query_rows, on_window=None):
        self.model = model
        self.cfg = model.cfg
        rows = sorted(map(_query_row, query_rows), key=lambda r: (r[1], r[0]))
        if not rows:
            raise UsageError("session needs at least one query")
        self.query_ids = [r[0] for r in rows]
        if len(set(self.query_ids)) != len(self.query_ids):
            raise ConfigError("duplicate query ids")
        with np.errstate(over="ignore"):  # a position past float32's range is inf, rejected next
            self.p_init = np.array([[r[2], r[3]] for r in rows], dtype=np.float32)
        self._reject_queries(~np.isfinite(self.p_init).all(axis=1), "is not finite")
        self.t_birth = np.array([r[1] for r in rows], dtype=np.int64)
        self._templates: list[Tensor] = []  # (P, C) blocks of the born rows, in row order
        self._n_born = 0
        self._valid_from = np.full(len(rows), _UNBORN, dtype=np.int64)
        self._template_cuts = _Cuts()

        self.on_window = on_window

        self._sensor: tuple[int, int] | None = None  # (W, H), fixed by the first input
        self._frames: dict[int, _Frame] = {}  # by time, oldest first
        self._chunks: list[EventStream] = []  # event batches, oldest first
        self._watermark: int | None = None
        self._last_event_t: int | None = None

        self._next_slice_t: int | None = None
        self._n_slices = 0
        self._window: list[_Slice] = []  # slices not emitted yet, oldest first
        self._dp_prev = 0.0  # mean flow of the last refinement: fusion's gate input
        self._finished = False
        self._failed: BaseException | None = None  # what escaped a pump or finish

    # ------------------------------------------------------------------ input

    def advance(self, frame=None, events=None):
        """Feed the next frame (t_us, image), event batch, or both; returns new samples.

        A frame and a batch in one call are taken frame first, and both or
        neither: each is checked before either is held. An image is
        (C, H, W) floats on the [0, 1] scale, read as float32: integer
        pixels are rejected, not read as 0-255, and so is a float pixel off
        that scale. float16 and float64 frames are cast."""
        self._check_failed()
        if self._finished:
            raise UsageError("session already finished")
        last_slice = self._window[-1].t_slice if self._window else None
        last_frame = next(reversed(self._frames), None)
        sensor = self._sensor
        if frame is not None:
            t, image = self._checked_frame(frame, last_frame, last_slice)
            sensor = self._checked_sensor(sensor, (image.shape[2], image.shape[1]), "frame")
            if self.cfg.use_frames:
                self._check_births_between(last_frame, t)
        if events is not None:
            batch = _event_batch(events)
            sensor = self._checked_sensor(sensor, batch.geometry, "event batch")
            if len(batch):
                t0 = int(batch.ts[0])
                if self._last_event_t is not None and t0 < self._last_event_t:
                    raise OrderingError(f"event batch starts at {t0} before {self._last_event_t}")
                if last_slice is not None and t0 <= last_slice:
                    raise OrderingError("events arrived for already-processed slices")
        self._sensor = sensor  # every check passed: hold the input
        if frame is not None:
            self._frames[t] = _Frame(image)
            if self._next_slice_t is None:  # every slice grid starts at the first frame
                self._next_slice_t = t
            self._watermark = t if self._watermark is None else max(self._watermark, t)
        if events is not None and len(batch):
            self._chunks.append(batch)
            self._last_event_t = t1 = int(batch.ts[-1])
            self._watermark = t1 if self._watermark is None else max(self._watermark, t1)
        with self._running():
            return self._pump(flush=False)

    def finish(self):
        """Flush remaining slices, refine any trailing partial window, emit all."""
        self._check_failed()
        if self._finished:
            return []
        with self._running():
            emitted = self._pump(flush=True)
            if self._window and self._window[-1].position is None:
                emitted += self._refine_and_emit(final=True)
            else:
                emitted += self._emit(len(self._window))
            for cuts in [self._template_cuts] + [f.cuts for f in self._frames.values()]:
                _release(cuts)
        self._finished = True
        return emitted

    # -------------------------------------------------------------- internals

    def _check_failed(self):
        if self._failed is not None:
            raise UsageError(f"session failed: an earlier call raised {self._failed!r}, "
                             "and what it holds is partial") from self._failed

    @contextlib.contextmanager
    def _running(self):
        """Record a graph only when a hook takes the windows for training.
        Any exception that escapes fails the session: it is not rolled back."""
        try:
            with contextlib.nullcontext() if self.on_window is not None else no_grad():
                yield
        except BaseException as err:
            self._failed = err
            raise

    def _reject_queries(self, bad: np.ndarray, what: str):
        if bad.any():
            n = int(np.argmax(bad))
            x, y = self.p_init[n]
            raise UsageError(f"query {self.query_ids[n]} at ({x:g}, {y:g}) {what}")

    def _checked_frame(self, frame, last_frame: int | None,
                       last_slice: int | None) -> tuple[int, np.ndarray]:
        """The time and float32 (C, H, W) image of a frame that may follow
        the held input; whether it fits the sensor is checked next."""
        t, image = _frame_pair(frame)
        if last_frame is not None and t < last_frame:
            raise OrderingError(f"frame at {t} after frame at {last_frame}")
        if t == last_frame:
            raise OrderingError(f"second frame at {t}")
        if last_slice is not None and t <= last_slice:
            raise OrderingError(f"frame at {t} arrived after slices past it were processed")
        image = np.asarray(image)
        if image.dtype.kind != "f":
            raise ConfigError(f"frame at {t} has {image.dtype} pixels; a frame holds floats "
                              "on the [0, 1] scale that images.load_image gives")
        if not np.isfinite(image).all():
            raise UsageError(f"frame at {t} has non-finite pixels")
        with np.errstate(over="ignore"):  # a pixel past float32's range is inf, rejected next
            image = image.astype(np.float32, copy=False)
        if image.size and not 0 <= image.min() <= image.max() <= 1:
            raise ConfigError(f"frame at {t} has pixels from {image.min():g} to "
                              f"{image.max():g}, off the [0, 1] scale that "
                              "images.load_image gives")
        c = self.cfg.frame_channels
        if image.ndim != 3 or image.shape[0] != c:
            w, h = self._sensor or ("W", "H")
            raise ConfigError(f"frame has shape {image.shape}, expected ({c}, {h}, {w})")
        return t, image

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

    def _checked_sensor(self, sensor: tuple[int, int] | None, size: tuple[int, int],
                        what: str) -> tuple[int, int]:
        """The sensor (W, H) once an input of `size` is held: the first frame
        or event batch fixes it, and later ones must match.

        The sensor must span the feature stride S both ways, and its
        (ceil(H/S), ceil(W/S)) feature map must hold the pyramid.
        """
        w, h = size
        if sensor is None:
            s = self.cfg.downsample
            if min(w, h) < s:
                raise ConfigError(f"the {w}x{h} sensor of the first {what} is smaller "
                                  f"than the feature stride {s}")
            check_pyramid_depth(self.cfg.levels, -(-h // s), -(-w // s))
            x, y = self.p_init[:, 0], self.p_init[:, 1]
            self._reject_queries((x < 0) | (x >= w) | (y < 0) | (y >= h),
                                 f"lies outside the {w}x{h} sensor")
            return size
        if size != sensor:
            raise ConfigError(f"{what} is {w}x{h}, but the sensor is {sensor[0]}x{sensor[1]}")
        return sensor

    def _frame_before(self, t: int) -> int | None:
        """Time of the latest frame at or before t."""
        times = list(self._frames)
        i = bisect.bisect_right(times, t) - 1
        return times[i] if i >= 0 else None

    def _drop_unread(self):
        """Drop the frames and event chunks that no later slice or template can read.

        A frame before the next slice's frame is not the birth frame of an
        unborn query: any frame after the slice just processed raised the
        watermark past that slice, so at most one such frame has arrived.
        """
        t_next = self._next_slice_t
        t_frame = self._frame_before(t_next)
        for t in [t for t in self._frames if t < t_frame]:
            _release(self._frames.pop(t).cuts)
        t_read = self._events_from(t_next, t_frame)
        self._chunks = [c for c in self._chunks if c.ts[-1] >= t_read]

    def _events_from(self, t_slice: int, t_frame: int) -> int:
        """Earliest event time the slice at t_slice reads; t_frame is its frame."""
        if self.cfg.accumulate_mode == "since_frame":
            return t_frame
        return t_slice - self.cfg.dt_track_us

    def _pump(self, flush: bool):
        emitted = []
        while (t_slice := self._next_slice_t) is not None:
            if t_slice > self._watermark or (t_slice == self._watermark and not flush):
                break  # until the flush, events at the watermark may still arrive
            self._process_slice(t_slice)
            self._next_slice_t = t_slice + self.cfg.dt_track_us
            self._drop_unread()
            if len(self._window) == self.cfg.window:
                emitted += self._refine_and_emit(final=False)
        return emitted

    def _process_slice(self, t_slice: int):
        idx = self._n_slices
        t_frame = self._frame_before(t_slice)  # the grid starts at the first frame
        t_ev0 = self._events_from(t_slice, t_frame)
        cuts = _Cuts()
        frame = self._read_frame(t_frame, cuts)
        if self.cfg.use_events:
            pyramid, frame.branch = slice_forward(self.model, self._event_stack(t_ev0, t_slice),
                                                  frame.features, frame.branch, self._dp_prev)
            frame.cuts.add(*frame.branch or ())
        else:  # frames-only: a frame's slices share its pyramid, and read no event value
            pyramid = frame.pyramid
        cuts.add(*pyramid.levels)  # frames-only: cuts of the frame already
        self._window.append(_Slice(idx, t_slice, max(0, t_slice - t_ev0), pyramid, cuts))
        self._n_slices += 1

        n_born = int(np.searchsorted(self.t_birth, t_slice, side="right"))
        if n_born > self._n_born:
            self._valid_from[self._n_born:n_born] = idx
            self._sample_templates(n_born, pyramid.levels[0], cuts)

    def _read_frame(self, t_frame: int, reader: _Cuts) -> _Frame:
        """The frame at t_frame, read by the record whose cuts are `reader`.
        With frames, its first read runs `frame_forward` and cuts its parts."""
        frame = self._frames[t_frame]
        if self.cfg.use_frames and frame.features is None:
            frame.features, frame.pyramid = frame_forward(self.model, frame.image)
            frame.cuts.add(frame.features, *(frame.pyramid.levels if frame.pyramid else ()))
        reader.read(frame.cuts)  # without frames, cuts that stay empty
        return frame

    def _event_stack(self, t_ev0: int, t_slice: int) -> np.ndarray:
        """The stack of the held events in [t_ev0, t_slice], its t* scaled in place to [0, 1]."""
        bins = self.cfg.bins
        if t_slice > t_ev0 and self._chunks:
            stack = build_event_stack(EventStream.join(self._chunks), t_ev0, t_slice, bins)
            stack *= np.float32(1 / max(1, bins - 1))
            return stack
        # a slice at its frame has no events yet: conv2d multiplies no column of
        # this zero stack (nor, while the encoder's biases are zero, of most maps after it)
        x_ext, y_ext = self._sensor
        return np.zeros((2 * bins, y_ext, x_ext), dtype=np.float32)

    def _sample_templates(self, n_born: int, fused: Tensor, slice_cuts: _Cuts):
        """Templates of rows [_n_born, n_born), born at this slice: one
        bilinear read per birth group, of its birth frame's features (the
        events-only ablation reads this slice's fused map for all of them).
        Every later window reads the blocks, so they are cuts."""
        cfg = self.cfg
        lo = self._n_born
        if cfg.use_frames:
            times, starts = np.unique(self.t_birth[lo:n_born], return_index=True)
            bounds = [*(lo + starts).tolist(), n_born]
            groups = zip(times.tolist(), bounds, bounds[1:])
        else:
            groups = [(None, lo, n_born)]
        for t_birth, a, b in groups:
            if not cfg.use_frames:
                source = fused
                self._template_cuts.read(slice_cuts)
            elif t_birth in self._frames:
                source = self._read_frame(t_birth, self._template_cuts).features
            else:
                raise UsageError(f"query {self.query_ids[a]} born at {t_birth}, "
                                 "which is not a frame time")
            block = ops.bilinear_sample(source, (self.p_init[a:b] / cfg.downsample).astype(np.float32))
            self._templates.append(block)
            self._template_cuts.add(block)
        self._n_born = n_born

    def _template_matrix(self) -> Tensor:
        """(N, C): the born rows' template blocks, then zeros for the unborn."""
        unborn = Tensor(np.zeros((len(self.query_ids) - self._n_born, self.cfg.channels)))
        return ops.concat(self._templates + [unborn], axis=0)

    def _assemble_state(self) -> WindowState:
        """Refined slices keep their position and feature; fresh ones start
        from the last refined position (or the query position) and the template."""
        refined = [s for s in self._window if s.position is not None]
        n_fresh = len(self._window) - len(refined)
        last = refined[-1].position if refined else self.p_init
        template = self._template_matrix().reshape((1, len(self.query_ids), self.cfg.channels))
        features = ops.concat([s.feature[None] for s in refined] + [template] * n_fresh, axis=0)
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
            self._dp_prev = mean_flow(pos_data[-1], pos_data[-2], active)

        if self.on_window is not None:
            self.on_window(WindowRun(snapshots, state.start_index, state.slice_times,
                                     state.active_mask(), self.query_ids))
        return self._emit(len(self._window) if final else self.cfg.t_step)

    def _emit(self, count: int):
        """Emit the oldest `count` window slices and release them."""
        emitted = []
        for s in self._window[:count]:
            # _valid_from is non-decreasing, so the rows alive at s are a prefix
            live = int(np.searchsorted(self._valid_from, s.index, side="right"))
            emitted += [(qid, s.t_slice, x, y)
                        for qid, (x, y) in zip(self.query_ids, s.position[:live].tolist())]
            _release(s.cuts)
        del self._window[:count]
        return emitted


def _query_row(row) -> tuple[int, int, float, float]:
    """A query row (id, t_birth_us, x, y): the id and birth time must be
    whole numbers, x and y finite numbers; whether the position lies on
    the sensor is checked at the first input. Any bad row is a `UsageError`."""
    try:
        qid, t_birth, x, y = row
    except (TypeError, ValueError):
        raise UsageError(f"query row {row!r} is not (id, t_birth_us, x, y)") from None
    try:
        return whole(qid, "id"), whole(t_birth, "birth time"), finite(x, "x"), finite(y, "y")
    except ConfigError as err:
        raise UsageError(f"query row {row!r}: {err}") from None


def _event_batch(events) -> EventStream:
    """An `EventStream`, or the (xs, ys, ts, ps, geometry) to build one."""
    if isinstance(events, EventStream):
        return events
    if not isinstance(events, (tuple, list)) or len(events) != 5:
        raise UsageError("an event batch is an EventStream or (xs, ys, ts, ps, (width, height)), "
                         f"got {type(events).__name__}")
    return EventStream(*events)


def _frame_pair(frame) -> tuple[int, object]:
    """A frame (t_us, image) with a whole-number time; `advance` checks the image."""
    try:
        t, image = frame
    except (TypeError, ValueError):
        raise UsageError(f"frame {type(frame).__name__} is not a (t_us, image) pair") from None
    return whole(t, "frame time"), image


def run_offline(model: TrackerModel, frames, events, query_rows, on_window=None):
    """Track a whole sequence through `TrackSession.advance` alone, then flush.

    `frames` holds (t_us, image) pairs in any order. `events` is an
    `EventStream` or the (xs, ys, ts, ps, (width, height)) to build one,
    as `advance` takes it, and is checked once. Each frame goes into one
    `advance` call with the events before it, and a last call takes the
    rest. `on_window` goes to the session. Returns (tracks, session): one
    track per query, in the session's order.
    """
    session = TrackSession(model, query_rows, on_window=on_window)
    if not np.iterable(frames):
        raise UsageError(f"frames {type(frames).__name__} is not a list of (t_us, image) pairs")
    frames = sorted(map(_frame_pair, frames), key=lambda p: p[0])
    batches = _event_batch(events).split([t for t, _ in frames])
    emitted = []
    for frame, batch in zip(frames, batches):
        emitted += session.advance(frame=frame, events=batch)
    emitted += session.advance(events=batches[-1])
    emitted += session.finish()
    tracks = {qid: Track(qid) for qid in session.query_ids}
    for qid, *sample in emitted:
        tracks[qid].samples.append(tuple(sample))
    return list(tracks.values()), session


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


def _load_rows_csv(path: str) -> list[tuple[int, int, float, float]]:
    """Read the "id,t_us,x,y" rows that `save_tracks_csv` writes.

    A first row whose first field is `id` or `track_id` is a header and
    is skipped; blank rows are skipped; any other row that is not an int,
    an int and two floats raises ConfigError.
    """
    rows = []
    with open(path, newline="") as f:
        for i, rec in enumerate(csv.reader(f)):
            header = i == 0 and rec and rec[0].strip().lower() in ("id", "track_id")
            if header or not "".join(rec).strip():
                continue
            try:
                if len(rec) != 4:
                    raise ValueError
                rows.append((int(rec[0]), int(rec[1]), float(rec[2]), float(rec[3])))
            except ValueError:
                raise ConfigError(f"{path} line {i + 1}: expected id,t_us,x,y, got {rec!r}") from None
    return rows


def load_queries_csv(path: str) -> list[tuple[int, int, float, float]]:
    """Query rows (id, t_us, x, y); a file with none is a usage error."""
    rows = _load_rows_csv(path)
    if not rows:
        raise UsageError(f"no queries in {path}")
    return rows


def load_tracks_csv(path: str) -> dict[int, list[tuple[int, float, float]]]:
    """Track rows grouped by id: {id: [(t_us, x, y), ...]} in file order."""
    out: dict[int, list[tuple[int, float, float]]] = {}
    for tid, t, x, y in _load_rows_csv(path):
        out.setdefault(tid, []).append((t, x, y))
    return out
