"""Event streams, the time-binned stack representation, and the binary event format.

Events sit on integer pixel coordinates. A stream is tensorized by
splitting a time window into `bins` bins per polarity and writing, per
pixel and bin, the normalized timestamp of the latest event there (the
max over the cell's events). Normalization maps the window onto
[0, bins-1], so values never exceed bins-1. The stack is channel-first,
(2*bins, Y, X), which is the event encoder's input layout.
"""

from __future__ import annotations

import struct

import numpy as np

from .checks import pixel_column, polarity_column, whole, whole_column
from .errors import ConfigError, DegenerateWindowError, UsageError

EVENT_MAGIC = b"FETAPEVT"
_HEADER = struct.Struct("<8sHH4x")  # magic, sensor width and height as u2
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("pad", "V3")])


class EventStream:
    """Time-sorted events plus the (X, Y) sensor extents.

    Stored as column arrays (xs, ys, ts, ps) for vectorized slicing. The
    columns are 1-D and hold whole pixels inside the sensor, whole
    timestamps and polarities of -1 or +1; any other value is rejected,
    never truncated.
    """

    def __init__(self, xs, ys, ts, ps, geometry: tuple[int, int]):
        try:
            width, height = geometry
        except (TypeError, ValueError):
            raise UsageError(f"sensor geometry {geometry!r} is not a (width, height) pair") from None
        self.geometry = (whole(width, "sensor width"), whole(height, "sensor height"))
        if min(self.geometry) < 1:
            raise ConfigError(f"sensor geometry {self.geometry} is not positive")
        self.xs = pixel_column(xs, self.geometry[0], "event x")
        self.ys = pixel_column(ys, self.geometry[1], "event y")
        self.ts = whole_column(ts, "event t")
        self.ps = polarity_column(ps)
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ConfigError("event column lengths differ")
        # neighbours compared, not differenced: a difference of int64 times overflows
        if n and np.any(self.ts[1:] < self.ts[:-1]):
            raise ConfigError("event timestamps must be non-decreasing")

    def __len__(self) -> int:
        return len(self.ts)

    @classmethod
    def _unchecked(cls, columns, geometry: tuple[int, int]) -> EventStream:
        """A stream of (xs, ys, ts, ps) columns cut or joined from checked ones."""
        out = cls.__new__(cls)
        out.xs, out.ys, out.ts, out.ps = columns
        out.geometry = geometry
        return out

    @classmethod
    def join(cls, streams: list[EventStream]) -> EventStream:
        """Concatenate checked streams of one geometry that follow one
        another in time, without checking their events again."""
        return cls._unchecked([np.concatenate([getattr(s, k) for s in streams])
                               for k in ("xs", "ys", "ts", "ps")], streams[0].geometry)

    def split(self, times) -> list[EventStream]:
        """Cut before each of the sorted `times`: len(times) + 1 views of
        this checked stream, not checked again."""
        bounds = [0, *np.searchsorted(self.ts, times, side="left").tolist(), len(self)]
        return [self._unchecked([c[lo:hi] for c in (self.xs, self.ys, self.ts, self.ps)],
                                self.geometry) for lo, hi in zip(bounds, bounds[1:])]


def build_event_stack(stream: EventStream, t_start: int, t_end: int, bins: int) -> np.ndarray:
    """Tensorize events in [t_start, t_end] into a (2*bins, Y, X) float32 stack.

    Events outside the window are ignored. Each event lands on its integer
    pixel (x, y) in channel `half + floor(t*)`, where half is 0 for
    positive and `bins` for negative polarity and
    t* = (t - t_start)/(t_end - t_start)*(bins-1); an event exactly at
    t_end gets t* = bins-1 and lands in the last bin. The written value is
    t*, and coincident events resolve by max, which is the latest event
    in the cell because t* grows with t. The window's ends and its span
    t_end - t_start must fit int64, so that no event's offset wraps.
    """
    t_start, t_end = whole(t_start, "event window start"), whole(t_end, "event window end")
    if t_end <= t_start:
        raise DegenerateWindowError(f"event window [{t_start}, {t_end}] has non-positive duration")
    if t_end - t_start >= 2**63:
        raise ConfigError(f"event window [{t_start}, {t_end}] spans more than int64 holds")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    x_ext, y_ext = stream.geometry
    lo = np.searchsorted(stream.ts, t_start, side="left")
    hi = np.searchsorted(stream.ts, t_end, side="right")
    t_star = (stream.ts[lo:hi] - t_start).astype(np.float64) / float(t_end - t_start) * (bins - 1)
    channel = np.where(stream.ps[lo:hi] > 0, 0, bins) + np.floor(t_star).astype(np.int64)
    cell = (channel * y_ext + stream.ys[lo:hi]) * x_ext + stream.xs[lo:hi]
    out = np.zeros(2 * bins * y_ext * x_ext, dtype=np.float32)
    # float32 rounding is monotone, so the max of rounded values is the rounded max
    np.maximum.at(out, cell, t_star.astype(np.float32))
    return out.reshape(2 * bins, y_ext, x_ext)


def save_binary_events(stream: EventStream, path: str) -> None:
    """Write the canonical 16-byte-record binary format.

    The format stores times as u8 and the sensor extents as u2, so a
    negative event time or an extent above 65535 is a `ConfigError`,
    raised before the file is opened: what is written loads back.
    """
    if max(stream.geometry) > 0xFFFF:
        raise ConfigError(f"sensor geometry {stream.geometry} does not fit the event file's "
                          "16-bit extents")
    if len(stream) and stream.ts[0] < 0:  # the times are non-decreasing
        raise ConfigError(f"event time {stream.ts[0]} is negative; the event file stores "
                          "unsigned times")
    records = np.zeros(len(stream), dtype=_RECORD_DTYPE)
    records["t"] = stream.ts.astype(np.uint64)
    records["x"] = stream.xs.astype(np.uint16)
    records["y"] = stream.ys.astype(np.uint16)
    records["p"] = (stream.ps > 0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(_HEADER.pack(EVENT_MAGIC, stream.geometry[0], stream.geometry[1]))
        f.write(records.tobytes())


def load_binary_events(path: str) -> EventStream:
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ConfigError(f"truncated event file: {path}")
        magic, x_ext, y_ext = _HEADER.unpack(header)
        if magic != EVENT_MAGIC:
            raise ConfigError(f"bad magic in event file {path}: {magic!r}")
        body = f.read()
    if len(body) % _RECORD_DTYPE.itemsize:
        raise ConfigError(f"event file {path} has a partial trailing record")
    records = np.frombuffer(body, dtype=_RECORD_DTYPE)
    ps = np.where(records["p"] > 0, 1, -1).astype(np.int8)
    return EventStream(
        records["x"].astype(np.int32),
        records["y"].astype(np.int32),
        records["t"],  # u8 as stored, so a time past int64 is rejected, not wrapped
        ps,
        (x_ext, y_ext),
    )
