"""Event streams, the time-binned stack representation, and the binary event format.

An event stream is tensorized by splitting a time window into `bins` bins
per polarity and writing, per pixel and bin, the normalized timestamp of
the most recent event there (max over contributions). Normalization maps
the window onto [0, bins-1], so values never exceed bins-1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateWindowError

EVENT_MAGIC = b"FETAPEVT"
_HEADER = struct.Struct("<8sHH4x")
_RECORD_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("pad", "V3")])


class EventStream:
    """Time-sorted events plus the (X, Y) sensor extents.

    Stored as column arrays (xs, ys, ts, ps) for vectorized slicing.
    """

    def __init__(self, xs, ys, ts, ps, geometry: tuple[int, int]):
        self.xs = np.asarray(xs, dtype=np.int32)
        self.ys = np.asarray(ys, dtype=np.int32)
        self.ts = np.asarray(ts, dtype=np.int64)
        self.ps = np.asarray(ps, dtype=np.int8)
        self.geometry = (int(geometry[0]), int(geometry[1]))
        n = len(self.ts)
        if not (len(self.xs) == len(self.ys) == len(self.ps) == n):
            raise ConfigError("event column lengths differ")
        if n and np.any(np.diff(self.ts) < 0):
            raise ConfigError("event timestamps must be non-decreasing")
        if n and (self.xs.min() < 0 or self.xs.max() >= self.geometry[0]):
            raise ConfigError(f"event x outside [0, {self.geometry[0]})")
        if n and (self.ys.min() < 0 or self.ys.max() >= self.geometry[1]):
            raise ConfigError(f"event y outside [0, {self.geometry[1]})")
        if n and not np.all(np.abs(self.ps) == 1):
            raise ConfigError("polarity must be -1 or +1")

    def __len__(self) -> int:
        return len(self.ts)

    def between(self, t_start: int, t_end: int) -> "EventStream":
        """Events with t_start <= t <= t_end (bounds inclusive)."""
        lo = np.searchsorted(self.ts, t_start, side="left")
        hi = np.searchsorted(self.ts, t_end, side="right")
        return EventStream(self.xs[lo:hi], self.ys[lo:hi], self.ts[lo:hi], self.ps[lo:hi], self.geometry)


@dataclass
class EventStack:
    """(X, Y, 2*bins) tensor of per-bin normalized timestamps.

    Channels [0, bins) hold positive polarity, [bins, 2*bins) negative.
    """

    values: np.ndarray
    t_start: int
    t_end: int
    bins: int

    def channel_first(self) -> np.ndarray:
        """View as (2*bins, Y, X) for the convolutional encoder."""
        return np.ascontiguousarray(self.values.transpose(2, 1, 0))


def build_event_stack(stream: EventStream, t_start: int, t_end: int, bins: int) -> EventStack:
    """Tensorize events in [t_start, t_end] (events outside are ignored).

    Each event lands in bin floor(t*) of its polarity half, where
    t* = (t - t_start)/(t_end - t_start)*(bins-1); an event exactly at
    t_end gets t* = bins-1 and lands in the last bin. The written value is
    k(x-xi)*k(y-yi)*t* with the triangular kernel k(a) = max(0, 1-|a|),
    and coincident contributions resolve by max.
    """
    if t_end <= t_start:
        raise DegenerateWindowError(f"event window [{t_start}, {t_end}] has non-positive duration")
    if bins < 1:
        raise ConfigError(f"bins must be >= 1, got {bins}")
    x_ext, y_ext = stream.geometry
    out = np.zeros((x_ext, y_ext, 2 * bins), dtype=np.float64)
    window = stream.between(t_start, t_end)
    if len(window):
        t_star = (window.ts - t_start).astype(np.float64) / float(t_end - t_start) * (bins - 1)
        bin_idx = np.floor(t_star).astype(np.int64)
        ch_base = np.where(window.ps > 0, 0, bins)
        xf = window.xs.astype(np.float64)
        yf = window.ys.astype(np.float64)
        x0 = np.floor(xf).astype(np.int64)
        y0 = np.floor(yf).astype(np.int64)
        for dx in (0, 1):
            for dy in (0, 1):
                xn = x0 + dx
                yn = y0 + dy
                kx = np.maximum(0.0, 1.0 - np.abs(xn - xf))
                ky = np.maximum(0.0, 1.0 - np.abs(yn - yf))
                contrib = kx * ky * t_star
                ok = (xn >= 0) & (xn < x_ext) & (yn >= 0) & (yn < y_ext)
                np.maximum.at(
                    out,
                    (xn[ok], yn[ok], (ch_base + bin_idx)[ok]),
                    contrib[ok],
                )
    return EventStack(out.astype(np.float32), int(t_start), int(t_end), int(bins))


def save_binary_events(stream: EventStream, path: str) -> None:
    """Write the canonical 16-byte-record binary format."""
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
        records["t"].astype(np.int64),
        ps,
        (x_ext, y_ext),
    )
