"""Correlation pyramids, window state, and matching-cost vectors.

Matching costs around a predicted position are inner products between a
feature vector and bilinearly sampled fused features, stacked over
integer offsets in [-r, r]^2 and over pyramid levels (level-major, then
dy, then dx); samples past the border are zero.
Positions live at full image resolution; division by scale*2^level
happens only at sampling time.

A window is correlated against each slice's own pyramid: the levels of
the W slices are passed as lists and read in place, never stacked into a
(W, C, h, w) copy, so a window's pyramids are held once and each map gets
its gradient directly.

All (2r+1)^2 offsets of one position share the fractional part of
position/scale, so the taps come from one bilinear stencil: the
(2r+2)^2 cells around the position are gathered once, and each tap
weighs its 2x2 block of them by the same four weights. This is RAFT's
local lookup (Teed & Deng, 2020), applied to the inner-product volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, ops
from .errors import ConfigError


@dataclass
class CorrelationPyramid:
    """Fused feature maps at 1/2^level of feature resolution."""

    levels: list[Tensor]
    base_scale: int  # full-res pixels per level-0 cell


@dataclass
class WindowState:
    """Per-window trajectories and working features for all queries.

    `positions` are full-resolution pixels, detached data; `features`
    stay a graph tensor so template refills can carry encoder gradients.
    `valid_from` holds each query's global birth slice index.
    """

    positions: np.ndarray  # (W, N, 2)
    features: Tensor  # (W, N, C)
    durations_us: np.ndarray  # (W,) accumulated event duration per slice
    slice_times: np.ndarray  # (W,) int64
    valid_from: np.ndarray  # (N,) int
    start_index: int = 0  # global index of the first slice in the window

    @property
    def window(self) -> int:
        return self.positions.shape[0]

    def active_mask(self) -> np.ndarray:
        """(W, N) float mask: 1 where the slice is at/after the query's birth."""
        idx = self.start_index + np.arange(self.window)[:, None]
        return (idx >= self.valid_from[None, :]).astype(np.float32)


def check_pyramid_depth(levels: int, h: int, w: int) -> None:
    """Reject a pyramid of `levels` levels over an h x w map that cannot hold them."""
    if levels < 1:
        raise ConfigError(f"pyramid needs >= 1 level, got {levels}")
    if 2 ** (levels - 1) > max(h, w):
        raise ConfigError(f"pyramid depth {levels} too deep for a {h}x{w} map")


def build_pyramid(fused: Tensor, levels: int, base_scale: int) -> CorrelationPyramid:
    """Repeatedly average-pool a fused map into `levels` levels."""
    check_pyramid_depth(levels, fused.shape[-2], fused.shape[-1])
    maps = [fused]
    for _ in range(levels - 1):
        maps.append(ops.avg_pool2(maps[-1]))
    return CorrelationPyramid(maps, base_scale)


def correlate_batch(features: Tensor, levels: list[list[Tensor]], positions: Tensor,
                    radius: int, base_scale: int) -> Tensor:
    """Cost vectors for a whole window at once.

    `features` is (W, N, C); `levels[level]` lists the W slices' (C, h, w)
    maps at that level, each slice's own pyramid level, so the window's
    maps are read where they are held and never copied into a stack;
    `positions` is (W, N, 2). Returns (W, N, levels*(2r+1)^2) cost
    vectors, laid out as the module docstring describes.

    Because the cost is linear in the map, each level first computes every
    query's scalar inner-product volume (one `ops.matmul`: a GEMM per
    slice into one (W, N, h*w) volume) and then reads the (2r+1)^2 taps
    from it, which equals sampling feature vectors and dotting but moves
    far less data. The taps are one `ops.bilinear_patch` call over the
    W*N volumes: one (2r+2)^2 cell gather and one 2x2 stencil per (slice,
    query).
    """
    w_len, n, _ = features.shape
    pieces = []
    for level, maps in enumerate(levels):
        h, w = maps[0].shape[-2], maps[0].shape[-1]
        scale = float(base_scale * (2**level))
        vol = ops.matmul(features, maps)  # (W, N, h*w)
        pts = (positions * (1.0 / scale)).reshape((w_len * n, 2))
        sampled = ops.bilinear_patch(vol.reshape((w_len * n, h, w)), pts, radius)
        pieces.append(sampled.reshape((w_len, n, -1)))
    return ops.concat(pieces, axis=-1)
