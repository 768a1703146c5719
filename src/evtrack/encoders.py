"""Convolutional feature encoders and motion-gated frame/event fusion.

Two pyramid encoders with identical architecture but independent weights
map frames and event stacks to (C, H/S, W/S) feature grids. Fusion blends
the two feature maps with a scalar gate driven by the mean flow magnitude
of the previous slice, plus a 1x1-projected image skip path so frame
texture survives any gate value. The image branch depends on the frame
only, so fusion returns it with the fused map and takes it back on the
next slice that reads the same frame.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ParamStore, Tensor, ops
from .errors import ConfigError

if TYPE_CHECKING:
    from .pipeline import TrackerConfig


_DRAW_BLOCK = 1 << 16  # float64 draws held at once while a weight is initialised


def _normal_weight(rng, shape: tuple[int, ...], std: float) -> np.ndarray:
    """float32 draws of N(0, std²), the numbers of one `standard_normal(shape)`
    call, made in blocks so that only one block of float64 draws is held."""
    w = np.empty(shape, dtype=np.float32)
    flat = w.reshape(-1)
    for lo in range(0, flat.size, _DRAW_BLOCK):
        part = flat[lo:lo + _DRAW_BLOCK]
        part[...] = rng.standard_normal(part.size) * std
    return w


class Conv2dLayer:
    def __init__(self, store: ParamStore, name: str, cin: int, cout: int, k: int, rng,
                 stride: int = 1):
        w = _normal_weight(rng, (cout, cin, k, k), np.sqrt(2.0 / (cin * k * k)))
        self.weight = store.create(f"{name}.w", w)
        self.bias = store.create(f"{name}.b", np.zeros(cout, dtype=np.float32))
        self.stride = stride
        self.pad = k // 2

    def __call__(self, x: Tensor) -> Tensor:
        return ops.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)


class LinearLayer:
    def __init__(self, store: ParamStore, name: str, din: int, dout: int, rng,
                 zero_init: bool = False):
        if zero_init:
            w = np.zeros((dout, din), dtype=np.float32)
        else:
            w = _normal_weight(rng, (dout, din), np.sqrt(1.0 / din))
        self.weight = store.create(f"{name}.w", w)
        self.bias = store.create(f"{name}.b", np.zeros(dout, dtype=np.float32))

    def __call__(self, x) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class _ResStage:
    """3x3 stride-2 conv, 3x3 conv, 1x1 stride-2 shortcut, residual ReLU."""

    def __init__(self, store, name, cin, cout, rng):
        self.conv1 = Conv2dLayer(store, f"{name}.conv1", cin, cout, 3, rng, stride=2)
        self.conv2 = Conv2dLayer(store, f"{name}.conv2", cout, cout, 3, rng)
        self.short = Conv2dLayer(store, f"{name}.short", cin, cout, 1, rng, stride=2)

    def __call__(self, x):
        main = self.conv2(ops.relu(self.conv1(x)))
        return ops.relu(main + self.short(x))


class FpnEncoder:
    """Stem + two residual stages + lateral/top-down pyramid head.

    The stem halves resolution, the stages reach 1/4 and 1/8; the output
    is taken at 1/downsample with `channels` channels after a 3x3 smooth.
    Inputs have `in_channels` channels and are multiplied by `input_scale`.
    """

    def __init__(self, store: ParamStore, prefix: str, cfg: TrackerConfig, in_channels: int,
                 rng, input_scale: float = 1.0):
        self.downsample = cfg.downsample
        self.in_channels = in_channels
        self.input_scale = input_scale
        c = cfg.channels
        w0, w1, w2 = max(8, c // 4), max(16, c // 2), c  # stem, stage1, stage2
        self.stem = Conv2dLayer(store, f"{prefix}.stem", in_channels, w0, 7, rng, stride=2)
        self.stage1 = _ResStage(store, f"{prefix}.stage1", w0, w1, rng)
        self.stage2 = _ResStage(store, f"{prefix}.stage2", w1, w2, rng)
        self.lateral1 = Conv2dLayer(store, f"{prefix}.lat1", w1, c, 1, rng)
        self.lateral2 = Conv2dLayer(store, f"{prefix}.lat2", w2, c, 1, rng)
        self.smooth = Conv2dLayer(store, f"{prefix}.smooth", c, c, 3, rng)

    def __call__(self, x: Tensor) -> Tensor:
        """Encode a (Cin,H,W) input to (C, H/S, W/S) features, S = downsample."""
        cin = x.shape[0]
        if cin != self.in_channels:
            raise ConfigError(f"encoder expects {self.in_channels} input channels, got {cin}")
        if min(x.shape[-1], x.shape[-2]) < self.downsample:
            raise ConfigError(
                f"input extents {x.shape[-2]}x{x.shape[-1]} too small for 1/{self.downsample} features"
            )
        if self.input_scale != 1.0:
            x = x * self.input_scale
        t = ops.relu(self.stem(x))
        s1 = self.stage1(t)
        s2 = self.stage2(s1)
        p8 = self.lateral2(s2)
        if self.downsample == 8:
            return self.smooth(p8)
        p4 = self.lateral1(s1) + ops.upsample2_nearest(p8, (s1.shape[-2], s1.shape[-1]))
        return self.smooth(p4)


class MotionGatedFusion:
    """Blend image and event features with a flow-driven scalar gate.

    gate = sigmoid(linear(mean_flow_prev)) weights the image branch; the
    event branch gets (1 - gate). The gate layer is zero-initialized so
    untrained models fuse at exactly 0.5. The image branch depends on the
    frame only, so a caller computes it once per frame (see __call__).
    """

    def __init__(self, store: ParamStore, prefix: str, channels: int, rng):
        self.channels = channels
        self.conv_event = Conv2dLayer(store, f"{prefix}.conv_event", channels, channels, 3, rng)
        self.conv_image = Conv2dLayer(store, f"{prefix}.conv_image", channels, channels, 3, rng)
        self.conv_mix = Conv2dLayer(store, f"{prefix}.conv_mix", channels, channels, 3, rng)
        self.image_skip = Conv2dLayer(store, f"{prefix}.image_skip", channels, channels, 1, rng)
        self.gate = LinearLayer(store, f"{prefix}.gate", 1, 1, rng, zero_init=True)

    def gate_value(self, dp_prev: float) -> Tensor:
        """Image-branch weight in (0, 1) for a given previous mean flow."""
        return ops.sigmoid(self.gate(Tensor(np.array([dp_prev], dtype=np.float32))))

    def __call__(self, f_image, f_event, dp_prev: float, branch=None,
                 use_frames: bool = True) -> tuple[Tensor, tuple[Tensor, Tensor] | None]:
        """Fuse two (C,h,w) feature maps of identical shape into one.

        Returns (fused, branch). `branch` is the image branch (f_i, skip)
        of f_image: None computes it, a branch an earlier call returned for
        the same f_image is reused. With use_frames=False the fused map
        depends on events only and the branch is None.
        """
        f_e = ops.relu(self.conv_event(f_event))
        if not use_frames:
            return ops.relu(self.conv_mix(f_e)), None
        if f_image.shape != f_event.shape:
            raise ConfigError(f"fusion shape mismatch: image {f_image.shape}, event {f_event.shape}")
        if branch is None:
            f_i = ops.relu(self.conv_image(f_image))
            branch = (f_i, self.image_skip(f_i))
        f_i, skip = branch
        beta = self.gate_value(dp_prev).reshape((1, 1, 1))
        mixed = beta * f_i + (1.0 - beta) * f_e
        return ops.relu(self.conv_mix(mixed) + skip), branch


def mean_flow(last: np.ndarray, prev: np.ndarray, active: np.ndarray) -> float:
    """Mean Euclidean displacement of the active queries between their two
    latest refined positions; 0 when no query is active."""
    last = np.asarray(last, dtype=np.float64)[active]
    prev = np.asarray(prev, dtype=np.float64)[active]
    if last.size == 0:
        return 0.0
    return float(np.linalg.norm(last - prev, axis=-1).mean())
