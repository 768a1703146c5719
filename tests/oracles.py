"""Brute-force references for event stacks, correlation and convolution.

Each one follows its contract literally, one event or one scalar read at
a time, so the vectorized code in the package can be checked against it.
"""

import numpy as np

from evtrack.correlation import CorrelationPyramid, offsets_grid
from evtrack.events import EventStream


def event_stack_oracle(stream: EventStream, t_start: int, t_end: int, bins: int) -> np.ndarray:
    """Per-event loop with the contract of build_event_stack; returns its values."""
    x_ext, y_ext = stream.geometry
    out = np.zeros((x_ext, y_ext, 2 * bins), dtype=np.float64)
    for i in range(len(stream)):
        x, y, t, p = int(stream.xs[i]), int(stream.ys[i]), int(stream.ts[i]), int(stream.ps[i])
        if t < t_start or t > t_end:
            continue
        t_star = float(t - t_start) / float(t_end - t_start) * (bins - 1)
        ch = (0 if p > 0 else bins) + int(np.floor(t_star))
        for dx in (0, 1):
            for dy in (0, 1):
                xn, yn = x + dx, y + dy
                if not (0 <= xn < x_ext and 0 <= yn < y_ext):
                    continue
                contrib = max(0.0, 1.0 - abs(xn - x)) * max(0.0, 1.0 - abs(yn - y)) * t_star
                if contrib > out[xn, yn, ch]:
                    out[xn, yn, ch] = contrib
    return out.astype(np.float32)


def _sample_scalar(vol: np.ndarray, x: float, y: float) -> float:
    """Literal bilinear read of a scalar grid with zero padding."""
    h, w = vol.shape
    x0, y0 = int(np.floor(x)), int(np.floor(y))
    fx, fy = x - x0, y - y0
    total = 0.0
    for dy, dx, wgt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                        (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        xi, yi = x0 + dx, y0 + dy
        if 0 <= xi < w and 0 <= yi < h:
            total += wgt * float(vol[yi, xi])
    return total


def correlate_oracle(feature: np.ndarray, pyramid: CorrelationPyramid, position,
                     radius: int) -> np.ndarray:
    """Full inner-product volume per level, then a window read-off around position."""
    feature = np.asarray(feature, dtype=np.float64)
    out = []
    for level, fmap in enumerate(pyramid.levels):
        vol = np.einsum("c,chw->hw", feature, fmap.data.astype(np.float64))
        scale = float(pyramid.base_scale * 2**level)
        px = float(position[0]) / scale
        py = float(position[1]) / scale
        for dx, dy in offsets_grid(radius):
            out.append(_sample_scalar(vol, px + float(dx), py + float(dy)))
    return np.array(out, dtype=np.float64)


def conv2d_oracle(x, weight, bias, stride: int, pad: int) -> np.ndarray:
    """Zero-padded cross-correlation in float64, one output pixel and one
    tap at a time; (Cin,H,W) or (N,Cin,H,W) input like ops.conv2d."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    batched = x.ndim == 4
    if not batched:
        x = x[None]
    n, _, h, w = x.shape
    cout, _, k, _ = weight.shape
    ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for i in range(ho):
        for j in range(wo):
            out[:, :, i, j] = bias
            for u in range(k):
                for v in range(k):
                    y, xx = i * stride - pad + u, j * stride - pad + v
                    if 0 <= y < h and 0 <= xx < w:
                        out[:, :, i, j] += x[:, :, y, xx] @ weight[:, :, u, v].T
    return out if batched else out[0]
