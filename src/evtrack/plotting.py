"""Track overlays rendered to PNG without an imaging stack.

The PNG writer emits 8-bit RGB with filter 0 rows and one zlib IDAT
chunk, which is all the overlay plots need.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import ConfigError

PRED_COLOR = (230, 40, 40)  # predictions: red
GT_COLOR = (40, 200, 60)  # ground truth: green


def write_png(path: str, rgb: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as a PNG file."""
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ConfigError(f"write_png expects (H, W, 3) uint8, got {rgb.shape} {rgb.dtype}")
    height, width = rgb.shape[:2]

    def chunk(tag: bytes, payload: bytes) -> bytes:
        body = tag + payload
        return struct.pack(">I", len(payload)) + body + struct.pack(">I", zlib.crc32(body))

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    raw = b"".join(b"\x00" + rgb[row].tobytes() for row in range(height))
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(chunk(b"IHDR", ihdr))
        f.write(chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(chunk(b"IEND", b""))


def to_rgb(image: np.ndarray) -> np.ndarray:
    """(1|3, H, W) float in [0,1] -> (H, W, 3) uint8."""
    arr = np.clip(np.round(image * 255.0), 0, 255).astype(np.uint8)
    if arr.shape[0] == 1:
        arr = np.repeat(arr, 3, axis=0)
    return np.ascontiguousarray(arr.transpose(1, 2, 0))


def draw_point(rgb: np.ndarray, x: float, y: float, color) -> None:
    h, w = rgb.shape[:2]
    xi, yi = int(round(x)), int(round(y))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if abs(dx) + abs(dy) <= 1 and 0 <= xi + dx < w and 0 <= yi + dy < h:
                rgb[yi + dy, xi + dx] = color


def draw_polyline(rgb: np.ndarray, points, color) -> None:
    """Rasterize straight segments by dense sampling; out-of-frame parts clip."""
    h, w = rgb.shape[:2]
    pts = list(points)
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        steps = max(1, int(2 * np.hypot(x1 - x0, y1 - y0)))
        for s in range(steps + 1):
            f = s / steps
            xi = int(round(x0 + f * (x1 - x0)))
            yi = int(round(y0 + f * (y1 - y0)))
            if 0 <= xi < w and 0 <= yi < h:
                rgb[yi, xi] = color


def overlay_tracks(image: np.ndarray, pred: dict[int, list], gt: dict[int, list] | None,
                   t_now: int) -> np.ndarray:
    """Frame plus per-track polylines up to t_now (pred red, gt green)."""
    rgb = to_rgb(image)
    if gt:
        for samples in gt.values():
            trail = [(x, y) for t, x, y in samples if t <= t_now]
            if trail:
                draw_polyline(rgb, trail, GT_COLOR)
                draw_point(rgb, *trail[-1], GT_COLOR)
    for samples in pred.values():
        trail = [(x, y) for t, x, y in samples if t <= t_now]
        if trail:
            draw_polyline(rgb, trail, PRED_COLOR)
            draw_point(rgb, *trail[-1], PRED_COLOR)
    return rgb


def plot_sequence(frames, pred: dict[int, list], gt: dict[int, list] | None,
                  out_dir: str) -> list[str]:
    """One overlay PNG per frame; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for t_frame, image in frames:
        rgb = overlay_tracks(image, pred, gt, t_frame)
        path = os.path.join(out_dir, f"overlay_{t_frame:010d}.png")
        write_png(path, rgb)
        paths.append(path)
    return paths
