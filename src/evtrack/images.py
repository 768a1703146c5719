"""Binary PGM (P5) / PPM (P6) reading and writing.

Frames load as float32 arrays in [0, 1]: (1, H, W) for grayscale and
(3, H, W) for RGB.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _read_number(f, path: str) -> int:
    """The next header token, a whole number; skips whitespace and '#'
    comments between header tokens."""
    token = b""
    while True:
        ch = f.read(1)
        if not ch:
            raise ConfigError(f"{path}: unexpected end of netpbm header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token.isdigit():
                return int(token)
            if token:
                raise ConfigError(f"{path}: netpbm header field {token!r} is not a whole number")
            continue
        token += ch


def load_image(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic not in (b"P5", b"P6"):
            raise ConfigError(f"{path}: unsupported netpbm magic {magic!r}")
        width = _read_number(f, path)
        height = _read_number(f, path)
        maxval = _read_number(f, path)
        if maxval != 255:
            raise ConfigError(f"{path}: only 8-bit netpbm supported, maxval={maxval}")
        channels = 1 if magic == b"P5" else 3
        raw = f.read(width * height * channels)
    if len(raw) != width * height * channels:
        raise ConfigError(f"{path}: truncated pixel data")
    img = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    return np.ascontiguousarray(img.transpose(2, 0, 1)).astype(np.float32) / 255.0


def save_image(path: str, img: np.ndarray) -> None:
    """Write (1,H,W) as PGM or (3,H,W) as PPM; values clipped from [0, 1]."""
    if img.ndim != 3 or img.shape[0] not in (1, 3):
        raise ConfigError(f"save_image expects (1|3, H, W), got {img.shape}")
    channels, height, width = img.shape
    data = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    magic = b"P5" if channels == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (width, height))
        f.write(np.ascontiguousarray(data.transpose(1, 2, 0)).tobytes())
