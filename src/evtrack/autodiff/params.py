"""Named parameter store, decoupled-weight-decay Adam, and weight files.

The on-disk format is a little-endian float32 blob plus a JSON manifest
listing {name, shape, dtype, byte_offset} in blob order. The manifest is
written next to the blob at `<path>.json`.
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..errors import ConfigError, TrainingError
from .tensor import Tensor


class ParamStore:
    """Uniquely named parameters plus per-parameter optimizer state."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._steps: dict[str, int] = {}

    def create(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)
        self._params[name] = t
        self._moments[name] = (np.zeros_like(t.data), np.zeros_like(t.data))
        self._steps[name] = 0
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def step_count(self, name: str) -> int:
        return self._steps[name]

    def load_state(self, name: str, m: np.ndarray, v: np.ndarray, step: int) -> None:
        ref = self._params[name].data
        if m.shape != ref.shape or v.shape != ref.shape:
            raise ConfigError(f"optimizer state shape mismatch for {name!r}")
        self._moments[name] = (m.astype(np.float32), v.astype(np.float32))
        self._steps[name] = int(step)

    def moments(self, name: str):
        return self._moments[name]


def adamw_step(
    store: ParamStore,
    *,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """One decoupled-weight-decay Adam update, in place.

    Gradients come from each parameter's `.grad` (missing grads are
    treated as zero).
    """
    b1, b2 = betas
    for name, p in store.items():
        g = p.grad
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g, dtype=np.float32)
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name!r} shape {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        m, v = store._moments[name]
        t = store._steps[name] + 1
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p.data)
        store._moments[name] = (m, v)
        store._steps[name] = t


def manifest_path(blob_path: str) -> str:
    return blob_path + ".json"


def save_arrays(arrays: dict[str, np.ndarray], path: str, extra: dict | None = None) -> None:
    """Write named arrays as blob + manifest; `extra` lands in manifest["meta"]."""
    entries = []
    offset = 0
    chunks = []
    for name, arr in arrays.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        entries.append(
            {"name": name, "shape": list(data.shape), "dtype": "f32", "byte_offset": offset}
        )
        chunks.append(data.tobytes())
        offset += data.nbytes
    manifest = {"entries": entries}
    if extra:
        manifest["meta"] = extra
    with open(path, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
    with open(manifest_path(path), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def save_weights(store: ParamStore, path: str, extra: dict | None = None) -> None:
    """Write every store tensor as blob + manifest."""
    save_arrays({name: p.data for name, p in store.items()}, path, extra=extra)


def read_weight_file(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load a blob + manifest pair into {name: float32 array} and its meta dict."""
    mpath = manifest_path(path)
    if not os.path.exists(path) or not os.path.exists(mpath):
        raise ConfigError(f"weight file or manifest missing: {path}")
    with open(mpath) as f:
        manifest = json.load(f)
    with open(path, "rb") as f:
        blob = f.read()
    arrays = {}
    for entry in manifest["entries"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["byte_offset"]
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start).reshape(shape)
        arrays[entry["name"]] = arr.astype(np.float32)
    return arrays, manifest.get("meta", {})


def load_weights(store: ParamStore, path: str) -> dict:
    """Copy weights from disk into an existing store; returns the file's meta dict."""
    arrays, meta = read_weight_file(path)
    assign_weights(store, arrays, path)
    return meta


def assign_weights(store: ParamStore, arrays: dict[str, np.ndarray], path: str) -> None:
    """Copy every store parameter from `arrays` (read from `path`); names and shapes must match."""
    for name, p in store.items():
        if name not in arrays:
            raise ConfigError(f"weight file {path} missing parameter {name!r}")
        if arrays[name].shape != p.data.shape:
            raise ConfigError(
                f"shape mismatch for {name!r}: file {arrays[name].shape}, model {p.data.shape}"
            )
        p.data = arrays[name].copy()
