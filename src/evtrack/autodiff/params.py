"""Named parameter store, decoupled-weight-decay Adam, and weight files.

The on-disk format is a little-endian float32 blob plus a JSON manifest
listing {name, shape, dtype, byte_offset} in blob order. The manifest is
written next to the blob at `<path>.json`.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from ..errors import ConfigError, TrainingError
from .tensor import Tensor


class ParamStore:
    """Uniquely named parameters plus Adam moments and one shared step count.

    Every `adamw_step` updates every parameter, so one `step` serves all.
    A parameter has no moments until the optimizer needs them: the first
    `adamw_step` makes them as zeros, or a restored checkpoint sets them
    (both through `load_state`). A model that only tracks holds its
    weights and nothing else.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.step = 0

    def create(self, name: str, data) -> Tensor:
        if name in self._params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float32), requires_grad=True)
        self._params[name] = t
        return t

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def load_state(self, name: str, m: np.ndarray, v: np.ndarray) -> None:
        """Set the Adam moments of `name`. The store keeps float32 arrays
        as given, without a copy, and the optimizer updates them in place."""
        ref = self._params[name].data
        if m.shape != ref.shape or v.shape != ref.shape:
            raise ConfigError(f"optimizer state shape mismatch for {name!r}")
        self._moments[name] = (np.asarray(m, dtype=np.float32), np.asarray(v, dtype=np.float32))

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The (m, v) moments of `name`, or None before its first step or restore."""
        return self._moments.get(name)


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
    treated as zero). Every gradient is checked before any parameter
    moves, so a step that raises leaves the store as it was, without
    moments if it was the first. A parameter's first update starts from
    float32 zero moments, made here and handed to `load_state`.

    The moments and the parameter are updated in place, through two
    scratch buffers shared by every parameter; each value goes through
    the same float32 operations, in the same order, as
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g², p -= lr*(m̂/(√v̂ + eps) + wd*p).
    """
    grads = {}
    for name, p in store.items():
        g = np.zeros_like(p.data) if p.grad is None else np.asarray(p.grad, dtype=np.float32)
        if g.shape != p.data.shape:
            raise ConfigError(f"gradient shape {g.shape} != parameter {name!r} shape {p.data.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        grads[name] = g
    b1, b2 = betas
    t = store.step + 1
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    largest = max((p.data.size for _, p in store.items()), default=0)
    scratch = np.empty((2, largest), dtype=np.float32)
    for name, p in store.items():
        g = grads[name]
        if store.moments(name) is None:
            store.load_state(name, *(np.zeros(p.data.shape, np.float32) for _ in range(2)))
        m, v = store.moments(name)
        a, b = (buf[: p.data.size].reshape(p.data.shape) for buf in scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=a)
        v *= b2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - b2, out=a)
        np.divide(m, c1, out=a)  # m_hat
        np.sqrt(np.divide(v, c2, out=b), out=b)
        b += eps
        a /= b
        a += np.multiply(p.data, weight_decay, out=b)
        p.data -= lr * a  # a float64 lr (the cosine schedule's) is applied in float64
    store.step = t


def manifest_path(blob_path: str) -> str:
    return blob_path + ".json"


def save_arrays(arrays, path: str, extra: dict | None = None) -> None:
    """Write named arrays as blob + manifest; `extra` lands in manifest["meta"].

    `arrays` is a dict or an iterable of (name, array) pairs. Each array
    is written as it is converted, so a generator's arrays can be made,
    written and dropped one at a time; a float32 array is written from
    its own buffer without a copy.
    """
    entries = []
    offset = 0
    with open(path, "wb") as f:
        for name, arr in arrays.items() if isinstance(arrays, dict) else arrays:
            data = np.ascontiguousarray(arr, dtype="<f4")
            entries.append(
                {"name": name, "shape": list(data.shape), "dtype": "f32", "byte_offset": offset}
            )
            f.write(data)
            offset += data.nbytes
    manifest = {"entries": entries}
    if extra:
        manifest["meta"] = extra
    with open(manifest_path(path), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def save_weights(store: ParamStore, path: str, extra: dict | None = None) -> None:
    """Write every store tensor as blob + manifest."""
    save_arrays({name: p.data for name, p in store.items()}, path, extra=extra)


def _count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _read_manifest(mpath: str) -> tuple[list, dict]:
    """The entries and meta dict of a weight manifest, each entry checked
    to be {name: str, shape: [counts], dtype: "f32", byte_offset: count}
    under a name of its own."""
    try:
        with open(mpath) as f:
            manifest = json.load(f)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"weight manifest {mpath} is not JSON: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ConfigError(f"weight manifest {mpath} holds no list of entries")
    meta = manifest.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"weight manifest {mpath}: meta is not an object")
    names = set()
    for entry in manifest["entries"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and entry["name"] not in names and entry.get("dtype", "f32") == "f32"
                and isinstance(entry.get("shape"), list)
                and all(map(_count, [*entry["shape"], entry.get("byte_offset")]))):
            raise ConfigError(f"weight manifest {mpath}: entry {entry!r} is not a new name, "
                              "a shape of counts, dtype f32 and a byte_offset count")
        names.add(entry["name"])
    return manifest["entries"], meta


def read_weight_file(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Load a blob + manifest pair into {name: float32 array} and its meta dict.

    Each array is read from the file straight into its own buffer, so the
    arrays take the blob's size and no more. A manifest that does not
    hold what `save_arrays` writes, or an entry past the blob's end,
    raises a `ConfigError` that names the file.
    """
    mpath = manifest_path(path)
    if not os.path.exists(path) or not os.path.exists(mpath):
        raise ConfigError(f"weight file or manifest missing: {path}")
    entries, meta = _read_manifest(mpath)
    size = os.path.getsize(path)
    arrays = {}
    with open(path, "rb") as f:
        for entry in entries:
            shape, offset = tuple(entry["shape"]), entry["byte_offset"]
            short = f"weight file {path} is shorter than its manifest (entry {entry['name']!r})"
            if offset + 4 * math.prod(shape) > size:  # checked before the array is allocated
                raise ConfigError(short)
            arr = np.empty(shape, dtype="<f4")
            f.seek(offset)
            if f.readinto(arr) != arr.nbytes:
                raise ConfigError(short)
            arrays[entry["name"]] = arr.astype(np.float32, copy=False)
    return arrays, meta


def load_weights(store: ParamStore, path: str) -> dict:
    """Read weights from disk into an existing store; returns the file's meta dict."""
    arrays, meta = read_weight_file(path)
    assign_weights(store, arrays, path)
    return meta


def check_weights(store: ParamStore, arrays: dict[str, np.ndarray], path: str,
                  key: str = "{}") -> None:
    """Raise unless `arrays` (read from `path`) holds, for every store
    parameter, an array of its shape under `key.format(name)`."""
    for name, p in store.items():
        entry = key.format(name)
        if entry not in arrays:
            raise ConfigError(f"weight file {path} missing parameter {entry!r}")
        if arrays[entry].shape != p.data.shape:
            raise ConfigError(
                f"shape mismatch for {entry!r}: file {arrays[entry].shape}, model {p.data.shape}"
            )


def assign_weights(store: ParamStore, arrays: dict[str, np.ndarray], path: str) -> None:
    """Set every store parameter to its array from `arrays` (read from
    `path`), which the store then owns. Every name and shape is checked
    before the first parameter changes."""
    check_weights(store, arrays, path)
    for name, p in store.items():
        p.data = arrays[name]
