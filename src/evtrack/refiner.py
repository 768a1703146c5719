"""Sliding-window trajectory refinement.

Tokens per (slice, query) concatenate the displacement from the window
start, the working content feature, the correlation vector and
sinusoidal encodings of the displacement, of the query's initial
position and of the slice's accumulated event duration (see
`token_len`). A transformer alternating temporal attention (over the
window axis, per track) and spatial attention (over the query axis, per
slice) emits position and feature deltas; the update repeats
`iterations` times with shared weights, re-sampling correlations at each
new position estimate.

Persistent query templates are never written here: feature deltas touch
only the per-window working copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ParamStore, Tensor, ops
from .correlation import WindowState, correlate_batch
from .encoders import LinearLayer
from .errors import ConfigError, RefinementError

if TYPE_CHECKING:
    from .pipeline import TrackerConfig


def token_len(cfg: TrackerConfig) -> int:
    """Length of one raw token.

    Order: displacement (2), content feature (C), correlation
    (levels*(2r+1)^2), displacement encoding (2*2K), initial-position
    encoding (2*2K), duration encoding (2K). The duration encoding is the
    trailing 2K slice, which the time-embed ablation zeroes.
    """
    corr = cfg.levels * (2 * cfg.radius + 1) ** 2
    return 2 + cfg.channels + corr + 4 * cfg.freqs + 4 * cfg.freqs + 2 * cfg.freqs


def _omegas(freqs: int, wavelength: float) -> np.ndarray:
    # k-th angular frequency 2*pi*2^k / wavelength; k=0 has period = wavelength
    return (2.0 * np.pi * (2.0 ** np.arange(freqs)) / wavelength).astype(np.float32)


def sincos_encode(values, freqs: int, wavelength: float) -> Tensor:
    """Per scalar: [sin(w_0 v), cos(w_0 v), ..., sin(w_{K-1} v), cos(w_{K-1} v)].

    `values` has shape (..., S); the result is (..., S*2K).
    """
    if freqs < 1:
        raise ConfigError(f"sincos_encode needs >= 1 frequency, got {freqs}")
    values = ops.as_tensor(values)
    omg = _omegas(freqs, wavelength)
    angles = values.reshape(values.shape + (1,)) * omg
    enc = ops.stack([ops.sin(angles), ops.cos(angles)], axis=-1)
    return enc.reshape(values.shape[:-1] + (values.shape[-1] * 2 * freqs,))


def make_tokens(positions, features, corr, p_init: np.ndarray, durations_us: np.ndarray,
                cfg: TrackerConfig) -> Tensor:
    """Assemble raw (W, N, token_len(cfg)) tokens for one window."""
    w_len, n, _ = positions.shape
    disp = positions - ops.getitem(positions, slice(0, 1))
    disp_enc = sincos_encode(disp, cfg.freqs, cfg.pos_wavelength)

    init_enc = sincos_encode(Tensor(p_init.astype(np.float32)), cfg.freqs, cfg.pos_wavelength)
    init_enc = ops.stack([init_enc] * w_len, axis=0)

    if cfg.time_embed:
        dur = Tensor(durations_us.astype(np.float32).reshape(w_len, 1))
        dur_enc = sincos_encode(dur, cfg.freqs, cfg.time_wavelength)
    else:
        dur_enc = Tensor(np.zeros((w_len, 2 * cfg.freqs), dtype=np.float32))
    dur_enc = ops.stack([dur_enc] * n, axis=1)

    raw = ops.concat([disp, features, corr, disp_enc, init_enc, dur_enc], axis=-1)
    if raw.shape[-1] != token_len(cfg):
        raise ConfigError(f"token length {raw.shape[-1]} does not match token_len {token_len(cfg)}")
    return raw


class _AttnBlock:
    """Pre-norm multi-head self-attention + 2-layer MLP, both residual."""

    def __init__(self, store: ParamStore, name: str, dim: int, heads: int, mlp_ratio: int, rng):
        self.dim = dim
        self.heads = heads
        self.ln1_g = store.create(f"{name}.ln1.g", np.ones(dim, dtype=np.float32))
        self.ln1_b = store.create(f"{name}.ln1.b", np.zeros(dim, dtype=np.float32))
        self.qkv = LinearLayer(store, f"{name}.qkv", dim, 3 * dim, rng)
        self.proj = LinearLayer(store, f"{name}.proj", dim, dim, rng)
        self.ln2_g = store.create(f"{name}.ln2.g", np.ones(dim, dtype=np.float32))
        self.ln2_b = store.create(f"{name}.ln2.b", np.zeros(dim, dtype=np.float32))
        self.fc1 = LinearLayer(store, f"{name}.fc1", dim, mlp_ratio * dim, rng)
        self.fc2 = LinearLayer(store, f"{name}.fc2", mlp_ratio * dim, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, t, d = x.shape
        h = self.heads
        dh = d // h
        normed = ops.layernorm(x, self.ln1_g, self.ln1_b)
        qkv = self.qkv(normed)
        q = qkv[:, :, 0:d].reshape((b, t, h, dh)).transpose((0, 2, 1, 3))
        k = qkv[:, :, d : 2 * d].reshape((b, t, h, dh)).transpose((0, 2, 1, 3))
        v = qkv[:, :, 2 * d : 3 * d].reshape((b, t, h, dh)).transpose((0, 2, 1, 3))
        scores = ops.matmul(q, k.transpose((0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
        attn = ops.softmax_lastdim(scores)
        mixed = ops.matmul(attn, v).transpose((0, 2, 1, 3)).reshape((b, t, d))
        x = x + self.proj(mixed)
        x = x + self.fc2(ops.relu(self.fc1(ops.layernorm(x, self.ln2_g, self.ln2_b))))
        return x


class WindowRefiner:
    """Iterative token transformer with position/feature update heads."""

    def __init__(self, store: ParamStore, prefix: str, cfg: TrackerConfig, rng):
        self.cfg = cfg
        self.project = LinearLayer(store, f"{prefix}.project", token_len(cfg), cfg.dim, rng)
        self.blocks = []
        for i in range(cfg.pairs):
            temporal = _AttnBlock(store, f"{prefix}.pair{i}.time", cfg.dim, cfg.heads, cfg.mlp_ratio, rng)
            spatial = _AttnBlock(store, f"{prefix}.pair{i}.space", cfg.dim, cfg.heads, cfg.mlp_ratio, rng)
            self.blocks.append((temporal, spatial))
        # zero-initialized heads: an untrained refiner is the identity
        self.head_pos = LinearLayer(store, f"{prefix}.head_pos", cfg.dim, 2, rng, zero_init=True)
        self.head_feat = LinearLayer(store, f"{prefix}.head_feat", cfg.dim, cfg.channels,
                                     rng, zero_init=True)

    def _transform(self, raw: Tensor) -> Tensor:
        x = self.project(raw)
        for temporal, spatial in self.blocks:
            xt = temporal(x.transpose((1, 0, 2)))  # (N, W, D): attend over time
            x = spatial(xt.transpose((1, 0, 2)))  # (W, N, D): attend over queries
        return x

    def refine(self, state: WindowState, pyramids, p_init: np.ndarray):
        """Run `iterations` refinement passes over one window.

        `p_init` is the (N, 2) array of query birth positions (encoded into
        every token). Returns (snapshots, final_positions, final_features);
        snapshots is one (W, N, 2) position tensor per iteration. Entries at
        or before a query's birth slice are pinned to their initial value.
        """
        if len(pyramids) != state.window:
            raise ConfigError(f"{len(pyramids)} pyramids for a {state.window}-slice window")
        levels = len(pyramids[0].levels)
        base_scale = pyramids[0].base_scale
        level_stacks = [
            ops.stack([p.levels[lv] for p in pyramids], axis=0) for lv in range(levels)
        ]
        idx = state.start_index + np.arange(state.window)[:, None]
        update_mask = (idx > state.valid_from[None, :]).astype(np.float32)[..., None]
        p_init = np.asarray(p_init, dtype=np.float32)

        pos = Tensor(state.positions.astype(np.float32))
        feats = state.features
        snapshots = []
        for m in range(self.cfg.iterations):
            corr = correlate_batch(feats, level_stacks, pos, self.cfg.radius, base_scale)
            raw = make_tokens(pos, feats, corr, p_init, state.durations_us, self.cfg)
            x = self._transform(raw)
            d_pos = self.head_pos(x)
            d_feat = self.head_feat(x)
            if not (np.all(np.isfinite(d_pos.data)) and np.all(np.isfinite(d_feat.data))):
                raise RefinementError(f"non-finite update at refinement iteration {m}")
            pos = pos + d_pos * update_mask
            feats = feats + d_feat * update_mask
            snapshots.append(pos)
        return snapshots, pos, feats
