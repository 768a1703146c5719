"""Sliding-window trajectory refinement.

Tokens per (slice, query) concatenate the displacement from the window
start, the working content feature, the correlation vector and
sinusoidal encodings of the displacement, of the query's initial
position and of the slice's accumulated event duration (see
`token_len`). A transformer alternating temporal attention and spatial
attention emits position and feature deltas; the update repeats
`iterations` times with shared weights, re-sampling correlations at each
new position estimate. The tokens stay (W, N, D) throughout: temporal
blocks attend along axis 0 (the window, per track) and spatial blocks
along axis 1 (the queries, per slice), and no tokens are transposed.

At inference each block of a large window runs in row tiles on every
CPU: it splits the axis it does not attend along into tiles of at least
`_PART_ROWS` token rows, deals them to the CPUs, and writes each tile's
output into its rows of one output array, so no block temporary is
larger than a tile. It is bit-identical to one call on the whole window
(see `_AttnBlock`). Windows of fewer than two tiles and every pass that
records a graph run the block in one call on the calling thread.

Persistent query templates are never written here: feature deltas touch
only the per-window working copies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .autodiff import ParamStore, Tensor, ops
from .autodiff.tensor import grad_enabled
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


# Token rows a tile of an attention block holds at least: a block cuts
# its window into tiles of whole sequences holding `_PART_ROWS` rows or
# more, and a window of fewer than two tiles runs in one call.
# Floor probe: one block of the default refiner (dim 256, 4 heads, MLP
# ratio 4) under `no_grad`, inline against two parts, OpenBLAS on one
# thread, on a 2-vCPU host whose second vCPU is shared, two passes of
# median-of-5 timings. Two parts ran it at 0.58-1.04x the inline speed
# with 36-72 rows a part, 0.86-1.23x with 128-144, 1.00-1.59x with
# 256-576 and 0.99-2.04x with 1152-2048. So the stream's 128-token
# windows (16 slices x 8 queries) and the 72-token windows of 8 queries
# stay in one call.
# Tile-size probe: a warm 64x64 offline run of 256 queries (8-slice
# windows, 2 CPUs, 5 runs a setting) took 40-49k minor page faults and
# 110-160 ms of system time a run with window-sized block temporaries,
# 0.1-2.4k and 12-32 ms with 256-row tiles, 7.1-8.8k and 22-45 ms with
# 512-row tiles; 128-row tiles took as few faults as 256, at the same
# speed. So the floor is also the tile size.
_PART_ROWS = 256


class _AttnBlock:
    """Pre-norm multi-head self-attention + 2-layer MLP, both residual.

    A block attends along one axis of the (W, N, D) tokens, and every op
    in it (layernorm, the qkv, proj, fc1 and fc2 linears, attention,
    relu and the residual adds) treats the sequences along the other
    axis independently. So at inference a block runs over tiles: runs of
    whole sequences along that other axis (queries for a temporal block,
    axis 0; slices for a spatial one, axis 1). A tile holds at least
    `_PART_ROWS` token rows, and there are `extent // per_part` of them,
    `per_part` being the sequences that hold `_PART_ROWS` rows, so a tile
    holds fewer than 2 x `per_part` sequences. The tiles are dealt
    round-robin to `min(ops._WORKERS, tiles)` shares (`ops._run_shares`;
    one share runs inline). Each tile reads its input as a view of the
    tokens and copies its block output into its own rows of one (W, N,
    D) output array, so the block's temporaries (the qkv, fc1 and relu
    outputs among them) are one tile's per share, not the window's, and
    nothing is split off or concatenated. The tiles do not depend on the
    worker count. A window of fewer than two tiles, and every pass that
    records a graph, runs the block in one call, so training and its
    gradients take the untiled code.

    The tiled result is the one-call result bit for bit. Layernorm, relu
    and the adds work row by row; attention runs one score and one value
    GEMM per (sequence, head) in numpy's batch loop, the same GEMMs at
    any tiling; and a `linear` of m >= 5 rows gives the rows of the full
    GEMM exactly (OpenBLAS 0.3.31; only m = 1 to 4 take another kernel
    path), which every tile of `_PART_ROWS` rows satisfies.
    """

    def __init__(self, store: ParamStore, name: str, dim: int, heads: int, mlp_ratio: int, rng):
        self.heads = heads
        self.ln1_g = store.create(f"{name}.ln1.g", np.ones(dim, dtype=np.float32))
        self.ln1_b = store.create(f"{name}.ln1.b", np.zeros(dim, dtype=np.float32))
        self.qkv = LinearLayer(store, f"{name}.qkv", dim, 3 * dim, rng)
        self.proj = LinearLayer(store, f"{name}.proj", dim, dim, rng)
        self.ln2_g = store.create(f"{name}.ln2.g", np.ones(dim, dtype=np.float32))
        self.ln2_b = store.create(f"{name}.ln2.b", np.zeros(dim, dtype=np.float32))
        self.fc1 = LinearLayer(store, f"{name}.fc1", dim, mlp_ratio * dim, rng)
        self.fc2 = LinearLayer(store, f"{name}.fc2", mlp_ratio * dim, dim, rng)

    def __call__(self, x: Tensor, axis: int) -> Tensor:
        """Attend along token axis `axis` of the (W, N, D) tokens, in tiles
        over the other axis when no graph is recorded (see the class)."""
        other = 1 - axis
        extent = x.shape[other]
        per_part = -(-_PART_ROWS // x.shape[axis])  # sequences that hold _PART_ROWS rows
        tiles = extent // per_part
        if grad_enabled() or tiles < 2:
            return self._block(x, axis)
        bounds = [extent * i // tiles for i in range(tiles + 1)]
        shares = min(ops._WORKERS, tiles)
        out = np.empty(x.shape, dtype=x.dtype)

        def share(s):
            """Tiles s, s + shares, ... into their rows of `out`."""
            for i in range(s, tiles, shares):
                rows = (slice(None),) * other + (slice(bounds[i], bounds[i + 1]),)
                out[rows] = self._block(Tensor(x.data[rows], dtype=x.dtype), axis).data

        ops._run_shares(shares, share)
        return Tensor(out, dtype=x.dtype)

    def _block(self, x: Tensor, axis: int) -> Tensor:
        normed = ops.layernorm(x, self.ln1_g, self.ln1_b)
        x = x + self.proj(ops.attention(self.qkv(normed), self.heads, axis))
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
            x = spatial(temporal(x, axis=0), axis=1)
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
        level_maps = [[p.levels[lv] for p in pyramids] for lv in range(levels)]
        idx = state.start_index + np.arange(state.window)[:, None]
        update_mask = (idx > state.valid_from[None, :]).astype(np.float32)[..., None]
        p_init = np.asarray(p_init, dtype=np.float32)

        pos = Tensor(state.positions.astype(np.float32))
        feats = state.features
        snapshots = []
        for m in range(self.cfg.iterations):
            corr = correlate_batch(feats, level_maps, pos, self.cfg.radius, base_scale)
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
