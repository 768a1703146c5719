"""Training objective and toy training loop.

The per-window loss is an L1 distance between each refinement iteration's
trajectory snapshot and ground truth, weighted exponentially so later
iterations count more (gamma^(M-m) for snapshot m of M); window losses
accumulate over a sequence, and each is back-propagated as soon as its
window is refined, so a step holds about one window's graph.
Optimization is decoupled-weight-decay Adam with linear warm-up followed
by cosine decay.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, adamw_step, backward, ops
from .autodiff.params import (
    assign_weights,
    check_weights,
    read_weight_file,
    save_arrays,
    save_weights,
)
from .checks import config_fields, whole
from .errors import ConfigError, TrainingError, UsageError
from .pipeline import TrackerConfig, TrackerModel, run_offline


def iteration_weights(m: int, gamma: float) -> np.ndarray:
    """[gamma^(m-1), ..., gamma, 1.0] for m snapshots."""
    return gamma ** np.arange(m - 1, -1, -1, dtype=np.float64)


def window_loss(snapshots, gt: np.ndarray, mask: np.ndarray, gamma: float) -> Tensor:
    """Weighted mean L1 trajectory error over one window.

    `snapshots` is the list of (W, N, 2) position tensors from refinement,
    `gt` the matching ground truth, and `mask` a (W, N) validity weight
    (inactive or truncated entries contribute nothing).
    """
    if not snapshots:
        raise UsageError("window_loss needs at least one snapshot")
    gt = np.asarray(gt, dtype=np.float32)
    mask = np.asarray(mask, dtype=np.float32)
    if gt.shape != tuple(snapshots[0].shape):
        raise UsageError(f"gt shape {gt.shape} != snapshot shape {snapshots[0].shape}")
    if mask.shape != gt.shape[:2]:
        raise UsageError(f"mask shape {mask.shape} != {gt.shape[:2]}")
    denom = float(max(mask.sum(), 1.0))
    weights = iteration_weights(len(snapshots), gamma)
    total = None
    for w, snap in zip(weights, snapshots):
        term = ops.sum_(ops.abs_(snap - gt) * mask[..., None]) * (float(w) / denom)
        total = term if total is None else total + term
    return total


def lr_schedule(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warm-up to base_lr, then cosine decay to zero."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    span = max(1, total_steps - warmup_steps)
    progress = min(1.0, (step - warmup_steps) / span)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 5e-4
    warmup_steps: int = 100
    weight_decay: float = 1e-4
    gamma: float = 0.8  # iteration weight base; later snapshots weigh more
    seed: int = 0
    checkpoint_every: int = 500

    def __post_init__(self):
        config_fields(self)
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"gamma must be in (0, 1], got {self.gamma}")
        for name in ("steps", "warmup_steps", "checkpoint_every", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0 < self.lr < np.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")


def _gt_lookup(gt_by_id: dict[int, list]) -> dict[int, dict[int, tuple[float, float]]]:
    return {tid: {t: (x, y) for t, x, y in samples} for tid, samples in gt_by_id.items()}


def sequence_loss(model: TrackerModel, frames, events, queries, gt_by_id,
                  gamma: float) -> tuple[float, int]:
    """Track one sequence and back-propagate each window's loss as soon as
    the window is refined; the session back-propagates the rest of the
    graph as it lets go of it. Returns the summed window losses and the
    window count; the gradients accumulate in the parameters' `.grad`.
    """
    lookup = _gt_lookup(gt_by_id)
    losses = []

    def on_window(run):
        w_len, n = run.active.shape
        gt = np.zeros((w_len, n, 2), dtype=np.float32)
        mask = run.active.copy()
        for q, qid in enumerate(run.query_ids):
            per_t = lookup.get(qid, {})
            for i, t in enumerate(run.slice_times):
                hit = per_t.get(int(t))
                if hit is None:
                    mask[i, q] = 0.0
                else:
                    gt[i, q] = hit
        loss = window_loss(run.snapshots, gt, mask, gamma)
        losses.append(loss.data)
        backward(loss)

    run_offline(model, frames, events, queries, on_window=on_window)
    if not losses:
        raise UsageError("sequence produced no refinement windows")
    total = losses[0]
    for loss in losses[1:]:
        total = total + loss  # float32, in window order
    return float(total), len(losses)


def _file_meta(model: TrackerModel, step: int) -> dict:
    return {"step": step, "tracker": dataclasses.asdict(model.cfg)}


def check_trained_config(cfg: TrackerConfig, meta: dict, path: str) -> None:
    """Reject a weight file whose recorded tracker config differs from `cfg`,
    or records a key that `TrackerConfig` no longer has."""
    trained = meta.get("tracker", {})
    if not isinstance(trained, dict):
        raise ConfigError(f"{path} records its tracker config as a {type(trained).__name__}")
    now = dataclasses.asdict(cfg)
    removed = sorted(set(trained) - set(now))
    if removed:
        raise ConfigError(f"{path} was trained with tracker keys this tracker does not have: "
                          + ", ".join(f"{k}={trained[k]!r}" for k in removed))
    differ = sorted(k for k, v in now.items() if k in trained and trained[k] != v)
    if differ:
        raise ConfigError(
            f"{path} was trained with another tracker config: "
            + ", ".join(f"{k}={trained[k]!r} (now {getattr(cfg, k)!r})" for k in differ)
        )


def save_checkpoint(model: TrackerModel, path: str, step: int) -> None:
    """Weights plus Adam moments, step count and tracker config, in the weight-file container.

    A parameter without moments yet (no step taken) is saved with zero
    moments, made one parameter at a time as the file is written.
    """
    def arrays():
        yield from ((name, p.data) for name, p in model.store.items())
        for name, p in model.store.items():
            m, v = model.store.moments(name) or (np.zeros(p.data.shape, np.float32),) * 2
            yield f"opt.{name}.m", m
            yield f"opt.{name}.v", v

    save_arrays(arrays(), path, extra=_file_meta(model, step))


def load_checkpoint(model: TrackerModel, path: str) -> int:
    """Restore weights and optimizer state; returns the step to resume from.

    One Adam step is taken per training step, so the optimizer resumes at
    that step too. A file without optimizer state, or one trained with
    another tracker config, is rejected. Everything is checked before the
    first parameter or moment changes, so a rejected file leaves the
    model as it was.
    """
    arrays, meta = read_weight_file(path)
    store = model.store
    check_weights(store, arrays, path)
    check_trained_config(model.cfg, meta, path)
    names = store.names()
    if not all(f"opt.{name}.m" in arrays and f"opt.{name}.v" in arrays for name in names):
        raise UsageError(f"{path} holds no optimizer state; resume from a checkpoint.bin")
    for key in ("opt.{}.m", "opt.{}.v"):
        check_weights(store, arrays, path, key)
    step = whole(meta.get("step", 0), f"{path} step")
    if step < 0:
        raise ConfigError(f"{path} step {step} is negative")
    assign_weights(store, arrays, path)
    for name in names:
        store.load_state(name, arrays[f"opt.{name}.m"], arrays[f"opt.{name}.v"])
    store.step = step
    return step


def train(model: TrackerModel, sequences: list, cfg: TrainConfig, out_dir: str,
          resume: str | None = None, stop_fn=None,
          weights_path: str | None = None) -> list[tuple[int, float, float]]:
    """Toy training loop over preloaded sequences.

    `sequences` entries are (frames, events, queries, gt_by_id) tuples. The
    sequence picked at each step is a pure function of (seed, step), so a
    resumed run replays the original schedule exactly. Writes
    checkpoint.bin, weights.bin, and loss_log.csv under out_dir; returns
    the (step, loss, lr) history.
    """
    if not sequences:
        raise UsageError("training needs at least one sequence")
    os.makedirs(out_dir, exist_ok=True)
    start = 0
    history: list[tuple[int, float, float]] = []
    log_path = os.path.join(out_dir, "loss_log.csv")
    if resume:
        start = load_checkpoint(model, resume)
        mode = "a"
    else:
        mode = "w"

    with open(log_path, mode) as log:
        if mode == "w":
            log.write("step,loss,lr\n")
        for step in range(start, cfg.steps):
            pick = int(np.random.default_rng((cfg.seed, step)).integers(len(sequences)))
            frames, events, queries, gt_by_id = sequences[pick]
            lr = lr_schedule(step, cfg.lr, cfg.warmup_steps, cfg.steps)

            model.store.zero_grad()
            loss_val, _ = sequence_loss(model, frames, events, queries, gt_by_id, cfg.gamma)
            if not np.isfinite(loss_val):
                raise TrainingError(f"non-finite loss at step {step}")
            adamw_step(model.store, lr=lr, weight_decay=cfg.weight_decay)

            history.append((step, loss_val, lr))
            log.write(f"{step},{loss_val:.6f},{lr:.8f}\n")
            log.flush()
            if cfg.checkpoint_every and (step + 1) % cfg.checkpoint_every == 0:
                save_checkpoint(model, os.path.join(out_dir, "checkpoint.bin"), step + 1)
            if stop_fn is not None and stop_fn(step, loss_val):
                break

    done = history[-1][0] + 1 if history else start
    save_checkpoint(model, os.path.join(out_dir, "checkpoint.bin"), done)
    save_weights(model.store, weights_path or os.path.join(out_dir, "weights.bin"),
                 extra=_file_meta(model, done))
    return history
