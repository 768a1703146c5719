"""Desk-scale synthetic scenes: frames, events, and exact ground truth.

A scene is a static textured background plus textured square sprites with
constant velocity and angular velocity, so every anchor position is an
analytic function of time. Events come from a per-pixel contrast
threshold model on log intensity: each crossing of a multiple of theta
since the pixel's last event emits one event at the linearly interpolated
crossing time.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .checks import whole
from .errors import ConfigError
from .events import EventStream, save_binary_events
from .images import save_image
from .metrics import GtTrack
from .pipeline import load_queries_csv, load_tracks_csv, save_tracks_csv


@dataclass
class Sprite:
    center0: np.ndarray  # (2,) px at t=0
    velocity: np.ndarray  # (2,) px/s
    omega: float  # rad/s
    size: int  # square side in px
    texture: np.ndarray  # (size, size) values in [0, 1]

    def center(self, t_us: int) -> np.ndarray:
        return self.center0 + self.velocity * (t_us * 1e-6)

    def angle(self, t_us: int) -> float:
        return self.omega * (t_us * 1e-6)


@dataclass
class SynthScene:
    width: int
    height: int
    background: np.ndarray  # (H, W)
    sprites: list[Sprite]
    duration_us: int
    seed: int
    anchors: list[tuple[int | None, np.ndarray]] = field(default_factory=list)


def _smooth_noise(rng, shape, cells: int, lo: float, hi: float) -> np.ndarray:
    """Low-frequency random texture: coarse grid, bilinear upsample."""
    coarse = rng.uniform(lo, hi, size=(cells, cells))
    h, w = shape
    ys = np.linspace(0, cells - 1, h)
    xs = np.linspace(0, cells - 1, w)
    y0 = np.clip(ys.astype(int), 0, cells - 2)
    x0 = np.clip(xs.astype(int), 0, cells - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[np.ix_(y0, x0)]
    c01 = coarse[np.ix_(y0, x0 + 1)]
    c10 = coarse[np.ix_(y0 + 1, x0)]
    c11 = coarse[np.ix_(y0 + 1, x0 + 1)]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def make_scene(seed: int, size: tuple[int, int] = (64, 64), n_sprites: int = 2,
               duration_us: int = 600_000, speed_range: tuple[float, float] = (25.0, 55.0),
               translate_only: bool = False, queries_per_sprite: int = 2,
               sprite_size: tuple[int, int] = (16, 25)) -> SynthScene:
    """Random scene whose sprites (and anchors) stay inside the canvas."""
    rng = np.random.default_rng(seed)
    width, height = size
    background = _smooth_noise(rng, (height, width), 5, 0.25, 0.55)
    sprites = []
    anchors: list[tuple[int | None, np.ndarray]] = []
    dur_s = duration_us * 1e-6
    for i in range(n_sprites):
        side = int(rng.integers(sprite_size[0], sprite_size[1]))
        margin = side * 0.75 + 2
        speed = rng.uniform(*speed_range)
        heading = rng.uniform(0, 2 * np.pi)
        vel = np.array([np.cos(heading), np.sin(heading)]) * speed
        lo = np.array([margin, margin])
        hi = np.array([width - margin, height - margin])
        # start so that both endpoints of the linear path stay inside
        start_lo = np.maximum(lo, lo - vel * dur_s)
        start_hi = np.minimum(hi, hi - vel * dur_s)
        if np.any(start_hi <= start_lo):
            vel = vel * 0.4  # too fast for the canvas; slow this sprite down
            start_lo = np.maximum(lo, lo - vel * dur_s)
            start_hi = np.minimum(hi, hi - vel * dur_s)
            if np.any(start_hi < start_lo):
                raise ConfigError(f"a {side} px sprite cannot stay inside the {width}x{height} "
                                  f"canvas for {duration_us} us")
        center0 = rng.uniform(start_lo, start_hi)
        omega = 0.0 if translate_only else float(rng.uniform(-0.8, 0.8))
        texture = _smooth_noise(rng, (side, side), 4, 0.0, 1.0)
        # push texture contrast away from the background band
        texture = np.clip(0.5 + (texture - texture.mean()) * 1.6, 0.02, 0.98)
        sprites.append(Sprite(center0, vel, omega, side, texture))
        for _ in range(queries_per_sprite):
            offset = rng.uniform(-side / 4, side / 4, size=2)
            anchors.append((i, offset))
    return SynthScene(width, height, background, sprites, duration_us, seed, anchors)


def render(scene: SynthScene, t_us: int) -> np.ndarray:
    """Grayscale (H, W) image in [0, 1] at time t."""
    img = scene.background.copy()
    for sprite in scene.sprites:
        cx, cy = sprite.center(t_us)
        ang = sprite.angle(t_us)
        half = sprite.size / 2.0
        reach = half * np.sqrt(2.0) + 1.0
        x_lo = max(0, int(np.floor(cx - reach)))
        x_hi = min(scene.width - 1, int(np.ceil(cx + reach)))
        y_lo = max(0, int(np.floor(cy - reach)))
        y_hi = min(scene.height - 1, int(np.ceil(cy + reach)))
        if x_lo > x_hi or y_lo > y_hi:
            continue
        ys, xs = np.mgrid[y_lo : y_hi + 1, x_lo : x_hi + 1]
        dx = xs - cx
        dy = ys - cy
        ca, sa = np.cos(-ang), np.sin(-ang)
        lx = ca * dx - sa * dy + half - 0.5
        ly = sa * dx + ca * dy + half - 0.5
        inside = (lx >= 0) & (lx <= sprite.size - 1) & (ly >= 0) & (ly <= sprite.size - 1)
        if not inside.any():
            continue
        lxc = np.clip(lx, 0, sprite.size - 1)
        lyc = np.clip(ly, 0, sprite.size - 1)
        x0 = np.clip(np.floor(lxc).astype(int), 0, sprite.size - 2)
        y0 = np.clip(np.floor(lyc).astype(int), 0, sprite.size - 2)
        fx = lxc - x0
        fy = lyc - y0
        tex = sprite.texture
        vals = (tex[y0, x0] * (1 - fx) * (1 - fy) + tex[y0, x0 + 1] * fx * (1 - fy)
                + tex[y0 + 1, x0] * (1 - fx) * fy + tex[y0 + 1, x0 + 1] * fx * fy)
        region = img[y_lo : y_hi + 1, x_lo : x_hi + 1]
        region[inside] = vals[inside]
    return np.clip(img, 0.0, 1.0)


def generate_events(scene: SynthScene, theta: float = 0.2, dt_sim_us: int = 1000,
                    eps: float = 1e-3, render_fn=None) -> EventStream:
    """Contrast-threshold event simulation over the scene duration.

    `render_fn(scene, t_us)` defaults to `render`; tests substitute
    synthetic intensity profiles here.
    """
    if not 0 < theta < np.inf:
        raise ConfigError(f"contrast threshold must be positive and finite, got {theta}")
    dt_sim_us = whole(dt_sim_us, "dt_sim_us")
    if dt_sim_us < 1:
        raise ConfigError(f"dt_sim_us must be >= 1, got {dt_sim_us}")
    if render_fn is None:
        render_fn = render
    log_prev = np.log(render_fn(scene, 0) + eps)
    ref = log_prev.copy()
    xs_all, ys_all, ts_all, ps_all = [], [], [], []
    t = dt_sim_us
    while t <= scene.duration_us:
        log_new = np.log(render_fn(scene, t) + eps)
        delta = log_new - ref
        n_cross = np.floor(np.abs(delta) / theta).astype(int)
        if n_cross.any():
            sign = np.sign(delta).astype(int)
            n_max = int(n_cross.max())
            denom = log_new - log_prev
            for j in range(1, n_max + 1):
                mask = n_cross >= j
                ys, xs = np.nonzero(mask)
                level = ref[mask] + sign[mask] * j * theta
                d = denom[mask]
                frac = np.where(np.abs(d) > 1e-12, (level - log_prev[mask]) / np.where(d == 0, 1, d), 1.0)
                frac = np.clip(frac, 0.0, 1.0)
                t_ev = (t - dt_sim_us) + frac * dt_sim_us
                xs_all.append(xs)
                ys_all.append(ys)
                ts_all.append(np.round(t_ev).astype(np.int64))
                ps_all.append(sign[mask])
            ref = ref + sign * n_cross * theta
        log_prev = log_new
        t += dt_sim_us
    if not xs_all:
        return EventStream([], [], [], [], (scene.width, scene.height))
    xs = np.concatenate(xs_all)
    ys = np.concatenate(ys_all)
    ts = np.concatenate(ts_all)
    ps = np.concatenate(ps_all)
    order = np.lexsort((ps, xs, ys, ts))
    return EventStream(xs[order], ys[order], ts[order], ps[order],
                       (scene.width, scene.height))


def anchor_position(scene: SynthScene, anchor, t_us: int) -> np.ndarray:
    sprite_idx, offset = anchor
    if sprite_idx is None:
        return np.asarray(offset, dtype=np.float64)
    sprite = scene.sprites[sprite_idx]
    ang = sprite.angle(t_us)
    ca, sa = np.cos(ang), np.sin(ang)
    rot = np.array([ca * offset[0] - sa * offset[1], sa * offset[0] + ca * offset[1]])
    return sprite.center(t_us) + rot


def gt_tracks(scene: SynthScene, anchors, slice_times) -> list[GtTrack]:
    """Analytic anchor positions at the slice times, truncated at canvas exit."""
    tracks = []
    for tid, anchor in enumerate(anchors):
        samples = []
        for t in slice_times:
            p = anchor_position(scene, anchor, int(t))
            if not (0 <= p[0] <= scene.width - 1 and 0 <= p[1] <= scene.height - 1):
                break
            samples.append((int(t), float(p[0]), float(p[1])))
        if samples:
            tracks.append(GtTrack(tid, samples))
    return tracks


def write_sequence(out_dir: str, scene: SynthScene, frame_period_us: int,
                   dt_track_us: int, theta: float, dt_sim_us: int) -> dict:
    """Render one sequence to disk: frames, events, GT tracks, queries, manifest."""
    os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)
    frame_times = list(range(0, scene.duration_us + 1, frame_period_us))
    for t in frame_times:
        save_image(os.path.join(out_dir, "frames", f"frame_{t:010d}.pgm"), render(scene, t)[None])

    events = generate_events(scene, theta=theta, dt_sim_us=dt_sim_us)
    save_binary_events(events, os.path.join(out_dir, "events.bin"))

    slice_times = list(range(0, scene.duration_us + 1, dt_track_us))
    tracks = gt_tracks(scene, scene.anchors, slice_times)
    save_tracks_csv(tracks, os.path.join(out_dir, "gt_tracks.csv"))
    with open(os.path.join(out_dir, "queries.csv"), "w") as f:
        f.write("id,t_us,x,y\n")
        for track in tracks:
            t0, x0, y0 = track.samples[0]
            f.write(f"{track.id},{t0},{x0:.3f},{y0:.3f}\n")

    manifest = {
        "width": scene.width,
        "height": scene.height,
        "duration_us": scene.duration_us,
        "frame_period_us": frame_period_us,
        "dt_track_us": dt_track_us,
        "frame_times_us": frame_times,
        "theta": theta,
        "dt_sim_us": dt_sim_us,
        "seed": scene.seed,
        "n_events": len(events),
        "n_tracks": len(tracks),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return manifest


def generate_dataset(out_dir: str, seed: int, n_scenes: int, size=(64, 64),
                     n_sprites: int = 2, duration_us: int = 600_000,
                     frame_period_us: int = 100_000, dt_track_us: int = 25_000,
                     theta: float = 0.2, dt_sim_us: int = 1000,
                     translate_only: bool = False,
                     speed_range: tuple[float, float] = (25.0, 55.0)) -> list[str]:
    """Write n_scenes sequence directories under out_dir; returns their paths."""
    paths = []
    for i in range(n_scenes):
        scene = make_scene(seed + i, size=size, n_sprites=n_sprites,
                           duration_us=duration_us, translate_only=translate_only,
                           speed_range=speed_range)
        seq_dir = os.path.join(out_dir, f"seq_{i:03d}")
        write_sequence(seq_dir, scene, frame_period_us, dt_track_us, theta, dt_sim_us)
        paths.append(seq_dir)
    return paths


def load_sequence(seq_dir: str):
    """Read one sequence directory back: (manifest, frames, events, gt, queries)."""
    from .events import load_binary_events
    from .images import load_image

    with open(os.path.join(seq_dir, "manifest.json")) as f:
        manifest = json.load(f)
    frames = []
    for t in manifest["frame_times_us"]:
        img = load_image(os.path.join(seq_dir, "frames", f"frame_{t:010d}.pgm"))
        frames.append((int(t), img))
    events = load_binary_events(os.path.join(seq_dir, "events.bin"))
    gt = load_tracks_csv(os.path.join(seq_dir, "gt_tracks.csv"))
    queries = load_queries_csv(os.path.join(seq_dir, "queries.csv"))
    return manifest, frames, events, gt, queries
