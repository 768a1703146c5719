"""Small shared fixtures: tiny tracker configs, short synthetic sequences
and a traced-memory probe."""

import gc
import tracemalloc

import numpy as np

from evtrack.pipeline import TrackerConfig, TrackerModel
from evtrack.synth import generate_events, gt_tracks, make_scene, render


def tiny_tracker_config(**overrides) -> TrackerConfig:
    base = dict(
        bins=2,
        window=4,
        t_step=2,
        iterations=2,
        downsample=4,
        channels=16,
        radius=1,
        levels=2,
        dt_track_us=25_000,
        frame_channels=1,
        dim=32,
        pairs=1,
        heads=2,
        mlp_ratio=2,
        freqs=4,
    )
    base.update(overrides)
    return TrackerConfig(**base)


def tiny_model(seed=0, randomize_heads=False, **overrides) -> TrackerModel:
    model = TrackerModel(tiny_tracker_config(**overrides), seed=seed)
    if randomize_heads:
        scramble_heads(model, seed=seed + 1)
    return model


def scramble_heads(model, seed=0, scale=0.05):
    """Give the zero-initialized update heads small random weights so the
    refiner produces nonzero deltas without any training."""
    rng = np.random.default_rng(seed)
    for layer in (model.refiner.head_pos, model.refiner.head_feat):
        layer.weight.data = (rng.standard_normal(layer.weight.shape) * scale).astype(np.float32)


def tiny_sequence(seed=0, size=(32, 32), duration_us=250_000, frame_period_us=50_000,
                  dt_track_us=25_000, n_sprites=1, queries_per_sprite=2,
                  translate_only=True):
    """Short scene: frames, events, queries, gt dict, gt tracks, slice times."""
    scene = make_scene(
        seed,
        size=size,
        n_sprites=n_sprites,
        duration_us=duration_us,
        translate_only=translate_only,
        queries_per_sprite=queries_per_sprite,
        sprite_size=(10, 14),
        speed_range=(15.0, 35.0),
    )
    frame_times = list(range(0, duration_us + 1, frame_period_us))
    frames = [(t, render(scene, t)[None]) for t in frame_times]
    events = generate_events(scene, dt_sim_us=2000)
    slice_times = list(range(0, duration_us + 1, dt_track_us))
    gtt = gt_tracks(scene, scene.anchors, slice_times)
    gt_by_id = {t.id: t.samples for t in gtt}
    queries = [(t.id, t.samples[0][0], t.samples[0][1], t.samples[0][2]) for t in gtt]
    return frames, events, queries, gt_by_id, gtt, slice_times


def traced_peak(fn):
    """Call `fn()` under tracemalloc; return its result and the peak of the
    traced bytes above those held when it started."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
