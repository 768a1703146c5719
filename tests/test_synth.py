import os
import subprocess
import sys

import numpy as np
import pytest

from evtrack.errors import ConfigError
from evtrack.synth import (
    SynthScene,
    Sprite,
    anchor_position,
    generate_events,
    generate_dataset,
    gt_tracks,
    load_sequence,
    make_scene,
    render,
)


def test_render_deterministic_and_bounded():
    scene = make_scene(4)
    a = render(scene, 0)
    b = render(scene, 0)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert a.shape == (64, 64)


def test_render_empty_scene_is_background():
    scene = make_scene(1, n_sprites=0)
    assert np.array_equal(render(scene, 123_456), scene.background)


def test_translated_sprite_shifts_content():
    tex = np.linspace(0, 1, 12 * 12).reshape(12, 12)
    sprite = Sprite(np.array([20.0, 20.0]), np.array([10.0, 0.0]), 0.0, 12, tex)
    scene = SynthScene(64, 64, np.zeros((64, 64)), [sprite], 1_000_000, 0)
    img0 = render(scene, 0)
    img1 = render(scene, 500_000)  # exactly (5, 0) px later
    assert np.allclose(img1[:, 5:], img0[:, :-5], atol=1e-12)


def test_static_scene_gives_no_events():
    scene = make_scene(2, n_sprites=1)
    for sprite in scene.sprites:
        sprite.velocity[:] = 0.0
        sprite.omega = 0.0
    events = generate_events(scene, dt_sim_us=5000)
    assert len(events) == 0


def test_log_step_event_count():
    # one pixel steps its log intensity by 0.5: floor(0.5/0.2) = 2 events
    scene = SynthScene(4, 4, np.zeros((4, 4)), [], 10_000, 0)
    base = np.full((4, 4), 0.2)

    def step_render(_scene, t_us):
        img = base.copy()
        if t_us >= 5000:
            img[1, 2] = 0.2 * np.exp(0.5)
        return img

    events = generate_events(scene, theta=0.2, dt_sim_us=1000, eps=0.0, render_fn=step_render)
    assert len(events) == 2
    assert np.all(events.ps == 1)
    assert np.all(events.xs == 2) and np.all(events.ys == 1)


def test_polarity_inversion_symmetry():
    scene = SynthScene(4, 4, np.zeros((4, 4)), [], 10_000, 0)

    def up(_s, t):
        img = np.full((4, 4), 0.2)
        img[0, 0] = 0.2 * np.exp(0.001 * min(t, 5000) / 5.0)
        return img

    def down(_s, t):
        img = np.full((4, 4), 0.2)
        img[0, 0] = 0.2 * np.exp(-0.001 * min(t, 5000) / 5.0)
        return img

    ev_up = generate_events(scene, theta=0.2, dt_sim_us=1000, eps=0.0, render_fn=up)
    ev_dn = generate_events(scene, theta=0.2, dt_sim_us=1000, eps=0.0, render_fn=down)
    assert len(ev_up) == len(ev_dn)
    assert np.array_equal(ev_up.ts, ev_dn.ts)
    assert np.array_equal(ev_up.ps, -ev_dn.ps)


def test_net_event_count_matches_log_change():
    # per-pixel (positive - negative) event count tracks net log change / theta
    scene = make_scene(7, n_sprites=1, translate_only=True)
    theta = 0.2
    eps = 1e-3
    events = generate_events(scene, theta=theta, dt_sim_us=1000, eps=eps)
    net = np.zeros((scene.height, scene.width))
    np.add.at(net, (events.ys, events.xs), events.ps)
    expect = (np.log(render(scene, scene.duration_us) + eps) - np.log(render(scene, 0) + eps)) / theta
    assert np.max(np.abs(net - np.trunc(expect))) <= 1.0


@pytest.mark.parametrize("dt_sim_us", [0, -5])
def test_generate_events_rejects_a_step_that_never_ends_the_loop(dt_sim_us):
    """Run in a child process with a timeout, so that a loop that never
    ends fails the test instead of hanging the suite."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("from evtrack.errors import ConfigError\n"
            "from evtrack.synth import generate_events, make_scene\n"
            "try:\n"
            f"    generate_events(make_scene(0, duration_us=10_000), dt_sim_us={dt_sim_us})\n"
            "except ConfigError as err:\n"
            "    print(err)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=20, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == f"dt_sim_us must be >= 1, got {dt_sim_us}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kwargs, match", [
    (dict(dt_sim_us=2.5), "dt_sim_us 2.5 is not a whole number"),
    (dict(dt_sim_us="a"), "dt_sim_us 'a' is not a whole number"),
    (dict(theta=float("nan")), "contrast threshold must be positive and finite, got nan"),
    (dict(theta=float("inf")), "contrast threshold must be positive and finite, got inf"),
    (dict(theta=0.0), "contrast threshold must be positive and finite, got 0.0"),
])
def test_generate_events_rejects_bad_steps_and_thresholds(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        generate_events(make_scene(0, duration_us=10_000), **kwargs)


def test_gt_kinematics_translation():
    tex = np.ones((10, 10)) * 0.5
    sprite = Sprite(np.array([20.0, 30.0]), np.array([10.0, 0.0]), 0.0, 10, tex)
    scene = SynthScene(64, 64, np.zeros((64, 64)), [sprite], 1_000_000, 0)
    tracks = gt_tracks(scene, [(0, np.array([0.0, 0.0]))], [0, 500_000])
    assert len(tracks) == 1
    (t0, x0, y0), (t1, x1, y1) = tracks[0].samples
    assert (x1 - x0, y1 - y0) == pytest.approx((5.0, 0.0))


def test_gt_kinematics_rotation_circle():
    tex = np.ones((10, 10)) * 0.5
    sprite = Sprite(np.array([32.0, 32.0]), np.array([0.0, 0.0]), 2.0, 10, tex)
    scene = SynthScene(64, 64, np.zeros((64, 64)), [sprite], 1_000_000, 0)
    offset = np.array([3.0, 0.0])
    times = list(range(0, 1_000_001, 100_000))
    pts = np.array([anchor_position(scene, (0, offset), t) for t in times])
    radii = np.linalg.norm(pts - np.array([32.0, 32.0]), axis=1)
    assert np.allclose(radii, 3.0, atol=1e-9)
    assert np.std(pts[:, 0]) > 0.5  # actually moves around the circle


def test_background_anchor_constant():
    scene = make_scene(3)
    tracks = gt_tracks(scene, [(None, np.array([10.0, 12.0]))], [0, 100_000, 200_000])
    xs = {x for _, x, _ in tracks[0].samples}
    ys = {y for _, _, y in tracks[0].samples}
    assert xs == {10.0} and ys == {12.0}


def test_track_truncation_at_canvas_exit():
    tex = np.ones((10, 10)) * 0.5
    sprite = Sprite(np.array([58.0, 32.0]), np.array([20.0, 0.0]), 0.0, 10, tex)
    scene = SynthScene(64, 64, np.zeros((64, 64)), [sprite], 1_000_000, 0)
    times = list(range(0, 1_000_001, 100_000))
    tracks = gt_tracks(scene, [(0, np.array([0.0, 0.0]))], times)
    # anchor crosses x=63 at t=0.25s: samples at 0, 0.1, 0.2 survive
    assert len(tracks[0].samples) == 3


def test_dataset_roundtrip(tmp_path):
    out = str(tmp_path / "ds")
    paths = generate_dataset(out, seed=5, n_scenes=2, size=(48, 48), duration_us=200_000,
                             frame_period_us=50_000, dt_track_us=25_000)
    assert len(paths) == 2
    manifest, frames, events, gt, queries = load_sequence(paths[0])
    assert manifest["width"] == 48 and manifest["height"] == 48
    assert len(frames) == 5
    assert frames[0][1].shape == (1, 48, 48)
    assert len(events) == manifest["n_events"]
    assert len(queries) == manifest["n_tracks"] == len(gt)
    for t, samples in gt.items():
        assert samples[0][0] == 0


def test_dataset_determinism(tmp_path):
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    for out in (a, b):
        generate_dataset(out, seed=9, n_scenes=1, size=(48, 48), duration_us=150_000,
                         frame_period_us=50_000, dt_track_us=25_000)
    for name in ("events.bin", "gt_tracks.csv", "queries.csv", "manifest.json"):
        with open(f"{a}/seq_000/{name}", "rb") as fa, open(f"{b}/seq_000/{name}", "rb") as fb:
            assert fa.read() == fb.read(), name
