"""The benchmark's own tests: each workload path on a tiny model, the
output checks, and the tracer's consistency.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Spec  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

TINY_CFG = dict(bins=2, window=4, t_step=2, iterations=2, channels=16, radius=1, levels=2,
                dt_track_us=25_000, dim=32, pairs=1, heads=2, mlp_ratio=2, freqs=4)
TINY = {
    "offline": Spec("offline", (64, 64), 1, 4, 200_000, min_units=2),
    "stream": Spec("stream", (64, 64), 1, 2, 300_000, background_ev_per_s=20_000),
    "train": Spec("train", (64, 64), 1, 2, 125_000, sequences=2, min_units=3),
}


def _run(kind, trace, tmp_path, seed=3):
    return workloads.run_workload(TINY[kind], seed, 0.5, trace, TINY_CFG, work_dir=str(tmp_path))


@pytest.mark.parametrize("kind", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(kind, tmp_path):
    result = _run(kind, False, tmp_path)
    assert result.failed == 0 and not result.problems, result.problems
    assert result.attempted >= 2
    assert set(result.metrics) == {m["name"] for m in BENCH["end_to_end"]}
    for name, (value, unit) in result.metrics.items():
        assert math.isfinite(value) and value > 0, name
    assert result.notes["digest"]
    assert os.listdir(tmp_path) == []  # training output is removed


@pytest.mark.parametrize("kind", sorted(TINY))
def test_traced_run_reports_every_layer_metric(kind, tmp_path):
    result = _run(kind, True, tmp_path)
    assert result.failed == 0 and not result.problems, result.problems
    assert set(result.metrics) == {m["name"] for m in BENCH["per_layer"]}
    assert result.notes["self_time_gap"] < 0.02
    overhead = result.metrics["trace.overhead"][0]
    print(f"{kind}: traced / untraced unit wall time = {overhead:.3f}")
    assert 0 < overhead < 3
    layers = result.metrics
    assert layers["pipeline.advance_calls"][0] > 0
    assert layers["refiner.refine_calls"][0] > 0
    assert layers["encoders.frame_calls_per_frame"][0] == 1.0
    assert layers["ops.conv2d.gflop"][0] > 0
    assert (layers["autodiff.backward_ms"][0] > 0) == (kind == "train")


def test_same_seed_same_inputs_and_tracks(tmp_path):
    a = workloads.make_inputs(TINY["stream"], 5, TINY_CFG["dt_track_us"])[0]
    b = workloads.make_inputs(TINY["stream"], 5, TINY_CFG["dt_track_us"])[0]
    c = workloads.make_inputs(TINY["stream"], 6, TINY_CFG["dt_track_us"])[0]
    for x, y in zip(a.events[:4], b.events[:4]):
        assert (x == y).all()
    assert a.queries == b.queries and a.queries != c.queries
    first = _run("offline", False, tmp_path, seed=4)
    second = _run("offline", False, tmp_path, seed=4)
    assert first.notes["digest"] == second.notes["digest"]


def test_refinement_moves_points(tmp_path):
    # Without the seeded head weights every track would stay at its query.
    result = _run("offline", False, tmp_path)
    seq = workloads.make_inputs(TINY["offline"], 3, TINY_CFG["dt_track_us"])[0]
    spec = TINY["offline"]
    setup_s, model = workloads.set_up(TINY_CFG, 3, seq.queries)
    runner = workloads._Offline(spec, [seq], model, workloads.Result(), 0, None, 3, str(tmp_path))
    samples = runner._track(seq)
    start = {qid: (x, y) for qid, _, x, y in seq.queries}
    moved = max(math.hypot(x - start[q][0], y - start[q][1]) for q, _, x, y in samples)
    assert moved > 1e-3
    assert workloads.digest(samples) == result.notes["digest"]


def test_output_checks_flag_bad_samples():
    seq = workloads.Sequence([], (), [(0, 0, 1.0, 1.0)], {}, [0, 10, 20])
    seen = set()
    assert workloads.check_new([(0, 0, 1.0, 1.0), (0, 10, 1.0, 1.0)], seen, {0, 10, 20}) == []
    assert workloads.check_complete(seen, seq) == ["query 0: 1 slices never emitted"]
    problems = workloads.check_new([(0, 10, 1.0, 1.0), (0, 15, 1.0, 1.0), (0, 20, math.nan, 1.0)],
                                   seen, {0, 10, 20})
    assert len(problems) == 3
    assert workloads.check_complete(seen, seq) == []


def test_self_times_sum_to_root():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    root = tracer.begin("unit")
    outer()
    inner()
    tracer.end(root)
    incl, own, calls = tracer.totals()
    assert calls == {"unit": 1, "outer": 1, "inner": 4}
    assert sum(own.values()) == pytest.approx(incl["unit"], rel=1e-9)
    assert own["outer"] < incl["outer"]
    assert tracer.root_consistency("unit") < 1e-9


def test_uninstall_restores_the_package(tmp_path):
    seq = workloads.make_inputs(TINY["offline"], 3, TINY_CFG["dt_track_us"])[0]
    _, model = workloads.set_up(TINY_CFG, 3, seq.queries)
    ops = sys.modules["evtrack.autodiff.ops"]
    pipeline = sys.modules["evtrack.pipeline"]
    before = (ops.conv2d, pipeline.TrackSession.advance, model.frame_encoder)
    undo = tracing.install(tracing.Tracer(), model)
    assert ops.conv2d is not before[0]
    tracing.uninstall(undo)
    assert (ops.conv2d, pipeline.TrackSession.advance, model.frame_encoder) == before


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", BENCH["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
