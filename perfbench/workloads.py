"""Benchmark workloads: seeded inputs, set-up, timed loops and output checks.

Inputs come from the package's synthetic scene generator plus seeded
uniform background events. They are generated before any clock starts
and handed to the program as plain arrays. Set-up (import, model
construction, session creation) is timed on its own. The timed loop then
runs whole units of work until the next unit would end past the time
budget: one offline run, one streamed session, or one training step.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import resource
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import tracing

FRAME_PERIOD_US = 50_000  # 20 Hz frames
SETUP_REPEATS = 7
HEAD_GAIN = 0.1  # update-head weight std times sqrt(fan-in)
EFA_DELTA_PX = 5.0
WARMUP_SLICES = 4  # offline warm-up runs on this prefix of the sequence
WARMUP_BATCHES = 16  # stream warm-up session length
WARMUP_STEPS = 2  # training steps left out of the timings; the second is still slow

ENCODERS = ("encoders.frame_ms", "encoders.event_ms", "encoders.fusion_ms")


@dataclass(frozen=True)
class Spec:
    kind: str  # "offline", "stream" or "train"
    size: tuple[int, int]  # sensor (width, height)
    sprites: int
    queries: int  # split evenly over the sprites, all born at t=0
    duration_us: int  # per sequence
    background_ev_per_s: float = 0.0  # uniform background activity on top of the scene
    sequences: int = 1
    min_units: int = 1
    # (layer metrics, ">=" or "<=", share of traced wall time): why the workload exists
    shares: tuple = ()


WORKLOADS = {
    # Encoders and fusion dominate: large sensor, few queries. Eight slices
    # per run keep runs short enough for several in one measurement.
    "offline-346x260-q8": Spec(
        "offline", (346, 260), 4, 8, 40_000, min_units=2,
        shares=((ENCODERS, ">=", 0.70), (("refiner.refine_ms",), "<=", 0.20))),
    # The refiner dominates: small sensor, many queries.
    "offline-64x64-q256": Spec(
        "offline", (64, 64), 2, 256, 40_000, min_units=2,
        shares=((ENCODERS, "<=", 0.15), (("refiner.refine_ms",), ">=", 0.80))),
    # The only streaming workload: ~2 Mev/s fed in 5 ms batches by one
    # closed-loop caller, so event history handling shows.
    "stream-64x64-dense": Spec(
        "stream", (64, 64), 2, 8, 800_000, background_ev_per_s=2e6, min_units=2,
        shares=((("events.stack_ms", "pipeline.self_ms"), ">=", 0.25),)),
    # The same ops with gradients, plus backward and AdamW.
    "train-64x64-q8": Spec("train", (64, 64), 2, 8, 79_000, sequences=2, min_units=3),
}


@dataclass
class Sequence:
    frames: list  # [(t_us, (1, H, W) float32 image)]
    events: tuple  # (xs, ys, ts, ps, (width, height)), time-sorted columns
    queries: list  # [(id, t_birth_us, x, y)]
    gt: dict  # id -> [(t_us, x, y)] at each slice time while inside the canvas
    slice_times: list  # the slice grid every query must be emitted on


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: dict = field(default_factory=dict)  # sample counts, digest, efa, shares

    def op(self, problems=()) -> bool:
        """Count one attempted operation; returns whether it succeeded."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def make_inputs(spec: Spec, seed: int, dt_track_us: int) -> list[Sequence]:
    """Seeded sequences for one workload; the same seed gives the same arrays."""
    from evtrack import synth

    width, height = spec.size
    sequences = []
    for i in range(spec.sequences):
        scene = synth.make_scene(seed * 100 + i, size=spec.size, n_sprites=spec.sprites,
                                 duration_us=spec.duration_us,
                                 queries_per_sprite=spec.queries // spec.sprites)
        frames = [(t, synth.render(scene, t)[None].astype(np.float32))
                  for t in range(0, spec.duration_us, FRAME_PERIOD_US)]
        ev = synth.generate_events(scene)
        keep = ev.ts < spec.duration_us  # the last batch ends before the duration
        cols = [ev.xs[keep], ev.ys[keep], ev.ts[keep], ev.ps[keep]]
        if spec.background_ev_per_s:
            rng = np.random.default_rng([seed, i])
            n = int(spec.background_ev_per_s * spec.duration_us * 1e-6)
            noise = [rng.integers(0, width, n, dtype=np.int32),
                     rng.integers(0, height, n, dtype=np.int32),
                     rng.integers(0, spec.duration_us, n, dtype=np.int64),
                     rng.choice(np.array([-1, 1], dtype=np.int8), n)]
            cols = [np.concatenate([a, b]) for a, b in zip(cols, noise)]
            order = np.argsort(cols[2], kind="stable")
            cols = [c[order] for c in cols]
        watermark = max(int(cols[2][-1]), frames[-1][0])
        slice_times = list(range(0, watermark + 1, dt_track_us))
        gt = {tr.id: tr.samples for tr in synth.gt_tracks(scene, scene.anchors, slice_times)}
        queries = [(tid, samples[0][0], samples[0][1], samples[0][2])
                   for tid, samples in gt.items()]
        if len(queries) != spec.queries:
            raise RuntimeError(f"scene {seed * 100 + i} placed {len(queries)} of {spec.queries} queries")
        sequences.append(Sequence(frames, (*cols, (width, height)), queries, gt, slice_times))
    return sequences


def _import_fresh():
    """Import the package from nothing, as a new process would."""
    for name in [m for m in sys.modules if m == "evtrack" or m.startswith("evtrack.")]:
        del sys.modules[name]
    importlib.import_module("evtrack.training")
    importlib.import_module("evtrack.metrics")
    return sys.modules["evtrack.pipeline"]


def _randomize_heads(model, seed: int) -> None:
    """Seeded small weights for the zero-initialised update heads, so that
    refinement moves points and the tracks depend on every layer."""
    rng = np.random.default_rng([seed, 1])
    for layer in (model.refiner.head_pos, model.refiner.head_feat):
        shape = layer.weight.shape
        layer.weight.data = (rng.standard_normal(shape) * HEAD_GAIN / math.sqrt(shape[1])).astype(np.float32)


def set_up(cfg_overrides: dict, seed: int, queries) -> tuple[float, object]:
    """Median seconds over SETUP_REPEATS fresh set-ups, and the last model."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pipeline = _import_fresh()
        model = pipeline.TrackerModel(pipeline.TrackerConfig(**cfg_overrides), seed=seed)
        _randomize_heads(model, seed)
        pipeline.TrackSession(model, queries)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), model


# ---------------------------------------------------------------- checks


def check_new(samples, seen: set, grid: set) -> list[str]:
    """Problems with freshly emitted (id, t, x, y) samples: off the slice
    grid, not finite, or a slice emitted twice."""
    problems = []
    for qid, t, x, y in samples:
        if t not in grid:
            problems.append(f"query {qid}: sample at {t} is off the slice grid")
        if not (math.isfinite(x) and math.isfinite(y)):
            problems.append(f"query {qid}: non-finite sample at {t}")
        if (qid, t) in seen:
            problems.append(f"query {qid}: slice {t} emitted twice")
        seen.add((qid, t))
    return problems


def check_complete(seen: set, seq: Sequence) -> list[str]:
    """Problems unless every query has a sample at every slice from its birth on."""
    got = defaultdict(set)
    for qid, t in seen:
        got[qid].add(t)
    problems = []
    for qid, t_birth, _, _ in seq.queries:
        missing = sum(1 for t in seq.slice_times if t >= t_birth and t not in got[qid])
        if missing:
            problems.append(f"query {qid}: {missing} slices never emitted")
    return problems


def digest(values) -> str:
    """Digest of (id, t, x, y) samples rounded to 1e-3 px, or of losses."""
    rows = sorted(tuple(round(v * 1000) if isinstance(v, float) else v for v in row)
                  for row in values)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def expected_feature_age(samples, seq: Sequence) -> float:
    metrics = sys.modules["evtrack.metrics"]
    pred = defaultdict(list)
    for qid, t, x, y in samples:
        pred[qid].append((t, x, y))
    gts = [metrics.GtTrack(tid, s) for tid, s in seq.gt.items()]
    return metrics.evaluate_tracks(pred, gts, EFA_DELTA_PX).efa_avg


def _error(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------- workloads


class _Runner:
    """Warm-up, then whole units of work until the next would end after
    `seconds`. With a tracer, units alternate untraced and traced."""

    def __init__(self, spec: Spec, sequences, model, result: Result, seconds: float,
                 tracer: tracing.Tracer | None, seed: int, work_dir: str):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.seq = sequences[0]
        self.sequences = sequences
        self.model = model
        self.result = result
        self.seconds = seconds
        self.tracer = tracer
        self.op_walls: list[list[float]] = []  # per group: seconds per operation, in order
        self.unit_walls = {False: [], True: []}  # untraced, traced
        self.slices = 0  # slices tracked or trained in successful units
        self.busy = 0.0  # seconds those units took
        self.samples: list = []  # output of the last successful unit
        self.digests: set = set()

    def run(self) -> None:
        self.warm_up()
        minimum = self.spec.min_units if self.tracer is None else max(2, self.spec.min_units)
        start = time.perf_counter()
        done = 0
        while True:
            traced = self.tracer is not None and done % 2 == 1
            undo = tracing.install(self.tracer, self.model) if traced else None
            t0 = time.perf_counter()
            root = self.tracer.begin("unit") if traced else None
            try:
                self.unit()
            finally:
                if traced:
                    self.tracer.end(root)
                    tracing.uninstall(undo)
            self.unit_walls[traced].append(time.perf_counter() - t0)
            done += 1
            elapsed = time.perf_counter() - start
            if done >= minimum and elapsed + elapsed / done > self.seconds:
                return

    def _succeeded(self, samples, wall: float) -> None:
        self.slices += len(self.seq.slice_times)
        self.busy += wall
        self.samples = samples
        self.digests.add(digest(samples))


class _Offline(_Runner):
    """Unit and operation: one `run_offline` call over the whole sequence."""

    def __init__(self, *args):
        super().__init__(*args)
        self.op_walls.append([])  # one group: the runs in order

    def _track(self, seq: Sequence):
        ev_mod = sys.modules["evtrack.events"]
        with sys.modules["evtrack.autodiff"].no_grad():
            tracks, _ = sys.modules["evtrack.pipeline"].run_offline(
                self.model, seq.frames, ev_mod.EventStream(*seq.events), seq.queries)
        return [(tr.id, t, x, y) for tr in tracks for t, x, y in tr.samples]

    def warm_up(self):
        t_end = WARMUP_SLICES * self.model.cfg.dt_track_us
        cut = int(np.searchsorted(self.seq.events[2], t_end))
        events = tuple(c[:cut] for c in self.seq.events[:4]) + (self.seq.events[4],)
        self._track(Sequence([f for f in self.seq.frames if f[0] < t_end], events,
                             self.seq.queries, {}, []))

    def unit(self):
        t0 = time.perf_counter()
        try:
            samples = self._track(self.seq)
        except Exception as exc:  # a failed run is counted and the loop goes on
            self.result.op([_error(exc)])
            return
        wall = time.perf_counter() - t0
        seen: set = set()
        problems = check_new(samples, seen, set(self.seq.slice_times))
        if self.result.op(problems + check_complete(seen, self.seq)):
            self.op_walls[0].append(wall)
            self._succeeded(samples, wall)


class _Stream(_Runner):
    """Unit: one session fed batch by batch in a closed loop; operation:
    one `advance` call (the closing `finish` counts as an operation but
    not as a latency sample)."""

    def __init__(self, *args):
        super().__init__(*args)
        dt = self.model.cfg.dt_track_us
        frames = dict(self.seq.frames)
        xs, ys, ts, ps, geometry = self.seq.events
        count = -(-self.spec.duration_us // dt)
        edges = np.searchsorted(ts, np.arange(count + 1) * dt)
        self.batches = [((k * dt, frames[k * dt]) if k * dt in frames else None,
                         (xs[lo:hi], ys[lo:hi], ts[lo:hi], ps[lo:hi], geometry))
                        for k, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]

    def _session(self, batches, record: bool):
        grid = set(self.seq.slice_times)
        session = sys.modules["evtrack.pipeline"].TrackSession(self.model, self.seq.queries)
        seen: set = set()
        samples, walls, failures = [], [], 0
        with sys.modules["evtrack.autodiff"].no_grad():
            for item in batches + [None]:  # None stands for the closing finish()
                t0 = time.perf_counter()
                try:
                    if item is None:
                        out = session.finish()
                    else:
                        out = session.advance(frame=item[0], events=item[1])
                except Exception as exc:  # a failed call is counted and the loop goes on
                    problems = [_error(exc)]
                else:
                    if item is not None:
                        walls.append(time.perf_counter() - t0)
                    samples.extend(out)
                    problems = check_new(out, seen, grid)
                    if item is None:
                        problems += check_complete(seen, self.seq)
                if record:
                    failures += not self.result.op(problems)
        return samples, walls, failures

    def warm_up(self):
        self._session(self.batches[:WARMUP_BATCHES], record=False)

    def unit(self):
        t0 = time.perf_counter()
        samples, walls, failures = self._session(self.batches, record=True)
        wall = time.perf_counter() - t0
        self.op_walls.append(walls)
        if not failures:
            self._succeeded(samples, wall)


class _Train(_Runner):
    """Unit and operation: one step of `training.train` after the warm-up steps."""

    def run(self):
        training = sys.modules["evtrack.training"]
        event_stream = sys.modules["evtrack.events"].EventStream
        data = [(s.frames, event_stream(*s.events), s.queries, s.gt) for s in self.sequences]
        slices_per_step = statistics.mean(len(s.slice_times) for s in self.sequences)
        cfg = training.TrainConfig(steps=10**9, warmup_steps=0, checkpoint_every=0, seed=self.seed)
        minimum = self.spec.min_units if self.tracer is None else max(4, self.spec.min_units)
        walls: list[float] = []
        self.op_walls.append(walls)
        losses = []
        state = {"last": time.perf_counter(), "start": 0.0, "undo": None, "root": None}

        def after_step(step, loss):
            now = time.perf_counter()
            traced = state["undo"] is not None
            if traced:
                self.tracer.end(state["root"])
                tracing.uninstall(state["undo"])
                state["undo"] = None
            self.result.op([] if math.isfinite(loss) else [f"step {step}: loss {loss}"])
            losses.append((step, loss))
            if step < WARMUP_STEPS:
                state["start"] = now
            else:
                wall = now - state["last"]
                self.unit_walls[traced].append(wall)
                if not traced:
                    walls.append(wall)
                self.slices += slices_per_step
                self.busy += wall
                measured = step + 1 - WARMUP_STEPS
                elapsed = now - state["start"]
                if measured >= minimum and elapsed + elapsed / measured > self.seconds:
                    return True
            if self.tracer is not None and step >= WARMUP_STEPS and (step - WARMUP_STEPS) % 2 == 0:
                state["undo"] = tracing.install(self.tracer, self.model)
                state["root"] = self.tracer.begin("unit")
            state["last"] = time.perf_counter()
            return False

        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.work_dir) as out_dir:
            try:
                training.train(self.model, data, cfg, out_dir, stop_fn=after_step)
            except Exception as exc:  # the failed step is counted
                if state["undo"] is not None:
                    self.tracer.end(state["root"])
                    tracing.uninstall(state["undo"])
                self.result.op([_error(exc)])
        self.digests.add(digest(losses[:3]))


RUNNERS = {"offline": _Offline, "stream": _Stream, "train": _Train}


def _quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _growth(walls) -> float:
    """Median latency of the later half of the operations over the earlier half."""
    k = max(1, len(walls) // 2)
    return statistics.median(walls[-k:]) / statistics.median(walls[:k])


def run_workload(spec: Spec, seed: int, seconds: float, trace: bool,
                 cfg_overrides: dict | None = None, work_dir: str = ".") -> Result:
    """Generate inputs, set up, run the timed loop and derive the metrics:
    end-to-end ones untraced, per-layer ones traced."""
    cfg_overrides = dict(cfg_overrides or {})
    from evtrack.pipeline import TrackerConfig

    sequences = make_inputs(spec, seed, TrackerConfig(**cfg_overrides).dt_track_us)
    setup_s, model = set_up(cfg_overrides, seed, sequences[0].queries)
    result = Result()
    tracer = tracing.Tracer() if trace else None
    runner = RUNNERS[spec.kind](spec, sequences, model, result, seconds, tracer, seed, work_dir)
    runner.run()

    if len(runner.digests) > 1:
        result.problems.append(f"repeated units gave different outputs: {sorted(runner.digests)}")
    result.notes["digest"] = ",".join(sorted(runner.digests))
    if runner.samples:
        result.notes["efa"] = expected_feature_age(runner.samples, runner.seq)
    latencies = [w for walls in runner.op_walls for w in walls]
    result.notes["samples"] = len(latencies)
    result.notes["units"] = len(runner.unit_walls[False]) + len(runner.unit_walls[True])
    if not runner.busy:
        result.problems.append("no unit of work succeeded")
        return result

    if not trace:
        result.metrics = {
            "setup_s": (setup_s, "s"),
            "slices_per_s": (runner.slices / runner.busy, "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p95_ms": (_quantile(latencies, 95) * 1e3, "ms"),
            "op_growth": (statistics.median(_growth(w) for w in runner.op_walls if w), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return result

    traced, untraced = runner.unit_walls[True], runner.unit_walls[False]
    overhead = statistics.mean(traced) / statistics.mean(untraced)
    result.metrics = tracing.layer_metrics(tracer, len(traced), statistics.mean(traced), overhead)
    gap = tracer.root_consistency("unit")
    result.notes["self_time_gap"] = gap
    if gap > 0.02:
        result.problems.append(f"span self times miss the root span by {gap:.1%}")
    unit_ms = result.metrics["trace.unit_ms"][0]
    result.notes["shares"] = [
        ("+".join(names), sum(result.metrics[n][0] for n in names) / unit_ms, rel, bound)
        for names, rel, bound in spec.shares
    ]
    return result
