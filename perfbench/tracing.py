"""Outside-in span tracing of the evtrack layers.

`install` replaces the public entry points of each layer with wrappers
that open a span around the original call; `uninstall` puts the
originals back. Nothing in the package knows about the wrappers, so an
untraced run executes exactly the package's own code.

A span is (name, start, end, parent). Spans stay in memory until the run
ends. A span's self time is its duration minus the durations of its
direct children; calls nest, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Op metrics named by the benchmark. Compute ops report floating-point
# work derived from shapes, data-movement ops report bytes written.
FLOP_OPS = {
    "conv2d": lambda args, out: 2 * out.size * args[1].shape[1] * args[1].shape[2] * args[1].shape[3],
    "linear": lambda args, out: 2 * out.size * args[0].shape[-1],
    "matmul": lambda args, out: 2 * out.size * args[0].shape[-1],
    "relu": lambda args, out: out.size,
    "bilinear_sample": lambda args, out: 8 * out.size,
    "layernorm": lambda args, out: 8 * out.size,
    "softmax_lastdim": lambda args, out: 5 * out.size,
}
BYTE_OPS = ("reshape", "concat", "stack", "getitem")

# Helpers in the ops module that are not operations of their own.
_NOT_OPS = {"as_tensor"}


class Tracer:
    """In-memory span recorder plus counters keyed by metric name."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else -1])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, fn, meter=None):
        """`fn` with a span around every call; `meter(args, kwargs, out)`
        yields (counter, amount) pairs after the span closes."""
        spans, open_, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, None, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if meter is not None:
                for key, amount in meter(args, kwargs, out):
                    counts[key] += amount
            return out

        traced.__wrapped__ = fn
        return traced

    def _child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if t1 is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def totals(self):
        """Per span name: (inclusive seconds, self seconds, calls)."""
        child = self._child_time()
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
        return incl, own, calls

    def root_consistency(self, root: str) -> float:
        """Largest relative gap, over spans named `root`, between the root's
        duration and the summed self times of every span under it."""
        child = self._child_time()
        root_of = [-1] * len(self.spans)
        subtree_self: dict[int, float] = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            root_of[i] = i if name == root else (root_of[parent] if parent >= 0 else -1)
            if root_of[i] >= 0:
                subtree_self[root_of[i]] += t1 - t0 - child[i]
        worst = 0.0
        for i, total in subtree_self.items():
            duration = self.spans[i][2] - self.spans[i][1]
            worst = max(worst, abs(total - duration) / max(duration, 1e-12))
        return worst


def _advance_meter(args, kwargs, out):
    frame = kwargs.get("frame", args[1] if len(args) > 1 else None)
    events = kwargs.get("events", args[2] if len(args) > 2 else None)
    yield "frames_in", int(frame is not None)
    if events is not None:  # an EventStream or an (xs, ys, ts, ps, geometry) tuple
        yield "events_in", len(events.ts if hasattr(events, "ts") else events[2])
    yield "slices_out", len({sample[1] for sample in out})


def _finish_meter(args, kwargs, out):
    yield "slices_out", len({sample[1] for sample in out})


def _stack_meter(args, kwargs, out):
    stream, t_start, t_end = args[0], args[1], args[2]
    lo = stream.ts.searchsorted(t_start, side="left")
    hi = stream.ts.searchsorted(t_end, side="right")
    yield "stacked_events", int(hi - lo)


def _op_meter(name):
    if name in FLOP_OPS:
        flops = FLOP_OPS[name]
        key = f"ops.{name}.flop"
        return lambda args, kwargs, out: ((key, flops(args, out.data)),)
    if name in BYTE_OPS:
        key = f"ops.{name}.bytes"
        return lambda args, kwargs, out: ((key, out.data.nbytes),)
    return None


def install(tracer: Tracer, model):
    """Wrap every traced entry point; returns the list of undo records."""
    ops = sys.modules["evtrack.autodiff.ops"]
    pipeline = sys.modules["evtrack.pipeline"]
    refiner = sys.modules["evtrack.refiner"]
    training = sys.modules["evtrack.training"]

    targets = [
        (pipeline.TrackSession, "advance", "pipeline.advance", _advance_meter),
        (pipeline.TrackSession, "finish", "pipeline.finish", _finish_meter),
        (pipeline, "build_event_stack", "events.stack", _stack_meter),
        (model, "frame_encoder", "encoders.frame", None),
        (model, "event_encoder", "encoders.event", None),
        (model, "fusion", "encoders.fusion", None),
        (pipeline, "build_pyramid", "correlation.pyramid", None),
        (refiner, "correlate_batch", "correlation.batch", None),
        (refiner, "make_tokens", "refiner.tokens", None),
        (refiner.WindowRefiner, "refine", "refiner.refine", None),
        (training, "sequence_loss", "training.forward", None),
        (training, "backward", "autodiff.backward", None),
        (training, "adamw_step", "autodiff.adamw", None),
    ]
    for name, fn in list(vars(ops).items()):
        if (callable(fn) and not name.startswith("_") and name not in _NOT_OPS
                and getattr(fn, "__module__", None) == ops.__name__):
            targets.append((ops, name, f"ops.{name}", _op_meter(name)))

    undo = []
    for owner, attr, span_name, meter in targets:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(span_name, original, meter))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, units: int, unit_s: float, overhead: float) -> dict:
    """Per-layer metrics per traced unit of work: {name: (value, unit)}."""
    incl, own, calls = tracer.totals()
    counts = tracer.counts
    per = 1.0 / max(units, 1)

    def ms(value):
        return (value * 1e3 * per, "ms")

    def count(value):
        return (value * per, "count")

    frames_in = counts["frames_in"]
    out = {
        "pipeline.self_ms": ms(own["pipeline.advance"] + own["pipeline.finish"]),
        "pipeline.advance_calls": count(calls["pipeline.advance"]),
        "pipeline.slices": count(counts["slices_out"]),
        "pipeline.windows": count(calls["refiner.refine"]),
        "pipeline.events_in": count(counts["events_in"]),
        "events.stack_ms": ms(incl["events.stack"]),
        "events.stack_calls": count(calls["events.stack"]),
        "events.stacked_events": count(counts["stacked_events"]),
        "encoders.frame_ms": ms(incl["encoders.frame"]),
        "encoders.frame_calls": count(calls["encoders.frame"]),
        "encoders.frame_calls_per_frame": (
            calls["encoders.frame"] / frames_in if frames_in else 0.0, "ratio"),
        "encoders.event_ms": ms(incl["encoders.event"]),
        "encoders.event_calls": count(calls["encoders.event"]),
        "encoders.fusion_ms": ms(incl["encoders.fusion"]),
        "correlation.pyramid_ms": ms(incl["correlation.pyramid"]),
        "correlation.batch_ms": ms(incl["correlation.batch"]),
        "correlation.batch_calls": count(calls["correlation.batch"]),
        "refiner.refine_ms": ms(incl["refiner.refine"]),
        "refiner.refine_calls": count(calls["refiner.refine"]),
        "refiner.tokens_ms": ms(incl["refiner.tokens"]),
        "refiner.self_ms": ms(incl["refiner.refine"] - incl["correlation.batch"]
                              - incl["refiner.tokens"]),
    }
    for op in list(FLOP_OPS) + list(BYTE_OPS):
        out[f"ops.{op}.self_ms"] = ms(own[f"ops.{op}"])
        out[f"ops.{op}.calls"] = count(calls[f"ops.{op}"])
        if op in FLOP_OPS:
            out[f"ops.{op}.gflop"] = (counts[f"ops.{op}.flop"] * 1e-9 * per, "GFLOP")
        else:
            out[f"ops.{op}.gb"] = (counts[f"ops.{op}.bytes"] * 1e-9 * per, "GB")
    out.update({
        "autodiff.backward_ms": ms(incl["autodiff.backward"]),
        "autodiff.adamw_ms": ms(incl["autodiff.adamw"]),
        "training.forward_ms": ms(incl["training.forward"]),
        "training.steps": count(calls["training.forward"]),
        "trace.units": (float(units), "count"),
        "trace.unit_ms": (unit_s * 1e3, "ms"),
        "trace.overhead": (overhead, "ratio"),
        "trace.spans": count(len(tracer.spans)),
    })
    return out
