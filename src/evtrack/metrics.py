"""Tracking quality metrics.

Feature age: the fraction of a point's ground-truth lifespan tracked
within a pixel-error threshold before the first failure; each ground-truth
slice counts as one unit of lifespan, and a slice with no prediction, or
a non-finite one, counts as lost. Once the error exceeds the threshold
the track is failed for good (no re-acquisition credit).

Expected feature age averages ages over ALL initialized queries, with
never-tracked queries contributing zero; the plain sequence average (FA)
runs over surviving tracks only (age > 0).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MetricError


@dataclass
class GtTrack:
    """Ground-truth samples (t_us, x, y) covering every slice in the lifespan."""

    id: int
    samples: list[tuple[int, float, float]] = field(default_factory=list)


def feature_age(pred_samples, gt: GtTrack, delta_px: float) -> float:
    """Tracked-lifespan fraction before the first error beyond delta_px.

    `pred_samples` is a list of (t_us, x, y); timestamps are matched
    exactly against the ground-truth slice times.
    """
    if not gt.samples:
        raise MetricError(f"gt track {gt.id} has zero lifespan")
    if not (np.isfinite(delta_px) and delta_px > 0):
        raise MetricError(f"delta_px must be finite and positive, got {delta_px}")
    pred_at = {t: (x, y) for t, x, y in pred_samples}
    good = 0
    for t, gx, gy in gt.samples:
        if t not in pred_at:
            break
        px, py = pred_at[t]
        if not np.hypot(px - gx, py - gy) <= delta_px:  # NaN fails too
            break
        good += 1
    return good / len(gt.samples)


def expected_feature_age(ages) -> float:
    """Mean age over all initialized queries; a lost query's age is 0."""
    ages = list(ages)
    if not ages:
        raise MetricError("expected_feature_age over an empty query set")
    return float(np.mean(ages))


@dataclass
class MetricReport:
    sequence: str
    delta_px: float
    per_track: list[dict]
    fa_avg: float
    efa_avg: float

    def to_json(self) -> str:
        payload = {
            "sequence": self.sequence,
            "delta_px": self.delta_px,
            "per_track": self.per_track,
            "fa_avg": self.fa_avg,
            "efa_avg": self.efa_avg,
        }
        return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def evaluate_tracks(pred: dict[int, list], gt_tracks: list[GtTrack], delta_px: float,
                    sequence: str = "") -> MetricReport:
    """Per-track ages plus sequence FA/EFA averages.

    FA averages over tracks that survived at least one slice; EFA averages
    over all ground-truth tracks with lost ones as zero, so EFA <= FA.
    """
    if not gt_tracks:
        raise MetricError("no ground-truth tracks to evaluate")
    per_track = []
    ages = []
    for gt in gt_tracks:
        age = feature_age(pred.get(gt.id, []), gt, delta_px)
        ages.append(age)
        per_track.append({"id": gt.id, "age": age, "tracked": age > 0.0})
    survivors = [a for a in ages if a > 0.0]
    fa_avg = float(np.mean(survivors)) if survivors else 0.0
    efa_avg = expected_feature_age(ages)
    return MetricReport(sequence, delta_px, per_track, fa_avg, efa_avg)
