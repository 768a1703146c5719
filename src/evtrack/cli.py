"""Command-line surface: gen-synth, train, track, eval, plot.

Every command exits nonzero with a single-line diagnostic on error and
prints one machine-parsable "<cmd> ok key=value ..." line on success.
Config resolution: --config file, then repeated --set key=value overrides.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .autodiff import load_weights
from .config import RunConfig, load_config
from .errors import ConfigError, EvtrackError
from .metrics import GtTrack, evaluate_tracks
from .pipeline import TrackerModel, load_queries_csv, load_tracks_csv, run_offline, save_tracks_csv
from .plotting import plot_sequence
from .synth import generate_dataset, load_sequence
from .training import check_trained_config, train


def _parse_sets(pairs) -> dict:
    overrides = {}
    for item in pairs or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, val = item.split("=", 1)
        overrides[key.strip()] = val.strip()
    return overrides


def _config(args, extra: dict | None = None) -> RunConfig:
    overrides = _parse_sets(getattr(args, "set", None))
    if extra:
        for k, v in extra.items():
            overrides.setdefault(k, v)
    return load_config(getattr(args, "config", None), overrides)


def _sequence_dirs(data_dir: str) -> list[str]:
    if os.path.exists(os.path.join(data_dir, "manifest.json")):
        return [data_dir]
    dirs = sorted(glob.glob(os.path.join(data_dir, "seq_*")))
    if not dirs:
        raise ConfigError(f"no sequences under {data_dir}")
    return dirs


def cmd_gen_synth(args) -> str:
    # a flag that is given beats the config file; --set beats both
    extra = {k: str(v) for k, v in (("scenes", args.scenes), ("seed", args.seed)) if v is not None}
    if args.size is not None:
        size = args.size.lower().split("x")
        if len(size) != 2:
            raise ConfigError(f"--size expects WxH, got {args.size!r}")
        extra.update(synth_width=size[0], synth_height=size[1])
    if args.translate_only:
        extra["translate_only"] = "true"
    cfg = _config(args, extra)
    generate_dataset(args.out, cfg)
    return f"gen-synth ok scenes={cfg.scenes} seed={cfg.train.seed} out={args.out}"


def _load_training_data(data_dir: str):
    sequences = []
    manifests = []
    for seq_dir in _sequence_dirs(data_dir):
        manifest, frames, events, gt, queries = load_sequence(seq_dir)
        sequences.append((frames, events, queries, gt))
        manifests.append(manifest)
    return sequences, manifests


def cmd_train(args) -> str:
    if not os.path.isdir(args.data):
        raise ConfigError(f"data directory not found: {args.data}")
    sequences, manifests = _load_training_data(args.data)
    extra = {"dt_track_us": str(manifests[0]["dt_track_us"])}
    if args.steps is not None:
        extra["steps"] = str(args.steps)
    cfg = _config(args, extra)
    model = TrackerModel(cfg.tracker, seed=cfg.train.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    history = train(model, sequences, cfg.train, out_dir, resume=args.resume,
                    weights_path=args.out)
    final = history[-1][1] if history else float("nan")
    return (
        f"train ok steps={history[-1][0] + 1 if history else 0} final_loss={final:.6f} "
        f"weights={args.out}"
    )


def cmd_track(args) -> str:
    manifest_path = os.path.join(args.data, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{args.data} is not a sequence directory (no manifest.json)")
    manifest, frames, events, _, _ = load_sequence(args.data)
    cfg = _config(args, {"dt_track_us": str(manifest["dt_track_us"])})
    queries = load_queries_csv(args.queries)
    model = TrackerModel(cfg.tracker, seed=cfg.train.seed)
    check_trained_config(cfg.tracker, load_weights(model.store, args.weights), args.weights)
    tracks, _ = run_offline(model, frames, events, queries)
    save_tracks_csv(tracks, args.out)
    samples = sum(len(t.samples) for t in tracks)
    return f"track ok tracks={len(tracks)} samples={samples} out={args.out}"


def _load_gt_dir(gt_dir: str) -> list[GtTrack]:
    path = os.path.join(gt_dir, "gt_tracks.csv") if os.path.isdir(gt_dir) else gt_dir
    if not os.path.exists(path):
        raise ConfigError(f"ground truth not found: {path}")
    by_id = load_tracks_csv(path)
    return [GtTrack(tid, samples) for tid, samples in sorted(by_id.items())]


def cmd_eval(args) -> str:
    pred = load_tracks_csv(args.pred)
    gt_tracks = _load_gt_dir(args.gt)
    report = evaluate_tracks(pred, gt_tracks, delta_px=args.delta,
                             sequence=os.path.basename(args.gt.rstrip("/")))
    if args.out:
        with open(args.out, "w") as f:
            f.write(report.to_json())
    else:
        sys.stdout.write(report.to_json())
    return (
        f"eval ok tracks={len(gt_tracks)} delta={args.delta:g} "
        f"fa_avg={report.fa_avg:.6f} efa_avg={report.efa_avg:.6f}"
    )


def cmd_plot(args) -> str:
    manifest_path = os.path.join(args.data, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ConfigError(f"{args.data} is not a sequence directory (no manifest.json)")
    _, frames, _, _, _ = load_sequence(args.data)
    pred = load_tracks_csv(args.pred)
    gt = None
    if args.gt:
        gt = {g.id: g.samples for g in _load_gt_dir(args.gt)}
    paths = plot_sequence(frames, pred, gt, args.out)
    return f"plot ok frames={len(paths)} out={args.out}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evtrack",
                                     description="frame+event any-point tracking")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen-synth", help="write a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="default: the config's seed")
    p.add_argument("--scenes", type=int, default=None, help="default: the config's scenes")
    p.add_argument("--size", default=None, help="WxH; default: synth_width x synth_height")
    p.add_argument("--translate-only", action="store_true")
    common(p)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="weight file to write")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("track", help="track queries through one sequence")
    p.add_argument("--data", required=True, help="sequence directory")
    p.add_argument("--weights", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="feature-age metrics for a track file")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True, help="sequence dir or gt csv")
    p.add_argument("--delta", type=float, default=5.0)
    p.add_argument("--out", default=None, help="write the report JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="overlay tracks on frames as PNGs")
    p.add_argument("--data", required=True, help="sequence directory")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        print(args.func(args))
        return 0
    except EvtrackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
