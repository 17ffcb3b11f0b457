"""Command-line entry point: prepare, train, eval, fuse, ablate.

Exit codes: 0 success, 1 bad input or configuration, 2 runtime failure.
Errors print a single ``error: ...`` line on stderr. Worker threads for
gradient shards come from the ``HAGCN_THREADS`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .attention import DISABLE_CHOICES
from .errors import ConfigError, FormatError
from .evaluation import (ablation_report, export_masks, fuse_scores,
                         score_dataset, topk_accuracy)
from .graph import BUILTIN_GRAPHS, GraphSpec, build_graph
from .ingest import (STREAMS, assemble_batch, load_cache,
                     prepare_from_manifest, save_cache)
from .network import Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import (TrainConfig, make_synthetic, thread_count, train,
                       write_history)


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON ({e})")


def _resolve_graph(value, extra_links: bool = True) -> GraphSpec:
    if isinstance(value, str):
        if value not in BUILTIN_GRAPHS:
            raise ConfigError(f"unknown graph {value!r}; builtins: "
                              f"{sorted(BUILTIN_GRAPHS)}")
        return build_graph(value, extra_links=extra_links)
    if isinstance(value, dict):
        return GraphSpec.from_dict(value)
    raise ConfigError("graph must be a builtin name or a graph dict")


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args) -> int:
    if bool(args.manifest) == bool(args.synthetic):
        raise ConfigError("pass exactly one of --manifest or --synthetic")
    if args.manifest:
        count = prepare_from_manifest(args.manifest, args.out)
    else:
        seqs = make_synthetic(args.per_class, frames=args.frames,
                              seed=args.seed, classes=args.classes,
                              noise=args.noise)
        save_cache(args.out, seqs)
        count = len(seqs)
    print(f"wrote {count} sequences to {args.out}")
    return 0


def _merge_train_overrides(train_d: dict, args) -> dict:
    overrides = {"seed": args.seed, "stream": args.stream,
                 "epochs": args.epochs, "lr": args.lr,
                 "batch_size": args.batch_size}
    for key, value in overrides.items():
        if value is not None:
            train_d[key] = value
    return train_d


def cmd_train(args) -> int:
    file_cfg = _load_json(args.config) if args.config else {}
    if not isinstance(file_cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(file_cfg) - {"model", "train"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    if not all(isinstance(v, dict) for v in file_cfg.values()):
        raise ConfigError("config sections must be JSON objects")

    train_seqs = load_cache(args.train_cache)
    if not train_seqs:
        raise ConfigError(f"{args.train_cache}: cache holds no sequences")
    val_seqs = load_cache(args.val_cache) if args.val_cache else None

    model_d = dict(file_cfg.get("model", {}))
    if "num_classes" not in model_d:
        # infer the label space from the training cache
        model_d["num_classes"] = max(s.label for s in train_seqs) + 1
    model_d["graph"] = _resolve_graph(model_d.get("graph", "ntu25")).to_dict()
    model_cfg = ModelConfig.from_dict(model_d)

    train_cfg = TrainConfig.from_dict(
        _merge_train_overrides(dict(file_cfg.get("train", {})), args))

    bad = [s.label for s in train_seqs + (val_seqs or [])
           if not 0 <= s.label < model_cfg.num_classes]
    if bad:
        raise ConfigError(f"cache labels outside [0, "
                          f"{model_cfg.num_classes}): {sorted(set(bad))[:5]}")

    os.makedirs(args.out, exist_ok=True)
    effective = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    with open(os.path.join(args.out, "config.json"), "w") as f:
        json.dump(effective, f, indent=2, sort_keys=True)
    print(json.dumps(effective, indent=2, sort_keys=True))

    threads = thread_count()
    model = Model(model_cfg, seed=train_cfg.seed)

    def report(epoch, _model, _opt, row):
        print(f"epoch {epoch:3d}  lr {row['lr']:.4g}  "
              f"loss {row['train_loss']:.4f}  "
              f"train {row['train_acc']:.3f}  val {row['val_acc']:.3f}")

    history, opt = train(model, train_seqs, val_seqs=val_seqs,
                         config=train_cfg, threads=threads, callback=report)
    write_history(os.path.join(args.out, "history.csv"), history)
    save_checkpoint(os.path.join(args.out, "model.hagc"), model,
                    epoch=train_cfg.epochs, optimizer=opt)
    print(f"saved {os.path.join(args.out, 'model.hagc')}")
    return 0


def cmd_eval(args) -> int:
    model, epoch, _ = load_checkpoint(args.checkpoint)
    seqs = load_cache(args.cache)
    scores, labels = score_dataset(model, seqs, stream=args.stream,
                                   batch_size=args.batch_size,
                                   max_frames=args.max_frames,
                                   disable=args.disable)
    k5 = min(5, model.config.num_classes)
    report = {
        "checkpoint": args.checkpoint,
        "epoch": epoch,
        "stream": args.stream,
        "disable": args.disable,
        "count": int(len(labels)),
        "top1": topk_accuracy(scores, labels, 1),
        "top5": topk_accuracy(scores, labels, k5),
        "scores": scores.tolist(),
        "labels": [int(v) for v in labels],
    }
    with open(args.out, "w") as f:
        json.dump(report, f)
    print(f"top1 {report['top1']:.4f}  top5 {report['top5']:.4f}  "
          f"({report['count']} sequences)")
    if args.export_masks:
        if not 0 <= args.mask_sample < len(seqs):
            raise ConfigError(f"--mask-sample must be in [0, {len(seqs)})")
        os.makedirs(args.export_masks, exist_ok=True)
        x, _ = assemble_batch([seqs[args.mask_sample]], model.config.graph,
                              stream=args.stream, max_frames=args.max_frames)
        paths = export_masks(model, x, args.export_masks,
                             block=args.mask_block, sample=0,
                             disable=args.disable)
        print(f"wrote {len(paths)} mask files to {args.export_masks}")
    return 0


def cmd_fuse(args) -> int:
    reports = [_load_json(p) for p in args.reports]
    for p, r in zip(args.reports, reports):
        if "scores" not in r or "labels" not in r:
            raise ConfigError(f"{p}: not an eval report (scores/labels "
                              f"missing)")
    labels = reports[0]["labels"]
    for p, r in zip(args.reports[1:], reports[1:]):
        if r["labels"] != labels:
            raise ConfigError(f"{p}: label order differs from "
                              f"{args.reports[0]}")
    fused = fuse_scores([np.array(r["scores"]) for r in reports],
                        weights=args.weights)
    labels_arr = np.array(labels)
    out = {
        "inputs": list(args.reports),
        "weights": args.weights if args.weights else [1.0] * len(reports),
        "count": int(len(labels)),
        "top1": topk_accuracy(fused, labels_arr, 1),
        "scores": fused.tolist(),
        "labels": labels,
    }
    with open(args.out, "w") as f:
        json.dump(out, f)
    print(f"fused top1 {out['top1']:.4f}  ({len(reports)} streams)")
    return 0


def cmd_ablate(args) -> int:
    model, _, _ = load_checkpoint(args.checkpoint)
    seqs = load_cache(args.cache)
    report = ablation_report(model, seqs, stream=args.stream,
                             batch_size=args.batch_size,
                             max_frames=args.max_frames)
    report["stream"] = args.stream
    report["count"] = len(seqs)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    print(f"intact top1 {report['none']['top1']:.4f}")
    for mode in ("rd", "ra"):
        r = report[mode]
        print(f"without {mode}: top1 {r['top1']:.4f}  "
              f"flipped {r['flipped']}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hagcn",
        description="Skeleton action recognition with hybrid graph "
                    "attention.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="build a sequence cache")
    p.add_argument("--out", required=True, help="cache file to write")
    p.add_argument("--manifest", help="manifest of skeleton files")
    p.add_argument("--synthetic", action="store_true",
                   help="generate template motions instead")
    p.add_argument("--per-class", type=int, default=50)
    p.add_argument("--frames", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--noise", type=float, default=0.02)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a cache")
    p.add_argument("--train-cache", required=True)
    p.add_argument("--val-cache")
    p.add_argument("--config", help="JSON with 'model' and 'train' sections")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--stream", choices=STREAMS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a cache with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True, help="report JSON to write")
    p.add_argument("--stream", choices=STREAMS, default="joint")
    p.add_argument("--disable", choices=DISABLE_CHOICES, default="none")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-frames", type=int, default=300)
    p.add_argument("--export-masks", metavar="DIR",
                   help="also write attention masks for one sequence")
    p.add_argument("--mask-block", type=int, default=0)
    p.add_argument("--mask-sample", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("fuse", help="merge eval reports into one score")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--weights", nargs="+", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("ablate", help="knock out attention branches")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stream", choices=STREAMS, default="joint")
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--max-frames", type=int, default=300)
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except (ConfigError, FormatError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
