"""Command-line entry point: prepare, train, eval, fuse, ablate.

Exit codes: 0 success, 1 bad input or configuration, 2 runtime failure.
Errors print a single ``error: ...`` line on stderr. Worker threads for
gradient shards come from the ``HAGCN_THREADS`` environment variable. Every
verb runs OpenBLAS on one thread at every ``HAGCN_THREADS``, so trained bits
and scores do not depend on it or on the core count, and ``eval`` and
``ablate`` score a model as training validated it. ``main`` first sets the
allocator to keep freed memory in the process and numpy to ask for no huge
pages (see ``keep_heap``).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
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


def _resolve_graph(value) -> GraphSpec:
    if isinstance(value, str):
        if value not in BUILTIN_GRAPHS:
            raise ConfigError(f"unknown graph {value!r}; builtins: "
                              f"{sorted(BUILTIN_GRAPHS)}")
        return build_graph(value)
    if isinstance(value, dict):
        return GraphSpec.from_dict(value)
    raise ConfigError("graph must be a builtin name or a graph dict")


# ---------------------------------------------------------------------------
# process set-up

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def keep_heap() -> None:
    """Let glibc keep freed activation memory for the next step.

    By default glibc serves arrays over 128 KiB with fresh mmaps and returns
    freed memory to the OS, so every training step faults its activations in
    again. Arrays up to 32 MiB (glibc's ceiling) now come from the heap, and
    up to 1 GiB of free heap is kept. Both are needed: a high trim threshold
    alone pins the mmap threshold at 128 KiB. Results do not change. Not on
    glibc the allocator is left alone; the library never calls this, so
    programs that import hagcn keep their own allocator settings.

    numpy also stops advising transparent huge pages for its arrays, as
    ``NUMPY_MADVISE_HUGEPAGE=0`` would at import. With that advice a kept
    heap array is backed by whole 2 MiB pages wherever its range covers
    one, so peak RSS followed the address-space layout the kernel drew: on
    2 vCPUs, desk_eval's moved between 150 and 179 MB from run to run.
    """
    core = getattr(np, "_core", None) or np.core  # numpy 2 renamed core
    set_advice = getattr(core.multiarray, "_set_madvise_hugepage", None)
    if set_advice is not None:
        set_advice(False)
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


@functools.cache
def _openblas_thread_fns():
    """(get, set) thread-count functions of the OpenBLAS in this process.

    Found through the libraries mapped into the process and their
    ``*openblas_get_num_threads*`` symbols; None when there is no OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower() and "/" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_",
                         "openblas_get_num_threads"):
            get = getattr(lib, get_name, None)
            put = getattr(lib, get_name.replace("_get_", "_set_"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def _single_thread_blas():
    """Run OpenBLAS on one thread, then restore its count. A GEMM's bits
    depend on its BLAS thread count at NTU widths, and shard threads that
    each start BLAS threads would oversubscribe the cores."""
    fns = _openblas_thread_fns()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


# ---------------------------------------------------------------------------
# subcommands


def cmd_prepare(args) -> int:
    if bool(args.manifest) == bool(args.synthetic):
        raise ConfigError("pass exactly one of --manifest or --synthetic")
    if args.manifest:
        count = prepare_from_manifest(args.manifest, args.out)
    else:
        seqs = make_synthetic(args.per_class, frames=args.frames,
                              seed=args.seed, classes=args.classes)
        save_cache(args.out, seqs)
        count = len(seqs)
    print(f"wrote {count} sequences to {args.out}")
    return 0


def _check_geometry(config: ModelConfig, seqs) -> None:
    """Every sequence has the joint and channel counts the model takes."""
    takes = (config.graph.num_joints, config.in_channels)
    for s in seqs:
        if s.coords.shape[2:] != takes:
            raise ConfigError(f"{s.source_id}: {s.coords.shape[2]} joints and "
                              f"{s.coords.shape[3]} channels; the model takes "
                              f"{takes[0]} and {takes[1]}")


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
    val_seqs = load_cache(args.val_cache) if args.val_cache else []
    for path, seqs in ((args.train_cache, train_seqs),
                       (args.val_cache, val_seqs)):
        if path and not seqs:
            raise ConfigError(f"{path}: cache holds no sequences")

    model_d = dict(file_cfg.get("model", {}))
    if "num_classes" not in model_d:
        # infer the label space from the training cache
        model_d["num_classes"] = max(s.label for s in train_seqs) + 1
    model_d["graph"] = _resolve_graph(model_d.get("graph", "ntu25")).to_dict()
    model_cfg = ModelConfig.from_dict(model_d)

    train_cfg = TrainConfig.from_dict(
        _merge_train_overrides(dict(file_cfg.get("train", {})), args))

    bad = [s.label for s in train_seqs + val_seqs
           if not 0 <= s.label < model_cfg.num_classes]
    if bad:
        raise ConfigError(f"cache labels outside [0, "
                          f"{model_cfg.num_classes}): {sorted(set(bad))[:5]}")
    _check_geometry(model_cfg, train_seqs + val_seqs)

    # build the model before touching --out: a failed build leaves nothing
    threads = thread_count()
    model = Model(model_cfg, seed=train_cfg.seed)
    os.makedirs(args.out, exist_ok=True)
    effective = {"model": model_cfg.to_dict(), "train": train_cfg.to_dict()}
    with open(os.path.join(args.out, "config.json"), "w") as f:
        json.dump(effective, f, indent=2, sort_keys=True)
    print(json.dumps(effective, indent=2, sort_keys=True))

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


def _scoring_inputs(args):
    """(model, epoch, sequences) for ``eval`` and ``ablate``, checked
    before anything is scored or written."""
    if args.max_frames < 1:
        raise ConfigError(f"--max-frames must be at least 1, "
                          f"got {args.max_frames}")
    model, epoch, _ = load_checkpoint(args.checkpoint)
    seqs = load_cache(args.cache)
    _check_geometry(model.config, seqs)
    return model, epoch, seqs


def cmd_eval(args) -> int:
    model, epoch, seqs = _scoring_inputs(args)
    if args.export_masks:
        # checked before anything is scored or written
        if not 0 <= args.mask_block < len(model.blocks):
            raise ConfigError(
                f"--mask-block must be in [0, {len(model.blocks)})")
        if not 0 <= args.mask_sample < len(seqs):
            raise ConfigError(f"--mask-sample must be in [0, {len(seqs)})")
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
    mats = []
    for p, r in zip(args.reports, reports):
        if not isinstance(r, dict) or "scores" not in r or "labels" not in r:
            raise ConfigError(f"{p}: not an eval report (scores/labels "
                              f"missing)")
        if (not isinstance(r["labels"], list)
                or any(type(v) is not int for v in r["labels"])):
            raise ConfigError(f"{p}: labels must be a list of integers")
        try:
            mat = np.array(r["scores"], dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigError(f"{p}: scores must be a matrix of "
                              f"numbers") from None
        if not np.isfinite(mat).all():
            raise ConfigError(f"{p}: scores hold non-finite values")
        mats.append(mat)
    labels = reports[0]["labels"]
    for p, r in zip(args.reports[1:], reports[1:]):
        if r["labels"] != labels:
            raise ConfigError(f"{p}: label order differs from "
                              f"{args.reports[0]}")
    if args.weights and not np.isfinite(args.weights).all():
        raise ConfigError(f"--weights must be finite, got {args.weights}")
    fused = fuse_scores(mats, weights=args.weights)
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
    model, _, seqs = _scoring_inputs(args)
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

    # eval and ablate score alike, so ablate's intact row is eval's report
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--checkpoint", required=True)
    scoring.add_argument("--cache", required=True)
    scoring.add_argument("--out", required=True, help="report JSON to write")
    scoring.add_argument("--stream", choices=STREAMS, default="joint")
    scoring.add_argument("--batch-size", type=int, default=32)
    scoring.add_argument("--max-frames", type=int, default=300)

    p = sub.add_parser("eval", parents=[scoring],
                       help="score a cache with a checkpoint")
    p.add_argument("--disable", choices=DISABLE_CHOICES, default="none")
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

    p = sub.add_parser("ablate", parents=[scoring],
                       help="knock out attention branches")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    keep_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        with _single_thread_blas():
            return args.func(args)
    except (ConfigError, FormatError, ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
