#!/usr/bin/env python3
"""Print a SHA-256 digest of desk-scale training state after K epochs.

Trains the desk stack (channels 8, 8, 16, 16; strides 1, 1, 2, 1; no
dropout) on ``synthetic_split(50, 20)`` with lr 0.05, then hashes every
parameter, buffer and SGD velocity array by name. Two checkouts whose
arithmetic is bit-identical print the same digest:

    python3 tools/train_digest.py --epochs 3
    python3 tools/train_digest.py --epochs 3 --threads 2 --micro-batch 4
    python3 tools/train_digest.py --epochs 3 --src ../other-checkout/src

BLAS is pinned to one thread so that only the shard threads vary.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--threads", type=int, default=1,
                   help="shard worker threads")
    p.add_argument("--micro-batch", type=int, default=0,
                   help="shard size (0 = whole batch)")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the hagcn package to test")
    return p.parse_args(argv)


def digest(model, opt) -> str:
    h = hashlib.sha256()
    named = [(n, p.data) for n, p in model.named_params()]
    named += list(model.named_buffers())
    named += opt.state_tensors()
    for name, arr in named:
        h.update(name.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from hagcn.graph import build_graph
    from hagcn.network import Model, ModelConfig
    from hagcn.training import TrainConfig, synthetic_split, train

    train_seqs, _ = synthetic_split(50, 20, frames=64, seed=0)
    cfg = ModelConfig(num_classes=8, graph=build_graph("ntu25"),
                      channels=(8, 8, 16, 16), strides=(1, 1, 2, 1),
                      dropout=0.0)
    model = Model(cfg, seed=0)
    tcfg = TrainConfig(epochs=args.epochs, batch_size=16, lr=0.05,
                       milestones=(10,), seed=0, max_frames=64,
                       micro_batch=args.micro_batch)
    history, opt = train(model, train_seqs, None, tcfg, threads=args.threads)
    print(f"epochs {args.epochs}  threads {args.threads}  micro_batch "
          f"{args.micro_batch}  final loss {history[-1]['train_loss']!r}")
    print(digest(model, opt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
