#!/usr/bin/env python3
"""Print a SHA-256 digest of training state after K epochs.

``--model desk`` (the default) trains the desk stack (channels 8, 8, 16,
16; strides 1, 1, 2, 1) on 50 synthetic 64-frame sequences per class in
batches of 16. ``--model wide`` trains channels 64, 64, 128 with strides 1,
1, 2 on 2 synthetic 32-frame sequences per class in batches of 8, so the
GEMMs have the NTU model's widths, whose bits can move where the desk
widths' do not. Both run with lr 0.05; desk has no dropout, as perfbench's
desk_train and the release gate, and wide has the NTU default 0.5, so its
digest also covers the dropout draw of every shard's rng. The tool then
hashes every parameter, buffer and SGD velocity array by name.
``--stream`` picks the input stream (default ``joint``); only the derived
streams run the bone and motion transforms. Two checkouts whose arithmetic
is bit-identical print the same digest:

    python3 tools/train_digest.py --epochs 3
    python3 tools/train_digest.py --epochs 3 --model wide
    python3 tools/train_digest.py --epochs 3 --src ../other-checkout/src

With ``--against REV`` the tool exports ``src/`` of git revision REV to a
temporary directory, runs the digest for REV and for ``--src`` in fresh
processes with the same arguments, prints both and exits 1 if they differ
(and only then):

    python3 tools/train_digest.py --epochs 3 --against HEAD~1
    python3 tools/train_digest.py --epochs 3 --threads 2 --micro-batch 4 --against HEAD~1
    python3 tools/train_digest.py --epochs 3 --stream bone_motion --against HEAD~1
    python3 tools/train_digest.py --epochs 3 --model wide --against HEAD~1

BLAS is pinned to one thread so that only the shard threads vary. Each
digest line ends with the peak resident set size of the process that trained
(``ru_maxrss``, read as KiB as Linux reports it), so one ``--against`` run
shows both bit-identity and the memory change. Compare that RSS at
``--threads 1`` on an idle machine: with more threads it depends on how far
the shards' graphs overlap in time, and so on the load on the machine, and
``--against`` says so under the digests.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import resource
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# model -> (channels, strides, train sequences per class, frames, batch size,
#           dropout)
MODELS = {
    "desk": ((8, 8, 16, 16), (1, 1, 2, 1), 50, 64, 16, 0.0),
    "wide": ((64, 64, 128), (1, 1, 2), 2, 32, 8, 0.5),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--threads", type=int, default=1,
                   help="shard worker threads")
    p.add_argument("--micro-batch", type=int, default=0,
                   help="shard size (0 = whole batch)")
    p.add_argument("--model", default="desk", choices=sorted(MODELS),
                   help="stack to train (wide has NTU GEMM widths)")
    p.add_argument("--stream", default="joint",
                   choices=("joint", "bone", "joint_motion", "bone_motion"),
                   help="input stream to train on")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the hagcn package to test")
    p.add_argument("--against", metavar="REV",
                   help="also digest src/ of this git revision and exit 1 "
                        "if the two digests differ")
    return p.parse_args(argv)


def compare(args) -> int:
    """Digest ``args.src`` and ``args.against``'s src/ in fresh processes."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", args.against,
                              "src"], check=True, stdout=subprocess.PIPE).stdout
    base = [sys.executable, os.path.abspath(__file__), "--epochs",
            str(args.epochs), "--threads", str(args.threads),
            "--micro-batch", str(args.micro_batch), "--model", args.model,
            "--stream", args.stream, "--src"]
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        digests = []
        for label, src in ((args.against, os.path.join(tmp, "src")),
                           (args.src, args.src)):
            out = subprocess.run(base + [os.path.abspath(src)], check=True,
                                 stdout=subprocess.PIPE, text=True).stdout
            digests.append(out.splitlines()[-1].split()[0])
            print(f"{label}: {out.strip()}", flush=True)
    if args.threads > 1:
        print(f"note: peak_rss_mb at --threads {args.threads} depends on the "
              f"machine's load; compare it at --threads 1 on an idle machine")
    if digests[0] != digests[1]:
        print("digests differ")
        return 1
    print("digests match")
    return 0


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
    if args.against:
        return compare(args)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"
    sys.path.insert(0, os.path.abspath(args.src))
    from hagcn.graph import build_graph
    from hagcn.network import Model, ModelConfig
    from hagcn.training import TrainConfig, make_synthetic, train

    channels, strides, per_class, frames, batch_size, dropout = \
        MODELS[args.model]
    train_seqs = make_synthetic(per_class, frames=frames, seed=0)
    cfg = ModelConfig(num_classes=8, graph=build_graph("ntu25"),
                      channels=channels, strides=strides, dropout=dropout)
    model = Model(cfg, seed=0)
    tcfg = TrainConfig(epochs=args.epochs, batch_size=batch_size, lr=0.05,
                       milestones=(10,), seed=0, stream=args.stream,
                       max_frames=64, micro_batch=args.micro_batch)
    history, opt = train(model, train_seqs, None, tcfg, threads=args.threads)
    print(f"model {args.model}  epochs {args.epochs}  threads {args.threads}  "
          f"micro_batch {args.micro_batch}  stream {args.stream}  "
          f"final loss {history[-1]['train_loss']!r}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{digest(model, opt)}  peak_rss_mb {peak_mb:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
