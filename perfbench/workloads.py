"""The benchmark workloads: set-up, one measured iteration and output checks.

Every command goes through ``hagcn.cli.main`` in-process, exactly as a user
would type it. A workload's inputs are synthetic caches built from the
workload seed in set-up; the program only ever sees those files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import traceback
from time import perf_counter

import numpy as np

from hagcn.ingest import load_cache
from hagcn.network import load_checkpoint

DESK_MODEL = {"channels": [8, 8, 16, 16], "strides": [1, 1, 2, 1],
              "dropout": 0.0}
DESK_PARAMS = 5_338        # desk stack with 8 classes
NTU_PARAMS = 1_422_544     # default NTU stack with 60 classes
FRAMES = 64
VAL_SEED_OFFSET = 10_000
# The workload seed draws the synthetic data. Model init, shuffling and
# dropout use this fixed training seed, so final_loss moves with the
# arithmetic and not with the luck of one initialisation.
TRAIN_SEED = 0


def digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Checks:
    """Pass/fail tally of output checks; each failure names what broke."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    def expect(self, ok, what) -> bool:
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return bool(ok)


class Env:
    """Working directory, seed and CLI access shared by one benchmark run."""

    def __init__(self, cli, work, seed, checks):
        self.cli_module = cli
        self.work = work
        self.seed = seed
        self.checks = checks
        self.commands = 0

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def cli(self, *argv) -> float:
        """Run one hagcn command; returns its wall time in seconds."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli_module.main(argv)
            except Exception:
                # a crash is a failed operation, not the end of the run
                traceback.print_exc(file=err)
                code = "with a traceback"
        wall = perf_counter() - t0
        self.commands += 1
        self.checks.expect(code == 0, f"hagcn {argv[0]} exited {code}: "
                                      f"{err.getvalue().strip()[-300:]}")
        return wall

    def write_json(self, name, obj) -> None:
        with open(self.path(name), "w") as f:
            json.dump(obj, f)

    def prepare(self, out, per_class, seed) -> None:
        self.cli("prepare", "--synthetic", "--per-class", per_class,
                 "--frames", FRAMES, "--seed", seed, "--out", self.path(out))


class OpResult:
    """What one measured iteration produced."""

    def __init__(self, wall, seqs, outputs, loss, steps=0):
        self.wall = wall
        self.seqs = seqs
        self.outputs = outputs  # name -> sha256 of the file, for repeat checks
        self.loss = loss
        self.steps = steps


def read_history(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def check_checkpoint(env, path, params):
    """The saved model reloads with the expected parameter count."""
    model, _, _ = load_checkpoint(path)
    env.checks.expect(model.param_count() == params,
                      f"{path}: {model.param_count()} params, want {params}")
    return model


class TrainWorkload:
    """``hagcn train`` over a synthetic cache, timed per optimizer step."""

    kind = "train"

    def __init__(self, name, shards, model, train, per_class,
                 val_per_class, params):
        self.name = name
        self.shards = shards
        self.model = model
        self.train = train
        self.per_class = per_class
        self.val_per_class = val_per_class
        self.params = params

    @property
    def train_seqs(self):
        return 8 * self.per_class

    @property
    def steps_per_op(self):
        per_epoch = math.ceil(self.train_seqs / self.train["batch_size"])
        return per_epoch * self.train["epochs"]

    def setup(self, env) -> dict:
        env.write_json("config.json", {"model": self.model,
                                       "train": dict(self.train, seed=TRAIN_SEED)})
        env.prepare("train.hagd", self.per_class, env.seed)
        files = ["train.hagd"]
        if self.val_per_class:
            env.prepare("val.hagd", self.val_per_class,
                        env.seed + VAL_SEED_OFFSET)
            files.append("val.hagd")
        return {f: digest(env.path(f)) for f in files}

    def check_setup(self, env) -> None:
        pass

    def op(self, env) -> float:
        """One measured iteration; returns its wall time."""
        shutil.rmtree(env.path("run"), ignore_errors=True)
        argv = ["train", "--train-cache", env.path("train.hagd"),
                "--config", env.path("config.json"), "--out", env.path("run")]
        if self.val_per_class:
            argv += ["--val-cache", env.path("val.hagd")]
        return env.cli(*argv)

    def result(self, env, wall) -> OpResult:
        """Check what the last iteration wrote."""
        outputs = {}
        loss = float("nan")
        hist_path = env.path("run", "history.csv")
        model_path = env.path("run", "model.hagc")
        if os.path.exists(hist_path) and os.path.exists(model_path):
            rows = read_history(hist_path)
            losses = [float(r["train_loss"]) for r in rows]
            env.checks.expect(len(rows) == self.train["epochs"],
                              f"history has {len(rows)} epochs")
            env.checks.expect(all(math.isfinite(v) for v in losses),
                              f"non-finite train loss in {losses}")
            loss = losses[-1] if losses else loss
            check_checkpoint(env, model_path, self.params)
            outputs = {"history.csv": digest(hist_path),
                       "model.hagc": digest(model_path)}
        else:
            env.checks.expect(False, "train wrote no history or checkpoint")
        return OpResult(wall, self.train_seqs * self.train["epochs"], outputs,
                        loss, steps=self.steps_per_op)


class EvalWorkload:
    """Forward-only scoring: eval two streams, fuse them, ablate the joint
    model. The checkpoints it scores are trained briefly in set-up."""

    kind = "eval"
    name = "desk_eval"
    shards = 1
    val_per_class = 20        # 160 sequences, scored at the default batch 32
    passes = 5                # eval joint, eval bone, ablate x3

    def setup(self, env) -> dict:
        env.prepare("val.hagd", self.val_per_class, env.seed + VAL_SEED_OFFSET)
        env.prepare("train.hagd", 2, env.seed)
        env.write_json("config.json", {"model": DESK_MODEL, "train": {
            "epochs": 1, "batch_size": 8, "lr": 0.05, "milestones": [10],
            "seed": TRAIN_SEED, "max_frames": FRAMES}})
        for stream in ("joint", "bone"):
            env.cli("train", "--train-cache", env.path("train.hagd"),
                    "--config", env.path("config.json"), "--stream", stream,
                    "--out", env.path(stream))
        files = ["val.hagd", "joint/model.hagc", "bone/model.hagc"]
        return {f: digest(env.path(f)) for f in files if os.path.exists(env.path(f))}

    def check_setup(self, env) -> None:
        for stream in ("joint", "bone"):
            path = env.path(stream, "model.hagc")
            if not env.checks.expect(os.path.exists(path), f"no {path}"):
                continue
            model = check_checkpoint(env, path, DESK_PARAMS)
            # an untrained checkpoint has alpha == 0, which a skip-when-zero
            # shortcut could exploit
            alphas = [float(p.data) for n, p in model.named_params()
                      if n.endswith(".alpha")]
            env.checks.expect(alphas and all(a != 0.0 for a in alphas),
                              f"{stream} checkpoint has zero alpha: {alphas}")
        self.labels = [s.label for s in load_cache(env.path("val.hagd"))]

    reports = ("joint.json", "bone.json", "fused.json", "ablate.json")

    def op(self, env) -> float:
        for name in self.reports:
            if os.path.exists(env.path(name)):
                os.remove(env.path(name))
        common = ["--cache", env.path("val.hagd"), "--max-frames", FRAMES]
        wall = 0.0
        for stream in ("joint", "bone"):
            wall += env.cli("eval", "--checkpoint", env.path(stream, "model.hagc"),
                            "--stream", stream, "--out", env.path(f"{stream}.json"),
                            *common)
        wall += env.cli("fuse", "--reports", env.path("joint.json"),
                        env.path("bone.json"), "--weights", 1, 1,
                        "--out", env.path("fused.json"))
        wall += env.cli("ablate", "--checkpoint", env.path("joint", "model.hagc"),
                        "--out", env.path("ablate.json"), *common)
        return wall

    def result(self, env, wall) -> OpResult:
        names = self.reports
        if not all(os.path.exists(env.path(n)) for n in names):
            env.checks.expect(False, "eval, fuse or ablate wrote no report")
            return OpResult(wall, self.passes * len(self.labels), {}, float("nan"))
        loss = self.check_reports(env)
        return OpResult(wall, self.passes * len(self.labels),
                        {n: digest(env.path(n)) for n in names}, loss)

    def check_reports(self, env) -> float:
        """Check every report; returns the joint stream's mean NLL."""
        c = env.checks
        reports = {}
        for name in ("joint", "bone", "fused", "ablate"):
            with open(env.path(f"{name}.json")) as f:
                reports[name] = json.load(f)
        n = len(self.labels)
        labels = np.array(self.labels)
        for name in ("joint", "bone", "fused"):
            r = reports[name]
            scores = np.array(r["scores"])
            c.expect(r["count"] == n and r["labels"] == self.labels,
                     f"{name}: labels differ from the cache")
            c.expect(r["top1"] == float((np.argmax(scores, axis=1) == labels).mean()),
                     f"{name}: top1 does not recompute from scores")
        for name in ("joint", "bone"):
            rows = np.array(reports[name]["scores"]).sum(axis=1)
            c.expect(np.all(np.abs(rows - 1.0) <= 1e-12),
                     f"{name}: probability rows do not sum to 1")
        joint = np.array(reports["joint"]["scores"])
        bone = np.array(reports["bone"]["scores"])
        c.expect(np.array_equal(np.array(reports["fused"]["scores"]), joint + bone),
                 "fused scores are not joint + bone")
        ab = reports["ablate"]
        c.expect(ab["none"]["top1"] == reports["joint"]["top1"] and ab["count"] == n,
                 "ablate intact top1 differs from the joint eval")
        for mode in ("rd", "ra"):
            c.expect(isinstance(ab[mode]["flipped"], int)
                     and 0 <= ab[mode]["flipped"] <= n
                     and 0.0 <= ab[mode]["top1"] <= 1.0,
                     f"ablate {mode}: bad knockout entry {ab[mode]}")
        return float(-np.mean(np.log(joint[np.arange(n), labels])))


WORKLOADS = {
    "desk_train": TrainWorkload(
        "desk_train", shards=1, model=DESK_MODEL,
        train={"epochs": 2, "batch_size": 16, "lr": 0.05, "milestones": [10],
               "max_frames": FRAMES},
        per_class=6, val_per_class=5, params=DESK_PARAMS),
    "ntu_train": TrainWorkload(
        "ntu_train", shards=2, model={"num_classes": 60},
        train={"epochs": 2, "batch_size": 4, "micro_batch": 2, "lr": 0.01,
               "max_frames": FRAMES},
        per_class=1, val_per_class=0, params=NTU_PARAMS),
    "desk_eval": EvalWorkload(),
}
