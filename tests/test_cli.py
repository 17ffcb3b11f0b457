"""End-to-end command line flows on tmp directories."""

import argparse
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

from hagcn import cli
from hagcn.evaluation import capture_masks, read_mask_csv, read_pgm
from hagcn.graph import build_graph
from hagcn.ingest import (MAX_FRAMES, SkeletonSequence, assemble_batch,
                          load_cache, save_cache)
from hagcn.network import load_checkpoint, save_checkpoint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
SRC = os.path.join(ROOT, "src")

TINY_CONFIG = {
    "model": {"num_classes": 3, "channels": [8, 8], "strides": [1, 1],
              "dropout": 0.0},
    "train": {"epochs": 1, "batch_size": 6, "lr": 0.05, "seed": 3,
              "max_frames": 12},
}


def run(argv):
    return cli.main(argv)


def src_env(env=None):
    """`env` (default: this process's environment) with `src/` first on
    PYTHONPATH, so a child Python imports this checkout's `hagcn`."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC,
                                                      env.get("PYTHONPATH")]))
    return env


def make_cache(tmp_path, name, per_class=4, seed=0, classes=3, frames=12):
    path = str(tmp_path / name)
    code = run(["prepare", "--synthetic", "--out", path,
                "--per-class", str(per_class), "--frames", str(frames),
                "--seed", str(seed), "--classes", str(classes)])
    assert code == 0
    return path


def train_dir(tmp_path, cache, val=None, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    out = str(tmp_path / "run")
    argv = ["train", "--train-cache", cache, "--config", str(cfg_path),
            "--out", out] + list(extra)
    if val:
        argv += ["--val-cache", val]
    assert run(argv) == 0
    return out


# -- prepare ----------------------------------------------------------------

def test_prepare_synthetic_writes_cache(tmp_path, capsys):
    path = make_cache(tmp_path, "train.hagd")
    assert "wrote 12 sequences" in capsys.readouterr().out
    seqs = load_cache(path)
    assert len(seqs) == 12
    assert sorted({s.label for s in seqs}) == [0, 1, 2]


def test_prepare_needs_exactly_one_source(tmp_path, capsys):
    out = str(tmp_path / "c.hagd")
    assert run(["prepare", "--out", out]) == 1
    assert run(["prepare", "--out", out, "--synthetic",
                "--manifest", "m.txt"]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2


@pytest.mark.parametrize("flag, value", [
    ("--per-class", "0"), ("--per-class", "-1"), ("--frames", "0")])
def test_prepare_rejects_empty_synthetic_draw(tmp_path, capsys, flag, value):
    out = tmp_path / "c.hagd"
    assert run(["prepare", "--synthetic", "--out", str(out),
                flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not out.exists()


@pytest.mark.parametrize("frames", [MAX_FRAMES + 1, 10**11])
def test_prepare_refuses_frames_past_the_bound(tmp_path, capsys, frames):
    # refused before the first template is drawn
    out = tmp_path / "c.hagd"
    assert run(["prepare", "--synthetic", "--out", str(out),
                "--frames", str(frames)]) == 1
    assert capsys.readouterr().err == (f"error: frames must be at most "
                                       f"{MAX_FRAMES}, got {frames}\n")
    assert not out.exists()


def test_prepare_has_no_noise_flag(tmp_path, capsys):
    # the synthetic noise is the constant hagcn.training.NOISE
    out = tmp_path / "c.hagd"
    assert run(["prepare", "--synthetic", "--out", str(out),
                "--noise", "0.1"]) == 1
    assert "--noise" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_from_manifest(tmp_path, capsys):
    manifest = tmp_path / "files.txt"
    skeleton = os.path.join(FIXTURES, "sample.skeleton")
    pose = os.path.join(FIXTURES, "sample_pose.json")
    manifest.write_text(f"# demo corpus\n{skeleton} 4\n{pose} 2\n")
    out = str(tmp_path / "c.hagd")
    assert run(["prepare", "--manifest", str(manifest), "--out", out]) == 0
    seqs = load_cache(out)
    # keypoint JSON carries label_index 7, which beats the manifest label
    assert [s.label for s in seqs] == [4, 7]


def test_prepare_refuses_coordinates_beyond_the_bound(tmp_path, capsys):
    skeleton = tmp_path / "far.skeleton"
    skeleton.write_text("1\n1\nmeta\n25\n" + "2e6 0 0\n" * 25)
    manifest = tmp_path / "files.txt"
    manifest.write_text(f"{skeleton} 0\n")
    out = tmp_path / "c.hagd"
    assert run(["prepare", "--manifest", str(manifest), "--out",
                str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "beyond 1e+06" in err, err
    assert not out.exists()


def test_prepare_missing_manifest_is_input_error(tmp_path, capsys):
    assert run(["prepare", "--manifest", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "c.hagd")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_prepare_rejects_mistyped_keypoint_json(tmp_path, capsys):
    pose = tmp_path / "bad.json"
    pose.write_text(json.dumps({"label_index": [1], "data": []}))
    manifest = tmp_path / "files.txt"
    manifest.write_text(f"{pose} 0\n")
    assert run(["prepare", "--manifest", str(manifest), "--out",
                str(tmp_path / "c.hagd")]) == 1
    assert "label_index" in capsys.readouterr().err


def test_prepare_rejects_label_beyond_64_bits(tmp_path, capsys):
    # the label comes from the manifest, or from a keypoint file's label_index
    pose = tmp_path / "pose.json"
    with open(os.path.join(FIXTURES, "sample_pose.json")) as f:
        obj = json.load(f)
    obj["label_index"] = 2**64
    pose.write_text(json.dumps(obj))
    skeleton = os.path.join(FIXTURES, "sample.skeleton")
    for line in (f"{skeleton} 99999999999999999999", f"{pose} 0"):
        manifest = tmp_path / "files.txt"
        manifest.write_text(line + "\n")
        out = tmp_path / "c.hagd"
        assert run(["prepare", "--manifest", str(manifest), "--out",
                    str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "64-bit" in err
        assert not out.exists()


# -- train ------------------------------------------------------------------

def test_train_writes_artifacts(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    val = make_cache(tmp_path, "val.hagd", per_class=2, seed=9)
    out = train_dir(tmp_path, cache, val=val)
    for name in ("config.json", "history.csv", "model.hagc"):
        assert os.path.exists(os.path.join(out, name)), name
    stdout = capsys.readouterr().out
    assert '"model"' in stdout and '"train"' in stdout  # effective config
    assert "epoch   0" in stdout
    with open(os.path.join(out, "config.json")) as f:
        effective = json.load(f)
    assert effective["train"]["epochs"] == 1
    assert effective["model"]["num_classes"] == 3
    assert effective["model"]["graph"]["num_joints"] == 25


def test_train_stream_flag_overrides_config_file(tmp_path):
    # one config file trains every stream
    cache = make_cache(tmp_path, "train.hagd")
    cfg = dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"], stream="joint"))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", out, "--stream", "bone"]) == 0
    with open(os.path.join(out, "config.json")) as f:
        effective = json.load(f)
    # the stream is overridden; every other value comes from the file
    assert ({k: effective["train"][k] for k in cfg["train"]}
            == dict(cfg["train"], stream="bone"))


def test_train_offers_only_the_stream_override():
    # seed, epochs, lr and batch_size come only from --config
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices["train"]._actions
             for s in a.option_strings} - {"-h", "--help"}
    assert flags == {"--train-cache", "--val-cache", "--config", "--out",
                     "--stream"}


def test_train_infers_num_classes_from_cache(tmp_path):
    cache = make_cache(tmp_path, "train.hagd", classes=5)
    cfg = {"model": {"channels": [8], "strides": [1], "dropout": 0.0},
           "train": {"epochs": 1, "batch_size": 10, "max_frames": 12}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = str(tmp_path / "run")
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", out]) == 0
    with open(os.path.join(out, "config.json")) as f:
        assert json.load(f)["model"]["num_classes"] == 5


def test_train_reports_unallocatable_label_space(tmp_path, capsys):
    # an inferred num_classes of 2**50 + 1 asks for a 64 PiB head
    cache = make_cache(tmp_path, "train.hagd")
    seqs = load_cache(cache)
    seqs[0].label = 2**50
    save_cache(cache, seqs)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {"channels": [8], "strides": [1]}}))
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not os.path.exists(tmp_path / "run")  # no stray config.json


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    ntu = build_graph("ntu25").to_dict()
    # unknown keys, then values of the wrong type or not finite
    for bad in ({"mode": {}},
                {"model": {"num_classes": 3, "optimizer": "adam"}},
                {"train": {"epochs": 1, "warmup": 5}},
                {"model": {"channels": 5}},
                {"train": {"epochs": "2"}},
                {"model": {"graph": {"num_joints": [1]}}},
                {"model": {"graph": "ntu24"}},
                {"model": {"graph": 5}},
                {"model": {"graph": None}},
                {"model": [1]},
                {"train": 5},
                {"train": {"epochs": 1.5}},
                {"train": {"batch_size": 4.0}},
                {"train": {"micro_batch": 2.5}},
                {"train": {"max_frames": 12.0}},
                {"train": {"seed": 1.5}},
                {"train": {"lr": True}},
                {"model": {"num_classes": 3.5}},
                {"model": {"extension_conv": "false"}},
                {"model": {"channels": [8.7, 8], "strides": [1, 1]}},
                {"model": {"num_classes": True}},
                {"model": {"graph": dict(ntu, extra_links="false")}},
                {"model": {"graph": dict(ntu, num_joints=25.9)}},
                {"model": {"graph": dict(ntu, edges=[[1.7, 0]])}},
                {"model": {"graph": dict(ntu, hub_joints=["3"])}},
                {"train": {"lr_factor": float("nan")}},
                {"train": {"lr": float("inf")}},
                {"model": {"dropout": float("-inf")}}):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        code = run(["train", "--train-cache", cache, "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1, bad
        assert "error:" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "run")


def test_train_refuses_max_frames_past_the_bound(tmp_path, capsys):
    # refused before any cache is read: the missing one is not reported
    cfg = dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"],
                                       max_frames=10**12))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["train", "--train-cache", str(tmp_path / "missing.hagd"),
                "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: max_frames must be at most "
                                       f"{MAX_FRAMES}, got {10**12}\n")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("momentum", 0.9),
                                        ("weight_decay", 1e-4),
                                        ("augment", "none")])
def test_train_rejects_fixed_recipe_keys(tmp_path, capsys, key, value):
    # a config.json written when these were settings must drop them
    cache = make_cache(tmp_path, "train.hagd")
    capsys.readouterr()
    cfg = dict(TINY_CONFIG, train=dict(TINY_CONFIG["train"], **{key: value}))
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (f"error: unknown training config "
                                       f"keys: ['{key}']\n")
    assert not os.path.exists(tmp_path / "run")


def test_train_on_the_openpose_skeleton(tmp_path):
    # the second built-in graph, by name, on a cache read from keypoint JSON
    manifest = tmp_path / "files.txt"
    manifest.write_text(os.path.join(FIXTURES, "sample_pose.json") + " 0\n")
    cache = str(tmp_path / "pose.hagd")
    assert run(["prepare", "--manifest", str(manifest), "--out", cache]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": {"graph": "openpose18", "channels": [8], "strides": [1]},
        "train": {"epochs": 1}}))
    out = tmp_path / "run"
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(out)]) == 0
    with open(out / "config.json") as f:
        graph = json.load(f)["model"]["graph"]
    assert graph["num_joints"] == 18 and graph["extra_links"] is True
    assert graph == json.loads(json.dumps(build_graph("openpose18").to_dict()))


def test_train_rejects_misspelt_graph_key(tmp_path, capsys):
    # "extralinks" must not train a graph with hub links quietly off
    cache = make_cache(tmp_path, "train.hagd")
    capsys.readouterr()
    graph = build_graph("ntu25").to_dict()
    graph["extralinks"] = graph.pop("extra_links")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"model": {"graph": graph}}))
    code = run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    assert "extralinks" in err[0]
    assert not os.path.exists(tmp_path / "run")


def test_train_rejects_malformed_json(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{not json")
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")]) == 1
    assert "JSON" in capsys.readouterr().err


def test_train_rejects_labels_beyond_classes(tmp_path, capsys):
    wide = make_cache(tmp_path, "wide.hagd", classes=5)
    narrow = make_cache(tmp_path, "narrow.hagd")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))  # num_classes 3 < labels
    # out-of-range labels in the training cache, then in the validation cache
    for train, val in ((wide, []), (narrow, ["--val-cache", wide])):
        assert run(["train", "--train-cache", train, "--config", str(cfg_path),
                    "--out", str(tmp_path / "run")] + val) == 1
        assert "labels outside" in capsys.readouterr().err


def test_train_refuses_an_empty_cache(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    empty = str(tmp_path / "empty.hagd")
    save_cache(empty, [])
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    # nothing to train on, then nothing to validate on (no `val nan` run)
    for train, val in ((empty, []), (cache, ["--val-cache", empty])):
        capsys.readouterr()
        assert run(["train", "--train-cache", train, "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")] + val) == 1
        assert capsys.readouterr().err == (f"error: {empty}: cache holds "
                                           f"no sequences\n")
        assert not os.path.exists(tmp_path / "run")


def cache_of_shape(tmp_path, name, joints, channels):
    """A cache of three 16-frame sequences labelled 0, 1, 2."""
    path = str(tmp_path / name)
    save_cache(path, [SkeletonSequence(np.ones((1, 16, joints, channels)),
                                       label=i) for i in range(3)])
    return path


def test_train_checks_cache_geometry_before_writing(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    keypoints = cache_of_shape(tmp_path, "kp.hagd", 18, 3)
    planar = cache_of_shape(tmp_path, "xy.hagd", 25, 2)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    # an 18-joint cache to train or validate an ntu25 model, and 2 channels
    for train, val, want in (
            (keypoints, [], f"{keypoints}[0]: 18 joints and 3 channels"),
            (cache, ["--val-cache", keypoints],
             f"{keypoints}[0]: 18 joints and 3 channels"),
            (cache, ["--val-cache", planar],
             f"{planar}[0]: 25 joints and 2 channels")):
        capsys.readouterr()
        assert run(["train", "--train-cache", train, "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")] + val) == 1
        err = capsys.readouterr().err
        assert err == f"error: {want}; the model takes 25 and 3\n", err
        assert not os.path.exists(tmp_path / "run")


def test_train_refuses_coordinates_beyond_the_bound(tmp_path, capsys):
    # at 1e200 the input batch norm's variance overflowed to inf: training
    # exited 0 with loss ln 2 and saved a checkpoint its loader refused
    cache = make_cache(tmp_path, "c.hagd", per_class=2, classes=2, frames=16)
    seqs = load_cache(cache)
    for seq in seqs:
        seq.coords[...] = 1e200
    save_cache(cache, seqs)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    capsys.readouterr()
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{cache}[0]" in err, err
    assert not os.path.exists(tmp_path / "run")


def test_train_honors_threads_env(tmp_path, monkeypatch):
    cache = make_cache(tmp_path, "train.hagd")
    monkeypatch.setenv("HAGCN_THREADS", "2")
    out = train_dir(tmp_path, cache)
    assert os.path.exists(os.path.join(out, "model.hagc"))


def test_train_rejects_bad_threads_env(tmp_path, monkeypatch, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    monkeypatch.setenv("HAGCN_THREADS", "many")
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY_CONFIG))
    assert run(["train", "--train-cache", cache, "--config", str(cfg_path),
                "--out", str(tmp_path / "run")]) == 1
    assert "HAGCN_THREADS" in capsys.readouterr().err


# -- eval / fuse / ablate ---------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("flow")
    cache = make_cache(tmp_path, "train.hagd")
    val = make_cache(tmp_path, "val.hagd", per_class=2, seed=9)
    out = train_dir(tmp_path, cache, val=val)
    return {"dir": tmp_path, "cache": cache, "val": val,
            "ckpt": os.path.join(out, "model.hagc")}


def test_eval_writes_report(trained, capsys):
    report_path = str(trained["dir"] / "report.json")
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", report_path,
                "--max-frames", "12"]) == 0
    assert "top1" in capsys.readouterr().out
    with open(report_path) as f:
        report = json.load(f)
    assert report["count"] == 6
    assert 0.0 <= report["top1"] <= 1.0
    assert report["top5"] == 1.0  # 3 classes, k truncated to class count
    assert len(report["scores"]) == 6
    assert len(report["labels"]) == 6
    assert report["stream"] == "joint"


def test_eval_disable_flag(trained):
    out = str(trained["dir"] / "r_rd.json")
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", out, "--disable", "rd",
                "--max-frames", "12"]) == 0
    with open(out) as f:
        assert json.load(f)["disable"] == "rd"


def test_eval_mask_export(trained):
    mask_dir = str(trained["dir"] / "masks")
    out = str(trained["dir"] / "r_masks.json")
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", out, "--max-frames", "12",
                "--export-masks", mask_dir, "--mask-block", "1",
                "--mask-sample", "2", "--disable", "ra"]) == 0
    files = sorted(os.listdir(mask_dir))
    assert files == ["mask_subset0.csv", "mask_subset0.pgm",
                     "mask_subset1.csv", "mask_subset1.pgm",
                     "mask_subset2.csv", "mask_subset2.pgm"]
    img = read_pgm(os.path.join(mask_dir, "mask_subset1.pgm"))
    assert img.shape == (25, 25)
    # the files hold the knocked-out model's masks, not the intact ones
    model, _, _ = load_checkpoint(trained["ckpt"])
    x, _ = assemble_batch([load_cache(trained["val"])[2]], model.config.graph,
                          max_frames=12)
    knocked = capture_masks(model, x, block=1, disable="ra")
    intact = capture_masks(model, x, block=1)
    for i, mask in enumerate(knocked):
        written = read_mask_csv(os.path.join(mask_dir,
                                             f"mask_subset{i}.csv"))
        assert written.shape == (25, 25)
        assert np.array_equal(written, mask)
        assert not np.array_equal(written, intact[i])


def test_eval_rejects_oversized_cache_header(trained, tmp_path, capsys):
    bad = tmp_path / "huge.hagd"
    bad.write_bytes(b"HAGD" + struct.pack("<Q", 1)
                    + struct.pack("<qQQQQ", 0, 1, 2**60, 25, 3))
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache", str(bad),
                "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "truncated" in err


@pytest.mark.parametrize("name", ["data_bn.gamma",
                                  "blocks.0.spatial.subsets.0.ra.gamma",
                                  "blocks.0.spatial.subsets.0.rd.w"])
def test_eval_refuses_a_checkpoint_that_overflows(trained, tmp_path, capsys,
                                                  monkeypatch, name):
    # finite, so the checkpoint loads, but too large to score; at 2 threads
    # the batches are scored on pool threads
    model, epoch, _ = load_checkpoint(trained["ckpt"])
    dict(model.named_params())[name].data.reshape(-1)[-1] = 1e200
    ckpt, out = str(tmp_path / "huge.hagc"), tmp_path / "r.json"
    save_checkpoint(ckpt, model, epoch=epoch)
    for threads in ("1", "2"):
        monkeypatch.setenv("HAGCN_THREADS", threads)
        assert run(["eval", "--checkpoint", ckpt, "--cache", trained["val"],
                    "--out", str(out), "--max-frames", "12",
                    "--batch-size", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scoring overflowed") and \
            err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "ablate"])
def test_scoring_reports_ignore_thread_count(trained, tmp_path, monkeypatch,
                                             verb):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HAGCN_THREADS", threads)
        out = tmp_path / f"{verb}{threads}.json"
        assert run([verb, "--checkpoint", trained["ckpt"], "--cache",
                    trained["val"], "--out", str(out), "--max-frames", "12",
                    "--batch-size", "2"]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_eval_mask_sample_bounds(trained, capsys):
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", str(trained["dir"] / "r.json"),
                "--max-frames", "12", "--export-masks",
                str(trained["dir"] / "m"), "--mask-sample", "77"]) == 1
    assert "mask-sample" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--mask-block", "2"),
                                        ("--mask-block", "-1"),
                                        ("--mask-sample", "6")])
def test_eval_checks_mask_flags_before_writing(trained, tmp_path, capsys,
                                               flag, value):
    report, masks = tmp_path / "r.json", tmp_path / "masks"
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", str(report), "--max-frames", "12",
                "--export-masks", str(masks), flag, value]) == 1
    assert flag in capsys.readouterr().err
    assert not report.exists() and not masks.exists()


@pytest.mark.parametrize("below", ["", "sub"])
def test_eval_refuses_a_file_as_mask_directory(trained, tmp_path, capsys,
                                               below):
    report, masks = tmp_path / "r.json", tmp_path / "masks"
    masks.write_text("not a directory")
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", str(report), "--max-frames", "12",
                "--export-masks", str(masks / below)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--export-masks" in err, err
    assert not report.exists() and masks.read_text() == "not a directory"


OUT_TARGETS = {
    # target -> (path under tmp_path, what the error line names)
    "directory": ("dir", "is a directory"),
    "under_a_file": ("file/r.json", "file is not a directory"),
    "missing_parent": ("none/r.json", "none does not exist"),
}


# train's --out is a directory, made with its missing parents
OUT_DIR_TARGETS = {
    "a_file": ("file", "file is not a directory"),
    "under_a_file": ("file/run", "file is not a directory"),
}


def refuses_out(tmp_path, capsys, argv, target, targets=OUT_TARGETS):
    """``argv`` with ``--out`` at an unwritable ``target`` exits 1 with one
    ``error: --out`` line; the inputs it names do not exist, so that line
    shows nothing was read first."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("kept")
    rel, why = targets[target]
    out = str(tmp_path / rel)
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {out}: ") and err.count("\n") == 1
    assert err.rstrip().endswith(why), err
    assert (tmp_path / "file").read_text() == "kept"
    assert os.listdir(tmp_path / "dir") == []


@pytest.mark.parametrize("target", sorted(OUT_TARGETS))
def test_eval_refuses_an_unwritable_out_before_loading(tmp_path, capsys,
                                                       target):
    refuses_out(tmp_path, capsys, [
        "eval", "--checkpoint", str(tmp_path / "no.hagc"), "--cache",
        str(tmp_path / "no.hagd"), "--export-masks", str(tmp_path / "m")],
        target)
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("target", sorted(OUT_TARGETS))
def test_ablate_refuses_an_unwritable_out_before_loading(tmp_path, capsys,
                                                         target):
    refuses_out(tmp_path, capsys, [
        "ablate", "--checkpoint", str(tmp_path / "no.hagc"), "--cache",
        str(tmp_path / "no.hagd")], target)


@pytest.mark.parametrize("target", sorted(OUT_TARGETS))
def test_fuse_refuses_an_unwritable_out_before_loading(tmp_path, capsys,
                                                       target):
    refuses_out(tmp_path, capsys, [
        "fuse", "--reports", str(tmp_path / "a.json"),
        str(tmp_path / "b.json")], target)


@pytest.mark.parametrize("target", sorted(OUT_TARGETS))
def test_prepare_refuses_an_unwritable_out_before_reading(tmp_path, capsys,
                                                          target):
    refuses_out(tmp_path, capsys, [
        "prepare", "--manifest", str(tmp_path / "no.txt")], target)


@pytest.mark.parametrize("target", sorted(OUT_DIR_TARGETS))
def test_train_refuses_an_unwritable_out_before_loading(tmp_path, capsys,
                                                        target):
    refuses_out(tmp_path, capsys, [
        "train", "--train-cache", str(tmp_path / "no.hagd"), "--config",
        str(tmp_path / "no.json")], target, targets=OUT_DIR_TARGETS)


def test_fuse_two_streams(trained, capsys):
    joint = str(trained["dir"] / "joint.json")
    bone = str(trained["dir"] / "bone.json")
    for stream, path in (("joint", joint), ("bone", bone)):
        assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                    trained["val"], "--out", path, "--stream", stream,
                    "--max-frames", "12"]) == 0
    fused = str(trained["dir"] / "fused.json")
    assert run(["fuse", "--reports", joint, bone, "--weights", "1.0", "0.5",
                "--out", fused]) == 0
    assert "fused top1" in capsys.readouterr().out
    with open(fused) as f:
        out = json.load(f)
    assert out["weights"] == [1.0, 0.5]
    with open(joint) as f:
        ja = np.array(json.load(f)["scores"])
    with open(bone) as f:
        ba = np.array(json.load(f)["scores"])
    np.testing.assert_allclose(np.array(out["scores"]), ja + 0.5 * ba,
                               atol=1e-12)


def test_fuse_rejects_label_mismatch(trained, tmp_path, capsys):
    joint = str(trained["dir"] / "joint.json")
    with open(joint) as f:
        report = json.load(f)
    report["labels"] = list(reversed(report["labels"]))
    other = tmp_path / "other.json"
    other.write_text(json.dumps(report))
    assert run(["fuse", "--reports", joint, str(other),
                "--out", str(tmp_path / "f.json")]) == 1
    assert "label order" in capsys.readouterr().err


def test_fuse_rejects_non_report_json(tmp_path, capsys):
    p = tmp_path / "nope.json"
    for doc, match in (({"hello": 1}, "not an eval report"),
                       (5, "not an eval report"),
                       (None, "not an eval report"),
                       ({"scores": [[0.5, 0.5]], "labels": ["a"]}, "labels"),
                       ({"scores": [[0.5, 0.5]], "labels": [True]}, "labels"),
                       ({"scores": [["x", 0.5]], "labels": [0]}, "scores"),
                       ({"scores": [[0.5], [0.5, 0.5]], "labels": [0, 1]},
                        "scores"),
                       ({"scores": [[float("nan"), 0.5]], "labels": [0]},
                        "non-finite"),
                       ({"scores": [[0.5, float("inf")]], "labels": [0]},
                        "non-finite")):
        p.write_text(json.dumps(doc))
        assert run(["fuse", "--reports", str(p), "--out",
                    str(tmp_path / "f.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}") and match in err, doc
    p.write_text(json.dumps({"scores": [[0.5, 0.5]], "labels": [0]}))
    for weights in (["nan", "1"], ["1", "inf"]):
        assert run(["fuse", "--reports", str(p), str(p), "--weights",
                    *weights, "--out", str(tmp_path / "f.json")]) == 1
        assert "--weights must be finite" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "f.json")


@pytest.mark.parametrize("verb", ["eval", "ablate"])
def test_scoring_names_a_joint_count_the_model_lacks(trained, tmp_path,
                                                     capsys, verb):
    # the check `train` makes, on an 18-joint cache and on a 2-channel one
    out = tmp_path / "r.json"
    for joints, channels in ((18, 3), (25, 2)):
        cache = cache_of_shape(tmp_path, f"{joints}x{channels}.hagd",
                               joints, channels)
        assert run([verb, "--checkpoint", trained["ckpt"], "--cache", cache,
                    "--out", str(out), "--max-frames", "12"]) == 1
        assert capsys.readouterr().err == (
            f"error: {cache}[0]: {joints} joints and {channels} channels; "
            f"the model takes 25 and 3\n")
        assert not out.exists()


@pytest.mark.parametrize("verb", ["eval", "ablate"])
@pytest.mark.parametrize("frames", ["-1", "0"])
def test_scoring_rejects_max_frames_below_one(trained, tmp_path, capsys,
                                              verb, frames):
    out, masks = tmp_path / "r.json", tmp_path / "masks"
    extra = ["--export-masks", str(masks)] if verb == "eval" else []
    assert run([verb, "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", str(out),
                "--max-frames", frames] + extra) == 1
    assert capsys.readouterr().err == (f"error: --max-frames must be at "
                                       f"least 1, got {frames}\n")
    assert not out.exists() and not masks.exists()


@pytest.mark.parametrize("verb", ["eval", "ablate"])
@pytest.mark.parametrize("frames", [MAX_FRAMES + 1, 10**12])
def test_scoring_refuses_max_frames_past_the_bound(tmp_path, capsys, verb,
                                                   frames):
    # checked by flag name before the checkpoint or cache is read
    out, masks = tmp_path / "r.json", tmp_path / "masks"
    extra = ["--export-masks", str(masks)] if verb == "eval" else []
    assert run([verb, "--checkpoint", str(tmp_path / "missing.hagc"),
                "--cache", str(tmp_path / "missing.hagd"), "--out", str(out),
                "--max-frames", str(frames)] + extra) == 1
    assert capsys.readouterr().err == (f"error: --max-frames must be at "
                                       f"most {MAX_FRAMES}, got {frames}\n")
    assert not out.exists() and not masks.exists()


@pytest.mark.parametrize("verb", ["eval", "ablate"])
@pytest.mark.parametrize("size", ["-2", "0"])
def test_scoring_rejects_batch_size_below_one(trained, tmp_path, capsys,
                                              verb, size):
    # checked by flag name before the checkpoint is read: a missing one is
    # not reported
    out = tmp_path / "r.json"
    assert run([verb, "--checkpoint", str(tmp_path / "missing.hagc"),
                "--cache", trained["val"], "--out", str(out),
                "--max-frames", "12", "--batch-size", size]) == 1
    assert capsys.readouterr().err == (f"error: --batch-size must be at "
                                       f"least 1, got {size}\n")
    assert not out.exists()


def test_ablate_reports_all_modes(trained, capsys):
    out = str(trained["dir"] / "ablation.json")
    assert run(["ablate", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", out, "--max-frames", "12"]) == 0
    stdout = capsys.readouterr().out
    assert "without rd" in stdout and "without ra" in stdout
    with open(out) as f:
        report = json.load(f)
    assert set(report) >= {"none", "rd", "ra", "stream", "count"}
    assert report["count"] == 6


# -- usage ------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["trian"]) == 1
    assert run(["eval", "--checkpoint", "x"]) == 1  # missing required args
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "prepare" in capsys.readouterr().out


def test_missing_checkpoint_is_input_error(tmp_path, capsys):
    assert run(["eval", "--checkpoint", str(tmp_path / "no.hagc"),
                "--cache", str(tmp_path / "no.hagd"),
                "--out", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")



def test_main_turns_off_numpy_huge_page_advice(tmp_path):
    # with the advice on, peak RSS follows the address-space layout
    core = getattr(np, "_core", None) or np.core
    set_advice = getattr(core.multiarray, "_set_madvise_hugepage", None)
    if set_advice is None:
        pytest.skip("this numpy has no huge-page advice switch")
    before = set_advice(True)
    try:
        assert run(["prepare", "--synthetic", "--per-class", "1",
                    "--out", str(tmp_path / "c.hagd")]) == 0
        assert set_advice(True) is False  # it returns the previous setting
    finally:
        set_advice(before)


def test_train_releases_the_kept_heap(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "release_heap", lambda: calls.append(1))
    cache = make_cache(tmp_path, "train.hagd")
    assert calls == []
    train_dir(tmp_path, cache)
    assert calls == [1]


HEAP_PROBE = """
import os
import numpy as np
from hagcn import cli

def resident_mib():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20

cli.keep_heap()
blocks = [np.ones(1 << 17) for _ in range(64)]  # 64 MiB of heap arrays
del blocks  # kept: the trim threshold is 1 GiB
before = resident_mib()
cli.release_heap()
print(before - resident_mib())
"""


def test_release_heap_returns_free_heap_pages():
    # a fresh process, so the heap holds no other test's free pages
    if (not hasattr(os, "confstr") or not os.confstr("CS_GNU_LIBC_VERSION")
            or not os.path.exists("/proc/self/statm")):
        pytest.skip("needs glibc and /proc")
    proc = subprocess.run([sys.executable, "-c", HEAP_PROBE],
                          capture_output=True, text=True, env=src_env(),
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip().splitlines()[-1]) > 32


BLAS_PROBE = """
import ctypes, json, sys
from hagcn import cli

def blas_threads():
    with open("/proc/self/maps") as f:
        libs = sorted({l.split()[-1] for l in f
                       if "openblas" in l.lower() and "/" in l})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                getattr(lib, sym).restype = ctypes.c_int
                return getattr(lib, sym)()
    return None

seen = {"before": blas_threads()}
spied = getattr(cli, sys.argv[1])

def spy(*args, **kwargs):
    seen["during"] = blas_threads()
    return spied(*args, **kwargs)

setattr(cli, sys.argv[1], spy)
seen["code"] = cli.main(sys.argv[2:])
seen["after"] = blas_threads()
print(json.dumps(seen))
"""

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def probe(spied, argv, **env):
    """`hagcn ARGV` in a child under BLAS_PROBE, which records the BLAS
    thread count before, during the library call `cli.<spied>` and after.
    The BLAS thread variables are unset, then `env` is added. Skips where
    OpenBLAS is absent or, with those variables unset, starts with one
    thread."""
    child = src_env({k: v for k, v in os.environ.items()
                     if k not in BLAS_VARS})
    child.update(env)
    proc = subprocess.run([sys.executable, "-c", BLAS_PROBE, spied, *argv],
                          capture_output=True, text=True, env=child,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    if seen["before"] is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    if seen["before"] == 1 and not set(env) & set(BLAS_VARS):
        pytest.skip("OpenBLAS starts with one thread on this host")
    assert seen["code"] == 0, proc.stderr
    return seen


def probe_train(tmp_path, cache, config, threads, out):
    """`hagcn train` under `probe` with HAGCN_THREADS set."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return probe("train", ["train", "--train-cache", cache, "--config",
                           str(cfg_path), "--out", out],
                 HAGCN_THREADS=threads)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_train_pins_blas_under_shard_threads(tmp_path, threads):
    cache = make_cache(tmp_path, "train.hagd")
    seen = probe_train(tmp_path, cache, TINY_CONFIG, threads,
                       str(tmp_path / "run"))
    # one BLAS thread while training at every HAGCN_THREADS, then restored
    assert seen["during"] == 1
    assert seen["after"] == seen["before"]


@pytest.mark.parametrize("verb, spied", [("eval", "score_dataset"),
                                         ("ablate", "ablation_report")])
def test_scoring_verbs_pin_blas(trained, tmp_path, verb, spied):
    seen = probe(spied, [verb, "--checkpoint", trained["ckpt"], "--cache",
                         trained["val"], "--out", str(tmp_path / "r.json"),
                         "--max-frames", "12"])
    # scored on one BLAS thread, as training validated, then restored
    assert seen["during"] == 1
    assert seen["after"] == seen["before"]


WIDE_CONFIG = {
    "model": {"num_classes": 8, "channels": [64, 64, 128],
              "strides": [1, 1, 2], "dropout": 0.0},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.05, "seed": 3,
              "max_frames": 32},
}


def test_train_bits_ignore_shard_thread_count(tmp_path):
    # At width 64 a GEMM's bits depend on the BLAS thread count, so this
    # fails if `train` leaves BLAS at its default for some HAGCN_THREADS.
    # Where OpenBLAS starts with one thread (one core) it cannot fail, and
    # it skips.
    cache = make_cache(tmp_path, "train.hagd", per_class=1, classes=8,
                       frames=32)
    blobs = []
    for threads in ("1", "2"):
        out = tmp_path / f"run{threads}"
        probe_train(tmp_path, cache, WIDE_CONFIG, threads, str(out))
        blobs.append((out / "model.hagc").read_bytes())
    assert blobs[0] == blobs[1]


def test_eval_bits_ignore_blas_threads(tmp_path):
    # At width 64 and 300 frames a GEMM's bits depend on the BLAS thread
    # count, so this fails if `eval` scores with BLAS at its default. Where
    # OpenBLAS starts with one thread (one core) it cannot fail, and it
    # skips.
    cache = make_cache(tmp_path, "train.hagd", per_class=1, classes=8,
                       frames=32)
    run_dir = tmp_path / "run"
    probe_train(tmp_path, cache, WIDE_CONFIG, "1", str(run_dir))
    argv = ["eval", "--checkpoint", str(run_dir / "model.hagc"),
            "--cache", cache, "--max-frames", "300"]
    reports = []
    for name, env in (("default", {}),
                      ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = tmp_path / f"{name}.json"
        probe("score_dataset", argv + ["--out", str(out)], **env)
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


# What the wrapper script that pip and setuptools write for an entry
# "module:attr" in [project.scripts] runs.
SCRIPT_WRAPPER = """\
import re
import sys
from {module} import {attr}
sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
sys.exit({attr}())
"""


def read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)


def test_console_script_installed():
    # the declared entry point, started as its installed wrapper would be;
    # an installed `hagcn` on PATH is run as well
    target = read_pyproject()["project"]["scripts"]["hagcn"]
    module, attr = target.split(":")
    wrapper = SCRIPT_WRAPPER.format(module=module, attr=attr)
    commands = [([sys.executable, "-c", wrapper, "--help"], src_env())]
    exe = shutil.which("hagcn")
    if exe:
        commands.append(([exe, "--help"], None))
    for argv, env in commands:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "prepare" in proc.stdout


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "hagcn.cli", "--help"],
                          capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
