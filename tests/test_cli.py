"""End-to-end command line flows on tmp directories."""

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
from hagcn.ingest import assemble_batch, load_cache
from hagcn.network import load_checkpoint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

TINY_CONFIG = {
    "model": {"num_classes": 3, "channels": [8, 8], "strides": [1, 1],
              "dropout": 0.0},
    "train": {"epochs": 1, "batch_size": 6, "lr": 0.05, "seed": 3,
              "max_frames": 12},
}


def run(argv):
    return cli.main(argv)


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


def test_prepare_missing_manifest_is_input_error(tmp_path, capsys):
    assert run(["prepare", "--manifest", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "c.hagd")]) == 1
    assert capsys.readouterr().err.startswith("error:")


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


def test_train_flags_override_config_file(tmp_path):
    cache = make_cache(tmp_path, "train.hagd")
    out = train_dir(tmp_path, cache, extra=["--epochs", "2", "--lr", "0.01"])
    with open(os.path.join(out, "config.json")) as f:
        effective = json.load(f)
    assert effective["train"]["epochs"] == 2
    assert effective["train"]["lr"] == 0.01
    with open(os.path.join(out, "history.csv")) as f:
        assert len(f.readlines()) == 3  # header + 2 epochs


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


def test_train_rejects_unknown_config_keys(tmp_path, capsys):
    cache = make_cache(tmp_path, "train.hagd")
    # unknown keys, then values of the wrong type
    for bad in ({"mode": {}},
                {"model": {"num_classes": 3, "optimizer": "adam"}},
                {"train": {"epochs": 1, "warmup": 5}},
                {"model": {"channels": 5}},
                {"train": {"epochs": "2"}},
                {"model": {"graph": {"num_joints": [1]}}},
                {"model": [1]},
                {"train": 5}):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        code = run(["train", "--train-cache", cache, "--config",
                    str(cfg_path), "--out", str(tmp_path / "run")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


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


def test_eval_mask_sample_bounds(trained, capsys):
    assert run(["eval", "--checkpoint", trained["ckpt"], "--cache",
                trained["val"], "--out", str(trained["dir"] / "r.json"),
                "--max-frames", "12", "--export-masks",
                str(trained["dir"] / "m"), "--mask-sample", "77"]) == 1
    assert "mask-sample" in capsys.readouterr().err


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
    p.write_text(json.dumps({"hello": 1}))
    assert run(["fuse", "--reports", str(p), "--out",
                str(tmp_path / "f.json")]) == 1
    assert "not an eval report" in capsys.readouterr().err


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


def test_console_script_installed():
    exe = shutil.which("hagcn")
    assert exe, "console script not on PATH"
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "prepare" in proc.stdout


def test_module_invocation():
    proc = subprocess.run([sys.executable, "-m", "hagcn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
