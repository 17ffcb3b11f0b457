"""tools/train_digest.py --against, with its git and digest runs stubbed."""

import importlib.util
import io
import os
import subprocess
import tarfile
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "train_digest", os.path.join(ROOT, "tools", "train_digest.py"))
td = importlib.util.module_from_spec(spec)
spec.loader.exec_module(td)


def empty_src_archive() -> bytes:
    """What ``git archive REV src`` prints, for a src/ with no files."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        tar.addfile(tarfile.TarInfo("src/"), None)
    return buf.getvalue()


def stub_runs(monkeypatch, digests):
    """Stub subprocess.run: git archive, then one digest line per side."""
    calls = []
    outputs = iter(f"model desk\n{d}  peak_rss_mb 100.0\n" for d in digests)

    def fake_run(argv, **kwargs):
        calls.append(argv)
        if argv[0] == "git":
            return SimpleNamespace(stdout=empty_src_archive())
        return SimpleNamespace(stdout=next(outputs))

    monkeypatch.setattr(subprocess, "run", fake_run)
    return calls


@pytest.mark.parametrize("digests, code, verdict", [
    (("aa", "aa"), 0, "digests match"), (("aa", "bb"), 1, "digests differ")])
def test_compare_exits_by_digest(monkeypatch, capsys, digests, code, verdict):
    calls = stub_runs(monkeypatch, digests)
    args = td.parse_args(["--epochs", "1", "--against", "HEAD~1"])
    assert td.compare(args) == code
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == verdict
    assert "note:" not in out
    assert calls[0][:3] == ["git", "-C", td.ROOT]
    assert len(calls) == 3 and all("--src" in c for c in calls[1:])


def test_compare_notes_that_threaded_rss_follows_the_load(monkeypatch,
                                                          capsys):
    stub_runs(monkeypatch, ("aa", "aa"))
    args = td.parse_args(["--epochs", "1", "--threads", "2",
                          "--micro-batch", "4", "--against", "HEAD~1"])
    assert td.compare(args) == 0
    out = capsys.readouterr().out
    assert ("note: peak_rss_mb at --threads 2 depends on the machine's load; "
            "compare it at --threads 1 on an idle machine") in out
