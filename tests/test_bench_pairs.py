import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)

END_TO_END = [{"name": "step_s_p50", "better": "lower", "bound": 0.25},
              {"name": "seqs_per_s", "better": "higher", "bound": 0.25},
              {"name": "final_loss", "better": "lower", "bound": 0.1}]


def result(sha, step, seqs, loss=0.5, failed=0):
    """A perfbench result file's fields that the aggregation reads."""
    return {"correct": not failed, "attempted": 10, "failed": failed,
            "machine": {"nproc": 2, "src_sha256": sha, "git_commit": None},
            "metrics": {"step_s_p50": {"value": step},
                        "seqs_per_s": {"value": seqs},
                        "final_loss": {"value": loss}}}


def canned(change_loss=0.5):
    steps = [(1.0, 0.8), (1.2, 0.9), (0.9, 1.0), (1.1, 0.7)]
    return [{"parent": result("aa", p, 1 / p),
             "change": result("bb", c, 1 / c, loss=change_loss)}
            for p, c in steps]


def test_medians_iqrs_and_wins_per_side():
    s = bp.summarize(canned(), END_TO_END)
    step = s["metrics"]["step_s_p50"]
    assert step["parent"]["median"] == pytest.approx(1.05)
    assert step["change"]["median"] == pytest.approx(0.85)
    # inclusive quartiles of 0.9, 1.0, 1.1, 1.2
    assert step["parent"]["iqr"] == pytest.approx(0.15)
    assert (step["parent"]["wins"], step["change"]["wins"]) == (1, 3)
    assert step["relative_change"] == pytest.approx(0.85 / 1.05 - 1)
    # higher is better for throughput: the same pairs, the same winners
    seqs = s["metrics"]["seqs_per_s"]
    assert (seqs["parent"]["wins"], seqs["change"]["wins"]) == (1, 3)
    assert seqs["change"]["values"] == [1 / 0.8, 1 / 0.9, 1.0, 1 / 0.7]
    assert step["bound"] == 0.25 and seqs["better"] == "higher"


def test_ties_win_for_neither_side():
    s = bp.summarize(canned(), END_TO_END)
    loss = s["metrics"]["final_loss"]
    assert loss["parent"]["wins"] == loss["change"]["wins"] == 0
    assert loss["relative_change"] == 0.0 and loss["parent"]["iqr"] == 0.0


def test_final_loss_must_match_bit_for_bit():
    assert bp.summarize(canned(), END_TO_END)["final_loss_bitwise_equal"]
    near = bp.summarize(canned(change_loss=0.5 + 2**-53), END_TO_END)
    assert not near["final_loss_bitwise_equal"]


def test_records_sources_operations_and_machine():
    pairs = canned()
    pairs[2]["change"] = result("bb", 1.0, 1.0, failed=3)
    s = bp.summarize(pairs, END_TO_END)
    assert s["pairs"] == 4
    assert s["src_sha256"] == {"parent": "aa", "change": "bb"}
    assert s["attempted"] == {"parent": 40, "change": 40}
    assert s["failed"] == {"parent": 0, "change": 3} and not s["correct"]
    assert s["machine"] == {"nproc": 2}


def test_summary_is_json_and_prints(capsys):
    s = bp.summarize(canned(), END_TO_END)
    assert json.loads(json.dumps(s)) == s
    bp.print_summary("desk_train", s)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("desk_train: 4 pairs")
    assert len(lines) == 2 + len(END_TO_END)


def test_rejects_zero_pairs(capsys):
    with pytest.raises(SystemExit):
        bp.parse_args(["--against", "HEAD", "--workload", "desk_eval",
                       "--pairs", "0", "--record", "x.json"])
    assert "--pairs" in capsys.readouterr().err


def record(rel=0.01, wins=(3, 7), **medians):
    """A record file holding one workload of 10 pairs whose change-side
    medians are ``medians``; in the file's own pairs each metric moved by
    ``rel`` and the (parent, change) sides won ``wins``."""
    return {"workloads": {"desk_eval": {"pairs": 10, "metrics": {
        name: {"relative_change": rel, "parent": {"wins": wins[0]},
               "change": {"median": v, "wins": wins[1]}}
        for name, v in medians.items()}}}}


def test_compare_flags_moves_past_the_bound_the_worse_way():
    a = record(step_s_p50=1.0, seqs_per_s=100.0, final_loss=0.5)
    b = record(step_s_p50=1.3, seqs_per_s=130.0, final_loss=0.5)
    rows = {r[1]: r for r in bp.compare(a, b, END_TO_END)}
    assert list(rows) == ["step_s_p50", "seqs_per_s", "final_loss"]
    # slower by 30%, past the 0.25 bound: flagged
    assert rows["step_s_p50"][2:6] == (1.0, 1.3, pytest.approx(0.3), True)
    # 30% more throughput is better, however far it moves
    assert rows["seqs_per_s"][4:6] == (pytest.approx(0.3), False)
    assert rows["final_loss"][4:6] == (0.0, False)
    back = {r[1]: r[5] for r in bp.compare(b, a, END_TO_END)}
    # 1.0 against 1.3 is 23% faster; 100 against 130 is 23% fewer per second
    assert back == {"step_s_p50": False, "seqs_per_s": False,
                    "final_loss": False}
    c = record(step_s_p50=1.0, seqs_per_s=70.0, final_loss=0.5)
    assert [r[5] for r in bp.compare(a, c, END_TO_END)] == [False, True,
                                                            False]


def test_compare_takes_only_what_both_records_hold(capsys):
    a = record(step_s_p50=1.0, final_loss=0.0)
    b = record(step_s_p50=1.0, seqs_per_s=5.0, final_loss=0.1)
    b["workloads"]["ntu_train"] = b["workloads"]["desk_eval"]
    rows = bp.compare(a, b, END_TO_END)
    assert [(r[0], r[1]) for r in rows] == [("desk_eval", "step_s_p50"),
                                            ("desk_eval", "final_loss")]
    assert rows[1][4] is None and not rows[1][5]  # no base to divide by
    bp.print_compare(rows)
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and " n/a " in out[2]


def test_compare_shows_each_files_own_pairs_and_warns(capsys):
    a = record(step_s_p50=1.0, rel=0.072, wins=(7, 3))
    b = record(step_s_p50=0.75, rel=-0.023, wins=(4, 6))
    (row,) = bp.compare(a, b, END_TO_END)
    # across files the median fell 25%; inside B the change won 6 of 10
    assert row[4] == pytest.approx(-0.25)
    assert row[6:] == ((0.072, 7, 3, 10), (-0.023, 4, 6, 10))
    bp.print_compare([row])
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[4:] == ["-25.0%", "+7.2%", "7/3", "of", "10",
                                  "-2.3%", "4/6", "of", "10"]
    assert out[-1].startswith("Only the in-file pairs")
    assert "drift" in out[-1]


def test_compare_runs_nothing(tmp_path, capsys):
    paths = []
    for name, step in (("a.json", 1.0), ("b.json", 2.0)):
        path = tmp_path / name
        path.write_text(json.dumps(record(step_s_p50=step)))
        paths.append(str(path))
    assert bp.main(["--compare", *paths]) == 0
    assert "WORSE PAST BOUND" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        bp.parse_args(["--compare", *paths, "--workload", "desk_eval"])
    with pytest.raises(SystemExit):
        bp.parse_args(["--workload", "desk_eval", "--record", "x.json"])
    assert "--against" in capsys.readouterr().err
