import json
import struct
from pathlib import Path

import numpy as np
import pytest

from hagcn import ingest
from hagcn.errors import FormatError
from hagcn.graph import GraphSpec, build_graph
from hagcn.ingest import (MAX_COORD, SkeletonSequence, assemble_batch,
                          load_cache, parse_ntu_skeleton, parse_openpose_json,
                          read_manifest, save_cache, to_bone, to_motion)

FIXTURES = Path(__file__).parent / "fixtures"


def chain_graph(n=4):
    return GraphSpec(num_joints=n, edges=tuple((i, i + 1) for i in range(n - 1)))


class TestNtuParser:
    def test_fixture_parses_exactly(self):
        # fixture pattern: x = t + 0.01*j + 100*b, y = -x, z = 0.001*j
        seq = parse_ntu_skeleton((FIXTURES / "sample.skeleton").read_text(),
                                 source_id="sample.skeleton")
        assert seq.coords.shape == (2, 2, 25, 3)
        b, t, j = np.meshgrid(np.arange(2), np.arange(2), np.arange(25),
                              indexing="ij")
        expect_x = t + 0.01 * j + 100.0 * b
        expect = np.stack([expect_x, -expect_x, 0.001 * j], axis=-1)
        expect[1, 0] = 0.0  # body 1 absent in frame 0
        # the file stores 6-decimal literals; exactness means bit-equality
        # with those literals, so push the oracle through the same text form
        as_written = np.vectorize(lambda x: float(f"{x:.6f}"))(expect)
        assert np.array_equal(seq.coords, as_written)

    def test_zero_frames_is_empty_sequence(self):
        seq = parse_ntu_skeleton("0\n")
        assert seq.coords.shape == (1, 0, 25, 3)

    def test_bodyless_frame_stays_zero(self):
        seq = parse_ntu_skeleton("1\n0\n")
        assert seq.coords.shape == (1, 1, 25, 3)
        assert np.array_equal(seq.coords, np.zeros((1, 1, 25, 3)))

    def test_truncated_raises(self):
        text = (FIXTURES / "sample.skeleton").read_text()
        head = "\n".join(text.splitlines()[:30])
        with pytest.raises(FormatError, match="truncated"):
            parse_ntu_skeleton(head)

    def test_too_many_bodies(self):
        with pytest.raises(FormatError, match="too many bodies"):
            parse_ntu_skeleton("1\n3\n")

    def test_wrong_joint_count(self):
        with pytest.raises(FormatError, match="expected 25 joints"):
            parse_ntu_skeleton("1\n1\nmeta\n24\n")

    def test_unparseable_real(self):
        for joint, match in (("a b c", "unparseable"),
                             ("0 nan 0", "non-finite"),
                             ("0 0 -inf", "non-finite")):
            bad = "1\n1\nmeta\n25\n" + f"{joint}\n" * 25
            with pytest.raises(FormatError, match=match):
                parse_ntu_skeleton(bad)


class TestOpenposeParser:
    def test_fixture_parses_exactly(self):
        seq = parse_openpose_json((FIXTURES / "sample_pose.json").read_text(),
                                  source_id="sample_pose.json")
        assert seq.label == 7
        assert seq.coords.shape == (2, 3, 18, 3)
        v = np.arange(18)

        def person(p):
            return np.stack([v * 0.1 + p, v * 0.2 + p,
                             np.full(18, [0.5, 0.9, 0.1][p])], axis=-1)

        # frame 0: one person; frame 1: no skeleton key; frame 2: three
        # people, top-2 by mean confidence kept, most confident first
        assert np.array_equal(seq.coords[0, 0], person(0))
        assert np.array_equal(seq.coords[1, 0], np.zeros((18, 3)))
        assert np.array_equal(seq.coords[:, 1], np.zeros((2, 18, 3)))
        assert np.array_equal(seq.coords[0, 2], person(1))
        assert np.array_equal(seq.coords[1, 2], person(0))

    def test_bad_json(self):
        with pytest.raises(FormatError, match="bad keypoint JSON"):
            parse_openpose_json("{not json")

    def test_bad_pose_length(self):
        with pytest.raises(FormatError, match="36 reals"):
            parse_openpose_json('{"data": [{"skeleton": '
                                '[{"pose": [1, 2], "score": [0.5]}]}]}')

    def test_top_level_must_be_object(self):
        with pytest.raises(FormatError, match="object"):
            parse_openpose_json("[1, 2]")

    def test_non_finite_real(self):
        pose = ", ".join(["NaN"] + ["0"] * 35)
        score = ", ".join(["0.5"] * 18)
        with pytest.raises(FormatError, match="non-finite"):
            parse_openpose_json('{"data": [{"skeleton": [{"pose": '
                                f'[{pose}], "score": [{score}]}}]}}]}}')


    @pytest.mark.parametrize("doc", [
        {"label_index": [1], "data": []},
        {"label_index": 2.7, "data": []},
        {"label_index": True, "data": []},
        {"data": [{"skeleton": [[1, 2]]}]},
        {"data": [{"skeleton": 5}]},
        {"data": [{"skeleton": [{"pose": 5, "score": [0.5] * 18}]}]},
        {"data": [{"skeleton": [{"pose": [0.0] * 36, "score": 5}]}]},
        {"data": [{"skeleton": [{"pose": [True] * 36, "score": [0.5] * 18}]}]},
        {"data": [{"skeleton": [{"pose": [10 ** 400] * 36,
                                 "score": [0.5] * 18}]}]},
    ], ids=["label_list", "label_float", "label_bool", "person_list",
            "skeleton_int", "pose_int", "score_int", "pose_bools",
            "pose_huge_int"])
    def test_wrong_json_types(self, doc):
        doc = json.dumps(doc)
        with pytest.raises(FormatError):
            parse_openpose_json(doc)


class TestStreams:
    def test_bone_differences(self):
        g = chain_graph(3)
        coords = np.arange(2 * 3 * 3, dtype=float).reshape(1, 2, 3, 3)
        bones = to_bone(coords, g)
        assert np.array_equal(bones[0, :, 0], np.zeros((2, 3)))  # root
        assert np.array_equal(bones[0, :, 1], coords[0, :, 1] - coords[0, :, 0])
        assert np.array_equal(bones[0, :, 2], coords[0, :, 2] - coords[0, :, 1])

    def test_bone_joint_count_mismatch(self):
        with pytest.raises(ValueError, match="joints"):
            to_bone(np.zeros((1, 1, 5, 3)), chain_graph(3))

    def test_motion_last_valid_frame_zero(self):
        coords = np.zeros((1, 3, 2, 3))
        coords[0, :, 0, 0] = [1.0, 4.0, 9.0]
        motion = to_motion(coords)
        assert np.array_equal(motion[0, :, 0, 0], [3.0, 5.0, 0.0])

    def test_motion_empty(self):
        assert to_motion(np.zeros((1, 0, 2, 3))).shape == (1, 0, 2, 3)

    def test_bone_motion_equals_motion_of_bones(self):
        g = chain_graph(4)
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((2, 5, 4, 3))
        a = ingest.derive_stream(coords, "bone_motion", g)
        b = to_motion(to_bone(coords, g))
        assert np.array_equal(a, b)

    def test_unknown_stream(self):
        with pytest.raises(ValueError, match="unknown stream"):
            ingest.derive_stream(np.zeros((1, 1, 3, 3)), "flow",
                                 chain_graph(3))


class TestAssemble:
    def test_loop_repeat_and_padding(self):
        g = chain_graph(3)
        coords = np.zeros((1, 3, 3, 2))
        coords[0, :, 0, 0] = [1.0, 2.0, 3.0]
        seq = SkeletonSequence(coords, label=4)
        batch, labels = assemble_batch([seq], g, max_frames=7)
        assert batch.shape == (1, 2, 2, 7, 3)
        assert labels.tolist() == [4]
        assert np.array_equal(batch[0, 0, 0, :, 0],
                              [1.0, 2, 3, 1, 2, 3, 1])
        assert np.array_equal(batch[0, 1], np.zeros((2, 7, 3)))

    def test_truncation(self):
        g = chain_graph(2)
        coords = np.arange(10, dtype=float).reshape(1, 5, 2, 1)
        batch, _ = assemble_batch([SkeletonSequence(coords)], g, max_frames=3)
        assert np.array_equal(batch[0, 0, 0, :, 0], [0.0, 2.0, 4.0])

    def test_empty_sequence_stays_zero(self):
        g = chain_graph(2)
        seq = SkeletonSequence(np.zeros((1, 0, 2, 3)))
        batch, _ = assemble_batch([seq], g, max_frames=4)
        assert np.array_equal(batch, np.zeros((1, 2, 3, 4, 2)))

    def test_keeps_the_first_two_persons(self):
        g = chain_graph(2)
        coords = np.zeros((3, 2, 2, 1))
        for m in range(3):
            coords[m] = m + 1.0
        batch, _ = assemble_batch([SkeletonSequence(coords)], g, max_frames=2)
        assert ingest.MAX_PERSONS == 2
        assert batch.shape == (1, 2, 1, 2, 2)
        assert np.array_equal(batch[0, :, 0, 0, 0], [1.0, 2.0])

    def test_joint_count_must_match_graph(self):
        seq = SkeletonSequence(np.zeros((1, 3, 18, 3)), source_id="c.hagd[4]")
        with pytest.raises(ValueError, match=r"c\.hagd\[4\] has 18 joints, "
                                             r"the graph 25"):
            assemble_batch([seq], build_graph("ntu25"), max_frames=3)

    def test_deterministic_without_augment(self):
        g = build_graph("ntu25")
        rng = np.random.default_rng(1)
        seqs = [SkeletonSequence(rng.standard_normal((2, 6, 25, 3)), label=i)
                for i in range(3)]
        a, _ = assemble_batch(seqs, g, stream="bone", max_frames=10)
        b, _ = assemble_batch(seqs, g, stream="bone", max_frames=10)
        assert a.tobytes() == b.tobytes()


class TestCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        seqs = [SkeletonSequence(rng.standard_normal((m, t, 5, 3)), label=i)
                for i, (m, t) in enumerate([(1, 4), (2, 7), (1, 1)])]
        path = tmp_path / "data.hagd"
        save_cache(path, seqs)
        out = load_cache(path)
        assert len(out) == 3
        for a, b in zip(seqs, out):
            assert b.label == a.label
            assert np.array_equal(b.coords, a.coords)

    def test_byte_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((1, 3, 2, 3))
        b = rng.standard_normal((2, 4, 5, 3))  # two persons
        path = tmp_path / "layout.hagd"
        save_cache(path, [SkeletonSequence(a, label=7),
                          SkeletonSequence(b, label=-2)])
        want = (b"HAGD" + struct.pack("<Q", 2)
                + struct.pack("<qQQQQ", 7, 1, 3, 2, 3) + a.astype("<f8").tobytes()
                + struct.pack("<qQQQQ", -2, 2, 4, 5, 3) + b.astype("<f8").tobytes())
        assert path.read_bytes() == want

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.hagd"
        p.write_bytes(b"WHAT" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_cache(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.hagd"
        save_cache(p, [SkeletonSequence(np.ones((1, 3, 2, 3)))])
        cut = p.read_bytes()[:-10]
        # one sequence whose header declares T = 2**60 frames
        huge = b"HAGD" + struct.pack("<QqQQQQ", 1, 0, 1, 2**60, 25, 3)
        for raw in (cut, huge):
            p.write_bytes(raw)
            with pytest.raises(FormatError, match="truncated"):
                load_cache(p)

    def test_non_finite_coordinates(self, tmp_path):
        p = tmp_path / "nan.hagd"
        coords = np.zeros((1, 2, 2, 3))
        coords[0, 1, 0, 2] = np.nan
        p.write_bytes(b"HAGD" + struct.pack("<QqQQQQ", 1, 0, 1, 2, 2, 3)
                      + coords.astype("<f8").tobytes())
        with pytest.raises(FormatError, match="non-finite"):
            load_cache(p)

    def test_negative_label_round_trips(self, tmp_path):
        p = tmp_path / "n.hagd"
        save_cache(p, [SkeletonSequence(np.zeros((1, 1, 2, 3)), label=-1)])
        assert load_cache(p)[0].label == -1


OVER = float(np.nextafter(MAX_COORD, np.inf))


def sequence_with(source, value, tmp_path):
    """A one-person sequence holding one coordinate ``value``, made from
    ``source``: a skeleton file, keypoint JSON, a cache or the constructor."""
    if source == "skeleton":
        return parse_ntu_skeleton("1\n1\nmeta\n25\n" + f"{value!r} 0 0\n"
                                  + "0 0 0\n" * 24)
    if source == "keypoint_json":
        return parse_openpose_json(json.dumps({"data": [{"skeleton": [
            {"pose": [value] + [0.0] * 35, "score": [0.5] * 18}]}]}))
    coords = np.zeros((1, 2, 2, 3))
    coords[0, 1, 1, 0] = value
    if source == "cache":
        p = tmp_path / "edge.hagd"
        p.write_bytes(b"HAGD" + struct.pack("<QqQQQQ", 1, 0, 1, 2, 2, 3)
                      + coords.astype("<f8").tobytes())
        return load_cache(p)[0]
    return SkeletonSequence(coords)


class TestCoordinateBound:
    @pytest.mark.parametrize("source", ["skeleton", "keypoint_json", "cache",
                                        "sequence"])
    @pytest.mark.parametrize("value, ok", [(MAX_COORD, True),
                                           (-MAX_COORD, True),
                                           (OVER, False), (-OVER, False)],
                             ids=["max", "-max", "over", "-over"])
    def test_edges(self, tmp_path, source, value, ok):
        if ok:
            seq = sequence_with(source, value, tmp_path)
            assert np.abs(seq.coords).max() == MAX_COORD
        else:
            with pytest.raises(FormatError, match=r"beyond 1e\+06"):
                sequence_with(source, value, tmp_path)

    def test_derived_streams_stay_finite_at_the_bound(self):
        # bone_motion differences four coordinates: at most 4 * MAX_COORD
        t, j = np.meshgrid(np.arange(4), np.arange(3), indexing="ij")
        coords = (MAX_COORD * (-1.0) ** (t + j))[None, :, :, None]
        batch, _ = assemble_batch([SkeletonSequence(coords)], chain_graph(3),
                                  stream="bone_motion", max_frames=4)
        assert np.abs(batch).max() == 4 * MAX_COORD
        assert np.isfinite(np.square(batch).sum())


class TestManifest:
    def test_prepare(self, tmp_path):
        (tmp_path / "a.skeleton").write_text(
            (FIXTURES / "sample.skeleton").read_text())
        (tmp_path / "b.json").write_text(
            (FIXTURES / "sample_pose.json").read_text())
        manifest = tmp_path / "files.txt"
        manifest.write_text("# demo\na.skeleton 3\nb.json 5\n")
        seqs = read_manifest(manifest)
        assert len(seqs) == 2
        assert seqs[0].label == 3
        assert seqs[1].label == 7  # label_index in the JSON wins

    def test_bad_extension(self, tmp_path):
        (tmp_path / "x.csv").write_text("")
        manifest = tmp_path / "files.txt"
        manifest.write_text("x.csv 0\n")
        with pytest.raises(FormatError, match="extension"):
            read_manifest(manifest)

    def test_bad_label(self, tmp_path):
        manifest = tmp_path / "files.txt"
        manifest.write_text("x.skeleton abc\n")
        with pytest.raises(FormatError, match="label"):
            read_manifest(manifest)
