"""Parsing, stream derivation, batch assembly and the dataset cache.

Sequences are float64 arrays shaped [persons][frames][joints][channels].
Two source formats are supported: the line-oriented 25-joint skeleton text
format and per-frame keypoint JSON (18 keypoints, x/y plus confidence). The
cache format (magic ``HAGD``) stores a sequence count then, per sequence, a
signed 64-bit label, the four dims as u64 and the coordinates as raw
little-endian float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .graph import GraphSpec
from .serialize import _read_exact

CACHE_MAGIC = b"HAGD"
STREAMS = ("joint", "bone", "joint_motion", "bone_motion")
MAX_PERSONS = 2  # persons per frame: what the parsers keep and batches hold


@dataclass
class SkeletonSequence:
    coords: np.ndarray  # (M, T, V, C)
    label: int = -1
    source_id: str = ""

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 4:
            raise ValueError("coords must be (persons, frames, joints, channels)")
        if not np.isfinite(self.coords).all():
            raise FormatError(f"non-finite coordinates in "
                              f"{self.source_id or 'sequence'}")

    def replace_coords(self, coords) -> "SkeletonSequence":
        return SkeletonSequence(coords, label=self.label,
                                source_id=self.source_id)


# ---------------------------------------------------------------------------
# parsers


def _stack_people(frames, num_joints: int) -> np.ndarray:
    """(M, T, V, 3) coordinates from per-frame lists of (V, 3) arrays.

    M is the most people any frame holds, at least 1; absent people stay
    zero.
    """
    coords = np.zeros((max([1, *map(len, frames)]), len(frames),
                       num_joints, 3), dtype=np.float64)
    for t, people in enumerate(frames):
        for m, joints in enumerate(people):
            coords[m, t] = joints
    return coords


def parse_ntu_skeleton(text: str, source_id: str = "",
                       label: int = -1) -> SkeletonSequence:
    """Parse the line-oriented 25-joint skeleton text format.

    Layout: frame count; then per frame a body count and, per body, one
    metadata line, the joint count (must be 25) and 25 joint lines whose
    first three fields are x y z. At most two bodies per frame.
    """
    lines = iter(text.splitlines())

    def next_line(what):
        for raw in lines:
            if raw.strip():
                return raw.strip()
        raise FormatError(f"truncated skeleton file ({source_id or 'input'}): "
                          f"expected {what}")

    def next_int(what):
        raw = next_line(what)
        try:
            return int(raw)
        except ValueError:
            raise FormatError(f"expected {what}, got {raw!r}") from None

    num_frames = next_int("frame count")
    if num_frames < 0:
        raise FormatError("negative frame count")
    frames = []  # per frame: list of (25, 3) arrays
    for f in range(num_frames):
        num_bodies = next_int(f"body count for frame {f}")
        if num_bodies < 0:
            raise FormatError(f"negative body count in frame {f}")
        if num_bodies > MAX_PERSONS:
            raise FormatError(f"too many bodies in frame {f}: {num_bodies}")
        bodies = []
        for b in range(num_bodies):
            next_line(f"body metadata for frame {f}")  # tracking fields, unused
            num_joints = next_int(f"joint count for frame {f}")
            if num_joints != 25:
                raise FormatError(f"expected 25 joints, got {num_joints} "
                                  f"in frame {f}")
            joints = np.zeros((25, 3), dtype=np.float64)
            for j in range(25):
                fields = next_line(f"joint {j} of frame {f}").split()
                if len(fields) < 3:
                    raise FormatError(f"joint line too short in frame {f}")
                try:
                    joints[j] = [float(fields[0]), float(fields[1]), float(fields[2])]
                except ValueError:
                    raise FormatError(f"unparseable joint coordinates in "
                                      f"frame {f}") from None
            bodies.append(joints)
        frames.append(bodies)
    return SkeletonSequence(_stack_people(frames, 25), label=label,
                            source_id=source_id)


def parse_openpose_json(text: str, source_id: str = "",
                        label: int = -1) -> SkeletonSequence:
    """Parse per-frame keypoint JSON.

    The object holds ``data``: a list of frames, each with an optional
    ``skeleton`` list of people carrying ``pose`` (36 reals, x/y interleaved)
    and ``score`` (18 reals). Confidence becomes channel 2. Frames follow
    list order; a missing ``skeleton`` key leaves the frame zero. When a
    frame has more than two people, the two with the highest mean confidence
    are kept, most confident in slot 0. ``label_index`` overrides the label
    argument when present.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad keypoint JSON ({source_id or 'input'}): {e}") from e
    if not isinstance(obj, dict) or not isinstance(obj.get("data", []), list):
        raise FormatError("keypoint JSON must be an object with a 'data' list")
    data = obj.get("data", [])
    if "label_index" in obj:
        label = obj["label_index"]
        if type(label) is not int:  # not a bool, float or list
            raise FormatError(f"label_index must be an integer, got {label!r}")

    frames = []
    for t, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise FormatError(f"frame {t} is not an object")
        skeleton = entry.get("skeleton", [])
        if not isinstance(skeleton, list):
            raise FormatError(f"frame {t}: skeleton must be a list")
        people = []
        for person in skeleton:
            if not isinstance(person, dict):
                raise FormatError(f"frame {t}: a person is not an object")
            pose = person.get("pose", [])
            score = person.get("score", [])
            if not (isinstance(pose, list) and isinstance(score, list)
                    and len(pose) == 36 and len(score) == 18
                    and all(type(r) in (int, float) for r in pose + score)):
                raise FormatError(f"frame {t}: pose must hold 36 reals and "
                                  f"score 18")
            joints = np.zeros((18, 3), dtype=np.float64)
            try:
                joints[:, 0] = pose[0::2]
                joints[:, 1] = pose[1::2]
                joints[:, 2] = score
            except OverflowError:  # an integer beyond float64
                raise FormatError(f"frame {t}: keypoint value out of "
                                  f"range") from None
            people.append(joints)
        people.sort(key=lambda j: -float(j[:, 2].mean()))
        frames.append(people[:MAX_PERSONS])
    return SkeletonSequence(_stack_people(frames, 18), label=label,
                            source_id=source_id)


# ---------------------------------------------------------------------------
# stream derivation


def to_bone(seq: SkeletonSequence, graph: GraphSpec) -> SkeletonSequence:
    """Bone stream: each joint minus its tree parent, roots zero.

    Only the natural tree defines parents (hub links would give joints two).
    The difference applies to every channel, confidence included.
    """
    if seq.coords.shape[2] != graph.num_joints:
        raise ValueError(f"sequence has {seq.coords.shape[2]} joints, "
                         f"graph {graph.num_joints}")
    parents = graph.parents()
    has_parent = parents >= 0
    bones = np.zeros_like(seq.coords)
    bones[:, :, has_parent] = (seq.coords[:, :, has_parent]
                               - seq.coords[:, :, parents[has_parent]])
    return seq.replace_coords(bones)


def to_motion(seq: SkeletonSequence) -> SkeletonSequence:
    """Frame-difference stream; the final frame's motion is zero."""
    motion = np.zeros_like(seq.coords)
    motion[:, :-1] = seq.coords[:, 1:] - seq.coords[:, :-1]
    return seq.replace_coords(motion)


def derive_stream(seq: SkeletonSequence, stream: str,
                  graph: GraphSpec) -> SkeletonSequence:
    if stream == "joint":
        return seq
    if stream == "bone":
        return to_bone(seq, graph)
    if stream == "joint_motion":
        return to_motion(seq)
    if stream == "bone_motion":
        return to_motion(to_bone(seq, graph))
    raise ValueError(f"unknown stream {stream!r}; choose from {STREAMS}")


# ---------------------------------------------------------------------------
# batch assembly


def assemble_batch(seqs, graph: GraphSpec, stream: str = "joint",
                   max_frames: int = 300):
    """Stack sequences into a (N, M, C, T, V) array plus a label vector.

    A sequence's frames loop-repeat to fill max_frames (and truncate beyond
    it); persons beyond ``MAX_PERSONS`` are dropped, and missing persons and
    a sequence with no frames stay zero.
    """
    if not seqs:
        raise ValueError("assemble_batch needs at least one sequence")
    channels = seqs[0].coords.shape[3]
    batch = np.zeros((len(seqs), MAX_PERSONS, channels, max_frames,
                      graph.num_joints), dtype=np.float64)
    labels = np.empty(len(seqs), dtype=np.int64)
    for n, seq in enumerate(seqs):
        if seq.coords.shape[3] != channels:
            raise ValueError("mixed channel counts in one batch")
        if seq.coords.shape[2] != graph.num_joints:
            raise ValueError(f"{seq.source_id or 'sequence'} has "
                             f"{seq.coords.shape[2]} joints, the graph "
                             f"{graph.num_joints}")
        labels[n] = seq.label
        seq = derive_stream(seq, stream, graph)
        frames = seq.coords.shape[1]
        if frames == 0:
            continue
        m = min(seq.coords.shape[0], MAX_PERSONS)
        idx = np.arange(max_frames) % frames
        # (M, T, V, C) gathered over frames -> (M, C, T, V)
        batch[n, :m] = seq.coords[:m, idx].transpose(0, 3, 1, 2)
    return batch, labels


# ---------------------------------------------------------------------------
# dataset cache


def save_cache(path, seqs) -> None:
    """Write sequences as a HAGD cache.

    Labels are checked before the file is opened, so a bad one leaves none.
    """
    for seq in seqs:
        if not -2**63 <= seq.label < 2**63:
            raise FormatError(f"label {seq.label} of {seq.source_id} does not "
                              f"fit a signed 64-bit integer")
    with open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<Q", len(seqs)))
        for seq in seqs:
            f.write(struct.pack("<qQQQQ", int(seq.label), *seq.coords.shape))
            f.write(seq.coords.astype("<f8").tobytes())


def load_cache(path):
    """Read a HAGD cache; declared sizes are checked before any read."""
    seqs = []
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CACHE_MAGIC:
            raise FormatError(f"bad cache magic in {path}")
        (count,) = struct.unpack("<Q", _read_exact(f, 8))
        for i in range(count):
            label, m, t, v, c = struct.unpack("<qQQQQ", _read_exact(f, 40))
            if m * v * c == 0 or m > 16 or v > 1024 or c > 64:
                raise FormatError(f"implausible sequence header in {path}")
            raw = _read_exact(f, 8 * m * t * v * c)
            coords = np.frombuffer(raw, dtype="<f8").reshape(m, t, v, c)
            seqs.append(SkeletonSequence(np.array(coords), label=int(label),
                                         source_id=f"{path}[{i}]"))
        if f.read(1):
            raise FormatError(f"trailing bytes in cache {path}")
    return seqs


def prepare_from_manifest(manifest_path, out_path) -> int:
    """Parse every file named in a manifest into one cache; returns count.

    Manifest lines: ``relative/path label``, '#' comments allowed. Extension
    picks the parser: .skeleton for the text format, .json for keypoints.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    seqs = []
    for lineno, raw in enumerate(manifest_path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise FormatError(f"manifest line {lineno} needs 'path label'")
        rel, label_text = parts
        try:
            label = int(label_text)
        except ValueError:
            raise FormatError(f"manifest line {lineno}: bad label "
                              f"{label_text!r}") from None
        path = base / rel
        text = path.read_text()
        if path.suffix == ".skeleton":
            seq = parse_ntu_skeleton(text, source_id=rel, label=label)
        elif path.suffix == ".json":
            seq = parse_openpose_json(text, source_id=rel, label=label)
        else:
            raise FormatError(f"manifest line {lineno}: unknown extension "
                              f"{path.suffix!r}")
        seqs.append(seq)
    save_cache(out_path, seqs)
    return len(seqs)
