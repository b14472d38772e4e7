"""Damaged inputs in each of the three file formats the program reads (JITW
snapshots, LVSS containers, JSONL teacher predictions) raise the format's
typed error, and ``jitstream run`` turns one of each into exit code 2."""
import json

import numpy as np
import pytest

from jitstream.cli import main
from jitstream.distill import read_predictions_jsonl, write_predictions_jsonl
from jitstream.nn import SnapshotError, load_weights, save_weights
from jitstream.streams import ContainerError, ContainerSource, read_lvss, write_lvss

SNAPSHOT = [("conv.weight", np.arange(4, dtype=np.float32).reshape(2, 1, 1, 2)),
            ("bias", np.array([0.5, -1.0], dtype=np.float32))]


def snapshot_header_offsets() -> list[int]:
    """Offsets of every byte of a ``SNAPSHOT`` file that is not a value:
    the file header and each parameter's name length, name, rank and
    extents."""
    offsets = list(range(12))
    at = 12
    for name, value in SNAPSHOT:
        head = 2 + len(name.encode()) + 1 + 4 * value.ndim
        offsets += range(at, at + head)
        at += head + 4 * value.size
    return offsets


class TestSnapshotFuzz:
    @pytest.fixture
    def blob(self, tmp_path):
        save_weights(tmp_path / "w.jitw", SNAPSHOT)
        blob = (tmp_path / "w.jitw").read_bytes()
        loaded = load_weights(tmp_path / "w.jitw")
        assert [n for n, _ in loaded] == [n for n, _ in SNAPSHOT]
        return blob

    def test_every_truncation_rejected(self, blob, tmp_path):
        path = tmp_path / "cut.jitw"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(SnapshotError):
                load_weights(path)

    def test_every_header_byte_flip_rejected(self, blob, tmp_path):
        path = tmp_path / "flip.jitw"
        for at in snapshot_header_offsets():
            damaged = bytearray(blob)
            damaged[at] ^= 0xFF
            path.write_bytes(bytes(damaged))
            with pytest.raises(SnapshotError):
                load_weights(path)

    def test_non_utf8_name_names_parameter_and_offset(self, blob, tmp_path):
        path = tmp_path / "name.jitw"
        path.write_bytes(blob[:14] + b"\xff" + blob[15:])
        with pytest.raises(SnapshotError, match="name of parameter 0 at offset 14"):
            load_weights(path)


class TestContainerFuzz:
    @pytest.fixture
    def blob(self, tmp_path):
        frames = np.random.default_rng(0).integers(0, 256, size=(2, 3, 4, 3), dtype=np.uint8)
        write_lvss(tmp_path / "c.lvss", frames)
        return (tmp_path / "c.lvss").read_bytes()

    def test_every_truncation_rejected(self, blob, tmp_path):
        path = tmp_path / "cut.lvss"
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(ContainerError):
                read_lvss(path)
            with pytest.raises(ContainerError):
                ContainerSource(path)

    def test_every_header_byte_flip_rejected(self, blob, tmp_path):
        path = tmp_path / "flip.lvss"
        for at in range(25):
            damaged = bytearray(blob)
            damaged[at] ^= 0xFF
            path.write_bytes(bytes(damaged))
            with pytest.raises(ContainerError):
                ContainerSource(path)

    @pytest.mark.parametrize("shape,message", [((3, 4, 0, 3), "no pixels"),
                                               ((3, 0, 4, 3), "no pixels"),
                                               ((0, 4, 4, 3), "no frames")])
    def test_empty_container_rejected(self, tmp_path, shape, message):
        write_lvss(tmp_path / "e.lvss", np.zeros(shape, dtype=np.uint8))
        with pytest.raises(ContainerError, match=message):
            ContainerSource(tmp_path / "e.lvss")


GOOD_INSTANCE = {"class": 1, "conf": 0.9, "bbox": [0, 0, 2, 2], "rle": [1, 2, 1]}
BAD_LINES = (
    ["{", "not json", '{"frame": 0, "instances": [', "[1, 2", "{'frame': 0}"]
    + [json.dumps(row) for row in (
        None, 5, "frame", [], {}, {"frame": 0}, {"instances": []},
        {"frame": None, "instances": []}, {"frame": "x", "instances": []},
        {"frame": [], "instances": []}, {"frame": 1e400, "instances": []},
        {"frame": 0, "instances": None}, {"frame": 0, "instances": 5},
        {"frame": 0, "instances": ["x"]}, {"frame": 0, "instances": [None]},
        {"frame": 0, "instances": {"a": 1}},
        # JSON types that would coerce to a plausible value
        {"frame": 3.7, "instances": []}, {"frame": 3.0, "instances": []},
        {"frame": True, "instances": []}, {"frame": "3", "instances": []},
        {"frame": 3.7, "instances": [{"class": True, "conf": "0.9",
                                      "bbox": [0, 0, 2.9, 2], "rle": [1, 2, 1]}]},
        {"frame": -1, "instances": []})]
    + [json.dumps({"frame": 0, "instances": [{**GOOD_INSTANCE, key: value}]})
       for key, values in (
           ("class", [None, "x", [], 1e400, True, 1.0, "1"]),
           ("conf", [None, "x", [], {}, "0.9", True, float("nan"), float("inf"),
                     float("-inf")]),
           ("bbox", [None, 5, [0, 0, 2], [0, 0, 2, 2, 2], ["a", 0, 2, 2],
                     [0, 0, 2, None], [0, 0, 1e400, 2], [0, 0, 2.9, 2],
                     [0, 0, 2.0, 2], [0, 0, True, 2], [0, 0, "2", 2]]),
           ("rle", [None, 5, "ab", [None], [1.5, 2.5], [[1]], {}, [1, 2], [-1, 5],
                    [1.0, 2, 1], [True, 2, 1], ["1", 2, 1]]))
       for value in values]
    + [json.dumps({"frame": 0, "instances": [{k: v for k, v in GOOD_INSTANCE.items()
                                              if k != key}]})
       for key in GOOD_INSTANCE])


class TestTeacherJsonlFuzz:
    @pytest.mark.parametrize("line_no", [1, 2])
    @pytest.mark.parametrize("bad", BAD_LINES, ids=range(len(BAD_LINES)))
    def test_bad_line_names_its_line(self, tmp_path, line_no, bad):
        good = json.dumps({"frame": 3, "instances": [GOOD_INSTANCE]})
        lines = [good, good]
        lines[line_no - 1] = bad
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"line {line_no}: "):
            read_predictions_jsonl(path)

    def test_repeated_frame_names_the_second_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"frame": 3, "instances": [GOOD_INSTANCE]}) + "\n"
                        + json.dumps({"frame": 4, "instances": []}) + "\n"
                        + json.dumps({"frame": 3, "instances": []}) + "\n")
        with pytest.raises(ValueError, match="line 3: frame 3 repeats an earlier line"):
            read_predictions_jsonl(path)


class TestRunExitCodes:
    """One damaged file of each format makes ``jitstream run`` exit 2."""

    @pytest.fixture
    def world(self, tmp_path):
        write_lvss(tmp_path / "frames.lvss", np.zeros((4, 16, 16, 3), dtype=np.uint8))
        write_predictions_jsonl(tmp_path / "teacher.jsonl", {0: []})
        return tmp_path

    def run(self, world, extra: str = "") -> int:
        cfg = world / "run.cfg"
        cfg.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\nnum_classes = 2\n" + extra)
        return main(["run", "--config", str(cfg), "--out", str(world / "out")])

    def test_truncated_snapshot(self, world, capsys):
        save_weights(world / "w.jitw", SNAPSHOT)
        (world / "w.jitw").write_bytes((world / "w.jitw").read_bytes()[:-3])
        assert self.run(world, "init_snapshot = w.jitw\n") == 2
        assert "truncated" in capsys.readouterr().err

    def test_flipped_container_header(self, world, capsys):
        blob = bytearray((world / "frames.lvss").read_bytes())
        blob[8] ^= 0xFF                                  # width
        (world / "frames.lvss").write_bytes(bytes(blob))
        assert self.run(world) == 2
        assert "frames.lvss" in capsys.readouterr().err

    @pytest.mark.parametrize("class_id", [2, 99, 300, -1])
    def test_class_id_outside_num_classes(self, world, capsys, class_id):
        (world / "teacher.jsonl").write_text(
            json.dumps({"frame": 0, "instances": [{**GOOD_INSTANCE, "class": class_id}]})
            + "\n")
        assert self.run(world) == 2
        assert f"frame 0: class {class_id} outside [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        # deeper than the JSON decoder's recursion limit
        ("[" * 100000 + "]" * 100000, "recursion"),
        # a 256 TiB mask
        (json.dumps({"frame": 0, "instances": [{
            **GOOD_INSTANCE, "bbox": [0, 0, 16777216, 16777216], "rle": [281474976710656]}]}),
         "Unable to allocate"),
        (json.dumps({"frame": 0, "instances": [{
            **GOOD_INSTANCE, "bbox": [5, 5, 2, 2], "rle": [9]}]}),
         "bbox [5, 5, 2, 2] is inverted"),
    ], ids=["deep", "huge-mask", "inverted-box"])
    def test_unreadable_teacher_line(self, world, capsys, line, message):
        (world / "teacher.jsonl").write_text('{"frame": 1, "instances": []}\n' + line + "\n")
        assert self.run(world) == 2
        err = capsys.readouterr().err
        assert "line 2: " in err and message in err

    def test_bad_teacher_line(self, world, capsys):
        (world / "teacher.jsonl").write_text('{"frame": 0, "instances": []}\n{"frame": 1e400}\n')
        assert self.run(world) == 2
        assert "line 2" in capsys.readouterr().err
