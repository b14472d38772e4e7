import dataclasses
import json
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from jitstream.arch import ArchConfig, JITNet
from jitstream.cli import (CSV_HEADER, SWEEP_KNOBS, _apply_knobs, _limit_threads,
                           _parse_knobs, main)
from jitstream.config import load_run_config
from jitstream.metrics import CostModel, speedup_from_counts
from jitstream.nn import load_weights, save_weights
from jitstream.streams import read_lvss
from test_streams import write_damaged_lvss


# a width whose stem weights alone would take 1.5 EiB: every OS refuses the
# allocation at once, whatever its overcommit setting, so no memory is touched
UNALLOCATABLE_WIDTH = 1e15
# a frame extent whose coordinate grid would take 1 PiB: refused at once the
# same way, after two 64 MiB ranges
UNALLOCATABLE_EXTENT = 16777216


def stream_config(path: Path, num_frames: int, extent: int = 56) -> Path:
    """A two-object synthetic stream of ``num_frames`` square frames."""
    path.write_text(
        f"width = {extent}\nheight = {extent}\nnum_frames = {num_frames}\n"
        "class_count = 2\nseed = 11\n"
        "object1.class_id = 1\nobject1.shape = disc\n"
        "object1.size_min = 9\nobject1.size_max = 12\n"
        "object1.speed_min = 0.2\nobject1.speed_max = 0.6\n"
        "object2.class_id = 2\nobject2.shape = rectangle\n"
        "object2.size_min = 8\nobject2.size_max = 11\n"
        "object2.speed_min = 0.2\nobject2.speed_max = 0.6\n")
    return path


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    stream_config(root / "stream.cfg", 100)
    run = root / "run.cfg"
    run.write_text("stream.synthetic = stream.cfg\nseed = 11\nfps = 25\n")
    return root, run


def read_csv_rows(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestRun:
    def test_successful_run_outputs(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out),
                     "--save-predictions"]) == 0
        header, rows = read_csv_rows(out / "run.csv")
        assert header == CSV_HEADER
        assert len(rows) == 100
        assert [r[0] for r in rows[:3]] == ["0", "1", "2"]

        summary = json.loads((out / "summary.json").read_text())
        assert summary["frames"] == 100
        assert summary["param_count"] > 0 and summary["flops_inference"] > 0

        predictions = read_lvss(out / "predictions.lvss")
        assert predictions.shape == (100, 56, 56)

    def test_summary_recomputes_from_csv(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "run.csv")
        summary = json.loads((out / "summary.json").read_text())

        ious = [float(r[4]) for r in rows if r[4] != ""]
        assert summary["mean_iou"] == pytest.approx(float(np.mean(ious)), abs=0)
        invoked = sum(int(r[1]) for r in rows)
        assert summary["teacher_invocations"] == invoked
        assert summary["teacher_fraction"] == pytest.approx(invoked / len(rows), abs=0)
        updates = sum(int(r[2]) for r in rows)
        assert summary["total_updates"] == updates
        expected = speedup_from_counts(len(rows), invoked, updates,
                                       CostModel(300.0, 7.0, 30.0))
        assert summary["speedup"] == pytest.approx(expected.speedup, abs=0)
        # a_curr present exactly on teacher frames
        assert all((r[3] != "") == bool(int(r[1])) for r in rows)

    def test_rerun_is_byte_identical(self, small_world, tmp_path):
        root, run = small_world
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(run), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(run), "--out", str(out_b)]) == 0
        assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def test_config_error_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert main(["run", "--config", str(missing)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numeric_failure_exit_3(self, small_world, tmp_path, capsys):
        root, run = small_world
        # a snapshot full of NaN weights forces non-finite logits on frame 0
        net = JITNet(ArchConfig(num_classes=3), seed=11)
        poisoned = [(name, np.full_like(value, np.nan))
                    for name, value in net.state_arrays()]
        snap = tmp_path / "bad.jitw"
        save_weights(snap, poisoned)
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text((root / "run.cfg").read_text().replace(
            "stream.cfg", str(root / "stream.cfg")) + f"init_snapshot = {snap}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out),
                     "--save-predictions"]) == 3
        assert "frame 0" in capsys.readouterr().err
        for name in ("run.csv", "summary.json", "predictions.lvss"):
            assert not (out / name).exists()

    def test_too_few_classes_exit_2_before_any_frame(self, small_world, tmp_path, capsys):
        root, run = small_world
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\nnum_classes = 2\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out)]) == 2
        assert "num_classes must be >= class_count + 1 = 3" in capsys.readouterr().err
        assert not out.exists()

    def test_too_many_classes_exit_2_before_any_frame(self, small_world, tmp_path, capsys):
        """uint8 label maps cannot hold class 300, and 255 is the ignore
        label."""
        root, run = small_world
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\nnum_classes = 300\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "num_classes must be <= 255" in err
        assert not out.exists()

    @pytest.mark.parametrize("fps", ["0", "-5", "nan", "inf"])
    def test_bad_fps_exit_2_before_any_frame(self, small_world, tmp_path, capsys, fps):
        root, run = small_world
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\nfps = {fps}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "fps must be a finite number > 0" in err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("object1.size_min = nan", "object1: need finite 0 < size_min <= size_max"),
        ("object1.size_max = inf", "object1: need finite 0 < size_min <= size_max"),
        ("object1.size_min = 12\nobject1.size_max = 9",
         "object1: need finite 0 < size_min <= size_max (zero-area objects rejected), "
         "got 12.0 and 9.0"),
        ("object1.speed_min = nan", "object1: need finite 0 <= speed_min <= speed_max"),
        ("object1.speed_max = inf", "object1: need finite 0 <= speed_min <= speed_max"),
        ("object1.speed_min = -0.2",
         "object1: need finite 0 <= speed_min <= speed_max, got -0.2 and 0.6"),
        ("object1.speed_min = 0.6\nobject1.speed_max = 0.2",
         "object1: need finite 0 <= speed_min <= speed_max, got 0.6 and 0.2"),
        ("event1.frame = 3\nevent1.kind = camera_pan\nevent1.dx = nan",
         "event at frame 3: dx and dy must be finite, got nan and 0.0"),
        ("event1.frame = 3\nevent1.kind = camera_pan\nevent1.dy = inf",
         "event at frame 3: dx and dy must be finite, got 0.0 and inf"),
        ("event1.frame = 3\nevent1.kind = camera_pan\nevent1.object = 0\nevent1.dx = 0.5",
         "event at frame 3: camera_pan moves every object and takes no object index"),
        ("event1.frame = 3\nevent1.kind = appearance_shift\nevent1.dx = 0.5",
         "event at frame 3: dx and dy are the camera_pan drift, not read by "
         "appearance_shift"),
        ("event1.frame = 3\nevent1.kind = disappear\nevent1.object = 1\nevent1.dy = -1",
         "event at frame 3: dx and dy are the camera_pan drift, not read by disappear"),
    ])
    def test_bad_stream_value_exit_2_before_any_frame(self, tmp_path, capsys,
                                                     setting, message):
        stream = stream_config(tmp_path / "stream.cfg", 12)
        keys = {line.split(" = ")[0] for line in setting.splitlines()}
        kept = [line for line in stream.read_text().splitlines()
                if line.split(" = ")[0] not in keys]
        stream.write_text("\n".join(kept + [setting]) + "\n")
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = stream.cfg\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("cost.teacher_ms = nan", "unit costs must be finite and >= 0"),
        ("cost.update_ms = inf", "unit costs must be finite and >= 0"),
        ("cost.infer_ms = 0", "cost.infer_ms must be > 0, got 0.0"),
        ("cost.infer_ms = -0.0", "cost.infer_ms must be > 0, got -0.0"),
        ("cost.teacher_ms = 0\ncost.infer_ms = 0\ncost.update_ms = 0",
         "cost.infer_ms must be > 0, got 0.0"),
        ("box_dilation = -3", "box_dilation must be finite and >= 0, got -3.0"),
        ("box_dilation = nan", "box_dilation must be finite and >= 0, got nan"),
        ("weight_factor = -1", "weight_factor must be finite and >= 0, got -1.0"),
        ("weight_factor = nan", "weight_factor must be finite and >= 0, got nan"),
        ("lr = -5", "lr must be finite and >= 0, got -5.0"),
        ("momentum = 7", "momentum must lie in [0, 1), got 7.0"),
        ("conf_thresh = 3", "conf_thresh must lie in [0, 1], got 3.0"),
        ("width_multiplier = inf", "width_multiplier must be finite and > 0, got inf"),
        ("noise.conf_spread = nan", "noise.conf_spread must be finite and >= 0, got nan"),
        ("seed = -1", "seed must be >= 0, got -1"),
    ])
    def test_bad_cost_or_dilation_exit_2_before_any_frame(self, small_world, tmp_path,
                                                          capsys, setting, message):
        root, run = small_world
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\n{setting}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad_run}: ") and message in err
        assert not out.exists()

    def test_unallocatable_width_exit_2_before_any_frame(self, small_world, tmp_path,
                                                         capsys):
        """1e15 asks numpy for 1.5 EiB of stem weights, which it refuses at
        once: a configuration error, not a failed validation (exit 1)."""
        root, run = small_world
        bad_run = tmp_path / "bad_run.cfg"
        bad_run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\n"
                           f"width_multiplier = {UNALLOCATABLE_WIDTH}\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(bad_run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: width_multiplier = 1e+15: ")
        assert "cannot be allocated" in err and not out.exists()

    def test_unallocatable_extent_exit_2_before_any_frame(self, tmp_path, capsys):
        stream_config(tmp_path / "huge.cfg", 5, extent=UNALLOCATABLE_EXTENT)
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = huge.cfg\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: frame extent width 16777216 x height 16777216: ")
        assert "cannot be allocated" in err and not out.exists()

    def test_jitter_past_the_extent_completes(self, tmp_path):
        """A teacher jitter of up to 20 pixels on 8x8 frames."""
        (tmp_path / "stream.cfg").write_text(
            "width = 8\nheight = 8\nnum_frames = 20\nclass_count = 1\nseed = 3\n"
            "object1.class_id = 1\nobject1.size_min = 3\nobject1.size_max = 4\n")
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = stream.cfg\nnoise.jitter_px = 20\nseed = 1\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "run.csv").read_text().splitlines()) == 21

    def test_unusable_out_exit_2_before_any_frame(self, small_world, tmp_path, capsys):
        root, run = small_world
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["run", "--config", str(run), "--out", str(taken),
                     "--save-predictions"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and str(taken) in captured.err
        assert captured.out == ""
        assert taken.read_text() == "a file, not a directory\n"


def test_saved_predictions_leave_peak_memory_flat(tmp_path):
    """A run writes each label map as its frame finishes and keeps none, so
    300 more 64x64 frames (1.2 MiB of maps) move the traced peak of a
    ``--save-predictions`` run by far less than the maps would take."""
    def traced_peak(num_frames: int) -> int:
        work = tmp_path / str(num_frames)
        work.mkdir()
        stream_config(work / "stream.cfg", num_frames, extent=64)
        (work / "run.cfg").write_text(
            "stream.synthetic = stream.cfg\nseed = 11\nwidth_multiplier = 0.25\n")
        argv = ["run", "--config", str(work / "run.cfg"), "--out", str(work / "out"),
                "--save-predictions"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(8)          # fills the caches a first run of this extent builds
    growth = traced_peak(400) - traced_peak(100)
    assert growth < 512 * 1024, f"peak grew by {growth / 1024:.0f} KiB"


@pytest.mark.parametrize("command", ["run", "pretrain", "sweep"])
@pytest.mark.parametrize("unreadable", ["not_utf8", "directory"])
def test_unreadable_config_exit_2(tmp_path, capsys, command, unreadable):
    cfg = tmp_path / "run.cfg"
    if unreadable == "not_utf8":
        cfg.write_bytes(b"seed = 1\n# caf\xe9\n")
    else:
        cfg.mkdir()
    extra = {"run": ["--out", str(tmp_path / "out")],
             "pretrain": ["--out", str(tmp_path / "out" / "w.jitw")],
             "sweep": ["--out", str(tmp_path / "out"), "--knob", "seed=1"]}[command]
    assert main([command, "--config", str(cfg), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {cfg}: cannot read config")
    assert captured.out == "" and not (tmp_path / "out").exists()


class TestContainerIngestion:
    def test_recorded_teacher_run(self, tmp_path):
        from jitstream.distill import DistillConfig, write_predictions_jsonl
        from jitstream.streams import (ObjectSpec, OracleTeacher,
                                       SyntheticStreamConfig,
                                       gen_synthetic_stream, write_lvss)

        scfg = SyntheticStreamConfig(
            width=48, height=48, num_frames=40, class_count=2, seed=3,
            objects=(ObjectSpec(1, "disc", (8, 10), (0.2, 0.5), 0),
                     ObjectSpec(2, "rectangle", (7, 9), (0.2, 0.5), 1)))
        stream = gen_synthetic_stream(scfg)
        write_lvss(tmp_path / "frames.lvss",
                   np.stack([stream.frame(t) for t in range(40)]))
        oracle = OracleTeacher(stream)
        # predictions recorded only on frames the scheduler can ask for
        table = {t: oracle.predict(t) for t in range(0, 40, 4)}
        write_predictions_jsonl(tmp_path / "teacher.jsonl", table)
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\n"
                       "num_classes = 3\nseed = 3\ndelta_min = 4\ndelta_max = 8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "run.csv")
        assert len(rows) == 40
        # evaluation exists exactly where recorded predictions exist
        assert all((int(r[0]) in table) == (r[4] != "") for r in rows)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["teacher_failures"] == 0
        assert summary["param_count"] > 0

    def test_run_keeps_its_bytes_across_thread_widths(self, tmp_path, split_width):
        """A recorded 64x640 stream, where head1 and head2 split and the
        weight gradients go to the pool's first worker at width 2, writes
        the same bytes at widths 1 and 2, and leaves one helper thread at
        width 2."""
        from jitstream.distill import write_predictions_jsonl
        from jitstream.nn import layers
        from jitstream.streams import (ObjectSpec, OracleTeacher,
                                       SyntheticStreamConfig,
                                       gen_synthetic_stream, write_lvss)

        scfg = SyntheticStreamConfig(
            width=640, height=64, num_frames=12, class_count=2, seed=3,
            objects=(ObjectSpec(1, "disc", (10, 14), (0.5, 1.5), 0),
                     ObjectSpec(2, "rectangle", (9, 12), (0.5, 1.5), 1)))
        stream = gen_synthetic_stream(scfg)
        write_lvss(tmp_path / "frames.lvss", np.stack([stream.frame(t) for t in range(12)]))
        oracle = OracleTeacher(stream)
        write_predictions_jsonl(tmp_path / "teacher.jsonl",
                                {t: oracle.predict(t) for t in range(0, 12, 4)})
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\n"
                       "num_classes = 3\nseed = 3\nu_max = 3\ndelta_min = 4\n"
                       "delta_max = 8\n")
        outputs = []
        for width in (1, 2):
            pool = split_width(width)
            out = tmp_path / f"out{width}"
            assert main(["run", "--config", str(run), "--out", str(out),
                         "--save-predictions"]) == 0
            outputs.append([(out / name).read_bytes()
                            for name in ("run.csv", "summary.json", "predictions.lvss")])
            assert len(pool._threads) == (width == 2)
        _, rows = read_csv_rows(tmp_path / "out1" / "run.csv")
        assert sum(r[1] == "1" and int(r[2]) > 0 for r in rows) >= 2
        assert outputs[0] == outputs[1]

    def test_jittered_box_across_frame_edge(self, tmp_path):
        """A recorded box that leaves the frame is clipped before the jitter
        grows or shrinks its mask."""
        from jitstream.streams import write_lvss

        write_lvss(tmp_path / "frames.lvss", np.zeros((8, 16, 16, 3), dtype=np.uint8))
        (tmp_path / "teacher.jsonl").write_text(
            '{"frame": 0, "instances": [{"class": 1, "conf": 0.9, '
            '"bbox": [12, 12, 20, 20], "rle": [0, 64]}]}\n')
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\n"
                       "num_classes = 2\nseed = 0\ndelta_min = 8\ndelta_max = 8\n"
                       "noise.jitter_px = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["teacher_invocations"] == 1

    def test_missing_recorded_frames_count_as_failures(self, tmp_path):
        from jitstream.distill import write_predictions_jsonl
        from jitstream.streams import write_lvss

        rng = np.random.default_rng(0)
        write_lvss(tmp_path / "frames.lvss",
                   rng.integers(0, 255, size=(20, 32, 32, 3)).astype(np.uint8))
        write_predictions_jsonl(tmp_path / "teacher.jsonl", {0: []})
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\n"
                       "num_classes = 2\nseed = 0\ndelta_min = 8\ndelta_max = 8\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(run), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        # frames 8 and 16 are scheduled but unrecorded
        assert summary["teacher_failures"] == 2
        assert summary["teacher_invocations"] == 1


    @pytest.mark.parametrize("damage", ["truncated", "over-long", "short header",
                                        "bad magic"])
    def test_damaged_container_exit_2(self, tmp_path, capsys, damage):
        from jitstream.distill import write_predictions_jsonl

        write_damaged_lvss(tmp_path / "frames.lvss", np.random.default_rng(0), damage)
        write_predictions_jsonl(tmp_path / "teacher.jsonl", {0: []})
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\nnum_classes = 2\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 2
        assert "frames.lvss" in capsys.readouterr().err

    def test_negative_rle_run_exit_2(self, tmp_path, capsys):
        from jitstream.streams import write_lvss

        write_lvss(tmp_path / "frames.lvss", np.zeros((4, 8, 8, 3), dtype=np.uint8))
        (tmp_path / "teacher.jsonl").write_text(
            '{"frame": 0, "instances": [{"class": 1, "conf": 0.9, '
            '"bbox": [0, 0, 2, 2], "rle": [2, -1, 3]}]}\n')
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\nnum_classes = 2\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 2
        assert "line 1: rle run 1 is negative" in capsys.readouterr().err


def snapshot_config(small_world, tmp_path, named):
    """The small world's run config starting from a snapshot of ``named``."""
    root, _ = small_world
    save_weights(tmp_path / "init.jitw", named)
    run = tmp_path / "run.cfg"
    run.write_text(f"stream.synthetic = {root / 'stream.cfg'}\nseed = 11\nfps = 25\n"
                   "init_snapshot = init.jitw\n")
    return run


def mismatched_snapshots():
    named = JITNet(ArchConfig(num_classes=3), seed=0).state_arrays()
    return {"missing": named[1:],
            "unknown": named + [("extra.weight", np.zeros(2, dtype=np.float32))],
            "non-utf8": named}


class TestMismatchedSnapshot:
    @pytest.mark.parametrize("case", ["missing", "unknown", "non-utf8"])
    def test_run_exit_2(self, small_world, tmp_path, capsys, case):
        run = snapshot_config(small_world, tmp_path, mismatched_snapshots()[case])
        if case == "non-utf8":                      # first byte of the first name
            blob = (tmp_path / "init.jitw").read_bytes()
            (tmp_path / "init.jitw").write_bytes(blob[:14] + b"\xff" + blob[15:])
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert {"missing": "missing parameter stem1.conv.weight",
                "unknown": "unknown parameters: ['extra.weight']",
                "non-utf8": "name of parameter 0 at offset 14"}[case] in err

    def test_sweep_marks_cell_failed(self, small_world, tmp_path):
        run = snapshot_config(small_world, tmp_path, mismatched_snapshots()["missing"])
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "a_thresh=0.7,0.9"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        status = lines[0].split(",").index("status")
        assert [line.split(",")[status] for line in lines[1:]] == ["failed", "failed"]


class TestEmptyStream:
    def test_zero_synthetic_frames_exit_2(self, tmp_path, capsys):
        (tmp_path / "stream.cfg").write_text("width = 16\nheight = 16\nnum_frames = 0\n")
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = stream.cfg\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 2
        assert "num_frames must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("shape,message", [((0, 8, 8, 3), "no frames"),
                                               ((2, 8, 0, 3), "no pixels")])
    def test_empty_container_exit_2(self, tmp_path, capsys, shape, message):
        from jitstream.distill import write_predictions_jsonl
        from jitstream.streams import write_lvss

        write_lvss(tmp_path / "frames.lvss", np.zeros(shape, dtype=np.uint8))
        write_predictions_jsonl(tmp_path / "teacher.jsonl", {0: []})
        run = tmp_path / "run.cfg"
        run.write_text("stream.container = frames.lvss\n"
                       "stream.recorded_teacher = teacher.jsonl\nnum_classes = 2\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err


class TestThreadCap:
    def test_thread_cap_env_honored(self, small_world, monkeypatch):
        monkeypatch.setenv("JITSTREAM_THREADS", "1")
        assert main(["gradcheck", "--seeds", "1"]) == 0

    @pytest.mark.parametrize("cap", ["1", "2"])
    def test_valid_cap_prints_nothing(self, monkeypatch, capsys, cap):
        """A valid value caps only jitstream's own threads, so the check
        neither warns nor touches the BLAS, even where threadpoolctl could
        be imported."""
        calls = []
        stub = types.ModuleType("threadpoolctl")
        stub.threadpool_limits = lambda *args, **kwargs: calls.append((args, kwargs))
        monkeypatch.setitem(sys.modules, "threadpoolctl", stub)
        monkeypatch.setenv("JITSTREAM_THREADS", cap)
        _limit_threads()
        assert capsys.readouterr().err == "" and calls == []

    def test_non_integer_cap_is_reported(self, monkeypatch, capsys):
        monkeypatch.setenv("JITSTREAM_THREADS", "two")
        _limit_threads()
        assert "JITSTREAM_THREADS='two' ignored: not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_is_reported(self, monkeypatch, capsys, cap):
        monkeypatch.setenv("JITSTREAM_THREADS", cap)
        _limit_threads()
        err = capsys.readouterr().err
        assert f"JITSTREAM_THREADS='{cap}' ignored: not a positive integer" in err
        assert "threadpoolctl" not in err


class TestBundledConfig:
    def test_default_run_emits_one_row_per_frame(self, tmp_path):
        from importlib.resources import files

        config = str(files("jitstream") / "configs" / "run_default.cfg")
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        header, rows = read_csv_rows(out / "run.csv")
        assert header == CSV_HEADER
        assert len(rows) == 2000


class TestPretrain:
    def pretrain_cfg(self, tmp_path, epochs):
        f = tmp_path / "pre.cfg"
        f.write_text(
            "corpus.scenes = 3\ncorpus.frames_per_scene = 3\n"
            "corpus.width = 48\ncorpus.height = 48\ncorpus.class_count = 2\n"
            f"epochs = {epochs}\nseed = 7\n")
        return f

    def test_zero_epochs_snapshot_equals_initialization(self, tmp_path):
        cfg = self.pretrain_cfg(tmp_path, epochs=0)
        out = tmp_path / "w.jitw"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        loaded = dict(load_weights(out))
        fresh = JITNet(ArchConfig(num_classes=3), seed=7)
        for name, value in fresh.state_arrays():
            np.testing.assert_array_equal(loaded[name], value.astype(np.float32))

    def test_loss_decreases_over_epochs(self, tmp_path):
        cfg = self.pretrain_cfg(tmp_path, epochs=2)
        out = tmp_path / "w.jitw"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 0
        log = (tmp_path / "w.jitw.log.csv").read_text().splitlines()
        assert log[0] == "epoch,loss,train_mean_iou"
        losses = [float(line.split(",")[1]) for line in log[1:]]
        assert len(losses) == 2 and losses[-1] < losses[0]

    @pytest.mark.parametrize("setting, message", [
        ("corpus.every_kth = 0", "corpus.every_kth must be >= 1"),
        ("corpus.width = 4", "frame extent too small"),
        ("num_classes = 2", "num_classes must be >= class_count + 1 = 3"),
        ("corpus.size_min = 0\ncorpus.size_max = 0\ncorpus.size_span = 0",
         "need 0 < corpus.size_min <= corpus.size_max, got 0.0 and 0.0"),
        ("corpus.size_min = 12\ncorpus.size_max = 4",
         "need 0 < corpus.size_min <= corpus.size_max, got 12.0 and 4.0"),
        ("corpus.speed_min = nan", "corpus.speed_min must be finite, got nan"),
        ("corpus.speed_min = 0.6\ncorpus.speed_max = 0.2",
         "need 0 <= corpus.speed_min <= corpus.speed_max, got 0.6 and 0.2"),
        ("corpus.speed_min = -0.1",
         "need 0 <= corpus.speed_min <= corpus.speed_max, got -0.1 and 0.6"),
        ("corpus.size_span = -2", "corpus.size_span must be >= 0, got -2.0"),
        ("corpus.size_span = inf", "corpus.size_span must be finite, got inf"),
        ("corpus.presence_prob = nan", "corpus.presence_prob must lie in [0, 1], got nan"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("epochs = -3", "epochs must be >= 0, got -3"),
    ])
    def test_bad_corpus_setting_exit_2(self, tmp_path, capsys, setting, message):
        cfg = self.pretrain_cfg(tmp_path, epochs=1)
        keys = {line.split(" = ")[0] for line in setting.splitlines()}
        kept = [line for line in cfg.read_text().splitlines()
                if line.split(" = ")[0] not in keys]
        cfg.write_text("\n".join(kept + [setting]) + "\n")
        out = tmp_path / "w.jitw"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_unallocatable_width_exit_2(self, tmp_path, capsys):
        cfg = self.pretrain_cfg(tmp_path, epochs=1)
        cfg.write_text(cfg.read_text() + f"width_multiplier = {UNALLOCATABLE_WIDTH}\n")
        out = tmp_path / "w.jitw"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: width_multiplier = 1e+15: ")
        assert captured.out == "" and not out.exists()
        assert not out.with_suffix(".jitw.log.csv").exists()

    def test_unallocatable_extent_exit_2(self, tmp_path, capsys):
        cfg = self.pretrain_cfg(tmp_path, epochs=1)
        cfg.write_text(cfg.read_text().replace(" = 48\n", f" = {UNALLOCATABLE_EXTENT}\n"))
        out = tmp_path / "w.jitw"
        assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "config error: frame extent width 16777216 x height 16777216: ")
        assert captured.out == "" and not out.exists()
        assert not out.with_suffix(".jitw.log.csv").exists()

    def test_unusable_out_exit_2_before_training(self, tmp_path, capsys):
        cfg = self.pretrain_cfg(tmp_path, epochs=1)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["pretrain", "--config", str(cfg), "--out", str(taken / "w.jitw")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and str(taken) in captured.err
        assert captured.out == ""


class TestGradcheckCommand:
    def test_stock_build_passes(self, capsys):
        assert main(["gradcheck", "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "network" in out and "FAIL" not in out
        assert any(line.startswith("Conv2d ") and line.endswith("ok")
                   for line in out.splitlines())

    def test_corrupted_shifted_backward_detected(self, capsys, monkeypatch):
        from jitstream.nn import layers

        original = layers._shifted_gradients

        def corrupted(dy, w, xp):
            input_gradient, weight_gradient = original(dy, w, xp)
            return input_gradient, lambda: weight_gradient() * 1.01

        # the shifted lowering's dW, inline or on the pool's first worker
        monkeypatch.setattr(layers, "_shifted_gradients", corrupted)
        assert main(["gradcheck", "--seeds", "1"]) == 1
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if "FAIL" in line]
        # the network's stride-1 3x3 layers run the shifted form too
        assert failed == ["Conv2d", "network"]

    def test_corrupted_conv_backward_detected(self, capsys, monkeypatch):
        from jitstream.nn import layers

        original = layers._conv2d_gradients

        def corrupted(dy, w, cache):
            input_gradient, weight_gradient = original(dy, w, cache)
            return lambda: input_gradient() * 1.01, weight_gradient

        # every lowering's dx, as Conv2d.backward computes it
        monkeypatch.setattr(layers, "_conv2d_gradients", corrupted)
        assert main(["gradcheck", "--seeds", "2"]) == 1
        out = capsys.readouterr().out
        assert any("Conv2d" in line and "FAIL" in line for line in out.splitlines())

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_seeds_below_one_is_an_argument_error(self, capsys, seeds):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", "--seeds", seeds])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--seeds: must be >= 1" in captured.err and captured.out == ""

    def test_unachievable_tolerance_fails(self):
        assert main(["gradcheck", "--seeds", "2", "--tol", "1e-12"]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        with pytest.raises(SystemExit) as info:
            main(["gradcheck", "--tol", tol])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert "--tol: must be a finite number > 0" in captured.err and captured.out == ""


class TestSweep:
    def test_threshold_knob_rows_and_trend(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "a_thresh=0.7,0.9"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["a_thresh", "status"]
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2
        fractions = [float(r[header.index("teacher_fraction")]) for r in rows]
        assert fractions[0] <= fractions[1]

    def test_width_knob_reports_fewer_flops(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "width_multiplier=0.5,1.0"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        flops = [int(line.split(",")[header.index("flops_inference")])
                 for line in lines[1:]]
        assert flops[0] < flops[1]

    def test_extreme_lr_flagged_unstable(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "lr=0.01,3.0"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        status = {line.split(",")[0]: line.split(",")[header.index("status")]
                  for line in lines[1:]}
        assert status["0.01"] == "ok"
        assert status["3.0"] == "unstable"

    def test_unknown_knob_exit_2(self, small_world, capsys):
        root, run = small_world
        assert main(["sweep", "--config", str(run), "--knob", "banana=1"]) == 2
        assert "unknown knob" in capsys.readouterr().err

    def test_knob_named_twice_exit_2(self, small_world, tmp_path, capsys):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "u_max=1,2", "--knob", "u_max=4"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "knob 'u_max' given twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("knob, message", [
        ("u_max=abc", "u_max must be an integer, got 'abc'"),
        ("lr=0.01,fast", "lr must be a number, got 'fast'"),
        ("skip_connections=ture", "skip_connections must be a boolean, got 'ture'"),
    ])
    def test_bad_knob_value_is_a_config_error(self, small_world, tmp_path, capsys,
                                              knob, message):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", knob]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert not out.exists()

    def test_unusable_out_exit_2_before_any_cell(self, small_world, tmp_path, capsys):
        root, run = small_world
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        assert main(["sweep", "--config", str(run), "--out", str(taken),
                     "--knob", "a_thresh=0.7,0.9"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and str(taken) in captured.err
        assert captured.out == ""

    def test_rejected_knob_value_is_a_failed_cell(self, small_world, tmp_path, capsys):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "delta_min=12"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["12", "failed"]
        assert "delta_max / delta_min must be a power of two" in capsys.readouterr().err

    def test_unusable_width_fails_only_its_cell(self, small_world, tmp_path, capsys):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "width_multiplier=inf,0.5"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["inf", "failed"],
                                                                ["0.5", "ok"]]
        assert "width_multiplier must be finite and > 0, got inf" in capsys.readouterr().err

    def test_unallocatable_extent_fails_its_cells(self, tmp_path, capsys):
        """The extent is not a knob, so every cell fails, and the sweep
        goes on to write them all."""
        stream_config(tmp_path / "huge.cfg", 5, extent=UNALLOCATABLE_EXTENT)
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = huge.cfg\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "seed=1,2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "failed"], ["2", "failed"]]
        assert "frame extent width 16777216 x height 16777216: " in capsys.readouterr().err

    def test_unallocatable_width_fails_only_its_cell(self, small_world, tmp_path, capsys):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", f"width_multiplier={UNALLOCATABLE_WIDTH},0.5"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1000000000000000.0", "failed"],
                                                                ["0.5", "ok"]]
        assert "width_multiplier = 1e+15: " in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["init_snapshot", "stream.container",
                                     "stream.recorded_teacher"])
    def test_directory_input_fails_its_cell(self, tmp_path, capsys, key):
        """A directory where an input file belongs: ``run`` exits 2, and
        ``sweep`` marks every cell failed instead of ending in a traceback."""
        from jitstream.distill import write_predictions_jsonl
        from jitstream.streams import write_lvss

        write_lvss(tmp_path / "frames.lvss", np.zeros((3, 16, 16, 3), dtype=np.uint8))
        write_predictions_jsonl(tmp_path / "teacher.jsonl", {0: []})
        (tmp_path / "folder").mkdir()
        inputs = {"stream.container": "frames.lvss",
                  "stream.recorded_teacher": "teacher.jsonl", key: "folder"}
        run = tmp_path / "run.cfg"
        run.write_text("".join(f"{k} = {v}\n" for k, v in inputs.items())
                       + "num_classes = 2\n")
        assert main(["run", "--config", str(run), "--out", str(tmp_path / "run")]) == 2
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "seed=1,2"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["1", "failed"],
                                                                ["2", "failed"]]
        assert str(tmp_path / "folder") in capsys.readouterr().err

    def test_boolean_knob_takes_the_config_file_spellings(self, small_world, tmp_path):
        root, run = small_world
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(run), "--out", str(out),
                     "--knob", "skip_connections=off,Yes"]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["False", "True"]


# a value for each knob that differs from the shipped default
KNOB_VALUES = {"u_max": "4", "delta_min": "16", "lr": "0.05", "width_multiplier": "0.5",
               "input_scale": "0.5", "skip_connections": "off", "a_thresh": "0.7",
               "seed": "3"}


@pytest.mark.parametrize("knob", SWEEP_KNOBS)
def test_sweep_cell_equals_config_with_the_key_set(small_world, tmp_path, knob):
    assert set(KNOB_VALUES) == set(SWEEP_KNOBS)
    root, run = small_world
    base = load_run_config(run)
    [(name, [value])] = _parse_knobs([f"{knob}={KNOB_VALUES[knob]}"]).items()
    cell = _apply_knobs(base, {name: value})
    edited = root / f"run_{knob}.cfg"
    kept = [line for line in run.read_text().splitlines()
            if line.split(" = ")[0] != knob]
    edited.write_text("\n".join(kept + [f"{knob} = {KNOB_VALUES[knob]}"]) + "\n")
    loaded = load_run_config(edited)
    assert loaded != dataclasses.replace(base, origin=edited)
    assert dataclasses.replace(cell, origin=edited) == loaded
