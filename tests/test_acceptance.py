"""Acceptance suite.

Each test prints one PASS/FAIL line for its criterion (run with ``-s`` or
``-v`` to see them live).  The stream-level criteria share one session-scoped
run family: corpus pretraining followed by four full runs of the bundled
2000-frame stream (accuracy thresholds 0.7 / 0.8 / 0.9 with the oracle
teacher, plus 0.8 with the degraded teacher).
"""
import json
import statistics
import time
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from jitstream.arch import (
    ArchConfig,
    count_params_from_config,
    end_to_end_gradient_check,
    estimate_flops,
)
from jitstream.cli import build_world, main
from jitstream.config import load_pretrain_config, load_run_config
from jitstream.distill import (
    DistillConfig,
    TeacherInstance,
    dilate_box,
    build_weight_map,
    process_stream,
    rasterize_teacher,
)
from jitstream.metrics import CostModel, mean_iou, speedup_from_counts
from jitstream.nn import save_weights
from jitstream.nn.gradcheck import run_layer_suite
from jitstream.pretrain import pretrain

from test_rasterize import rasterize_reference
from test_metrics import mean_iou_reference
from test_scheduler import StubSource, StubTeacher, ScriptedStudent, reference_schedule

CONFIG_DIR = Path(str(files("jitstream") / "configs"))
EVENT_FRAME = 1000          # onset of the scripted appearance shift


def criterion(num: str, ok: bool, description: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


@dataclass
class RunResult:
    mean_iou_after_100: float
    mean_iou_all: float
    teacher_fraction: float
    numeric_events: int
    teacher_rows: list          # (frame_index, delta_after)
    runtime_s: float


def _execute(run_file: Path) -> RunResult:
    cfg = load_run_config(run_file)
    source, teacher, eval_labels, net = build_world(cfg)
    started = time.time()
    records = []
    report = process_stream(source, teacher, cfg.distill, net,
                            eval_labels=eval_labels, progress=records.append)
    runtime = time.time() - started
    after = [r.eval_iou for r in records[100:] if r.eval_iou is not None]
    full = [r.eval_iou for r in records if r.eval_iou is not None]
    return RunResult(
        mean_iou_after_100=statistics.mean(after),
        mean_iou_all=statistics.mean(full),
        teacher_fraction=report.teacher_invocations / report.n_frames,
        numeric_events=report.numeric_events,
        teacher_rows=[(r.frame_index, r.delta) for r in records if r.teacher_invoked],
        runtime_s=runtime)


@pytest.fixture(scope="session")
def run_family(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    net, _ = pretrain(load_pretrain_config(CONFIG_DIR / "pretrain_default.cfg"))
    snapshot = root / "pretrained.jitw"
    save_weights(snapshot, net.state_arrays())

    base = (CONFIG_DIR / "run_default.cfg").read_text().replace(
        "stream.synthetic = standard_stream.cfg",
        f"stream.synthetic = {CONFIG_DIR / 'standard_stream.cfg'}")
    results = {}
    for name, a_thresh, noisy in (("a07", 0.7, False), ("a08", 0.8, False),
                                  ("a09", 0.9, False), ("noisy08", 0.8, True)):
        text = base.replace("a_thresh = 0.8", f"a_thresh = {a_thresh}")
        text += f"init_snapshot = {snapshot}\n"
        if noisy:
            text += "noise.jitter_px = 2\nnoise.conf_spread = 0.2\nnoise.drop_prob = 0.05\n"
        run_file = root / f"{name}.cfg"
        run_file.write_text(text)
        results[name] = _execute(run_file)
    return results


class TestCriterion1Gradients:
    def test_gradient_suite(self):
        started = time.time()
        results = run_layer_suite(seeds=20, eps=1e-5)
        worst_layer = max(worst for worst, _ in results.values())
        whole = end_to_end_gradient_check(seed=0)
        elapsed = time.time() - started
        criterion("1", worst_layer < 1e-4 and whole < 1e-3 and elapsed < 120,
                  f"gradient suite: worst layer {worst_layer:.2e} (< 1e-4), "
                  f"network {whole:.2e} (< 1e-3), {elapsed:.0f}s (< 120s)")


class TestCriterion2Scheduler:
    def run_trace(self, n_frames, outcome, cfg=None):
        cfg = cfg or DistillConfig()
        records = []
        process_stream(StubSource(n_frames), StubTeacher(), cfg,
                       ScriptedStudent(outcome), progress=records.append)
        return [(r.frame_index, r.delta, r.updates_performed)
                for r in records if r.teacher_invoked]

    def test_derived_traces(self):
        always_pass = self.run_trace(250, lambda t: True)
        ok = ([t for t, _, _ in always_pass] == [0, 16, 32, 64, 128, 192]
              and [d for _, d, _ in always_pass] == [16, 32, 64, 64, 64, 64])

        always_fail = self.run_trace(120, lambda t: False)
        ok = ok and ([t for t, _, _ in always_fail] == list(range(0, 120, 8))
                     and all(u == 8 for _, _, u in always_fail))

        mixed = self.run_trace(160, lambda t: t != 64)
        ok = ok and [t for t, _, _ in mixed] == [0, 16, 32, 64, 96, 128]
        criterion("2a", ok, "scheduler reproduces the three derived traces")

    def test_randomized_traces_against_reference(self):
        mismatches = 0
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(64, 400))
            outcomes = rng.random(n) > rng.uniform(0.1, 0.9)
            d_min = int(rng.choice([1, 2, 4, 8, 16]))
            d_max = d_min * int(rng.choice([1, 2, 4, 8]))
            cfg = DistillConfig(delta_min=d_min, delta_max=d_max)
            outcome = lambda t: bool(outcomes[t])
            got = [(t, d) for t, d, _ in self.run_trace(n, outcome, cfg)]
            want = [(t, d) for t, d, _ in reference_schedule(n, cfg, outcome)]
            mismatches += got != want
        criterion("2b", mismatches == 0,
                  f"1000 randomized traces match the reference simulation "
                  f"({mismatches} mismatches)")


class TestCriterion3Labels:
    def test_rasterization_and_weights(self):
        ok = True
        for seed in range(50):
            rng = np.random.default_rng(seed)
            hw = (12, 14)
            instances = []
            for _ in range(rng.integers(1, 5)):
                x0, y0 = int(rng.integers(0, 10)), int(rng.integers(0, 8))
                x1 = int(min(rng.integers(x0 + 1, 15), 14))
                y1 = int(min(rng.integers(y0 + 1, 13), 12))
                mask = rng.random((y1 - y0, x1 - x0)) < 0.7
                if not mask.any():
                    mask[0, 0] = True
                instances.append(TeacherInstance(int(rng.integers(1, 4)),
                                                 float(rng.choice([0.3, 0.6, 0.9])),
                                                 (x0, y0, x1, y1), mask))
            got = rasterize_teacher(instances, 0.5, hw)
            ok = ok and np.array_equal(got, rasterize_reference(instances, 0.5, hw))

        box = dilate_box((10, 20, 30, 40), 0.15, (64, 64))
        ok = ok and box == (8, 18, 32, 42)
        inst = TeacherInstance(1, 1.0, (10, 20, 30, 40),
                               np.ones((20, 20), dtype=bool))
        weights = build_weight_map([inst], 0.15, 5.0, (64, 64))
        inside = np.zeros((64, 64), dtype=bool)
        inside[18:42, 8:32] = True
        ok = ok and (weights[inside] == 5.0).all() and (weights[~inside] == 1.0).all()
        criterion("3", ok, "rasterization matches the per-pixel oracle; weight "
                           "maps follow the floor/ceil dilation arithmetic")


class TestCriterion4Metric:
    def test_mean_iou_oracle(self):
        ok = True
        for seed in range(100):
            rng = np.random.default_rng(seed)
            h, w = rng.integers(2, 65, size=2)
            pred = rng.integers(0, 6, size=(h, w))
            label = rng.integers(0, 6, size=(h, w))
            got = mean_iou(pred, label, exclude_background=False)
            want_value, want_classes = mean_iou_reference(pred, label, False)
            ok = ok and got.per_class == want_classes
            ok = ok and (got.value == want_value
                         or abs(got.value - want_value) < 1e-15)
        example = mean_iou(np.array([[0, 1], [1, 1]]), np.array([[0, 1], [0, 1]]),
                           exclude_background=False)
        ok = ok and abs(example.value - (0.5 + 2 / 3) / 2) < 1e-12
        criterion("4", ok, "mean IoU matches the set-counting oracle on 100 "
                           "random pairs and the 0.58333... example to 1e-12")


class TestCriterion5Counters:
    def test_parameter_count_vs_reference_table(self):
        count = count_params_from_config(ArchConfig(num_classes=32))
        ok = 0.75 * 3.0e6 <= count <= 1.25 * 3.0e6
        criterion("5a", ok,
                  f"parameter count {count/1e6:.3f}M within +/-25% of 3.0M; "
                  f"the published channel plan yields ~0.78M; scaling the "
                  f"encoder channels alone to reach 3.0M pushes inference "
                  f"FLOPs outside their own band, and the plans that meet "
                  f"both bands also change the fixed decoder and head widths")

    def test_inference_flops_vs_reference_table(self):
        flops = estimate_flops(ArchConfig(num_classes=9), (720, 1280))
        ok = 0.75 * 15.2e9 <= flops <= 1.25 * 15.2e9
        criterion("5b", ok, f"inference cost {flops/1e9:.2f} GFLOPs within "
                            f"+/-25% of 15.2e9 at 720x1280")

    def test_train_inference_ratio(self):
        cfg = ArchConfig(num_classes=9)
        ratio = (estimate_flops(cfg, (720, 1280), "train_step")
                 / estimate_flops(cfg, (720, 1280)))
        criterion("5c", 2.5 <= ratio <= 3.5,
                  f"training-step / inference FLOP ratio {ratio:.3f} in [2.5, 3.5]")


class TestCriterion6EndToEnd:
    def test_accuracy_and_teacher_fraction(self, run_family):
        run = run_family["a08"]
        ok = run.mean_iou_after_100 >= 0.75 and run.teacher_fraction <= 0.20
        criterion("6a", ok,
                  f"default run: mean IoU over frames 100-2000 "
                  f"{run.mean_iou_after_100:.4f} (>= 0.75), teacher fraction "
                  f"{run.teacher_fraction:.2%} (<= 20%)")

    def test_scheduler_reacts_to_appearance_shift(self, run_family):
        run = run_family["a08"]
        cfg = DistillConfig()
        post = [(t, d) for t, d in run.teacher_rows if t >= EVENT_FRAME]
        first_frame, first_delta = post[0]
        pre_delta = [d for t, d in run.teacher_rows if t < EVENT_FRAME][-1]
        reacted = first_delta < pre_delta        # the very next check fails

        # fastest possible collapse from delta_max: three consecutive failing
        # checks, delta_max + delta_max/2 + delta_max/4 frames after the event
        budget = EVENT_FRAME + cfg.delta_max + cfg.delta_max // 2 + cfg.delta_max // 4
        reach = next((t for t, d in post if d == cfg.delta_min), None)
        collapsed = reach is not None and reach <= budget

        recovered = next((t for t, d in post if reach is not None
                          and t > reach and d >= 32), None)
        recovery_ok = recovered is not None and recovered <= EVENT_FRAME + 512
        criterion("6b", reacted and collapsed and recovery_ok,
                  f"appearance shift at {EVENT_FRAME}: first check at "
                  f"{first_frame} halves the stride, stride reaches "
                  f"{cfg.delta_min} at {reach} (<= {budget}), back to >= 32 at "
                  f"{recovered} (<= {EVENT_FRAME + 512})")

    def test_runtime_budget(self, run_family):
        run = run_family["a08"]
        criterion("6c", run.runtime_s < 600,
                  f"2000-frame run took {run.runtime_s:.0f}s (< 600s)")


class TestCriterion7ThresholdTrend:
    def test_monotone_threshold_response(self, run_family):
        fractions = [run_family[k].teacher_fraction for k in ("a07", "a08", "a09")]
        ious = [run_family[k].mean_iou_all for k in ("a07", "a08", "a09")]
        ok = (fractions[0] <= fractions[1] <= fractions[2]
              and ious[0] <= ious[1] <= ious[2])
        criterion("7", ok,
                  f"threshold sweep 0.7/0.8/0.9: teacher fractions "
                  f"{[f'{f:.2%}' for f in fractions]} nondecreasing, mean IoU "
                  f"{[f'{v:.4f}' for v in ious]} nondecreasing")


class TestCriterion8NoiseRobustness:
    def test_degradation_bounded(self, run_family):
        clean = run_family["a08"]
        noisy = run_family["noisy08"]
        drop = clean.mean_iou_all - noisy.mean_iou_all
        ok = drop <= 0.10 and noisy.numeric_events == 0
        criterion("8", ok,
                  f"noisy teacher (jitter 2, spread 0.2, drop 0.05): ground-truth "
                  f"IoU {noisy.mean_iou_all:.4f} vs {clean.mean_iou_all:.4f}, "
                  f"degradation {drop:.4f} (<= 0.10), non-finite events "
                  f"{noisy.numeric_events}")


class TestCriterion9CostModel:
    def test_speedup_example(self):
        res = speedup_from_counts(1000, 16, 100, CostModel(300, 7, 30))
        ok = (abs(res.speedup - 300000.0 / 14800.0) < 1e-6
              and abs(res.teacher_fraction - 0.016) < 1e-12)
        criterion("9a", ok, f"speedup formula gives {res.speedup:.6f} "
                            f"(300000/14800), fraction {res.teacher_fraction:.3%}")

    def test_reruns_byte_identical(self, tmp_path):
        stream = tmp_path / "stream.cfg"
        stream.write_text(
            "width = 64\nheight = 64\nnum_frames = 200\nclass_count = 2\nseed = 5\n"
            "object1.class_id = 1\nobject1.shape = disc\n"
            "object1.size_min = 9\nobject1.size_max = 12\n"
            "object2.class_id = 2\nobject2.shape = blob\n"
            "object2.size_min = 8\nobject2.size_max = 11\n")
        run = tmp_path / "run.cfg"
        run.write_text("stream.synthetic = stream.cfg\nseed = 5\n")
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            assert main(["run", "--config", str(run), "--out", str(out)]) == 0
            outs.append((out / "run.csv").read_bytes()
                        + (out / "summary.json").read_bytes())
        criterion("9b", outs[0] == outs[1],
                  "rerun with the same configuration and seed is byte-identical")
