"""Back-off scheduler oracle tests: scripted students drive the production
stream loop, and the outcomes are compared frame-for-frame against a plain
transcription of the adaptive sampling procedure."""
import numpy as np
import pytest

from jitstream.distill import (
    DistillConfig,
    StreamNumericError,
    TeacherError,
    TeacherInstance,
    adapt_on_frame,
    process_stream,
    update_stride,
)

HW = (4, 4)


def reference_schedule(n_frames, cfg, outcome):
    """Independent simulation: returns [(teacher_frame, delta_after, passed)]."""
    delta = cfg.delta_min
    rows = []
    for t in range(n_frames):
        if t % delta == 0:
            passed = outcome(t)
            delta = min(cfg.delta_max, 2 * delta) if passed else max(cfg.delta_min, delta // 2)
            rows.append((t, delta, passed))
    return rows


def teacher_labels():
    labels = np.zeros(HW, dtype=np.uint8)
    labels[:, :2] = 1
    return labels


class StubSource:
    """Frames carry their own index in the first byte pair."""

    def __init__(self, n_frames):
        self.n_frames = n_frames

    def __len__(self):
        return self.n_frames

    def __iter__(self):
        for t in range(self.n_frames):
            frame = np.zeros((*HW, 3), dtype=np.uint16)
            frame[0, 0, 0] = t
            yield t, frame


class StubTeacher:
    cost_per_invocation = 300.0

    def __init__(self, fail_frames=()):
        self.fail_frames = set(fail_frames)
        mask = teacher_labels()[:, :2] == 1
        self.instance = TeacherInstance(1, 1.0, (0, 0, 2, HW[0]), mask)

    def predict(self, frame_index, frame=None):
        if frame_index in self.fail_frames:
            raise TeacherError(frame_index)
        return [self.instance]


class ScriptedStudent:
    """Echoes the teacher's map on pass frames, all-background otherwise."""

    def __init__(self, outcome):
        self.outcome = outcome
        self.updates = 0

    def predict(self, frame):
        t = int(frame[0, 0, 0])
        return teacher_labels() if self.outcome(t) else np.zeros(HW, dtype=np.uint8)

    def train_step(self, frame, labels, weights):
        self.updates += 1
        return 0.5


class ConvergingStudent:
    """Needs a fixed number of gradient steps on each teacher frame before
    its prediction matches the teacher."""

    def __init__(self, steps_needed):
        self.steps_needed = steps_needed
        self._taken = {}

    def predict(self, frame):
        t = int(frame[0, 0, 0])
        if self._taken.get(t, 0) >= self.steps_needed:
            return teacher_labels()
        return np.zeros(HW, dtype=np.uint8)

    def train_step(self, frame, labels, weights):
        t = int(frame[0, 0, 0])
        self._taken[t] = self._taken.get(t, 0) + 1
        return 0.5


def run(n_frames, outcome, cfg=None, teacher=None):
    """(report, every frame's record, (frame, stride after) of teacher frames)."""
    cfg = cfg or DistillConfig()
    records = []
    report = process_stream(StubSource(n_frames), teacher or StubTeacher(), cfg,
                            ScriptedStudent(outcome), progress=records.append)
    teacher_rows = [(r.frame_index, r.delta) for r in records if r.teacher_invoked]
    return report, records, teacher_rows


class TestUpdateStride:
    def test_doubling(self):
        assert update_stride(8, 0.95, DistillConfig(a_thresh=0.8)) == 16

    def test_clamped_at_max(self):
        assert update_stride(64, 0.95, DistillConfig(a_thresh=0.8)) == 64

    def test_equality_halves(self):
        assert update_stride(8, 0.8, DistillConfig(a_thresh=0.8)) == 8
        assert update_stride(16, 0.8, DistillConfig(a_thresh=0.8)) == 8

    def test_clamped_at_min(self):
        assert update_stride(8, 0.1, DistillConfig(a_thresh=0.8)) == 8


class TestAdaptLoop:
    def test_already_passing_zero_updates(self):
        student = ScriptedStudent(lambda t: True)
        frame = np.zeros((*HW, 3), dtype=np.uint16)
        res = adapt_on_frame(student, frame, teacher_labels(), np.ones(HW),
                             DistillConfig())
        assert res.updates == 0 and res.a_curr >= 0.8

    def test_never_passing_exactly_u_max(self):
        student = ScriptedStudent(lambda t: False)
        frame = np.zeros((*HW, 3), dtype=np.uint16)
        res = adapt_on_frame(student, frame, teacher_labels(), np.ones(HW),
                             DistillConfig(u_max=8))
        assert res.updates == 8 and student.updates == 8

    @pytest.mark.parametrize("steps", [1, 3, 5])
    def test_threshold_crossing_stops_early(self, steps):
        student = ConvergingStudent(steps)
        frame = np.zeros((*HW, 3), dtype=np.uint16)
        res = adapt_on_frame(student, frame, teacher_labels(), np.ones(HW),
                             DistillConfig(u_max=8, a_thresh=0.8))
        assert res.updates == steps
        assert res.a_curr >= 0.8

    def test_non_finite_loss_aborts(self):
        class NaNStudent(ScriptedStudent):
            def train_step(self, frame, labels, weights):
                return float("nan")

        res = adapt_on_frame(NaNStudent(lambda t: False),
                             np.zeros((*HW, 3), dtype=np.uint16),
                             teacher_labels(), np.ones(HW), DistillConfig())
        assert res.aborted and res.updates == 0


class TestSchedulerTraces:
    def test_always_pass_trace(self):
        _, _, rows = run(250, lambda t: True)
        assert [t for t, _ in rows] == [0, 16, 32, 64, 128, 192]
        assert [d for _, d in rows] == [16, 32, 64, 64, 64, 64]

    def test_always_fail_trace(self):
        report, records, rows = run(100, lambda t: False)
        assert [t for t, _ in rows] == list(range(0, 100, 8))
        assert all(d == 8 for _, d in rows)
        assert all(r.updates_performed == 8 for r in records if r.teacher_invoked)

    def test_mixed_trace(self):
        outcome = lambda t: t != 64
        _, _, rows = run(160, outcome)
        assert [t for t, _ in rows] == [0, 16, 32, 64, 96, 128]

    def test_teacher_frames_are_stride_multiples(self):
        rng = np.random.default_rng(7)
        outcomes = rng.random(400) > 0.5
        _, records, _ = run(400, lambda t: bool(outcomes[t]))
        invoked = {r.frame_index for r in records if r.teacher_invoked}
        ref = {t for t, _, _ in reference_schedule(400, DistillConfig(),
                                                   lambda t: bool(outcomes[t]))}
        assert invoked == ref

    @pytest.mark.parametrize("seed", range(30))
    def test_randomized_traces_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 500))
        outcomes = rng.random(n) > rng.uniform(0.2, 0.8)
        d_min = int(rng.choice([1, 2, 4, 8]))
        d_max = d_min * int(rng.choice([1, 2, 4, 8]))
        cfg = DistillConfig(delta_min=d_min, delta_max=d_max)
        outcome = lambda t: bool(outcomes[t])
        _, _, rows = run(n, outcome, cfg)
        ref = reference_schedule(n, cfg, outcome)
        assert rows == [(t, d) for t, d, _ in ref]

    def test_delta_stays_on_power_of_two_grid(self):
        rng = np.random.default_rng(3)
        outcomes = rng.random(600) > 0.4
        cfg = DistillConfig(delta_min=8, delta_max=64)
        _, records, _ = run(600, lambda t: bool(outcomes[t]), cfg)
        allowed = {8, 16, 32, 64}
        assert all(r.delta in allowed for r in records)

    def test_update_budget_respected_and_totalled(self):
        rng = np.random.default_rng(11)
        outcomes = rng.random(300) > 0.5
        report, records, _ = run(300, lambda t: bool(outcomes[t]))
        assert all(r.updates_performed <= 8 for r in records)
        assert all(r.updates_performed == 0 or r.teacher_invoked
                   for r in records)
        assert report.total_updates == sum(r.updates_performed for r in records)

    def test_always_pass_fraction_converges(self):
        cfg = DistillConfig(delta_min=8, delta_max=64)
        window = 10 * cfg.delta_max
        _, records, _ = run(3 * window, lambda t: True, cfg)
        # past the ramp-up, every window of 10 * delta_max frames sees
        # window / delta_max invocations, within one
        for start in (window, 2 * window):
            count = sum(1 for r in records
                        if r.teacher_invoked and start <= r.frame_index < start + window)
            assert abs(count - window / cfg.delta_max) <= 1

    def test_teacher_fraction_bounds(self):
        cfg = DistillConfig(delta_min=8, delta_max=64)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 512
            outcomes = rng.random(n) > 0.5
            report, _, _ = run(n, lambda t: bool(outcomes[t]), cfg)
            assert n / cfg.delta_max <= report.teacher_invocations <= n / cfg.delta_min + 1

    def test_teacher_failure_keeps_stride_and_counts(self):
        teacher = StubTeacher(fail_frames={16})
        cfg = DistillConfig()
        report, records, rows = run(80, lambda t: True, cfg, teacher=teacher)
        # pass at 0 -> delta 16; failure at 16 leaves delta untouched, so 32 is next
        assert [t for t, _ in rows] == [0, 32, 64]
        assert report.teacher_failures == 1
        failed = records[16]
        assert not failed.teacher_invoked and failed.delta == 16


class FailingStudent(ScriptedStudent):
    """Fails like a non-finite forward from frame ``fail_at`` on."""

    def __init__(self, fail_at):
        super().__init__(lambda t: True)
        self.fail_at = fail_at

    def predict(self, frame):
        if int(frame[0, 0, 0]) >= self.fail_at:
            raise StreamNumericError(-1)
        return super().predict(frame)


# with delta_min 8 and every check passing, frames 0 and 16 ask the teacher
# and frames 5 and 17 do not
@pytest.mark.parametrize("fail_at", [0, 5, 16, 17])
def test_numeric_failure_names_its_frame(fail_at):
    with pytest.raises(StreamNumericError) as info:
        process_stream(StubSource(64), StubTeacher(), DistillConfig(delta_min=8),
                       FailingStudent(fail_at))
    assert info.value.frame_index == fail_at
