import numpy as np
import pytest

from jitstream.arch import ArchConfig, JITNet
from jitstream.distill import (
    DistillConfig,
    JITNetStudent,
    materialize_dataset,
    offline_oracle_train,
    process_stream,
)
from jitstream.metrics import mean_iou
from jitstream.nn import label_map, weighted_softmax_cross_entropy
from jitstream.streams import (
    ObjectSpec,
    OracleTeacher,
    SyntheticStreamConfig,
    gen_synthetic_stream,
)


def static_scene(num_frames=200, seed=3):
    return SyntheticStreamConfig(
        width=64, height=64, num_frames=num_frames, class_count=2, seed=seed,
        objects=(ObjectSpec(1, "disc", (9, 11), (0.0, 0.0), 0),
                 ObjectSpec(2, "rectangle", (8, 10), (0.0, 0.0), 1)))


class TestDataset:
    def test_every_fifth_frame_sampling(self):
        scfg = static_scene(num_frames=100)
        stream = gen_synthetic_stream(scfg)
        dataset = materialize_dataset(stream, OracleTeacher(stream),
                                      DistillConfig(), every_kth=5)
        assert len(dataset) == 20

    def test_samples_carry_labels_and_weights(self):
        stream = gen_synthetic_stream(static_scene(num_frames=10))
        dataset = materialize_dataset(stream, OracleTeacher(stream),
                                      DistillConfig(), every_kth=5)
        frame, labels, weights = dataset[0]
        assert frame.shape == (64, 64, 3) and labels.shape == (64, 64)
        assert set(np.unique(weights)) <= {1.0, 5.0}


class TestStudentCache:
    def test_step_on_fresh_frame_after_predict_on_freed_frame(self):
        """A fresh array can take over the ``id`` of a frame freed right after
        ``predict``; the step must still use the fresh frame's own forward."""
        net = JITNet(ArchConfig(num_classes=3, width_multiplier=0.25), seed=0)
        student = JITNetStudent(net)
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 3, size=(16, 16))
        weights = np.ones((16, 16), dtype=np.float32)
        for _ in range(50):
            temporary = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
            student.predict(temporary)
            del temporary
            frame = rng.integers(0, 256, size=(16, 16, 3)).astype(np.uint8)
            fresh = weighted_softmax_cross_entropy(
                net.forward(JITNetStudent.prepare(frame)), labels, weights).loss
            assert student.train_step(frame, labels, weights) == pytest.approx(fresh, rel=1e-6)


class TestLabelMap:
    """The per-class label map equals ``argmax(axis=0)`` as uint8."""

    @pytest.mark.parametrize("layout", ["C", "resize"])
    @pytest.mark.parametrize("classes", [2, 4, 11])
    def test_equals_argmax(self, layout, classes):
        rng = np.random.default_rng(classes)
        # few distinct values, so most pixels tie between several classes
        logits = rng.integers(-2, 3, size=(classes, 23, 37)).astype(np.float32)
        logits[:, 0, :4] = [[-0.0], [0.0]] * (classes // 2) + [[0.0]] * (classes % 2)
        logits[:, 1, :4] = [[0.0], [-0.0]] * (classes // 2) + [[-0.0]] * (classes % 2)
        logits[:, 2, 0] = 7.0                   # all classes tie at the maximum
        if layout == "resize":                  # (C, W, H) memory, as a caller may hand over
            logits = np.ascontiguousarray(logits.transpose(0, 2, 1)).transpose(0, 2, 1)
        want = logits.argmax(axis=0).astype(np.uint8)
        got = label_map(logits)
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)
        assert got[2, 0] == 0 and got[0, 0] == 0 and got[1, 0] == 0

    def test_equals_argmax_on_network_logits(self):
        net = JITNet(ArchConfig(num_classes=4), seed=1)
        logits = net.forward(np.random.default_rng(0).random((3, 64, 96), dtype=np.float32))
        assert np.array_equal(label_map(logits), logits.argmax(axis=0).astype(np.uint8))


class TestOfflineTraining:
    def test_zero_epochs_leaves_network_unchanged(self):
        stream = gen_synthetic_stream(static_scene(num_frames=10))
        dataset = materialize_dataset(stream, OracleTeacher(stream),
                                      DistillConfig(), every_kth=5)
        net = JITNet(ArchConfig(num_classes=3), seed=1)
        before = [p.value.copy() for _, p in net.params()]
        offline_oracle_train(net, dataset, epochs=0)
        for (_, p), b in zip(net.params(), before):
            np.testing.assert_array_equal(p.value, b)

    def test_empty_dataset_rejected(self):
        net = JITNet(ArchConfig(num_classes=3, width_multiplier=0.25), seed=1)
        with pytest.raises(ValueError, match="non-empty"):
            offline_oracle_train(net, [], epochs=1)

    def test_seeded_shuffle_is_deterministic(self):
        stream = gen_synthetic_stream(static_scene(num_frames=20))
        dataset = materialize_dataset(stream, OracleTeacher(stream),
                                      DistillConfig(), every_kth=2)
        nets = []
        for _ in range(2):
            net = JITNet(ArchConfig(num_classes=3), seed=1)
            offline_oracle_train(net, dataset, epochs=1, seed=9)
            nets.append(net)
        for (_, a), (_, b) in zip(nets[0].params(), nets[1].params()):
            np.testing.assert_array_equal(a.value, b.value)

    def test_log_rows_per_epoch(self):
        stream = gen_synthetic_stream(static_scene(num_frames=20))
        dataset = materialize_dataset(stream, OracleTeacher(stream),
                                      DistillConfig(), every_kth=5)
        net = JITNet(ArchConfig(num_classes=3, width_multiplier=0.25), seed=1)
        log = offline_oracle_train(net, dataset, epochs=2,
                                   seed=np.random.default_rng(3))
        assert [row[0] for row in log] == [0, 1]
        assert all(np.isfinite(loss) and 0 <= miou <= 1 for _, loss, miou in log)

    def test_offline_oracle_tracks_online_on_static_scene(self):
        """Both arms converge on an unchanging scene; their accuracy agrees.

        The online loop stops improving once it clears the accuracy check, so
        the comparison runs with a high threshold that lets both arms reach
        their converged level.  The online arm starts from random weights and
        trains only on teacher frames, so its warm-up ends at the first check
        that clears the threshold; both arms are scored on the frames after
        it, where on this scene neither arm trains any more.
        """
        scfg = static_scene(num_frames=200)
        stream = gen_synthetic_stream(scfg)
        teacher = OracleTeacher(stream)
        cfg = DistillConfig(a_thresh=0.95)

        online_net = JITNet(ArchConfig(num_classes=3), seed=0)
        records = []
        process_stream(stream, teacher, cfg, online_net, eval_labels=stream.labels,
                       progress=records.append)
        warm_up = [r.frame_index for r in records
                   if r.teacher_invoked and r.a_curr > cfg.a_thresh]
        assert warm_up, "the online arm never cleared the accuracy check"
        online_scores = [r.eval_iou for r in records
                         if r.frame_index > warm_up[0] and r.eval_iou is not None]
        online_mean = float(np.mean(online_scores))

        offline_net = JITNet(ArchConfig(num_classes=3), seed=0)
        dataset = materialize_dataset(stream, teacher, cfg, every_kth=5)
        offline_oracle_train(offline_net, dataset, epochs=3, seed=4)
        student = JITNetStudent(offline_net)
        offline_scores = []
        for t, frame in stream:
            res = mean_iou(student.predict(frame), stream.labels(t))
            if t > warm_up[0] and res.defined:
                offline_scores.append(res.value)
        offline_mean = float(np.mean(offline_scores))

        assert abs(offline_mean - online_mean) <= 0.05
        assert online_mean > 0.7 and offline_mean > 0.7


class TestStreamIntegration:
    def test_real_student_learns_small_stream(self):
        """Cold starts from network seeds 0-4 on one small stream: the median
        over seeds of the mean IoU from frame 80 on is at least 0.5.  One
        seed's cold start is chaotic: a change of rounding alone moves a
        seed's figure by up to 0.2, to either side of the bar."""
        scfg = SyntheticStreamConfig(
            width=64, height=64, num_frames=120, class_count=2, seed=11,
            objects=(ObjectSpec(1, "disc", (9, 12), (0.2, 0.6), 0),
                     ObjectSpec(2, "rectangle", (8, 11), (0.2, 0.6), 1)))
        stream = gen_synthetic_stream(scfg)
        late_ious = []
        for seed in range(5):
            net = JITNet(ArchConfig(num_classes=3), seed=seed)
            records = []
            report = process_stream(stream, OracleTeacher(stream), DistillConfig(), net,
                                    eval_labels=stream.labels, progress=records.append)
            assert report.n_frames == 120
            assert report.teacher_invocations >= 120 // 64
            assert report.total_updates == sum(r.updates_performed for r in records)
            assert report.numeric_events == 0
            late = [r.eval_iou for r in records[80:] if r.eval_iou is not None]
            late_ious.append(float(np.mean(late)))
            assert records[7].prediction.shape == (64, 64)
            assert records[7].prediction.dtype == np.uint8
        assert float(np.median(late_ious)) >= 0.5, late_ious
