import numpy as np
import pytest

from jitstream.metrics import (
    ConfusionAccumulator,
    CostModel,
    interval_series,
    mean_iou,
    speedup_from_counts,
)


def mean_iou_reference(pred, label, exclude_background, ignore_label=255):
    """Independent per-pixel set-counting oracle (python sets, no numpy math)."""
    per_class = {}
    classes = set(np.unique(pred)) | {c for c in np.unique(label) if c != ignore_label}
    for c in sorted(classes):
        inter = pred_n = label_n = 0
        for y in range(pred.shape[0]):
            for x in range(pred.shape[1]):
                if label[y, x] == ignore_label:
                    continue
                p_hit = pred[y, x] == c
                l_hit = label[y, x] == c
                inter += p_hit and l_hit
                pred_n += p_hit
                label_n += l_hit
        union = pred_n + label_n - inter
        if union > 0:
            per_class[int(c)] = inter / union
    included = [v for c, v in per_class.items() if not (exclude_background and c == 0)]
    value = sum(included) / len(included) if included else None
    return value, per_class


class TestMeanIoU:
    def test_perfect_prediction(self):
        label = np.array([[0, 1], [2, 1]])
        res = mean_iou(label.copy(), label, exclude_background=True)
        assert res.value == 1.0

    def test_disjoint_masks_zero(self):
        pred = np.array([[1, 1], [0, 0]])
        label = np.array([[0, 0], [1, 1]])
        res = mean_iou(pred, label, exclude_background=True)
        assert res.per_class[1] == 0.0 and res.value == 0.0

    def test_hand_counted_example(self):
        pred = np.array([[0, 1], [1, 1]])
        label = np.array([[0, 1], [0, 1]])
        res = mean_iou(pred, label, exclude_background=False)
        assert res.value == pytest.approx((0.5 + 2 / 3) / 2, abs=1e-12)

    def test_undefined_distinct_from_zero(self):
        maps = np.zeros((3, 3), dtype=np.int64)
        res = mean_iou(maps, maps, exclude_background=True)
        assert res.value is None and not res.defined
        assert mean_iou(maps, maps, exclude_background=False).value == 1.0

    def test_ignore_label_excluded_from_counts(self):
        pred = np.array([[1, 2], [1, 1]])
        label = np.array([[1, 255], [1, 1]])
        res = mean_iou(pred, label, exclude_background=True)
        assert res.value == 1.0
        assert 2 not in res.per_class

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_set_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        h, w = rng.integers(2, 65, size=2)
        pred = rng.integers(0, 6, size=(h, w))
        label = rng.integers(0, 6, size=(h, w))
        if seed % 4 == 0:
            label[rng.random(size=(h, w)) < 0.1] = 255
        for exclude in (True, False):
            got = mean_iou(pred, label, exclude_background=exclude)
            want_value, want_classes = mean_iou_reference(pred, label, exclude)
            assert got.per_class == pytest.approx(want_classes, abs=0)
            if want_value is None:
                assert got.value is None
            else:
                assert got.value == pytest.approx(want_value, abs=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_relabeling_symmetry(self, seed):
        rng = np.random.default_rng(seed + 1000)
        pred = rng.integers(0, 5, size=(20, 20))
        label = rng.integers(0, 5, size=(20, 20))
        perm = np.concatenate([[0], 1 + rng.permutation(4)])
        a = mean_iou(pred, label, exclude_background=True).value
        b = mean_iou(perm[pred], perm[label], exclude_background=True).value
        if a is None:
            assert b is None
        else:
            assert b == pytest.approx(a, abs=1e-12)

    def test_merge_associative(self):
        rng = np.random.default_rng(0)
        frames = [(rng.integers(0, 4, size=(8, 8)), rng.integers(0, 4, size=(8, 8)))
                  for _ in range(6)]
        whole = ConfusionAccumulator(4)
        for p, l in frames:
            whole.add(p, l)
        left, right = ConfusionAccumulator(4), ConfusionAccumulator(4)
        for p, l in frames[:3]:
            left.add(p, l)
        for p, l in frames[3:]:
            right.add(p, l)
        merged = left.merge(right)
        np.testing.assert_array_equal(merged.intersection, whole.intersection)
        assert merged.result().value == pytest.approx(whole.result().value, abs=0)

    def test_invariant_intersection_bounded(self):
        rng = np.random.default_rng(2)
        acc = ConfusionAccumulator(5)
        for _ in range(5):
            acc.add(rng.integers(0, 5, size=(16, 16)), rng.integers(0, 5, size=(16, 16)))
        assert (acc.intersection <= np.minimum(acc.prediction, acc.label)).all()
        assert (acc.intersection >= 0).all()


def three_counts(pred, label, num_classes, ignore_label=255):
    """The per-class counts as three bincounts: predictions, labels, and
    predictions where they agree with the label."""
    valid = label != ignore_label
    p = pred[valid].astype(np.int64)
    l = label[valid].astype(np.int64)
    return (np.bincount(p[p == l], minlength=num_classes),
            np.bincount(p, minlength=num_classes),
            np.bincount(l, minlength=num_classes))


class TestConfusionCounts:
    """One bincount of ``label * C + pred`` counts what three bincounts
    did, so every IoU keeps its bits."""

    @pytest.mark.parametrize("case", ["ignore", "top class", "empty", "uint8 360p"])
    def test_equals_three_counts(self, case):
        rng = np.random.default_rng(7)
        c, shape, dtype = 5, (24, 31), np.int64
        if case == "uint8 360p":
            c, shape, dtype = 9, (360, 640), np.uint8
        pred = rng.integers(0, c, size=shape).astype(dtype)
        label = rng.integers(0, c, size=shape).astype(dtype)
        if case == "ignore":
            label[rng.random(shape) < 0.3] = 255
        if case == "top class":
            pred[:4] = label[:4] = c - 1
        if case == "empty":
            label[...] = 255
        acc = ConfusionAccumulator(c)
        acc.add(pred, label)
        got = (acc.intersection, acc.prediction, acc.label)
        for g, want in zip(got, three_counts(pred, label, c)):
            assert g.dtype == np.int64 and np.array_equal(g, want)
        assert mean_iou(pred, label).per_class == acc.result().per_class

    def test_merge_equals_three_counts_of_both(self):
        rng = np.random.default_rng(8)
        frames = [(rng.integers(0, 4, size=(9, 7)), rng.integers(0, 4, size=(9, 7)))
                  for _ in range(2)]
        frames[1][1][0] = 255
        left, right = ConfusionAccumulator(4), ConfusionAccumulator(4)
        left.add(*frames[0])
        right.add(*frames[1])
        merged = left.merge(right)
        want = [a + b for a, b in zip(three_counts(*frames[0], 4), three_counts(*frames[1], 4))]
        for g, w in zip((merged.intersection, merged.prediction, merged.label), want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("pred_id,label_id,message", [
        (5, 0, "class id 5 outside"), (0, 5, "class id 5 outside"),
        (-1, 1, "class ids must be >= 0"), (1, -1, "class ids must be >= 0")])
    def test_ids_out_of_range_rejected(self, pred_id, label_id, message):
        """A prediction of C, or of -1 next to a label above 0, would
        otherwise land on another pair's count."""
        pred, label = np.zeros((2, 2), np.int64), np.ones((2, 2), np.int64)
        pred[0, 0], label[0, 0] = pred_id, label_id
        with pytest.raises(ValueError, match=message):
            ConfusionAccumulator(5).add(pred, label)


class TestIntervalSeries:
    def test_constant_series(self):
        assert interval_series([2.0] * 10, fps=1.0, interval_seconds=3) == [2.0, 2.0, 2.0, 2.0]

    def test_single_window(self):
        values = list(range(60))
        assert interval_series(values, fps=2.0, interval_seconds=30) == [pytest.approx(29.5)]

    def test_partial_tail_window(self):
        got = interval_series([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], fps=1.0, interval_seconds=4)
        assert got == [pytest.approx(2.5), pytest.approx(6.5), pytest.approx(9.5)]

    def test_none_values_skipped(self):
        got = interval_series([1.0, None, 3.0, None], fps=1.0, interval_seconds=2)
        assert got[0] == pytest.approx(1.0) and got[1] == pytest.approx(3.0)
        assert interval_series([None, None], fps=1.0, interval_seconds=2) == [None]

    def test_bad_fps(self):
        with pytest.raises(ValueError):
            interval_series([1.0], fps=0.0, interval_seconds=1)


class TestSpeedup:
    def test_derived_example(self):
        cm = CostModel(300, 7, 30)
        res = speedup_from_counts(1000, 16, 100, cm)
        assert res.total_ms == pytest.approx(14800.0)
        assert res.speedup == pytest.approx(300000.0 / 14800.0, rel=1e-9)
        assert res.teacher_fraction == pytest.approx(0.016)

    def test_teacher_every_frame_below_one(self):
        res = speedup_from_counts(50, 50, 0, CostModel(300, 7, 30))
        assert res.speedup == pytest.approx(300.0 / 307.0)
        assert res.speedup < 1.0

    def test_monotone_in_counts(self):
        cm = CostModel()
        base = speedup_from_counts(1000, 20, 100, cm).speedup
        assert speedup_from_counts(1000, 21, 100, cm).speedup < base
        assert speedup_from_counts(1000, 20, 101, cm).speedup < base

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            speedup_from_counts(0, 0, 0, CostModel())
