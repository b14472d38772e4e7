import numpy as np
import pytest

from jitstream.distill import (
    DistillConfig,
    TeacherInstance,
    build_weight_map,
    dilate_box,
    rasterize_teacher,
    retain_instances,
)


def full_mask(box):
    """A mask that covers all of its box."""
    x0, y0, x1, y1 = box
    return np.ones((y1 - y0, x1 - x0), dtype=bool)


def rasterize_reference(instances, conf_thresh, hw):
    """Per-pixel brute force: each pixel takes the most confident covering
    instance (ties: the later one in the input list)."""
    out = np.zeros(hw, dtype=np.uint8)
    for y in range(hw[0]):
        for x in range(hw[1]):
            best = None
            for order, inst in enumerate(instances):
                if inst.confidence < conf_thresh:
                    continue
                x0, y0, x1, y1 = inst.bbox
                covered = (y0 <= y < y1 and x0 <= x < x1
                           and inst.mask[y - y0, x - x0])
                if covered and (best is None or (inst.confidence, order) >= best[:2]):
                    best = (inst.confidence, order, inst.class_id)
            if best is not None:
                out[y, x] = best[2]
    return out


class TestRasterize:
    def test_empty_list_all_background(self):
        labels = rasterize_teacher([], conf_thresh=0.5, frame_hw=(6, 6))
        assert not labels.any()

    def test_below_threshold_filtered(self):
        inst = TeacherInstance(1, 0.4, (0, 0, 4, 4), full_mask((0, 0, 4, 4)))
        labels = rasterize_teacher([inst], conf_thresh=0.5, frame_hw=(6, 6))
        assert not labels.any()

    def test_threshold_is_inclusive(self):
        inst = TeacherInstance(1, 1.0, (0, 0, 4, 4), full_mask((0, 0, 4, 4)))
        labels = rasterize_teacher([inst], conf_thresh=1.0, frame_hw=(6, 6))
        assert labels[0, 0] == 1

    def test_overlap_most_confident_wins(self):
        hw = (8, 8)
        a = TeacherInstance(1, 0.6, (0, 0, 6, 6), full_mask((0, 0, 6, 6)))
        b = TeacherInstance(2, 0.9, (3, 3, 8, 8), full_mask((3, 3, 8, 8)))
        labels = rasterize_teacher([b, a], conf_thresh=0.5, frame_hw=hw)
        assert labels[4, 4] == 2
        np.testing.assert_array_equal(labels, rasterize_reference([b, a], 0.5, hw))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_per_pixel_oracle(self, seed):
        rng = np.random.default_rng(seed)
        hw = (10, 12)
        instances = []
        for _ in range(rng.integers(1, 5)):
            x0, y0 = rng.integers(0, 8), rng.integers(0, 6)
            x1, y1 = rng.integers(x0 + 1, 13), rng.integers(y0 + 1, 11)
            box = (int(x0), int(y0), int(min(x1, 12)), int(min(y1, 10)))
            mask = np.zeros((box[3] - box[1], box[2] - box[0]), dtype=bool)
            mask[rng.random(mask.shape) < 0.8] = True
            if not mask.any():
                mask[0, 0] = True
            instances.append(TeacherInstance(int(rng.integers(1, 4)),
                                             float(rng.choice([0.3, 0.6, 0.6, 0.9])),
                                             box, mask))
        got = rasterize_teacher(instances, conf_thresh=0.5, frame_hw=hw)
        np.testing.assert_array_equal(got, rasterize_reference(instances, 0.5, hw))

    def test_instances_clamped_to_frame(self):
        mask = np.ones((4, 4), dtype=bool)
        inst = TeacherInstance(2, 0.9, (-2, -2, 2, 2), mask)
        labels = rasterize_teacher([inst], conf_thresh=0.5, frame_hw=(6, 6))
        assert labels[0, 0] == 2 and labels[2, 2] == 0


class TestWeightMap:
    def test_no_instances_all_ones(self):
        weights = build_weight_map([], 0.15, 5.0, (8, 8))
        np.testing.assert_array_equal(weights, np.ones((8, 8)))

    def test_defaults_match_training_recipe(self):
        cfg = DistillConfig()
        assert cfg.weight_factor == 5.0 and cfg.box_dilation == 0.15

    def test_dilation_arithmetic_example(self):
        assert dilate_box((10, 20, 30, 40), 0.15, (64, 64)) == (8, 18, 32, 42)
        inst = TeacherInstance(1, 1.0, (10, 20, 30, 40),
                               full_mask((10, 20, 30, 40)))
        weights = build_weight_map([inst], 0.15, 5.0, (64, 64))
        inside = np.zeros((64, 64), dtype=bool)
        inside[18:42, 8:32] = True
        assert (weights[inside] == 5.0).all()
        assert (weights[~inside] == 1.0).all()

    def test_dilation_clamped(self):
        assert dilate_box((0, 0, 10, 10), 0.5, (8, 12)) == (0, 0, 12, 8)

    @pytest.mark.parametrize("seed", range(10))
    def test_weighted_pixels_inside_some_dilated_box(self, seed):
        rng = np.random.default_rng(seed + 100)
        hw = (16, 16)
        instances = []
        for _ in range(rng.integers(1, 4)):
            x0, y0 = rng.integers(0, 12), rng.integers(0, 12)
            box = (int(x0), int(y0), int(rng.integers(x0 + 2, 17)),
                   int(rng.integers(y0 + 2, 17)))
            box = (box[0], box[1], min(box[2], 16), min(box[3], 16))
            instances.append(TeacherInstance(1, 0.9, box, full_mask(box)))
        weights = build_weight_map(instances, 0.15, 5.0, hw)
        covered = np.zeros(hw, dtype=bool)
        for inst in instances:
            x0, y0, x1, y1 = dilate_box(inst.bbox, 0.15, hw)
            covered[y0:y1, x0:x1] = True
            # the undilated box is fully weighted
            bx0, by0, bx1, by1 = inst.bbox
            assert (weights[by0:by1, bx0:bx1] == 5.0).all()
        assert (weights[~covered] == 1.0).all()
        assert ((weights > 1.0) <= covered).all()


class TestRetention:
    def test_sorted_ascending_confidence(self):
        hw = (6, 6)
        a = TeacherInstance(1, 0.9, (0, 0, 2, 2), full_mask((0, 0, 2, 2)))
        b = TeacherInstance(2, 0.6, (0, 0, 2, 2), full_mask((0, 0, 2, 2)))
        kept = retain_instances([a, b], 0.5, hw)
        assert [i.confidence for i in kept] == [0.6, 0.9]

    def test_offscreen_instances_dropped(self):
        inst = TeacherInstance(1, 0.9, (-5, -5, 0, 0), np.ones((5, 5), dtype=bool))
        assert retain_instances([inst], 0.5, (6, 6)) == []
