import hashlib
from pathlib import Path

import numpy as np
import pytest

from jitstream.config import load_synthetic_config
from jitstream.distill import rasterize_teacher
from jitstream.streams import (
    ContainerError,
    ContainerSource,
    EventSpec,
    NoisyTeacher,
    ObjectSpec,
    OracleTeacher,
    RecordedTeacher,
    StreamConfigError,
    SyntheticStreamConfig,
    TeacherNoise,
    _morph,
    _shift_mask,
    gen_synthetic_stream,
    read_lvss,
    write_lvss,
)
from jitstream.distill import TeacherError


def small_config(**kw):
    defaults = dict(
        width=48, height=48, num_frames=60, class_count=2, seed=7,
        objects=(ObjectSpec(class_id=1, shape="disc", size_range=(7, 9)),
                 ObjectSpec(class_id=2, shape="rectangle", size_range=(6, 8))))
    defaults.update(kw)
    return SyntheticStreamConfig(**defaults)


def bundled_stream():
    path = (Path(__file__).resolve().parents[1] / "src" / "jitstream" / "configs"
            / "standard_stream.cfg")
    return gen_synthetic_stream(load_synthetic_config(path))


def frame_mask(inst, hw) -> np.ndarray:
    """An instance's box mask pasted into a frame of extent ``hw``."""
    x0, y0, x1, y1 = inst.bbox
    mask = np.zeros(hw, dtype=bool)
    mask[y0:y1, x0:x1] = inst.mask
    return mask


def render_digest(stream, frames) -> str:
    """sha256 over the frames, label maps and instances of ``frames``, each
    instance mask pasted into the frame."""
    digest = hashlib.sha256()
    for t in frames:
        for a in (stream.frame(t), stream.labels(t)):
            digest.update(f"{a.dtype}{a.shape}".encode())
            digest.update(a.tobytes())
        for inst in stream.instances(t):
            mask = frame_mask(inst, stream.labels(t).shape)
            digest.update(repr((inst.class_id, inst.confidence, inst.bbox,
                                mask.dtype, mask.shape)).encode())
            digest.update(mask.tobytes())
    return digest.hexdigest()


def write_damaged_lvss(path, rng, damage: str) -> None:
    """A 4-frame 8x8 RGB container, then cut, padded or overwritten."""
    write_lvss(path, rng.integers(0, 256, size=(4, 8, 8, 3)).astype(np.uint8))
    blob = path.read_bytes()
    blob = {"truncated": blob[:-5], "over-long": blob + bytes(3),
            "short header": blob[:11], "bad magic": b"LVSX" + blob[4:]}[damage]
    path.write_bytes(blob)


class TestGenerator:
    def test_deterministic_frames(self):
        a = gen_synthetic_stream(small_config())
        b = gen_synthetic_stream(small_config())
        for t in (0, 13, 59):
            assert a.frame(t).tobytes() == b.frame(t).tobytes()
            assert a.labels(t).tobytes() == b.labels(t).tobytes()

    def test_bundled_stream_digest_pinned(self):
        """Frames, label maps and instances of the bundled stream's first 64
        frames, bit for bit as the whole-frame renderer drew them."""
        digest = render_digest(bundled_stream(), range(64))
        assert digest == ("82127674c370f64900c87aa539ce7b0c"
                          "b010ee3bd8bd9004831894df626eceda")

    def test_bundled_stream_shifts_digest_pinned(self):
        """Frames 990-1070 of the bundled stream, across its three scene-wide
        appearance shifts, bit for bit as drawn without memoized backgrounds
        and styles."""
        digest = render_digest(bundled_stream(), range(990, 1071))
        assert digest == ("a7e319b4a05c947ac1218bef6ac77f1f"
                          "a85106ff76f8ea4d3b20bc073544f30b")

    def test_out_of_order_reads_equal_fresh_stream(self):
        stream = bundled_stream()
        for t in (1061, 3, 1000, 999, 1030):
            assert render_digest(stream, [t]) == render_digest(bundled_stream(), [t])

    @pytest.mark.parametrize("textured", [True, False])
    def test_pan_and_shift_events_equal_fresh_stream(self, textured):
        cfg = small_config(textured=textured, events=(
            EventSpec(5, "camera_pan", dx=0.7, dy=-0.4),
            EventSpec(9, "appearance_shift", object_index=1),
            EventSpec(14, "appearance_shift"),
            EventSpec(18, "camera_pan", dx=-0.5, dy=0.0),
            EventSpec(22, "appearance_shift")))
        stream = gen_synthetic_stream(cfg)
        for t in [*range(30), 12, 4, 25, 13]:
            fresh = gen_synthetic_stream(cfg)
            assert render_digest(stream, [t]) == render_digest(fresh, [t])

    def test_motion_follows_velocity_until_bounce(self):
        stream = gen_synthetic_stream(small_config())
        obj = stream._objects[0]
        obj.velocity = (0.0, 1.0)
        h, w = 48, 48
        margin = obj.size + 1
        centers = [obj.center(t, h, w) for t in range(10)]
        for (y0, x0), (y1, x1) in zip(centers, centers[1:]):
            assert y1 == pytest.approx(y0)
            if x0 + 1 <= w - 1 - margin:
                assert x1 == pytest.approx(x0 + 1)

    def test_appear_event_changes_ground_truth_at_exact_frame(self):
        cfg = small_config(events=(EventSpec(frame_index=20, kind="appear",
                                             object_index=1),))
        stream = gen_synthetic_stream(cfg)
        assert 2 not in np.unique(stream.labels(19))
        assert 2 in np.unique(stream.labels(20))
        assert all(i.class_id != 2 for i in stream.instances(19))

    def test_disappear_event(self):
        cfg = small_config(events=(EventSpec(frame_index=30, kind="disappear",
                                             object_index=0),))
        stream = gen_synthetic_stream(cfg)
        assert 1 in np.unique(stream.labels(29))
        assert 1 not in np.unique(stream.labels(30))

    def test_appearance_shift_changes_pixels_not_labels(self):
        cfg = small_config(events=(EventSpec(frame_index=25, kind="appearance_shift"),))
        shifted = gen_synthetic_stream(cfg)
        plain = gen_synthetic_stream(small_config())
        assert shifted.frame(24).tobytes() == plain.frame(24).tobytes()
        assert shifted.frame(25).tobytes() != plain.frame(25).tobytes()
        assert shifted.labels(25).tobytes() == plain.labels(25).tobytes()

    def test_camera_pan_translates_scene(self):
        cfg = small_config(events=(EventSpec(frame_index=10, kind="camera_pan",
                                             dx=1.0, dy=0.0),))
        stream = gen_synthetic_stream(cfg)
        assert stream.camera_offset(9) == (0.0, 0.0)
        assert stream.camera_offset(15) == (0.0, 5.0)

    def test_event_validation(self):
        with pytest.raises(StreamConfigError, match="strictly increasing"):
            small_config(events=(EventSpec(10, "appearance_shift"),
                                 EventSpec(10, "appearance_shift")))
        with pytest.raises(StreamConfigError, match="object index"):
            small_config(events=(EventSpec(10, "appear"),))
        with pytest.raises(StreamConfigError, match=r"names object 2, outside \[0, 2\)"):
            small_config(events=(EventSpec(10, "appearance_shift", object_index=2),))

    def test_zero_area_rejected(self):
        with pytest.raises(StreamConfigError, match="zero-area"):
            small_config(objects=(ObjectSpec(class_id=1, size_range=(0.0, 1.0)),))

    def test_blob_shape_renders(self):
        cfg = small_config(objects=(ObjectSpec(class_id=1, shape="blob",
                                               size_range=(8, 10)),))
        stream = gen_synthetic_stream(cfg)
        assert (stream.labels(0) == 1).sum() > 20


class TestOracleTeacher:
    def test_empty_scene_empty_list(self):
        cfg = small_config(objects=())
        teacher = OracleTeacher(gen_synthetic_stream(cfg))
        assert teacher.predict(0) == []

    def test_masks_match_rendered_coverage(self):
        stream = gen_synthetic_stream(small_config())
        teacher = OracleTeacher(stream)
        for t in (0, 10, 42):
            labels = stream.labels(t)
            raster = rasterize_teacher(teacher.predict(t), 1.0, labels.shape)
            np.testing.assert_array_equal(raster, labels)

    def test_overlap_resolved_by_z_order(self):
        # two big discs in a small frame are guaranteed to overlap somewhere
        cfg = SyntheticStreamConfig(
            width=32, height=32, num_frames=40, class_count=2, seed=3,
            objects=(ObjectSpec(class_id=1, size_range=(11, 12), speed_range=(0.2, 0.4)),
                     ObjectSpec(class_id=2, size_range=(11, 12), speed_range=(0.2, 0.4))))
        stream = gen_synthetic_stream(cfg)
        overlapped = False
        for t in range(40):
            instances = stream.instances(t)
            masks = [frame_mask(inst, (32, 32)) for inst in instances]
            if len(instances) == 2 and (masks[0] & masks[1]).any():
                overlapped = True
                both = masks[0] & masks[1]
                assert (stream.labels(t)[both] == 2).all()
            np.testing.assert_array_equal(
                rasterize_teacher(instances, 1.0, (32, 32)), stream.labels(t))
        assert overlapped


class TestNoisyTeacher:
    def base(self, **kw):
        cfg = SyntheticStreamConfig(
            width=48, height=48, num_frames=400, class_count=1, seed=5,
            objects=(ObjectSpec(class_id=1, size_range=(10, 10),
                                speed_range=(0.2, 0.5)),), **kw)
        stream = gen_synthetic_stream(cfg)
        return stream, OracleTeacher(stream)

    def test_zero_noise_is_identity(self):
        stream, oracle = self.base()
        noisy = NoisyTeacher(oracle, TeacherNoise(), seed=1)
        for t in (0, 7):
            assert noisy.predict(t, stream.frame(t)) == oracle.predict(t)

    def test_deterministic(self):
        stream, oracle = self.base()
        noise = TeacherNoise(boundary_jitter_px=2, confidence_spread=0.2, drop_prob=0.3)
        a = NoisyTeacher(oracle, noise, seed=9)
        b = NoisyTeacher(oracle, noise, seed=9)
        for t in (0, 3, 11):
            pa = a.predict(t, stream.frame(t))
            pb = b.predict(t, stream.frame(t))
            assert len(pa) == len(pb)
            for x, y in zip(pa, pb):
                assert x.confidence == y.confidence and x.bbox == y.bbox
                np.testing.assert_array_equal(x.mask, y.mask)

    def test_drop_rate_within_binomial_bounds(self):
        stream, oracle = self.base()
        p = 0.25
        noisy = NoisyTeacher(oracle, TeacherNoise(drop_prob=p), seed=2)
        n = 400
        dropped = sum(1 for t in range(n) if not noisy.predict(t, stream.frame(t)))
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(dropped - n * p) < 3 * sigma

    def test_jitter_iou_band_on_disc(self):
        stream, oracle = self.base()
        noisy = NoisyTeacher(oracle, TeacherNoise(boundary_jitter_px=2), seed=3)
        r = 10.0
        lo = (r - 2) ** 2 / (r + 2) ** 2
        checked = 0
        for t in range(60):
            base = oracle.predict(t)
            got = noisy.predict(t, stream.frame(t))
            if not base or not got:
                continue
            a, b = frame_mask(base[0], (48, 48)), frame_mask(got[0], (48, 48))
            inter = (a & b).sum()
            union = (a | b).sum()
            iou = inter / union
            assert lo - 0.05 <= iou <= 1.0
            checked += 1
        assert checked > 50

    def test_confidence_clamped(self):
        stream, oracle = self.base()
        noisy = NoisyTeacher(oracle, TeacherNoise(confidence_spread=0.8), seed=4)
        for t in range(20):
            for inst in noisy.predict(t, stream.frame(t)):
                assert 0.0 <= inst.confidence <= 1.0


def morph_square(mask, radius):
    """Dilation (radius > 0) or erosion (radius < 0) by a square, as one
    2-D loop over every offset of the square, with False outside the frame:
    the oracle of the row and column passes."""
    r = abs(radius)
    h, w = mask.shape
    padded = np.pad(mask, r)
    out = mask.copy()
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            shifted = padded[r - dy:r - dy + h, r - dx:r - dx + w]
            out = (out | shifted) if radius > 0 else (out & shifted)
    return out


class TestMorph:
    @pytest.mark.parametrize("radius", [-3, -2, -1, 0, 1, 2, 3, -9, 9, -20, 20])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_square_loop(self, radius, seed):
        """Radii inside the 9x13 extent and past it, on random masks, a
        full one and an empty one."""
        rng = np.random.default_rng(seed)
        for mask in (rng.random((9, 13)) < 0.2 + 0.2 * seed,
                     np.ones((9, 13), bool), np.zeros((9, 13), bool)):
            got = _morph(mask, radius)
            assert got.dtype == bool and np.array_equal(got, morph_square(mask, radius))

    @pytest.mark.parametrize("dy,dx", [(8, 0), (-8, 0), (0, 13), (0, -13), (20, 3), (-3, -40)])
    def test_shift_past_the_extent_is_empty(self, dy, dx):
        mask = np.ones((8, 13), bool)
        got = _shift_mask(mask, dy, dx)
        assert got.shape == mask.shape and not got.any()


class TestContainer:
    def test_rgb_round_trip(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(10, 32, 32, 3)).astype(np.uint8)
        path = tmp_path / "clip.lvss"
        write_lvss(path, frames)
        got = read_lvss(path)
        assert got.tobytes() == frames.tobytes()
        source = ContainerSource(path)
        assert len(source) == 10
        np.testing.assert_array_equal(source.frame(3), frames[3])

    def test_truncated_payload_rejected(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(10, 8, 8, 3)).astype(np.uint8)
        path = tmp_path / "clip.lvss"
        write_lvss(path, frames)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8 * 8 * 3])        # drop one frame's payload
        with pytest.raises(ContainerError, match="header promises"):
            read_lvss(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "clip.lvss"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ContainerError, match="magic"):
            read_lvss(path)

    def test_label_variant_preserves_ignore_value(self, tmp_path):
        labels = np.zeros((4, 16, 16), dtype=np.uint8)
        labels[2, 5, 5] = 255
        path = tmp_path / "labels.lvss"
        write_lvss(path, labels)
        got = read_lvss(path)
        assert got.shape == (4, 16, 16)
        assert got[2, 5, 5] == 255

    def test_source_maps_frames_read_only(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(6, 12, 20, 3)).astype(np.uint8)
        path = tmp_path / "clip.lvss"
        write_lvss(path, frames)
        source = ContainerSource(path)
        assert source.frames.tobytes() == read_lvss(path).tobytes()
        assert source.frames.shape == read_lvss(path).shape
        assert not source.frames.flags.writeable
        assert not source.frame(2).flags.writeable
        with pytest.raises(ValueError):
            source.frame(2)[0, 0, 0] = 1

    @pytest.mark.parametrize("damage,match", [("truncated", "header promises"),
                                              ("over-long", "header promises"),
                                              ("short header", "truncated header"),
                                              ("bad magic", "magic")])
    def test_source_rejects_damaged_container(self, tmp_path, rng, damage, match):
        path = tmp_path / "clip.lvss"
        write_damaged_lvss(path, rng, damage)
        with pytest.raises(ContainerError, match=match):
            ContainerSource(path)
        with pytest.raises(ContainerError, match=match):
            read_lvss(path)

    def test_iteration_order(self, tmp_path, rng):
        frames = rng.integers(0, 256, size=(5, 8, 8, 3)).astype(np.uint8)
        path = tmp_path / "clip.lvss"
        write_lvss(path, frames)
        source = ContainerSource(path)
        first = [(t, f.tobytes()) for t, f in source]
        assert [t for t, _ in first] == [0, 1, 2, 3, 4]
        assert [(t, f.tobytes()) for t, f in source] == first     # iteration restarts


class TestRecordedTeacher:
    def test_missing_frame_raises(self):
        teacher = RecordedTeacher({0: []})
        with pytest.raises(TeacherError):
            teacher.predict(1)
        assert teacher.predict(0) == []
