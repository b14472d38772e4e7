"""Frame sources and teachers.

The synthetic generator renders moving textured shapes over a textured
background; every frame, its ground-truth label map and its instance list
are pure functions of (config, frame index), so streams never need to be
stored to be reproduced.  Teachers follow one contract: ``predict(frame_index,
frame) -> list of TeacherInstance`` plus a ``cost_per_invocation`` in
milliseconds for the cost model.
"""
from __future__ import annotations

import colorsys
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .distill import TeacherError, TeacherInstance
from .seeding import child_rng

GOLDEN = 0.61803398875


class StreamConfigError(ValueError):
    """Invalid synthetic stream description."""


@dataclass(frozen=True)
class ObjectSpec:
    class_id: int
    shape: str = "disc"                      # disc | rectangle | blob
    size_range: tuple[float, float] = (8.0, 14.0)
    speed_range: tuple[float, float] = (0.3, 1.0)
    texture_seed: int = 0


@dataclass(frozen=True)
class EventSpec:
    frame_index: int
    kind: str                                # appear | disappear | appearance_shift | camera_pan
    object_index: int | None = None          # appearance_shift with None hits every object
    dx: float = 0.0                          # camera_pan drift per frame
    dy: float = 0.0


@dataclass(frozen=True)
class SyntheticStreamConfig:
    width: int = 96
    height: int = 96
    num_frames: int = 1000
    class_count: int = 3                     # foreground classes, ids 1..class_count
    objects: tuple[ObjectSpec, ...] = ()
    events: tuple[EventSpec, ...] = ()
    seed: int = 0
    textured: bool = True

    def __post_init__(self):
        if self.width < 8 or self.height < 8:
            raise StreamConfigError("frame extent too small")
        if self.num_frames < 1:
            raise StreamConfigError(f"num_frames must be >= 1, got {self.num_frames}")
        last = -1
        for ev in self.events:
            if not 0 <= ev.frame_index < self.num_frames:
                raise StreamConfigError(f"event frame {ev.frame_index} outside stream")
            if ev.frame_index <= last:
                raise StreamConfigError("event frame indices must be strictly increasing")
            last = ev.frame_index
            if ev.kind not in ("appear", "disappear", "appearance_shift", "camera_pan"):
                raise StreamConfigError(f"unknown event kind {ev.kind!r}")
            if ev.kind in ("appear", "disappear") and ev.object_index is None:
                raise StreamConfigError(f"{ev.kind} event needs an object index")
            if ev.kind == "camera_pan" and ev.object_index is not None:
                raise StreamConfigError(f"event at frame {ev.frame_index}: camera_pan "
                                        f"moves every object and takes no object index")
            if ev.kind != "camera_pan" and (ev.dx, ev.dy) != (0.0, 0.0):
                raise StreamConfigError(f"event at frame {ev.frame_index}: dx and dy are "
                                        f"the camera_pan drift, not read by {ev.kind}")
            if ev.object_index is not None and not 0 <= ev.object_index < len(self.objects):
                raise StreamConfigError(f"event at frame {ev.frame_index} names object "
                                        f"{ev.object_index}, outside [0, {len(self.objects)})")
            if not (math.isfinite(ev.dx) and math.isfinite(ev.dy)):
                raise StreamConfigError(f"event at frame {ev.frame_index}: dx and dy must "
                                        f"be finite, got {ev.dx} and {ev.dy}")
        for number, obj in enumerate(self.objects, start=1):
            if not 1 <= obj.class_id <= self.class_count:
                raise StreamConfigError(f"class id {obj.class_id} outside "
                                        f"[1, {self.class_count}]")
            low, high = obj.size_range
            if not (math.isfinite(high) and 0 < low <= high):
                raise StreamConfigError(f"object{number}: need finite 0 < size_min <= "
                                        f"size_max (zero-area objects rejected), "
                                        f"got {low} and {high}")
            low, high = obj.speed_range
            if not (math.isfinite(high) and 0 <= low <= high):
                raise StreamConfigError(f"object{number}: need finite 0 <= speed_min <= "
                                        f"speed_max, got {low} and {high}")
            if obj.shape not in ("disc", "rectangle", "blob"):
                raise StreamConfigError(f"unknown shape {obj.shape!r}")


def class_hue(class_id: int) -> float:
    return (0.02 + GOLDEN * (class_id - 1)) % 1.0


def _hsv(h: float, s: float, v: float) -> np.ndarray:
    return np.array(colorsys.hsv_to_rgb(h % 1.0, s, v), dtype=np.float32)


def _noise_grid(rng: np.random.Generator, cells: int = 8) -> np.ndarray:
    return rng.random((cells, cells), dtype=np.float64).astype(np.float32)


def _value_noise(grid: np.ndarray, ys: np.ndarray, xs: np.ndarray,
                 cell: float) -> np.ndarray:
    """Bilinearly interpolated seeded lattice noise, wrapping at the edges."""
    g = grid.shape[0]
    fy = ys / cell
    fx = xs / cell
    i0 = np.floor(fy).astype(np.int64)
    j0 = np.floor(fx).astype(np.int64)
    ty = (fy - i0).astype(np.float32)
    tx = (fx - j0).astype(np.float32)
    i0 %= g
    j0 %= g
    i1 = (i0 + 1) % g
    j1 = (j0 + 1) % g
    top = grid[i0, j0] * (1 - tx) + grid[i0, j1] * tx
    bottom = grid[i1, j0] * (1 - tx) + grid[i1, j1] * tx
    return top * (1 - ty) + bottom * ty


def _bounce(p0: float, v: float, t: int, lo: float, hi: float) -> float:
    span = hi - lo
    if span <= 0:
        return (lo + hi) / 2.0
    x = (p0 - lo + v * t) % (2.0 * span)
    return lo + (span - abs(x - span))


@dataclass
class _ObjectState:
    spec: ObjectSpec
    size: float
    start: tuple[float, float]
    velocity: tuple[float, float]
    blob_offsets: np.ndarray | None
    appear_at: int
    disappear_at: int
    shift_frames: list[int]

    def center(self, t: int, h: int, w: int) -> tuple[float, float]:
        margin = self.size + 1.0
        cy = _bounce(self.start[0], self.velocity[0], t, margin, h - 1 - margin)
        cx = _bounce(self.start[1], self.velocity[1], t, margin, w - 1 - margin)
        return cy, cx

    def active(self, t: int) -> bool:
        return self.appear_at <= t < self.disappear_at

    def shift_count(self, t: int) -> int:
        return sum(1 for f in self.shift_frames if f <= t)


class SyntheticStream:
    """Deterministic frame source with per-frame ground truth.

    Iterating yields ``(frame_index, frame)`` with uint8 RGB frames;
    ``labels(i)`` and ``instances(i)`` expose the rendered scene state.
    """

    def __init__(self, config: SyntheticStreamConfig):
        self.config = config
        h, w = config.height, config.width
        self._ys, self._xs = np.meshgrid(np.arange(h, dtype=np.float32),
                                         np.arange(w, dtype=np.float32),
                                         indexing="ij")
        self._objects = [self._init_object(i, spec)
                         for i, spec in enumerate(config.objects)]
        self._pan_events = [ev for ev in config.events if ev.kind == "camera_pan"]
        # a scene-wide appearance shift restyles the background as well
        self._global_shifts = [ev.frame_index for ev in config.events
                               if ev.kind == "appearance_shift" and ev.object_index is None]
        self._cache: tuple[int, tuple] | None = None
        # pure functions of their keys, kept so that frames that share a key
        # skip the seeding and the full-frame noise
        self._background: tuple[tuple, np.ndarray] | None = None
        self._styles: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def _background_style(self, shift_count: int):
        rng = child_rng(self.config.seed, "background", shift_count)
        if shift_count == 0:
            color = _hsv(0.58, 0.25, 0.42)
        else:
            color = _hsv(float(rng.uniform(0, 1)), float(rng.uniform(0.15, 0.35)),
                         float(rng.uniform(0.3, 0.5)))
        return color, _noise_grid(rng, 10)

    def _background_frame(self, t: int, offset: tuple[float, float]) -> np.ndarray:
        """The float RGB background of frame ``t`` seen from the camera
        ``offset``.  It depends only on the scene-wide shift count and the
        offset, and the last one is kept."""
        key = (sum(1 for f in self._global_shifts if f <= t), offset)
        if self._background is None or self._background[0] != key:
            shift_count, (oy, ox) = key
            color, grid = self._background_style(shift_count)
            if self.config.textured:
                noise = _value_noise(grid, self._ys + oy, self._xs + ox, 11.0)
                frame = color[None, None, :] * (0.6 + 0.8 * noise)[:, :, None]
            else:
                frame = np.broadcast_to(color, (*self._ys.shape, 3))
            self._background = (key, frame)
        return self._background[1]

    def _init_object(self, index: int, spec: ObjectSpec) -> _ObjectState:
        cfg = self.config
        rng = child_rng(cfg.seed, "object", index, spec.texture_seed)
        size = float(rng.uniform(*spec.size_range))
        margin = size + 1.0
        start = (float(rng.uniform(margin, max(margin + 1, cfg.height - 1 - margin))),
                 float(rng.uniform(margin, max(margin + 1, cfg.width - 1 - margin))))
        speed = float(rng.uniform(*spec.speed_range))
        angle = float(rng.uniform(0, 2 * np.pi))
        velocity = (speed * np.sin(angle), speed * np.cos(angle))
        blob = None
        if spec.shape == "blob":
            blob = rng.uniform(-0.55, 0.55, size=(3, 2)).astype(np.float32) * size
        appear_at, disappear_at = 0, self.config.num_frames
        shifts = []
        for ev in cfg.events:
            targets_me = ev.object_index is None or ev.object_index == index
            if ev.kind == "appear" and ev.object_index == index:
                appear_at = ev.frame_index
            elif ev.kind == "disappear" and ev.object_index == index:
                disappear_at = ev.frame_index
            elif ev.kind == "appearance_shift" and targets_me:
                shifts.append(ev.frame_index)
        return _ObjectState(spec, size, start, velocity, blob, appear_at,
                            disappear_at, shifts)

    # -- appearance -----------------------------------------------------------

    def _object_style(self, index: int, shift_count: int):
        spec = self._objects[index].spec
        rng = child_rng(self.config.seed, "style", index, spec.texture_seed, shift_count)
        if shift_count == 0:
            hue = class_hue(spec.class_id) + float(rng.uniform(-0.02, 0.02))
        else:
            # a shifted object keeps a vivid palette but lands in a fresh hue
            # band, rotating further with every shift
            hue = (class_hue(spec.class_id) + shift_count * GOLDEN / 2
                   + float(rng.uniform(-0.06, 0.06)))
        color = _hsv(hue, 0.85, float(rng.uniform(0.88, 0.98)))
        grid = _noise_grid(rng, 6)
        return color, grid

    # -- geometry ---------------------------------------------------------------

    def _mask(self, obj: _ObjectState, cy: float, cx: float) -> np.ndarray:
        ys, xs = self._ys, self._xs
        if obj.spec.shape == "disc":
            return (ys - cy) ** 2 + (xs - cx) ** 2 <= obj.size ** 2
        if obj.spec.shape == "rectangle":
            return (np.abs(ys - cy) <= obj.size * 0.8) & (np.abs(xs - cx) <= obj.size)
        mask = np.zeros(ys.shape, dtype=bool)
        for oy, ox in obj.blob_offsets:
            mask |= ((ys - cy - oy) ** 2 + (xs - cx - ox) ** 2
                     <= (obj.size * 0.62) ** 2)
        return mask

    def camera_offset(self, t: int) -> tuple[float, float]:
        oy = ox = 0.0
        for ev in self._pan_events:
            if t >= ev.frame_index:
                oy += (t - ev.frame_index) * ev.dy
                ox += (t - ev.frame_index) * ev.dx
        return oy, ox

    # -- rendering ----------------------------------------------------------------

    def _render(self, t: int):
        if self._cache is not None and self._cache[0] == t:
            return self._cache[1]
        cfg = self.config
        h, w = cfg.height, cfg.width
        oy, ox = self.camera_offset(t)
        frame = self._background_frame(t, (oy, ox)).copy()
        labels = np.zeros((h, w), dtype=np.uint8)
        instances: list[TeacherInstance] = []
        for index, obj in enumerate(self._objects):
            if not obj.active(t):
                continue
            cy, cx = obj.center(t, h, w)
            cy, cx = cy + oy, cx + ox
            mask = self._mask(obj, cy, cx)
            inst = TeacherInstance.from_mask(obj.spec.class_id, 1.0, mask)
            if inst is None:
                continue
            style = (index, obj.shift_count(t))
            if style not in self._styles:
                self._styles[style] = self._object_style(*style)
            color, grid = self._styles[style]
            if cfg.textured:
                # texture and composite are per pixel, so the mask's box suffices
                x0, y0, x1, y1 = inst.bbox
                box = np.s_[y0:y1, x0:x1]
                tex = _value_noise(grid, self._ys[box] - cy, self._xs[box] - cx, 6.0)
                shade = (0.78 + 0.4 * tex)[:, :, None]
                frame[box] = np.where(inst.mask[:, :, None], color[None, None, :] * shade,
                                      frame[box])
            else:
                frame[mask] = color
            labels[mask] = obj.spec.class_id
            instances.append(inst)
        frame_u8 = np.clip(frame * 255.0, 0, 255).astype(np.uint8)
        result = (frame_u8, labels, instances)
        self._cache = (t, result)
        return result

    # -- frame source contract -------------------------------------------------------

    def __len__(self) -> int:
        return self.config.num_frames

    def __iter__(self):
        for t in range(self.config.num_frames):
            yield t, self.frame(t)

    def frame(self, t: int) -> np.ndarray:
        return self._render(t)[0]

    def labels(self, t: int) -> np.ndarray:
        return self._render(t)[1]

    def instances(self, t: int) -> list[TeacherInstance]:
        return self._render(t)[2]


def gen_synthetic_stream(config: SyntheticStreamConfig) -> SyntheticStream:
    return SyntheticStream(config)


# -- teachers -----------------------------------------------------------------------

class OracleTeacher:
    """Perfect teacher over a synthetic stream: exact masks, confidence 1.0."""

    def __init__(self, stream: SyntheticStream, cost_per_invocation: float = 300.0):
        self.stream = stream
        self.cost_per_invocation = cost_per_invocation

    def predict(self, frame_index: int, frame=None) -> list[TeacherInstance]:
        return self.stream.instances(frame_index)


def _shift_mask(mask: np.ndarray, dy: int, dx: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    ys_src = slice(max(-dy, 0), min(h - dy, h))
    xs_src = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = mask[ys_src, xs_src]
    return out


def _morph(mask: np.ndarray, radius: int) -> np.ndarray:
    """Square-kernel dilation (radius > 0) or erosion (radius < 0)."""
    if radius == 0:
        return mask
    grow = radius > 0
    r = abs(radius)
    out = mask.copy()
    for dy in range(-r, r + 1):
        for dx in range(-r, r + 1):
            if dy == 0 and dx == 0:
                continue
            shifted = _shift_mask(mask, dy, dx)
            out = (out | shifted) if grow else (out & shifted)
    return out


@dataclass(frozen=True)
class TeacherNoise:
    boundary_jitter_px: int = 0
    confidence_spread: float = 0.0
    drop_prob: float = 0.0

    def __post_init__(self):
        if self.boundary_jitter_px < 0:
            raise ValueError(f"noise.jitter_px must be >= 0, "
                             f"got {self.boundary_jitter_px}")
        if not (math.isfinite(self.confidence_spread) and self.confidence_spread >= 0):
            raise ValueError(f"noise.conf_spread must be finite and >= 0, "
                             f"got {self.confidence_spread}")
        if not 0 <= self.drop_prob < 1:
            raise ValueError("drop_prob must lie in [0, 1)")

    @property
    def identity(self) -> bool:
        return (self.boundary_jitter_px == 0 and self.confidence_spread == 0
                and self.drop_prob == 0)


class NoisyTeacher:
    """Degrades a base teacher: per-instance mask jitter, confidence
    perturbation and drops, deterministic per (frame, instance, seed)."""

    def __init__(self, base, noise: TeacherNoise, seed: int = 0):
        self.base = base
        self.noise = noise
        self.seed = seed
        self.cost_per_invocation = base.cost_per_invocation

    def predict(self, frame_index: int, frame: np.ndarray) -> list[TeacherInstance]:
        instances = self.base.predict(frame_index, frame)
        if self.noise.identity:
            return instances
        out = []
        for idx, inst in enumerate(instances):
            rng = child_rng(self.seed, "noise", frame_index, idx)
            if rng.random() < self.noise.drop_prob:
                continue
            conf = inst.confidence
            if self.noise.confidence_spread:
                conf = float(np.clip(conf + rng.uniform(-self.noise.confidence_spread,
                                                        self.noise.confidence_spread),
                                     0.0, 1.0))
            if self.noise.boundary_jitter_px:
                j = int(rng.integers(-self.noise.boundary_jitter_px,
                                     self.noise.boundary_jitter_px + 1))
                # the jitter grows or shrinks the mask within the frame
                inst = inst.clamped(frame.shape[:2])
                if inst is None:
                    continue
                full = np.zeros(frame.shape[:2], dtype=bool)
                x0, y0, x1, y1 = inst.bbox
                full[y0:y1, x0:x1] = inst.mask
                inst = TeacherInstance.from_mask(inst.class_id, conf, _morph(full, j))
            else:
                inst = TeacherInstance(inst.class_id, conf, inst.bbox, inst.mask)
            if inst is not None:
                out.append(inst)
        return out


class RecordedTeacher:
    """Replays a table of predictions (as ``read_predictions_jsonl`` loads
    them); frames without a recorded entry raise :class:`TeacherError`."""

    def __init__(self, table: dict[int, list[TeacherInstance]],
                 cost_per_invocation: float = 300.0):
        self.table = table
        self.cost_per_invocation = cost_per_invocation

    def predict(self, frame_index: int, frame=None) -> list[TeacherInstance]:
        if frame_index not in self.table:
            raise TeacherError(frame_index, "no recorded prediction")
        return self.table[frame_index]


# -- frame container ("LVSS") ---------------------------------------------------------
#
# Little-endian: magic "LVSS" | version u32 | width u32 | height u32 |
# channels u8 (3 = RGB, 1 = class-id labels, ignore label 255) |
# frame_count u64 | raw interleaved u8 frames.

LVSS_MAGIC = b"LVSS"
LVSS_VERSION = 1
_HEADER = struct.Struct("<4sIIIBQ")


class ContainerError(ValueError):
    """Malformed frame container."""


def lvss_header(shape: tuple[int, ...]) -> bytes:
    """Header of a container holding a frame stack of ``shape``: (N, H, W)
    class-id labels, or (N, H, W, C) frames with 1 or 3 channels."""
    if len(shape) == 3:
        (n, h, w), channels = shape, 1
    elif len(shape) == 4 and shape[3] in (1, 3):
        n, h, w, channels = shape
    else:
        raise ContainerError(f"unsupported frame stack shape {shape}")
    return _HEADER.pack(LVSS_MAGIC, LVSS_VERSION, w, h, channels, n)


def write_lvss(path, frames: np.ndarray) -> None:
    frames = np.asarray(frames, dtype=np.uint8)
    header = lvss_header(frames.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(frames).tobytes())


def _lvss_shape(path) -> tuple[int, ...]:
    """Check a container's header against its exact file size and return
    the frame stack's shape; the payload starts at ``_HEADER.size``."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        size = os.fstat(fh.fileno()).st_size
    if len(head) < _HEADER.size:
        raise ContainerError(f"{path}: truncated header ({len(head)} bytes)")
    magic, version, w, h, channels, n = _HEADER.unpack(head)
    if magic != LVSS_MAGIC:
        raise ContainerError(f"{path}: bad magic {magic!r} at offset 0")
    if version != LVSS_VERSION:
        raise ContainerError(f"{path}: unsupported version {version}")
    if channels not in (1, 3):
        raise ContainerError(f"{path}: channels must be 1 or 3, got {channels}")
    if w == 0 or h == 0:
        raise ContainerError(f"{path}: frame extent {h}x{w} has no pixels")
    expected = n * h * w * channels
    payload = size - _HEADER.size
    if payload != expected:
        raise ContainerError(f"{path}: payload holds {payload} bytes at offset "
                             f"{_HEADER.size}, header promises {expected} "
                             f"({n} frames of {h}x{w}x{channels})")
    return (n, h, w) if channels == 1 else (n, h, w, channels)


def read_lvss(path) -> np.ndarray:
    shape = _lvss_shape(path)
    return np.fromfile(path, dtype=np.uint8, offset=_HEADER.size).reshape(shape)


class ContainerSource:
    """Frame source over a 3-channel container.

    The payload is mapped read-only rather than read, so a long stream
    costs address space, not resident memory, and the frames it hands out
    are not writeable.  The mapping lives as long as the source.
    """

    def __init__(self, path):
        shape = _lvss_shape(path)
        if len(shape) != 4:
            raise ContainerError(f"{path}: frame source needs a 3-channel container")
        if shape[0] == 0:
            raise ContainerError(f"{path}: container holds no frames")
        self.frames = np.memmap(path, dtype=np.uint8, mode="r", offset=_HEADER.size,
                                shape=shape).view(np.ndarray)

    def __len__(self) -> int:
        return self.frames.shape[0]

    def __iter__(self):
        for t in range(len(self)):
            yield t, self.frames[t]

    def frame(self, t: int) -> np.ndarray:
        return self.frames[t]
