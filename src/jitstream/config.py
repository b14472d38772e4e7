"""Flat ``key = value`` configuration files.

The format is deliberately minimal: UTF-8 lines of ``key = value``, ``#``
comments, blank lines allowed.  Nested configurations (the synthetic stream
description, recorded teacher files, snapshots) are referenced by path,
resolved relative to the file that names them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .arch import ArchConfig
from .distill import DistillConfig
from .metrics import CostModel
from .streams import EventSpec, ObjectSpec, SyntheticStreamConfig, TeacherNoise


class ConfigError(ValueError):
    """Invalid or inconsistent configuration file (CLI exit code 2)."""


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    table: dict[str, str] = {}
    for line_no, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}: line {line_no}: empty key")
        if key in table:
            raise ConfigError(f"{path}: line {line_no}: duplicate key {key!r}")
        table[key] = value
    return table


class Section:
    """Typed access over a parsed table, tracking unknown keys."""

    def __init__(self, table: dict[str, str], origin: Path):
        self.table = dict(table)
        self.origin = origin
        self.used: set[str] = set()

    def _get(self, key: str):
        self.used.add(key)
        return self.table.get(key)

    def has(self, key: str) -> bool:
        return key in self.table

    def str_(self, key: str, default: str | None = None) -> str | None:
        value = self._get(key)
        return default if value is None else value

    def int_(self, key: str, default: int | None = None) -> int | None:
        value = self._get(key)
        if value is None:
            return default
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{self.origin}: {key} must be an integer, got {value!r}")

    def float_(self, key: str, default: float | None = None) -> float | None:
        value = self._get(key)
        if value is None:
            return default
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{self.origin}: {key} must be a number, got {value!r}")

    def bool_(self, key: str, default: bool | None = None) -> bool | None:
        value = self._get(key)
        if value is None:
            return default
        lowered = value.lower()
        if lowered in ("true", "yes", "1", "on"):
            return True
        if lowered in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self.origin}: {key} must be a boolean, got {value!r}")

    def path_(self, key: str) -> Path | None:
        value = self._get(key)
        if value is None:
            return None
        resolved = (self.origin.parent / value).resolve()
        if not resolved.exists():
            raise ConfigError(f"{self.origin}: {key} references missing path {resolved}")
        return resolved

    def reject_unknown_keys(self) -> None:
        """Raise :class:`ConfigError` naming every key nothing has read."""
        leftover = sorted(key for key in self.table if key not in self.used)
        if leftover:
            raise ConfigError(f"{self.origin}: unknown keys {leftover}")


def load_synthetic_config(path) -> SyntheticStreamConfig:
    origin = Path(path)
    section = Section(parse_kv_file(origin), origin)
    objects = []
    index = 1
    while section.has(f"object{index}.class_id"):
        prefix = f"object{index}."
        objects.append(ObjectSpec(
            class_id=section.int_(prefix + "class_id"),
            shape=section.str_(prefix + "shape", ObjectSpec.shape),
            size_range=(section.float_(prefix + "size_min", ObjectSpec.size_range[0]),
                        section.float_(prefix + "size_max", ObjectSpec.size_range[1])),
            speed_range=(section.float_(prefix + "speed_min", ObjectSpec.speed_range[0]),
                         section.float_(prefix + "speed_max", ObjectSpec.speed_range[1])),
            texture_seed=section.int_(prefix + "texture_seed", ObjectSpec.texture_seed)))
        index += 1
    events = []
    index = 1
    while section.has(f"event{index}.frame"):
        prefix = f"event{index}."
        events.append(EventSpec(
            frame_index=section.int_(prefix + "frame"),
            kind=section.str_(prefix + "kind", ""),
            object_index=section.int_(prefix + "object", EventSpec.object_index),
            dx=section.float_(prefix + "dx", EventSpec.dx),
            dy=section.float_(prefix + "dy", EventSpec.dy)))
        index += 1
    try:
        cfg = SyntheticStreamConfig(
            width=section.int_("width", SyntheticStreamConfig.width),
            height=section.int_("height", SyntheticStreamConfig.height),
            num_frames=section.int_("num_frames", SyntheticStreamConfig.num_frames),
            class_count=section.int_("class_count", SyntheticStreamConfig.class_count),
            objects=tuple(objects),
            events=tuple(events),
            seed=section.int_("seed", SyntheticStreamConfig.seed),
            textured=section.bool_("textured", SyntheticStreamConfig.textured))
    except ValueError as exc:
        raise ConfigError(f"{origin}: {exc}") from exc
    section.reject_unknown_keys()
    return cfg


@dataclass
class RunConfig:
    origin: Path
    seed: int
    fps: float
    distill: DistillConfig
    arch: ArchConfig
    cost: CostModel
    noise: TeacherNoise
    synthetic: SyntheticStreamConfig | None
    container: Path | None
    recorded_teacher: Path | None
    init_snapshot: Path | None
    out_dir: Path | None


# part -> its dataclass; the part names are the fields of RunConfig and
# PretrainConfig that hold them
PARTS = {"distill": DistillConfig, "arch": ArchConfig, "noise": TeacherNoise,
         "cost": CostModel}
# config key -> (part, field, the typed rule that parses its value); a key
# the file leaves out keeps its dataclass default
SETTINGS = {
    "u_max": ("distill", "u_max", Section.int_),
    "delta_min": ("distill", "delta_min", Section.int_),
    "delta_max": ("distill", "delta_max", Section.int_),
    "a_thresh": ("distill", "a_thresh", Section.float_),
    "lr": ("distill", "lr", Section.float_),
    "momentum": ("distill", "momentum", Section.float_),
    "conf_thresh": ("distill", "conf_thresh", Section.float_),
    "weight_factor": ("distill", "weight_factor", Section.float_),
    "box_dilation": ("distill", "box_dilation", Section.float_),
    "width_multiplier": ("arch", "width_multiplier", Section.float_),
    "input_scale": ("arch", "input_scale", Section.float_),
    "skip_connections": ("arch", "skip_connections", Section.bool_),
    "noise.jitter_px": ("noise", "boundary_jitter_px", Section.int_),
    "noise.conf_spread": ("noise", "confidence_spread", Section.float_),
    "noise.drop_prob": ("noise", "drop_prob", Section.float_),
    "cost.teacher_ms": ("cost", "t_teacher", Section.float_),
    "cost.infer_ms": ("cost", "t_infer", Section.float_),
    "cost.update_ms": ("cost", "t_update", Section.float_),
}


def _read_part(section: Section, part: str, **given):
    """Build ``part`` from the ``SETTINGS`` keys the file sets plus the
    ``given`` fields (such as ``num_classes``)."""
    for key, (owner, field, rule) in SETTINGS.items():
        if owner == part and section.has(key):
            given[field] = rule(section, key)
    try:
        return PARTS[part](**given)
    except ValueError as exc:
        raise ConfigError(f"{section.origin}: {exc}") from exc


def _check_num_classes(origin: Path, num_classes: int, class_count: int) -> None:
    """The network needs one output per foreground class plus background."""
    if num_classes < class_count + 1:
        raise ConfigError(f"{origin}: num_classes must be >= class_count + 1 = "
                          f"{class_count + 1}, got {num_classes}")


def load_run_config(path) -> RunConfig:
    origin = Path(path)
    section = Section(parse_kv_file(origin), origin)

    synthetic_path = section.path_("stream.synthetic")
    container = section.path_("stream.container")
    recorded = section.path_("stream.recorded_teacher")
    if (synthetic_path is None) == (container is None):
        raise ConfigError(f"{origin}: exactly one of stream.synthetic / "
                          f"stream.container must be set")
    if container is not None and recorded is None:
        raise ConfigError(f"{origin}: a container stream needs "
                          f"stream.recorded_teacher for supervision")
    synthetic = load_synthetic_config(synthetic_path) if synthetic_path else None

    num_classes = section.int_("num_classes",
                               synthetic.class_count + 1 if synthetic else None)
    if num_classes is None:
        raise ConfigError(f"{origin}: num_classes is required for container streams")

    out_dir = section.str_("out_dir")
    cfg = RunConfig(
        origin=origin,
        seed=section.int_("seed", 0),
        fps=section.float_("fps", 25.0),
        distill=_read_part(section, "distill"),
        arch=_read_part(section, "arch", num_classes=num_classes),
        cost=_read_part(section, "cost"),
        noise=_read_part(section, "noise"),
        synthetic=synthetic,
        container=container,
        recorded_teacher=recorded,
        init_snapshot=section.path_("init_snapshot"),
        out_dir=(origin.parent / out_dir).resolve() if out_dir else None)
    if synthetic is not None:
        _check_num_classes(origin, num_classes, synthetic.class_count)
    if not (math.isfinite(cfg.fps) and cfg.fps > 0):
        raise ConfigError(f"{origin}: fps must be a finite number > 0, got {cfg.fps}")
    section.reject_unknown_keys()
    return cfg


@dataclass
class PretrainConfig:
    origin: Path
    scenes: int
    frames_per_scene: int
    width: int
    height: int
    class_count: int
    presence_prob: float
    size_min: float
    size_max: float
    size_span: float
    speed_min: float
    speed_max: float
    epochs: int
    every_kth: int
    seed: int
    distill: DistillConfig
    arch: ArchConfig
    textured: bool


def load_pretrain_config(path) -> PretrainConfig:
    origin = Path(path)
    section = Section(parse_kv_file(origin), origin)
    class_count = section.int_("corpus.class_count", 3)
    num_classes = section.int_("num_classes", class_count + 1)
    cfg = PretrainConfig(
        origin=origin,
        scenes=section.int_("corpus.scenes", 24),
        frames_per_scene=section.int_("corpus.frames_per_scene", 8),
        width=section.int_("corpus.width", 96),
        height=section.int_("corpus.height", 96),
        class_count=class_count,
        presence_prob=section.float_("corpus.presence_prob", 0.8),
        size_min=section.float_("corpus.size_min", 10.0),
        size_max=section.float_("corpus.size_max", 16.0),
        size_span=section.float_("corpus.size_span", 6.0),
        speed_min=section.float_("corpus.speed_min", 0.1),
        speed_max=section.float_("corpus.speed_max", 0.6),
        epochs=section.int_("epochs", 3),
        every_kth=section.int_("corpus.every_kth", 1),
        seed=section.int_("seed", 0),
        distill=_read_part(section, "distill"),
        arch=_read_part(section, "arch", num_classes=num_classes),
        textured=section.bool_("corpus.textured", True))
    if cfg.scenes < 1 or cfg.frames_per_scene < 1:
        raise ConfigError(f"{origin}: corpus must contain at least one frame")
    if cfg.every_kth < 1:
        raise ConfigError(f"{origin}: corpus.every_kth must be >= 1, got {cfg.every_kth}")
    for key in ("size_min", "size_max", "size_span", "speed_min", "speed_max"):
        if not math.isfinite(getattr(cfg, key)):
            raise ConfigError(f"{origin}: corpus.{key} must be finite, "
                              f"got {getattr(cfg, key)}")
    if not 0 < cfg.size_min <= cfg.size_max:
        raise ConfigError(f"{origin}: need 0 < corpus.size_min <= corpus.size_max, "
                          f"got {cfg.size_min} and {cfg.size_max}")
    try:                        # the scenes' extent must be one a stream takes
        SyntheticStreamConfig(width=cfg.width, height=cfg.height)
    except ValueError as exc:
        raise ConfigError(f"{origin}: corpus: {exc}") from exc
    _check_num_classes(origin, num_classes, class_count)
    section.reject_unknown_keys()
    return cfg
