"""Flat ``key = value`` configuration files.

The format is deliberately minimal: UTF-8 lines of ``key = value``, ``#``
comments, blank lines allowed.  Nested configurations (the synthetic stream
description, recorded teacher files, snapshots) are referenced by path,
resolved relative to the file that names them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .arch import ArchConfig
from .distill import DistillConfig
from .metrics import CostModel
from .pretrain import CorpusConfig, PretrainConfig
from .streams import EventSpec, ObjectSpec, SyntheticStreamConfig, TeacherNoise


class ConfigError(ValueError):
    """Invalid or inconsistent configuration file (CLI exit code 2)."""


def parse_kv_file(path) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    table: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), 1):
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


_BOOLEANS = {"true": True, "yes": True, "1": True, "on": True,
             "false": False, "no": False, "0": False, "off": False}


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

    def _typed(self, key: str, default, parse, kind: str):
        value = self._get(key)
        if value is None:
            return default
        try:
            return parse(value)
        except (KeyError, ValueError):
            raise ConfigError(f"{self.origin}: {key} must be {kind}, got {value!r}")

    def int_(self, key: str, default: int | None = None) -> int | None:
        return self._typed(key, default, int, "an integer")

    def float_(self, key: str, default: float | None = None) -> float | None:
        return self._typed(key, default, float, "a number")

    def bool_(self, key: str, default: bool | None = None) -> bool | None:
        return self._typed(key, default, lambda v: _BOOLEANS[v.lower()], "a boolean")

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
    cfg = _read_part(section, SyntheticStreamConfig, objects=tuple(objects),
                     events=tuple(events))
    section.reject_unknown_keys()
    return cfg


@dataclass
class RunConfig:
    origin: Path
    distill: DistillConfig
    arch: ArchConfig
    cost: CostModel
    noise: TeacherNoise
    synthetic: SyntheticStreamConfig | None
    container: Path | None
    recorded_teacher: Path | None
    init_snapshot: Path | None
    out_dir: Path | None
    seed: int = 0
    fps: float = 25.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ValueError(f"fps must be a finite number > 0, got {self.fps}")
        if self.synthetic is not None:
            self.arch.check_covers(self.synthetic.class_count)


# config key -> (part, field, the typed rule that parses its value); the part
# is the field of the file's own config that holds the key's dataclass, or
# None for the file's own config.  A key left out keeps its dataclass default.
SETTINGS = {
    "seed": (None, "seed", Section.int_),
    "fps": (None, "fps", Section.float_),
    "epochs": (None, "epochs", Section.int_),
    "width": (None, "width", Section.int_),
    "height": (None, "height", Section.int_),
    "num_frames": (None, "num_frames", Section.int_),
    "class_count": (None, "class_count", Section.int_),
    "textured": (None, "textured", Section.bool_),
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
    "corpus.scenes": ("corpus", "scenes", Section.int_),
    "corpus.frames_per_scene": ("corpus", "frames_per_scene", Section.int_),
    "corpus.width": ("corpus", "width", Section.int_),
    "corpus.height": ("corpus", "height", Section.int_),
    "corpus.class_count": ("corpus", "class_count", Section.int_),
    "corpus.presence_prob": ("corpus", "presence_prob", Section.float_),
    "corpus.size_min": ("corpus", "size_min", Section.float_),
    "corpus.size_max": ("corpus", "size_max", Section.float_),
    "corpus.size_span": ("corpus", "size_span", Section.float_),
    "corpus.speed_min": ("corpus", "speed_min", Section.float_),
    "corpus.speed_max": ("corpus", "speed_max", Section.float_),
    "corpus.every_kth": ("corpus", "every_kth", Section.int_),
    "corpus.textured": ("corpus", "textured", Section.bool_),
}


def _read_part(section: Section, cls, part: str | None = None, **given):
    """Build ``cls`` from the ``given`` fields plus the ``SETTINGS`` keys of
    ``part`` that the file sets and that name a field of ``cls``."""
    names = {f.name for f in fields(cls)}
    for key, (owner, field, rule) in SETTINGS.items():
        if owner == part and field in names and section.has(key):
            given[field] = rule(section, key)
    try:
        return cls(**given)
    except ValueError as exc:
        raise ConfigError(f"{section.origin}: {exc}") from exc


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
    cfg = _read_part(
        section, RunConfig, origin=origin,
        distill=_read_part(section, DistillConfig, "distill"),
        arch=_read_part(section, ArchConfig, "arch", num_classes=num_classes),
        cost=_read_part(section, CostModel, "cost"),
        noise=_read_part(section, TeacherNoise, "noise"),
        synthetic=synthetic,
        container=container,
        recorded_teacher=recorded,
        init_snapshot=section.path_("init_snapshot"),
        out_dir=(origin.parent / out_dir).resolve() if out_dir else None)
    section.reject_unknown_keys()
    return cfg


def load_pretrain_config(path) -> PretrainConfig:
    origin = Path(path)
    section = Section(parse_kv_file(origin), origin)
    corpus = _read_part(section, CorpusConfig, "corpus")
    num_classes = section.int_("num_classes", corpus.class_count + 1)
    cfg = _read_part(
        section, PretrainConfig, origin=origin, corpus=corpus,
        distill=_read_part(section, DistillConfig, "distill"),
        arch=_read_part(section, ArchConfig, "arch", num_classes=num_classes))
    section.reject_unknown_keys()
    return cfg
