"""Synthetic-corpus pretraining for the student network.

Builds a corpus of short randomized scenes drawn from the same class
palette family the online streams use, labels every frame with the oracle
teacher, and trains the student offline on it.  Streams adapted online
afterwards start from appearance priors instead of random weights, which
is how the online loop is meant to be deployed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .arch import ArchConfig, JITNet
from .distill import DistillConfig, materialize_dataset, offline_oracle_train
from .seeding import child_rng
from .streams import ObjectSpec, OracleTeacher, SyntheticStreamConfig, gen_synthetic_stream

SHAPES = ("disc", "rectangle", "blob")


@dataclass(frozen=True)
class CorpusConfig:
    """The randomized scenes of a pretraining corpus (``corpus.*`` keys)."""

    scenes: int = 24
    frames_per_scene: int = 8
    width: int = 96
    height: int = 96
    class_count: int = 3
    presence_prob: float = 0.8
    size_min: float = 10.0
    size_max: float = 16.0
    size_span: float = 6.0
    speed_min: float = 0.1
    speed_max: float = 0.6
    every_kth: int = 1
    textured: bool = True

    def __post_init__(self):
        if self.scenes < 1 or self.frames_per_scene < 1:
            raise ValueError("corpus must contain at least one frame")
        if self.every_kth < 1:
            raise ValueError(f"corpus.every_kth must be >= 1, got {self.every_kth}")
        if not 0 <= self.presence_prob <= 1:
            raise ValueError(f"corpus.presence_prob must lie in [0, 1], "
                             f"got {self.presence_prob}")
        for key in ("size_min", "size_max", "size_span", "speed_min", "speed_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"corpus.{key} must be finite, got {getattr(self, key)}")
        if not 0 < self.size_min <= self.size_max:
            raise ValueError(f"need 0 < corpus.size_min <= corpus.size_max, "
                             f"got {self.size_min} and {self.size_max}")
        if self.size_span < 0:
            raise ValueError(f"corpus.size_span must be >= 0, got {self.size_span}")
        if not 0 <= self.speed_min <= self.speed_max:
            raise ValueError(f"need 0 <= corpus.speed_min <= corpus.speed_max, "
                             f"got {self.speed_min} and {self.speed_max}")
        # the scenes' extent must be one a stream takes
        SyntheticStreamConfig(width=self.width, height=self.height)


@dataclass
class PretrainConfig:
    origin: Path
    corpus: CorpusConfig
    distill: DistillConfig
    arch: ArchConfig
    seed: int = 0
    epochs: int = 3

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        self.arch.check_covers(self.corpus.class_count)


def build_corpus(cfg: PretrainConfig) -> list:
    """Materialize (frame, labels, weights) samples from randomized scenes."""
    rng = child_rng(cfg.seed, "corpus")
    corpus = cfg.corpus
    dataset = []
    for _ in range(corpus.scenes):
        objects = []
        for class_id in range(1, corpus.class_count + 1):
            if rng.random() >= corpus.presence_prob:
                continue
            low = corpus.size_min + (corpus.size_max - corpus.size_min) * rng.random()
            objects.append(ObjectSpec(
                class_id=class_id,
                shape=SHAPES[int(rng.integers(0, len(SHAPES)))],
                size_range=(low, low + corpus.size_span),
                speed_range=(corpus.speed_min, corpus.speed_max),
                texture_seed=int(rng.integers(0, 1000))))
        scene = SyntheticStreamConfig(
            width=corpus.width, height=corpus.height,
            num_frames=corpus.frames_per_scene,
            class_count=corpus.class_count,
            objects=tuple(objects),
            seed=int(rng.integers(0, 2 ** 31)),
            textured=corpus.textured)
        stream = gen_synthetic_stream(scene)
        dataset.extend(materialize_dataset(stream, OracleTeacher(stream),
                                           cfg.distill, corpus.every_kth))
    return dataset


def pretrain(cfg: PretrainConfig, net: JITNet | None = None):
    """Train a fresh (or given) network on the corpus.

    Returns ``(net, log)`` where ``log`` rows are
    ``(epoch, mean loss, train mean IoU)``.
    """
    net = net or JITNet(cfg.arch, seed=cfg.seed)
    log = offline_oracle_train(net, build_corpus(cfg), cfg.epochs, cfg.distill.lr,
                               cfg.distill.momentum, seed=child_rng(cfg.seed, "shuffle"))
    return net, log
