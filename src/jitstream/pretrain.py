"""Synthetic-corpus pretraining for the student network.

Builds a corpus of short randomized scenes drawn from the same class
palette family the online streams use, labels every frame with the oracle
teacher, and trains the student offline on it.  Streams adapted online
afterwards start from appearance priors instead of random weights, which
is how the online loop is meant to be deployed.
"""
from __future__ import annotations

from .arch import JITNet
from .config import PretrainConfig
from .distill import materialize_dataset, offline_oracle_train
from .seeding import child_rng
from .streams import ObjectSpec, OracleTeacher, SyntheticStreamConfig, gen_synthetic_stream

SHAPES = ("disc", "rectangle", "blob")


def build_corpus(cfg: PretrainConfig) -> list:
    """Materialize (frame, labels, weights) samples from randomized scenes."""
    rng = child_rng(cfg.seed, "corpus")
    dataset = []
    for _ in range(cfg.scenes):
        objects = []
        for class_id in range(1, cfg.class_count + 1):
            if rng.random() >= cfg.presence_prob:
                continue
            low = cfg.size_min + (cfg.size_max - cfg.size_min) * rng.random()
            objects.append(ObjectSpec(
                class_id=class_id,
                shape=SHAPES[int(rng.integers(0, len(SHAPES)))],
                size_range=(low, low + cfg.size_span),
                speed_range=(cfg.speed_min, cfg.speed_max),
                texture_seed=int(rng.integers(0, 1000))))
        scene = SyntheticStreamConfig(
            width=cfg.width, height=cfg.height,
            num_frames=cfg.frames_per_scene,
            class_count=cfg.class_count,
            objects=tuple(objects),
            seed=int(rng.integers(0, 2 ** 31)),
            textured=cfg.textured)
        stream = gen_synthetic_stream(scene)
        dataset.extend(materialize_dataset(stream, OracleTeacher(stream),
                                           cfg.distill, cfg.every_kth))
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
