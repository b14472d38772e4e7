import dataclasses

import numpy as np
import pytest

from jitstream.arch import ArchConfig, JITNet
from jitstream.config import load_pretrain_config
from jitstream.distill import DistillConfig, process_stream
from jitstream.pretrain import build_corpus, pretrain
from jitstream.streams import (
    ObjectSpec,
    OracleTeacher,
    SyntheticStreamConfig,
    gen_synthetic_stream,
)
from pathlib import Path

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "jitstream" / "configs"


def small_pretrain_cfg(epochs=2, **corpus):
    cfg = load_pretrain_config(BUNDLED / "pretrain_default.cfg")
    small = dict(scenes=6, frames_per_scene=4, width=64, height=64, class_count=2)
    small.update(corpus)
    return dataclasses.replace(cfg, corpus=dataclasses.replace(cfg.corpus, **small),
                               epochs=epochs, seed=7, arch=ArchConfig(num_classes=3))


class TestCorpus:
    def test_deterministic(self):
        a = build_corpus(small_pretrain_cfg())
        b = build_corpus(small_pretrain_cfg())
        assert len(a) == len(b) == 24
        for (fa, la, wa), (fb, lb, wb) in zip(a, b):
            assert fa.tobytes() == fb.tobytes()
            assert la.tobytes() == lb.tobytes()

    def test_scene_variety(self):
        corpus = build_corpus(small_pretrain_cfg(scenes=8))
        first_frames = {corpus[i][0].tobytes() for i in range(0, 32, 4)}
        assert len(first_frames) == 8


class TestPretrain:
    def test_loss_decreases(self):
        _, log = pretrain(small_pretrain_cfg())
        losses = [row[1] for row in log]
        assert losses[-1] < losses[0]

    def test_pretrained_start_needs_fewer_updates(self):
        """Adaptation from a corpus-pretrained snapshot clears the accuracy
        bar with less cumulative training than a cold start."""
        stream_cfg = SyntheticStreamConfig(
            width=64, height=64, num_frames=400, class_count=2, seed=21,
            objects=(ObjectSpec(1, "disc", (9, 12), (0.2, 0.5), 5),
                     ObjectSpec(2, "rectangle", (8, 11), (0.2, 0.5), 6)))
        stream = gen_synthetic_stream(stream_cfg)
        dcfg = DistillConfig()

        pretrained, _ = pretrain(small_pretrain_cfg(epochs=3, scenes=8))
        cold = JITNet(ArchConfig(num_classes=3), seed=21)

        updates = {}
        for name, net in (("pretrained", pretrained), ("cold", cold)):
            report = process_stream(stream, OracleTeacher(stream), dcfg, net)
            updates[name] = report.total_updates
        assert updates["pretrained"] < updates["cold"]
