import re
from pathlib import Path

import pytest

from jitstream.arch import ArchConfig
from jitstream.config import (
    SETTINGS,
    ConfigError,
    load_pretrain_config,
    load_run_config,
    load_synthetic_config,
    parse_kv_file,
)
from jitstream.distill import DistillConfig
from jitstream.metrics import CostModel
from jitstream.pretrain import CorpusConfig
from jitstream.streams import EventSpec, ObjectSpec, SyntheticStreamConfig, TeacherNoise

BUNDLED = Path(__file__).resolve().parents[1] / "src" / "jitstream" / "configs"


class TestParser:
    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "a.cfg"
        f.write_text("# top\nkey = 1  # trailing\n\nother = two words\n")
        assert parse_kv_file(f) == {"key": "1", "other": "two words"}

    def test_missing_equals(self, tmp_path):
        f = tmp_path / "a.cfg"
        f.write_text("justakey\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_kv_file(f)

    def test_duplicate_key(self, tmp_path):
        f = tmp_path / "a.cfg"
        f.write_text("k = 1\nk = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_file(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_kv_file(tmp_path / "nope.cfg")


class TestSyntheticConfig:
    def test_bundled_stream_parses(self):
        cfg = load_synthetic_config(BUNDLED / "standard_stream.cfg")
        assert cfg.width == cfg.height == 96
        assert cfg.num_frames == 2000
        assert len(cfg.objects) == 3
        assert [e.kind for e in cfg.events] == ["appearance_shift"] * 3

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("width = 64\nheight = 64\nnum_frames = 10\ntypo_key = 1\n")
        with pytest.raises(ConfigError, match="typo_key"):
            load_synthetic_config(f)

    def test_bad_type_diagnostic(self, tmp_path):
        f = tmp_path / "s.cfg"
        f.write_text("width = sixty\n")
        with pytest.raises(ConfigError, match="integer"):
            load_synthetic_config(f)

    @pytest.mark.parametrize("extra", [
        "object1.sise_min = 30",                       # misspelled field
        "object3.class_id = 1",                        # no object2 before it
        "event2.frame = 3\nevent2.kind = appearance_shift",   # no event1
        "objectx = 5",
        "object2.shape = disc",                        # object2 has no class_id
    ])
    def test_unread_object_and_event_keys_rejected(self, tmp_path, extra):
        f = tmp_path / "s.cfg"
        f.write_text("width = 48\nheight = 48\nnum_frames = 10\nclass_count = 1\n"
                     f"object1.class_id = 1\n{extra}\n")
        with pytest.raises(ConfigError, match="unknown keys") as info:
            load_synthetic_config(f)
        assert extra.split("\n")[0].split(" = ")[0] in str(info.value)

    @pytest.mark.parametrize("index", [1, 5, -1])
    def test_event_naming_a_missing_object_rejected(self, tmp_path, index):
        f = tmp_path / "s.cfg"
        f.write_text("width = 48\nheight = 48\nnum_frames = 10\nclass_count = 1\n"
                     "object1.class_id = 1\n"
                     f"event1.frame = 3\nevent1.kind = disappear\nevent1.object = {index}\n")
        with pytest.raises(ConfigError, match=rf"names object {index}, outside \[0, 1\)"):
            load_synthetic_config(f)


def write_run_config(tmp_path, body):
    stream = tmp_path / "stream.cfg"
    stream.write_text("width = 48\nheight = 48\nnum_frames = 20\nclass_count = 1\n"
                      "object1.class_id = 1\n")
    f = tmp_path / "run.cfg"
    f.write_text(body)
    return f


class TestRunConfig:
    def test_defaults_and_derived_classes(self, tmp_path):
        f = write_run_config(tmp_path, "stream.synthetic = stream.cfg\nseed = 5\n")
        cfg = load_run_config(f)
        assert cfg.arch.num_classes == 2        # class_count + background
        assert cfg.distill.delta_min == 8 and cfg.distill.delta_max == 64
        assert cfg.distill.u_max == 8 and cfg.distill.a_thresh == 0.8
        assert cfg.cost.t_teacher == 300.0
        assert cfg.seed == 5

    def test_exactly_one_source_required(self, tmp_path):
        f = write_run_config(tmp_path, "seed = 1\n")
        with pytest.raises(ConfigError, match="exactly one"):
            load_run_config(f)

    def test_missing_referenced_path(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("stream.synthetic = nowhere.cfg\n")
        with pytest.raises(ConfigError, match="missing path"):
            load_run_config(f)

    def test_container_requires_recorded_teacher(self, tmp_path):
        container = tmp_path / "frames.lvss"
        container.write_bytes(b"")
        f = tmp_path / "run.cfg"
        f.write_text(f"stream.container = {container}\nnum_classes = 3\n")
        with pytest.raises(ConfigError, match="recorded_teacher"):
            load_run_config(f)

    def test_unknown_key_rejected(self, tmp_path):
        f = write_run_config(tmp_path,
                             "stream.synthetic = stream.cfg\nmystery = 3\n")
        with pytest.raises(ConfigError, match="mystery"):
            load_run_config(f)

    def test_invalid_distill_values_rejected(self, tmp_path):
        f = write_run_config(tmp_path,
                             "stream.synthetic = stream.cfg\ndelta_min = 12\n")
        with pytest.raises(ConfigError, match="power of two"):
            load_run_config(f)


class TestDefaults:
    """A key a file leaves out takes its dataclass default."""

    def test_run_and_stream_defaults(self, tmp_path):
        (tmp_path / "stream.cfg").write_text(
            "object1.class_id = 1\nevent1.frame = 5\nevent1.kind = camera_pan\n")
        f = tmp_path / "run.cfg"
        f.write_text("stream.synthetic = stream.cfg\n")
        cfg = load_run_config(f)
        assert cfg.distill == DistillConfig()
        assert cfg.noise == TeacherNoise()
        assert cfg.cost == CostModel()
        assert cfg.arch == ArchConfig(num_classes=SyntheticStreamConfig().class_count + 1)
        assert cfg.synthetic == SyntheticStreamConfig(
            objects=(ObjectSpec(class_id=1),),
            events=(EventSpec(frame_index=5, kind="camera_pan"),))

    def test_pretrain_defaults(self, tmp_path):
        f = tmp_path / "pre.cfg"
        f.write_text("")
        cfg = load_pretrain_config(f)
        assert cfg.corpus == CorpusConfig()
        assert cfg.distill == DistillConfig()
        assert cfg.arch == ArchConfig(num_classes=cfg.corpus.class_count + 1)


class TestPretrainConfig:
    def test_bundled_parses(self):
        cfg = load_pretrain_config(BUNDLED / "pretrain_default.cfg")
        assert cfg.corpus.scenes == 24 and cfg.epochs == 3
        assert cfg.arch.num_classes == 4


# keys read outside SETTINGS: paths, the class count whose default is
# derived from the stream or corpus, and the indexed object/event keys
HAND_READ = {"stream.synthetic", "stream.container", "stream.recorded_teacher",
             "init_snapshot", "out_dir", "num_classes"}


@pytest.mark.parametrize("name", ["run_default.cfg", "pretrain_default.cfg",
                                  "standard_stream.cfg"])
def test_every_shipped_scalar_key_is_a_settings_row(name):
    for key in parse_kv_file(BUNDLED / name):
        assert (key in SETTINGS or key in HAND_READ
                or re.fullmatch(r"(object|event)\d+\.\w+", key)), key
