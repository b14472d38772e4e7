import numpy as np
import pytest

from jitstream.distill import (
    TeacherInstance,
    decode_rle,
    encode_rle,
    read_predictions_jsonl,
    write_predictions_jsonl,
)
from jitstream.nn import SnapshotError, load_weights, save_weights


def encode_rle_reference(mask):
    """Scalar run-length oracle: alternating zero/one runs, zero-run first."""
    runs, value, run = [], False, 0
    for bit in np.asarray(mask, dtype=bool).ravel():
        if bit == value:
            run += 1
        else:
            runs.append(run)
            value, run = bit, 1
    runs.append(run)
    return runs


class TestRLE:
    @pytest.mark.parametrize("seed", range(15))
    def test_matches_reference_and_round_trips(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((rng.integers(1, 12), rng.integers(1, 12))) < 0.5
        runs = encode_rle(mask)
        assert runs == encode_rle_reference(mask)
        np.testing.assert_array_equal(decode_rle(runs, mask.shape), mask)

    def test_starts_with_zero_run(self):
        assert encode_rle(np.ones((2, 2), dtype=bool)) == [0, 4]
        assert encode_rle(np.zeros((2, 2), dtype=bool)) == [4]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="pixels"):
            decode_rle([0, 3], (2, 2))

    @pytest.mark.parametrize("runs", [[0, 6, -2], [2, -1, 3]])
    def test_negative_run_rejected(self, runs):
        # both sum to the mask's 4 pixels
        with pytest.raises(ValueError, match=r"rle run \d is negative"):
            decode_rle(runs, (2, 2))


class TestPredictionsJsonl:
    def test_round_trip(self, tmp_path, rng):
        mask = rng.random((5, 4)) < 0.6
        mask[0, 0] = True
        table = {
            3: [TeacherInstance(2, 0.75, (1, 2, 5, 7), mask)],
            0: [],
        }
        path = tmp_path / "teacher.jsonl"
        write_predictions_jsonl(path, table)
        got = read_predictions_jsonl(path)
        assert sorted(got) == [0, 3]
        inst = got[3][0]
        assert inst.class_id == 2 and inst.confidence == 0.75
        assert inst.bbox == (1, 2, 5, 7)
        np.testing.assert_array_equal(inst.mask, mask)

    def test_mask_must_fit_its_box(self):
        with pytest.raises(ValueError, match=r"does not fit its box"):
            TeacherInstance(1, 0.9, (3, 2, 6, 5), np.ones((10, 10), dtype=bool))

    def test_malformed_line_diagnostic(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": 0, "instances": [{"class": 1}]}\n')
        with pytest.raises(ValueError, match="line 1"):
            read_predictions_jsonl(path)

    def test_negative_run_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"frame": 0, "instances": []}\n'
                        '{"frame": 1, "instances": [{"class": 1, "conf": 0.9, '
                        '"bbox": [0, 0, 2, 2], "rle": [0, 6, -2]}]}\n')
        with pytest.raises(ValueError, match="line 2: rle run 2 is negative"):
            read_predictions_jsonl(path)


class TestWeightSnapshot:
    def test_round_trip(self, tmp_path, rng):
        named = [("a.weight", rng.standard_normal((2, 3, 3, 3)).astype(np.float32)),
                 ("a.bias", rng.standard_normal(2).astype(np.float32))]
        path = tmp_path / "w.jitw"
        save_weights(path, named)
        got = load_weights(path)
        assert [n for n, _ in got] == ["a.weight", "a.bias"]
        for (_, a), (_, b) in zip(named, got):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.jitw"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(SnapshotError, match="magic"):
            load_weights(path)

    def test_truncation_diagnostic_names_offset(self, tmp_path, rng):
        path = tmp_path / "w.jitw"
        save_weights(path, [("w", rng.standard_normal(8).astype(np.float32))])
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(SnapshotError, match="offset"):
            load_weights(path)
