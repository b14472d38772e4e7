"""Workload inputs.

Every input a round feeds to the program is a pure function of
(workload, seed, extent):

* ``bundled-oracle`` is the shipped ``run_default.cfg`` and its bundled
  stream, cut to the first ``frames`` frames (events past the cut are dropped,
  which leaves the kept frames byte-identical to the shipped stream's).  Its
  shipped ``seed = 42`` stays: the input is what an operator runs, whatever
  ``--seed`` says.
* ``bundled-noisy-strict`` is the same with the degraded teacher of
  acceptance criterion 8 and ``a_thresh = 0.9``.
* ``recorded-360p`` is a 360x640 LVSS container plus a JSONL recorded teacher
  covering every frame, both drawn here from ``--seed`` without the program's
  renderer, following the README "File formats" section.

A round is one whole operator run over that input, so every round of a run
does the same work.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED_CONFIGS = Path("src") / "jitstream" / "configs"
NAMES = ("bundled-oracle", "bundled-noisy-strict", "recorded-360p")

# Frames per round; "tiny" is the smoke extent the self-tests run.  At 720
# frames the oracle round has 15 teacher frames whose median falls inside
# the group of 2-update frames; at 450 it fell on the edge between 2 and 3
# updates, where run-to-run noise picked either side.
ROUND_FRAMES = {
    "full": {"bundled-oracle": 720, "bundled-noisy-strict": 160, "recorded-360p": 20},
    "tiny": {"bundled-oracle": 40, "bundled-noisy-strict": 24, "recorded-360p": 12},
}
RECORDED_HW = {"full": (360, 640), "tiny": (48, 64)}
CONF_THRESH = 0.5
RECORDED_CLASSES = 4                       # background + three object classes
NOISE = (("noise.jitter_px", "2"), ("noise.conf_spread", "0.2"),
         ("noise.drop_prob", "0.05"))
RECORDED_RUN = (
    ("fps", "25"), ("u_max", "2"), ("delta_min", "8"), ("delta_max", "64"),
    ("a_thresh", "0.8"), ("lr", "0.01"), ("momentum", "0.9"),
    ("conf_thresh", str(CONF_THRESH)), ("weight_factor", "5.0"),
    ("box_dilation", "0.15"), ("width_multiplier", "1.0"), ("input_scale", "1.0"),
    ("skip_connections", "true"), ("cost.teacher_ms", "300"),
    ("cost.infer_ms", "7"), ("cost.update_ms", "30"))
# the scheduler and cost keys the output checks need from a run config
KNOB_KEYS = ("seed", "fps", "u_max", "delta_min", "delta_max", "a_thresh",
             "cost.teacher_ms", "cost.infer_ms", "cost.update_ms")


@dataclass
class Prepared:
    """What one workload hands to the rounds and to the output checks."""

    name: str
    config: Path
    frames: int
    save_predictions: bool
    knobs: dict                                # parsed from the written config
    reference: np.ndarray | None = None        # (n, h, w) label maps, recorded only
    num_classes: int | None = None


def read_kv(path: Path) -> list[tuple[str, str]]:
    """Ordered ``key = value`` pairs of a flat config file, comments dropped."""
    pairs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            pairs.append((key.strip(), value.strip()))
    return pairs


def write_kv(path: Path, pairs) -> None:
    path.write_text("".join(f"{k} = {v}\n" for k, v in pairs), encoding="utf-8")


def knobs_of(pairs) -> dict:
    table = dict(pairs)
    missing = [k for k in KNOB_KEYS if k not in table]
    if missing:
        raise ValueError(f"run config lacks {missing}")
    knobs = {k: float(table[k]) for k in KNOB_KEYS}
    for k in ("seed", "u_max", "delta_min", "delta_max"):
        knobs[k] = int(knobs[k])
    return knobs


def _set(pairs, key: str, value: str):
    if key not in dict(pairs):
        raise ValueError(f"shipped config has no {key!r} key")
    return [(k, value if k == key else v) for k, v in pairs]


def _bundled(name: str, frames: int, work: Path) -> Prepared:
    stream = _set(read_kv(SHIPPED_CONFIGS / "standard_stream.cfg"),
                  "num_frames", str(frames))
    late = {k.split(".", 1)[0] for k, v in stream
            if k.startswith("event") and k.endswith(".frame") and int(v) >= frames}
    stream = [(k, v) for k, v in stream if k.split(".", 1)[0] not in late]
    write_kv(work / "stream.cfg", stream)

    run = _set(read_kv(SHIPPED_CONFIGS / "run_default.cfg"),
               "stream.synthetic", "stream.cfg")
    if name == "bundled-noisy-strict":
        run = _set(run, "a_thresh", "0.9") + list(NOISE)
    write_kv(work / "run.cfg", run)
    return Prepared(name, work / "run.cfg", frames, False, knobs_of(run))


# -- recorded-360p: container + recorded teacher drawn from the seed --------

LVSS_HEADER = struct.Struct("<4sIIIBQ")


def write_lvss(path: Path, frames: np.ndarray) -> None:
    n, h, w, c = frames.shape
    with open(path, "wb") as fh:
        fh.write(LVSS_HEADER.pack(b"LVSS", 1, w, h, c, n))
        fh.write(np.ascontiguousarray(frames, dtype=np.uint8).tobytes())


def rle_runs(mask: np.ndarray) -> list[int]:
    """Row-major alternating zero/one run lengths, starting with a zero run."""
    flat = mask.ravel()
    edges = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], edges, [flat.size]))).tolist()
    return [0] + runs if flat[0] else runs


def paint_reference(instances, hw) -> np.ndarray:
    """Class-id map of the instances at or above the confidence threshold;
    a later paint (higher confidence, ties in input order) wins."""
    labels = np.zeros(hw, dtype=np.uint8)
    kept = sorted((i for i in instances if i["conf"] >= CONF_THRESH),
                  key=lambda i: i["conf"])
    for inst in kept:
        x0, y0, x1, y1 = inst["bbox"]
        labels[y0:y1, x0:x1][inst["mask"]] = inst["class"]
    return labels


def _scene(rng: np.random.Generator, frames: int, hw):
    """Textured background panning sideways, three moving ellipses of
    classes 1-3 and one low-confidence false detection per frame.  The
    ellipses' sizes and paths are fixed; the seed draws the texture, the
    confidences and the false detections."""
    h, w = hw
    layout = np.random.default_rng(360)
    cell = max(4, h // 12)
    coarse = rng.integers(40, 160, size=(h // cell + 2, w // cell + 2 + frames, 3),
                          dtype=np.uint8)
    texture = np.repeat(np.repeat(coarse, cell, axis=0), cell, axis=1)
    ys, xs = np.mgrid[0:h, 0:w]
    objects = []
    for cls in (1, 2, 3):
        ry, rx = layout.uniform(0.12, 0.22) * h, layout.uniform(0.08, 0.15) * w
        objects.append(dict(
            cls=cls, ry=ry, rx=rx,
            cy=layout.uniform(ry, h - ry), cx=layout.uniform(rx, w - rx),
            vy=layout.uniform(-0.02, 0.02) * h, vx=layout.uniform(-0.02, 0.02) * w,
            color=np.array([255 if c == cls - 1 else 30 for c in range(3)])))
    pan = max(1, cell // 4)
    for t in range(frames):
        start = (t * pan) % (coarse.shape[1] * cell - w)
        frame = texture[:h, start:start + w].copy()
        instances = []
        for obj in objects:
            cy = _bounce(obj["cy"] + obj["vy"] * t, obj["ry"], h - obj["ry"])
            cx = _bounce(obj["cx"] + obj["vx"] * t, obj["rx"], w - obj["rx"])
            mask = ((ys - cy) / obj["ry"]) ** 2 + ((xs - cx) / obj["rx"]) ** 2 <= 1.0
            frame[mask] = obj["color"]
            instances.append(_instance(obj["cls"], rng.uniform(0.55, 1.0), mask))
        y0, x0 = int(rng.integers(0, h // 2)), int(rng.integers(0, w // 2))
        ghost = np.zeros(hw, dtype=bool)
        ghost[y0:y0 + h // 4, x0:x0 + w // 5] = True
        instances.append(_instance(int(rng.integers(1, 4)), rng.uniform(0.05, 0.45), ghost))
        yield frame, [i for i in instances if i is not None]


def _bounce(p: float, lo: float, hi: float) -> float:
    span = hi - lo
    x = (p - lo) % (2 * span)
    return lo + (span - abs(x - span))


def _instance(cls: int, conf: float, mask: np.ndarray):
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        return None
    bbox = [int(cols[0]), int(rows[0]), int(cols[-1]) + 1, int(rows[-1]) + 1]
    return {"class": cls, "conf": round(float(conf), 4), "bbox": bbox,
            "mask": mask[bbox[1]:bbox[3], bbox[0]:bbox[2]]}


def _recorded(seed: int, frames: int, hw, work: Path) -> Prepared:
    rng = np.random.default_rng([seed, 360])
    stack = np.empty((frames, *hw, 3), dtype=np.uint8)
    reference = np.empty((frames, *hw), dtype=np.uint8)
    with open(work / "teacher.jsonl", "w", encoding="utf-8") as fh:
        for t, (frame, instances) in enumerate(_scene(rng, frames, hw)):
            stack[t] = frame
            reference[t] = paint_reference(instances, hw)
            rows = [{"class": i["class"], "conf": i["conf"], "bbox": i["bbox"],
                     "rle": rle_runs(i["mask"])} for i in instances]
            fh.write(json.dumps({"frame": t, "instances": rows}) + "\n")
    write_lvss(work / "frames.lvss", stack)
    run = [("stream.container", "frames.lvss"),
           ("stream.recorded_teacher", "teacher.jsonl"),
           # the shipped config's seed: the seed draws the scene, not the weights
           ("num_classes", str(RECORDED_CLASSES)), ("seed", "42"),
           *RECORDED_RUN]
    write_kv(work / "run.cfg", run)
    return Prepared("recorded-360p", work / "run.cfg", frames, True, knobs_of(run),
                    reference, RECORDED_CLASSES)


def prepare(name: str, seed: int, work: Path, extent: str = "full") -> Prepared:
    """Write the workload's inputs into ``work`` and describe them."""
    work.mkdir(parents=True, exist_ok=True)
    frames = ROUND_FRAMES[extent][name]
    if name == "recorded-360p":
        return _recorded(seed, frames, RECORDED_HW[extent], work)
    return _bundled(name, frames, work)
