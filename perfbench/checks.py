"""Output checks that share no code with the program.

Each check reads what one round wrote (``run.csv``, ``summary.json`` and, for
the recorded workload, ``predictions.lvss``) with readers of its own and
returns a list of problems; an empty list means the round is correct.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import LVSS_HEADER

CSV_HEADER = "frame,teacher_invoked,updates,a_curr,mean_iou_vs_teacher,delta"
# run.csv carries six decimals, so a value this close to a threshold cannot
# say on which side of it the program's exact value was
CSV_HALF_ULP = 5e-7


def read_run_csv(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: header is not {CSV_HEADER!r}")
    rows = []
    for line in lines[1:]:
        frame, teacher, updates, a_curr, iou, delta = line.split(",")
        rows.append({"frame": int(frame), "teacher": teacher == "1",
                     "updates": int(updates),
                     "a_curr": float(a_curr) if a_curr else None,
                     "iou": float(iou) if iou else None, "delta": int(delta)})
    return rows


def check_schedule(rows: list[dict], knobs: dict) -> list[str]:
    """Back-off property of every row: teacher frames exactly where
    ``frame % stride == 0`` from ``delta_min``; after each check the stride
    doubles on ``a_curr > a_thresh`` and halves otherwise, clamped; the update
    budget holds, and stopping early means the check passed."""
    d_min, d_max = knobs["delta_min"], knobs["delta_max"]
    u_max, thresh = knobs["u_max"], knobs["a_thresh"]
    problems = []
    stride = d_min
    for i, row in enumerate(rows):
        where = f"row of frame {row['frame']}"
        if row["frame"] != i:
            return problems + [f"{where}: expected frame {i}"]
        if row["teacher"] != (i % stride == 0):
            problems.append(f"{where}: teacher_invoked {int(row['teacher'])} "
                            f"with stride {stride}")
            break
        if not row["teacher"]:
            if row["updates"] or row["a_curr"] is not None or row["delta"] != stride:
                problems.append(f"{where}: inference frame changed schedule state")
            continue
        a, u = row["a_curr"], row["updates"]
        if a is None or not 0 <= u <= u_max:
            problems.append(f"{where}: updates {u} outside [0, {u_max}] or no a_curr")
            continue
        if u < u_max and a < thresh - CSV_HALF_ULP:
            problems.append(f"{where}: stopped after {u} < u_max updates at "
                            f"a_curr {a} < a_thresh {thresh}")
        up, down = min(d_max, 2 * stride), max(d_min, stride // 2)
        allowed = {up} if a > thresh + CSV_HALF_ULP else {down}
        if abs(a - thresh) <= CSV_HALF_ULP:
            allowed = {up, down}
        if row["delta"] not in allowed:
            problems.append(f"{where}: stride {stride} -> {row['delta']} after "
                            f"a_curr {a}, expected {sorted(allowed)}")
            break
        stride = row["delta"]
    return problems


def _close(a, b, tol: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _windows(values, window: int):
    out = []
    for start in range(0, len(values), window):
        chunk = [v for v in values[start:start + window] if v is not None]
        out.append(sum(chunk) / len(chunk) if chunk else None)
    return out


def check_summary(rows: list[dict], summary: dict, knobs: dict) -> list[str]:
    """Every aggregate of ``summary.json`` recomputed from the CSV rows, with
    the cost-model speedup evaluated here from its definition."""
    n = len(rows)
    k = sum(r["teacher"] for r in rows)
    u = sum(r["updates"] for r in rows)
    ious = [r["iou"] for r in rows]
    defined = [v for v in ious if v is not None]
    t_teacher, t_infer = knobs["cost.teacher_ms"], knobs["cost.infer_ms"]
    total_ms = n * t_infer + k * t_teacher + u * knobs["cost.update_ms"]
    window = max(1, round(knobs["fps"] * 30.0))
    expected = {
        "frames": n, "teacher_invocations": k, "total_updates": u,
        "teacher_failures": 0, "numeric_events": 0, "seed": knobs["seed"],
        "teacher_fraction": k / n,
        "mean_iou": sum(defined) / len(defined) if defined else None,
        "speedup": n * t_teacher / total_ms, "total_cost_ms": total_ms,
    }
    problems = [f"summary {key}: {summary.get(key)!r}, recomputed {want!r}"
                for key, want in expected.items() if not _close(summary.get(key), want)]
    for key, series in (("iou_intervals_30s", ious),
                        ("updates_intervals_30s", [float(r["updates"]) for r in rows])):
        got, want = summary.get(key), _windows(series, window)
        if got is None or len(got) != len(want) or not all(map(_close, got, want)):
            problems.append(f"summary {key}: {got!r}, recomputed {want!r}")
    return problems


def read_lvss(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    magic, version, w, h, c, n = LVSS_HEADER.unpack_from(blob, 0)
    if magic != b"LVSS" or version != 1 or c not in (1, 3):
        raise ValueError(f"{path}: bad header {magic!r} v{version} c{c}")
    data = np.frombuffer(blob, dtype=np.uint8, offset=LVSS_HEADER.size)
    if data.size != n * h * w * c:
        raise ValueError(f"{path}: payload {data.size} bytes, header promises "
                         f"{n * h * w * c}")
    return data.reshape((n, h, w) if c == 1 else (n, h, w, c))


def set_count_iou(pred: np.ndarray, ref: np.ndarray, num_classes: int) -> float | None:
    """Mean over foreground classes with a non-empty union of
    |pred ∩ ref| / |pred ∪ ref|, ignore-label pixels excluded."""
    valid = ref != 255
    scores = []
    for c in range(1, num_classes):
        p, r = (pred == c) & valid, (ref == c) & valid
        union = np.count_nonzero(p | r)
        if union:
            scores.append(np.count_nonzero(p & r) / union)
    return sum(scores) / len(scores) if scores else None


def check_predictions(rows: list[dict], path: Path, reference: np.ndarray,
                      num_classes: int) -> list[str]:
    """Each frame's ``mean_iou_vs_teacher`` recomputed from the written
    prediction frame and the generated teacher masks, to 1e-6."""
    preds = read_lvss(path)
    if preds.shape != reference.shape:
        return [f"predictions {preds.shape} != reference {reference.shape}"]
    if preds.max(initial=0) >= num_classes:
        return [f"prediction class id {preds.max()} >= {num_classes}"]
    problems = []
    for row, pred, ref in zip(rows, preds, reference):
        want = set_count_iou(pred, ref, num_classes)
        got = row["iou"]
        if (got is None) != (want is None) or (want is not None and abs(got - want) > 1e-6):
            problems.append(f"frame {row['frame']}: mean_iou_vs_teacher {got}, "
                            f"recomputed {want}")
    return problems


def check_round(out_dir: Path, prepared) -> list[str]:
    """All checks for one round's outputs."""
    try:
        rows = read_run_csv(out_dir / "run.csv")
        summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        problems = []
        if len(rows) != prepared.frames:
            problems.append(f"run.csv has {len(rows)} rows, stream has {prepared.frames}")
        problems += check_schedule(rows, prepared.knobs)
        problems += check_summary(rows, summary, prepared.knobs)
        if prepared.reference is not None:
            problems += check_predictions(rows, out_dir / "predictions.lvss",
                                          prepared.reference, prepared.num_classes)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems = [f"unreadable output: {exc}"]
    return problems
