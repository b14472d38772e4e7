"""Operator surface: run online distillation, pretrain on a synthetic
corpus, validate gradients, and sweep configuration knobs.

Exit codes: 0 success, 1 failed validation (gradcheck), 2 configuration
error, 3 runtime numeric failure (the offending frame index goes to
stderr).
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .arch import (ArchError, JITNet, count_params_from_config, end_to_end_gradient_check,
                   estimate_flops)
from .config import (SETTINGS, ConfigError, RunConfig, Section, load_pretrain_config,
                     load_run_config)
from .distill import (
    StreamNumericError,
    StreamReport,
    process_stream,
    rasterize_teacher,
    read_predictions_jsonl,
)
from .metrics import interval_series, speedup_from_counts
from .nn import load_weights, pack_weights
from .nn.gradcheck import run_layer_suite
from .nn.layers import thread_cap
from .pretrain import pretrain
from .streams import (
    ContainerSource,
    NoisyTeacher,
    OracleTeacher,
    RecordedTeacher,
    gen_synthetic_stream,
    lvss_header,
)

CSV_HEADER = "frame,teacher_invoked,updates,a_curr,mean_iou_vs_teacher,delta"
# config keys a sweep may vary; each parses and lands as ``SETTINGS`` says
SWEEP_KNOBS = ("u_max", "delta_min", "lr", "width_multiplier", "input_scale",
               "skip_connections", "a_thresh", "seed")
# a sweep cell whose mean IoU ends below this is marked ``unstable`` even
# without a numeric event: a knob such as lr = 3.0 can wreck the student
# while every value stays finite
SWEEP_UNSTABLE_IOU = 0.3


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.6f}"


def _csv_value(value: float | None) -> float | None:
    """The exact number a CSV reader will see for this cell."""
    return None if value is None else float(_fmt(value))


def build_world(cfg: RunConfig):
    """Assemble (source, teacher, eval_labels, net) for a run configuration."""
    if cfg.synthetic is not None:
        stream = gen_synthetic_stream(cfg.synthetic)
        teacher = OracleTeacher(stream, cfg.cost.t_teacher)
        eval_labels = stream.labels
        source = stream
    else:
        source = ContainerSource(cfg.container)
        table = read_predictions_jsonl(cfg.recorded_teacher)
        for frame_index, instances in table.items():
            for inst in instances:
                if not 0 <= inst.class_id < cfg.arch.num_classes:
                    raise ValueError(f"{cfg.recorded_teacher}: frame {frame_index}: class "
                                     f"{inst.class_id} outside [0, {cfg.arch.num_classes})")
        teacher = RecordedTeacher(table, cfg.cost.t_teacher)
        hw = source.frames.shape[1:3]

        def eval_labels(frame_index: int):
            if frame_index not in table:
                return None
            return rasterize_teacher(table[frame_index], cfg.distill.conf_thresh, hw)

    teacher = NoisyTeacher(teacher, cfg.noise, seed=cfg.seed)
    net = JITNet(cfg.arch, seed=cfg.seed)
    if cfg.init_snapshot is not None:
        net.load_state(load_weights(cfg.init_snapshot))
    return source, teacher, eval_labels, net


class OutputFiles:
    """Output files, created and opened for writing before the work that
    fills them, so an unusable location fails before any work starts.
    Leaving the ``with`` block by an exception closes and removes them all."""

    def __init__(self, *paths: Path):
        self.files = []
        try:
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                self.files.append(open(path, "wb"))
        except OSError:
            self._close(remove=True)
            raise

    def __enter__(self) -> list:
        return self.files

    def __exit__(self, exc_type, exc, tb) -> None:
        self._close(remove=exc_type is not None)

    def _close(self, remove: bool) -> None:
        for fh in self.files:
            fh.close()
            if remove:
                Path(fh.name).unlink(missing_ok=True)


class RunReport(StreamReport):
    """A :class:`StreamReport` that also writes each frame as it finishes:
    its ``run.csv`` row and, given a container file, its label map.  The
    container's header, which holds the frame count, is written by
    :meth:`finish`."""

    def __init__(self, csv, lvss=None):
        super().__init__()
        self.csv, self.lvss = csv, lvss
        self.frame_shape: tuple[int, ...] = (0, 0)
        csv.write(f"{CSV_HEADER}\n".encode())
        if lvss is not None:
            lvss.write(lvss_header((0, *self.frame_shape)))     # rewritten by finish

    def add(self, record) -> None:
        super().add(record)
        r = record
        self.csv.write(f"{r.frame_index},{int(r.teacher_invoked)},{r.updates_performed},"
                       f"{_fmt(r.a_curr)},{_fmt(r.eval_iou)},{r.delta}\n".encode())
        if self.lvss is not None:
            self.lvss.write(np.ascontiguousarray(r.prediction, dtype=np.uint8))
            self.frame_shape = r.prediction.shape

    def finish(self) -> None:
        if self.lvss is not None:
            self.lvss.seek(0)
            self.lvss.write(lvss_header((self.n_frames, *self.frame_shape)))


def summarize(cfg: RunConfig, report, source) -> dict:
    """Run summary; every accuracy figure is computed from the same rounded
    per-frame values the CSV carries, so the summary can be recomputed from
    the CSV exactly.  Parameter and FLOP counts come from the architecture
    table at the stream's frame extent."""
    eval_rounded = [_csv_value(v) for v in report.eval_iou]
    defined = [v for v in eval_rounded if v is not None]
    cost = speedup_from_counts(report.n_frames, report.teacher_invocations,
                               report.total_updates, cfg.cost)
    frame_hw = ((cfg.synthetic.height, cfg.synthetic.width)
                if cfg.synthetic is not None else source.frames.shape[1:3])
    return {
        "frames": report.n_frames,
        "teacher_invocations": report.teacher_invocations,
        "teacher_failures": report.teacher_failures,
        "total_updates": report.total_updates,
        "numeric_events": report.numeric_events,
        "teacher_fraction": cost.teacher_fraction,
        "mean_iou": float(np.mean(defined)) if defined else None,
        "speedup": cost.speedup,
        "total_cost_ms": cost.total_ms,
        "iou_intervals_30s": interval_series(eval_rounded, cfg.fps, 30.0),
        "updates_intervals_30s": interval_series(report.updates, cfg.fps, 30.0),
        "seed": cfg.seed,
        "param_count": count_params_from_config(cfg.arch),
        "flops_inference": estimate_flops(cfg.arch, frame_hw),
        "flops_train_step": estimate_flops(cfg.arch, frame_hw, "train_step"),
    }


def cmd_run(args) -> int:
    try:
        cfg = load_run_config(args.config)
        source, teacher, eval_labels, net = build_world(cfg)
        out_dir = Path(args.out) if args.out else (cfg.out_dir or Path.cwd() / "runs")
        names = ["run.csv", "summary.json"] + (["predictions.lvss"]
                                               if args.save_predictions else [])
        outputs = OutputFiles(*(out_dir / name for name in names))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with outputs as (csv, summary_file, *lvss):
            report = RunReport(csv, *lvss)
            process_stream(source, teacher, cfg.distill, net,
                           eval_labels=eval_labels, report=report)
            report.finish()
            summary = summarize(cfg, report, source)
            summary_file.write(
                (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode())
    except StreamNumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"run complete: {report.n_frames} frames, "
          f"mean IoU {summary['mean_iou']}, wrote {out_dir}")
    return 0


def cmd_pretrain(args) -> int:
    out = Path(args.out)
    try:
        cfg = load_pretrain_config(args.config)
        outputs = OutputFiles(out, out.with_suffix(out.suffix + ".log.csv"))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        with outputs as (snapshot, log_file):
            net, log = pretrain(cfg)
            snapshot.write(pack_weights(net.state_arrays()))
            lines = ["epoch,loss,train_mean_iou"]
            lines += [f"{epoch},{loss:.6f},{miou:.6f}" for epoch, loss, miou in log]
            log_file.write(("\n".join(lines) + "\n").encode())
    except ArchError as exc:        # a network too wide to allocate
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StreamNumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(f"pretrained on {cfg.corpus.scenes} scenes x {cfg.corpus.frames_per_scene} "
          f"frames, {cfg.epochs} epochs; snapshot {out}")
    return 0


def cmd_gradcheck(args) -> int:
    layer_tol = args.tol if args.tol is not None else 1e-4
    net_tol = args.tol * 10 if args.tol is not None else 1e-3
    results = run_layer_suite(seeds=args.seeds, eps=1e-5)
    status = 0
    for kind, (worst, worst_seed) in results.items():
        verdict = "ok" if worst < layer_tol else "FAIL"
        print(f"{kind:<16} max relative error {worst:.3e} (seed {worst_seed})  {verdict}")
        if worst >= layer_tol:
            status = 1
    whole = end_to_end_gradient_check(seed=0)
    verdict = "ok" if whole < net_tol else "FAIL"
    print(f"{'network':<16} max relative error {whole:.3e} (seed 0)  {verdict}")
    if whole >= net_tol:
        status = 1
    return status


def _parse_knobs(raw: list[str]) -> dict[str, list]:
    knobs: dict[str, list] = {}
    for spec in raw:
        if "=" not in spec:
            raise ConfigError(f"knob {spec!r} must look like name=v1,v2,...")
        name, _, values = spec.partition("=")
        name = name.strip()
        if name not in SWEEP_KNOBS:
            raise ConfigError(f"unknown knob {name!r}; valid: {sorted(SWEEP_KNOBS)}")
        if name in knobs:
            raise ConfigError(f"knob {name!r} given twice; list all its values in one --knob")
        rule = SETTINGS[name][2]
        knobs[name] = [rule(Section({name: v.strip()}, Path("--knob")), name)
                       for v in values.split(",") if v.strip()]
        if not knobs[name]:
            raise ConfigError(f"knob {name!r} has no values")
    return knobs


def _apply_knobs(cfg: RunConfig, assignment: dict) -> RunConfig:
    parts: dict[str | None, dict] = {}
    for name, value in assignment.items():
        part, field, _ = SETTINGS[name]
        parts.setdefault(part, {})[field] = value
    top = parts.pop(None, {})
    return dataclasses.replace(cfg, **top, **{
        part: dataclasses.replace(getattr(cfg, part), **fields)
        for part, fields in parts.items()})


def cmd_sweep(args) -> int:
    try:
        base = load_run_config(args.config)
        knobs = _parse_knobs(args.knob)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not knobs:
        print("config error: no knobs given", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else (base.out_dir or Path.cwd() / "runs")
    try:
        outputs = OutputFiles(out_dir / "sweep.csv")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    names = sorted(knobs)
    header = names + ["status", "mean_iou", "teacher_fraction", "speedup",
                      "total_updates", "flops_inference"]
    with outputs as (sweep_csv,):
        sweep_csv.write((",".join(header) + "\n").encode())
        for combo in itertools.product(*(knobs[n] for n in names)):
            assignment = dict(zip(names, combo))
            cell = [str(v) for v in combo]
            try:
                cfg = _apply_knobs(base, assignment)
                source, teacher, eval_labels, net = build_world(cfg)
                report = process_stream(source, teacher, cfg.distill, net,
                                        eval_labels=eval_labels)
                summary = summarize(cfg, report, source)
                unstable = (report.numeric_events > 0
                            or (summary["mean_iou"] is not None
                                and summary["mean_iou"] < SWEEP_UNSTABLE_IOU))
                status = "unstable" if unstable else "ok"
                cell += [status, _fmt(summary["mean_iou"]),
                         f"{summary['teacher_fraction']:.6f}",
                         f"{summary['speedup']:.4f}", str(summary["total_updates"]),
                         str(summary["flops_inference"])]
            except StreamNumericError:
                cell += ["unstable", "", "", "", "", ""]
            except (ConfigError, ValueError, OSError) as exc:
                print(f"cell {assignment} failed: {exc}", file=sys.stderr)
                cell += ["failed", "", "", "", "", ""]
            row = ",".join(cell)
            print(row)
            sweep_csv.write((row + "\n").encode())
    return 0


def _limit_threads() -> None:
    """Warn on stderr when ``JITSTREAM_THREADS`` is not a positive integer,
    which ``nn.layers`` then ignores.  A valid value caps the threads
    jitstream starts itself: those that run the blocks every split pass
    deals and the weight gradients of a network's backward; at 1 it starts
    none.  BLAS threads come from the BLAS's own variables."""
    try:
        thread_cap()
    except ValueError as exc:
        print(f"warning: {exc}", file=sys.stderr)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jitstream",
        description="Online distillation of a compact segmentation student")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run online distillation on a stream")
    run_p.add_argument("--config", required=True)
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--save-predictions", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    pre_p = sub.add_parser("pretrain", help="pretrain on a synthetic corpus")
    pre_p.add_argument("--config", required=True)
    pre_p.add_argument("--out", required=True)
    pre_p.set_defaults(fn=cmd_pretrain)

    grad_p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    grad_p.add_argument("--tol", type=_positive_finite, default=None)
    grad_p.add_argument("--seeds", type=_positive_int, default=20)
    grad_p.set_defaults(fn=cmd_gradcheck)

    sweep_p = sub.add_parser("sweep", help="run a cross product of config knobs")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--knob", action="append", default=[],
                         metavar="name=v1,v2,...")
    sweep_p.add_argument("--out", default=None)
    sweep_p.set_defaults(fn=cmd_sweep)

    args = parser.parse_args(argv)
    _limit_threads()
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
