"""One round: the operator path of ``jitstream run``, timed from outside.

``run_round`` calls ``jitstream.cli.main(["run", ...])`` with module-level
names that ``cmd_run`` looks up (``load_run_config``, ``process_stream``)
replaced by thin timers, so the program runs unchanged while the benchmark
learns when the round and its loop started and, through the ``progress``
hook ``process_stream`` already offers, when each frame finished.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from jitstream import cli

import spans
from calibrate import INTERVAL_S, Calibrator


@dataclass
class Round:
    rc: int = -1
    start: float = 0.0
    loop_start: float = 0.0
    end: float = 0.0
    frame_end: list = field(default_factory=list)      # perf_counter per frame
    resume: list = field(default_factory=list)         # hook return per frame
    cal: list = field(default_factory=list)            # (frame, kernel seconds)
    teacher: list = field(default_factory=list)        # teacher_invoked per frame
    passes: int = 0                                    # checks with a_curr > a_thresh
    updates: int = 0                                   # from summary.json
    mean_iou: float | None = None                      # from summary.json
    analytic_speedup: float = 0.0                      # from summary.json
    peak_rss_mb: float = 0.0                           # process peak after the round
    cfg: object = None
    world: tuple | None = None      # (source, teacher, eval_labels, net), traced only

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def paused_s(self) -> float:
        """Time spent in the benchmark's progress hook, outside the program."""
        return sum(b - a for a, b in zip(self.frame_end, self.resume))

    def frame_ms(self) -> list[float]:
        """Each frame's wall time, from the previous hook's return."""
        starts = [self.loop_start] + self.resume
        return [(b - a) * 1e3 for a, b in zip(starts, self.frame_end)]


class _TimedTeacher:
    """Teacher proxy whose ``predict`` is one ``streams.teacher`` span."""

    def __init__(self, teacher, tracer):
        self.predict = tracer.wrap(teacher.predict, "streams.teacher")
        self.cost_per_invocation = teacher.cost_per_invocation


def run_round(config: Path, out_dir: Path, save_predictions: bool,
              tracer: spans.Tracer | None = None,
              calibrator: Calibrator | None = None) -> Round:
    """Run ``jitstream run`` once.  With a tracer, record layer spans too;
    with a calibrator, run it between frames, outside the frames' times."""
    rnd = Round()
    last_calibration = [float("-inf")]
    load, build, stream = cli.load_run_config, cli.build_world, cli.process_stream
    open_spans = []             # spans begun here and closed by a later callback

    def timed_load(path):
        rnd.start = perf_counter()
        rnd.cfg = load(path)
        return rnd.cfg

    def traced_build(cfg):
        rnd.world = build(cfg)
        spans.trace_classifier(tracer, rnd.world[3])
        return rnd.world

    def progress(record):
        rnd.frame_end.append(perf_counter())
        rnd.teacher.append(record.teacher_invoked)
        if record.teacher_invoked and record.a_curr > rnd.cfg.distill.a_thresh:
            rnd.passes += 1
        if tracer is not None:
            tracer.end(open_spans.pop())
        if calibrator is not None and rnd.frame_end[-1] - last_calibration[0] >= INTERVAL_S:
            span = tracer.begin("bench.calibrate") if tracer is not None else None
            rnd.cal.append((len(rnd.teacher) - 1, calibrator()))
            if span is not None:
                tracer.end(span)
            last_calibration[0] = perf_counter()
        if tracer is not None:
            open_spans.append(tracer.begin("bench.frame"))
        rnd.resume.append(perf_counter())

    def timed_stream(source, teacher, *args, **kwargs):
        if tracer is not None:
            teacher = _TimedTeacher(teacher, tracer)
            loop = tracer.begin("distill.process_stream")
            open_spans.append(tracer.begin("bench.frame"))
        rnd.loop_start = perf_counter()
        try:
            return stream(source, teacher, *args, progress=progress, **kwargs)
        finally:
            if tracer is not None:
                tail = open_spans.pop()
                tracer.spans[tail][0] = "bench.loop_tail"
                tracer.end(tail)
                tracer.end(loop)
                open_spans.append(tracer.begin("cli.write"))

    patches = [(cli, "load_run_config", timed_load), (cli, "process_stream", timed_stream)]
    if tracer is not None:
        patches = [(cli, "load_run_config", tracer.wrap(timed_load, "config.load")),
                   (cli, "build_world", traced_build), (cli, "process_stream", timed_stream),
                   *spans.layer_patches(tracer)]
    argv = ["run", "--config", str(config), "--out", str(out_dir)]
    if save_predictions:
        argv.append("--save-predictions")
    with spans.patched(patches), contextlib.redirect_stdout(io.StringIO()):
        root = tracer.begin("cli.run") if tracer is not None else None
        try:
            rnd.rc = cli.main(argv)
        finally:
            rnd.end = perf_counter()
            if tracer is not None:
                while open_spans:
                    tracer.end(open_spans.pop())
                tracer.end(root)
    return rnd


def time_setup(config: Path, calibrator: Calibrator) -> tuple[float, float]:
    """(seconds, slowness) of the set-up part of the operator path alone."""
    slowness = calibrator.slowness_now()
    start = perf_counter()
    cli.build_world(cli.load_run_config(config))
    return perf_counter() - start, slowness
