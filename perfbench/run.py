#!/usr/bin/env python3
"""perfbench: end-to-end and per-layer benchmark of the jitstream online loop.

Run from the root of a jitstream checkout:

    python3 perfbench/run.py --workload bundled-oracle --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py            # every workload, each in a fresh process

One process drives one workload as a closed loop: it repeats whole rounds,
each one complete ``jitstream run`` over the workload's seeded input, while
the next round still fits in ``--seconds``.  Every round's outputs are checked
by ``checks.py``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs a warm-up round, then alternates traced and untraced
rounds, and reports the per-layer metrics of ``spans.py`` plus the tracing
overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted`` and ``failed`` frames,
and ``metrics``.
"""
from __future__ import annotations

import os

# One BLAS thread, set before numpy loads.  On a 2-core machine two OpenBLAS
# threads gain little here, and their spin-waits stall a forward pass by an
# order of magnitude whenever any other process wants a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
PROGRAM = Path("src") / "jitstream"
OUT = Path("perfbench") / "out"
WORK = Path("perfbench") / ".work"
SETUPS = 7

END_TO_END = (("frames_per_s", "frames/s"), ("frame_ms_p50", "ms"),
              ("teacher_frame_ms_p50", "ms"), ("wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("speedup_measured", "x"), ("mean_iou", "IoU"))


def machine_facts() -> dict:
    """nproc, numpy and BLAS build, and the BLAS thread count in effect."""
    import ctypes
    import importlib.util

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    # cli._limit_threads swallows the ImportError, so without threadpoolctl
    # the variable changes nothing; the benchmark never sets it
    inert = importlib.util.find_spec("threadpoolctl") is None
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads,
            "JITSTREAM_THREADS": os.environ.get("JITSTREAM_THREADS"),
            "JITSTREAM_THREADS_effect": ("inert: threadpoolctl is not installed, "
                                         "cli._limit_threads ignores it") if inert
                                        else "applied through threadpoolctl"}


def _median(values) -> float:
    return float(statistics.median(values))


def _slowness(r, scaled: bool) -> list[float]:
    from calibrate import frame_slowness

    return frame_slowness(r.cal, len(r.teacher)) if scaled else [1.0] * len(r.teacher)


def _wall(r, slowness: list[float]) -> float:
    """A round's wall time without the benchmark's hook, divided by the
    round's median slowness."""
    return (r.wall_s - r.paused_s) / _median(slowness)


def end_to_end(rounds, setups, t_teacher_ms: float, scaled: bool) -> dict:
    """Rates pool every round; per-frame times are medians over the frames of
    all rounds; wall and set-up times are medians over rounds and set-ups.
    ``scaled`` divides every time by the machine slowness of its moment."""
    frames = teacher_calls = 0
    frame_ms, teacher_ms, walls = [], [], []
    for r in rounds:
        slow = _slowness(r, scaled)
        ms = [m / s for m, s in zip(r.frame_ms(), slow)]
        frame_ms += ms
        teacher_ms += [m for m, t in zip(ms, r.teacher) if t]
        walls.append(_wall(r, slow))
        frames += len(r.teacher)
        teacher_calls += sum(r.teacher)
    loop_ms = sum(frame_ms)
    return {
        "frames_per_s": frames / loop_ms * 1e3,
        "frame_ms_p50": _median(frame_ms),
        "teacher_frame_ms_p50": _median(teacher_ms),
        "wall_s": _median(walls),
        "setup_s": _median([s / (slow if scaled else 1.0) for s, slow in setups]),
        "peak_rss_mb": rounds[0].peak_rss_mb,
        "speedup_measured": frames * t_teacher_ms / (loop_ms + teacher_calls * t_teacher_ms),
        "mean_iou": rounds[0].mean_iou,
    }


def forward_alloc_mb(world) -> float:
    """Peak bytes numpy allocates during one inference forward of the
    round's final network on its first frame."""
    from jitstream.distill import JITNetStudent

    source, _, _, net = world
    x = JITNetStudent.prepare(source.frame(0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        net.forward(x)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def per_layer(traced, tracers, untraced) -> dict:
    import spans
    from jitstream.arch import estimate_flops

    out = spans.span_metrics(tracers)
    last = traced[-1]
    hw = last.world[0].frame(0).shape[:2]
    forward_s = out["arch.forward_ms"] / 1e3
    step_s = forward_s + out["distill.train_step_ms"] / 1e3
    out["arch.forward_gflops"] = estimate_flops(last.cfg.arch, hw) / 1e9 / forward_s
    out["arch.train_step_gflops"] = (
        estimate_flops(last.cfg.arch, hw, "train_step") / 1e9 / step_s
        if out["distill.train_step_ms"] else 0.0)
    out["arch.forward_alloc_mb"] = forward_alloc_mb(last.world)
    out["distill.updates"] = _median([r.updates for r in traced])
    out["distill.check_pass_ratio"] = _median([r.passes / max(1, sum(r.teacher))
                                               for r in traced])
    out["trace.overhead_s"] = (_median([_wall(r, _slowness(r, True)) for r in traced])
                               - _median([_wall(r, _slowness(r, True)) for r in untraced]))
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool, extent: str) -> dict:
    """Run rounds of one workload and check each; returns the result fields
    plus ``problems`` and ``info`` lines for the report."""
    import checks
    import harness
    import spans
    import workloads
    from calibrate import REFERENCE_S, Calibrator

    work = WORK / f"{workload}-{os.getpid()}"
    try:
        prepared = workloads.prepare(workload, seed, work / "input", extent)
        calibrator = Calibrator()
        rounds, traced, untraced, tracers, problems = [], [], [], [], []
        attempted = failed = 0
        first_csv = None
        began = perf_counter()
        while True:
            tracer = spans.Tracer() if trace and len(rounds) % 2 == 1 else None
            out_dir = work / f"round{len(rounds)}"
            rnd = harness.run_round(prepared.config, out_dir, prepared.save_predictions,
                                    tracer, calibrator)
            attempted += prepared.frames
            if rnd.rc != 0:
                failed += prepared.frames
                problems.append(f"round {len(rounds)}: jitstream run exited {rnd.rc}")
                break
            found = checks.check_round(out_dir, prepared)
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            failed += summary["teacher_failures"] + summary["numeric_events"]
            rnd.updates, rnd.mean_iou = summary["total_updates"], summary["mean_iou"]
            rnd.analytic_speedup = summary["speedup"]
            csv = (out_dir / "run.csv").read_bytes()
            first_csv = first_csv or csv
            if csv != first_csv:
                found.append("run.csv differs from the first round on identical input")
            problems += [f"round {len(rounds)}: {p}" for p in found]
            shutil.rmtree(out_dir)
            # later rounds reuse freed memory; how far past the first round's
            # peak they reach depends on how many rounds fit, not on the program
            rnd.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                traced.append(rnd)
                tracers.append(tracer)
            elif rounds:            # round 0 only warms up caches and allocator
                untraced.append(rnd)
            rounds.append(rnd)
            gc.collect()
            spent = perf_counter() - began
            if (len(rounds) >= (3 if trace else 1)
                    and spent + _median([r.wall_s for r in rounds]) > seconds):
                break
        result = {"correct": not problems, "attempted": attempted, "failed": failed,
                  "metrics": {}, "problems": problems, "info": []}
        if problems:
            return result
        result["info"].append(f"rounds {len(rounds)}, analytic speedup (summary.json, "
                              f"cost model) {rounds[0].analytic_speedup:.6f}")
        if trace:
            OUT.mkdir(parents=True, exist_ok=True)
            tracers[-1].write(OUT / f"{workload}-seed{seed}.spans.csv")
            result["metrics"] = per_layer(traced, tracers, untraced)
        else:
            setups = [harness.time_setup(prepared.config, calibrator)
                      for _ in range(SETUPS)]
            t_teacher = prepared.knobs["cost.teacher_ms"]
            result["metrics"] = end_to_end(rounds, setups, t_teacher, scaled=True)
            raw = end_to_end(rounds, setups, t_teacher, scaled=False)
            slow = _median([c for r in rounds for _, c in r.cal]) / REFERENCE_S
            result["info"].append(f"machine slowness {slow:.4f}; unscaled: " + ", ".join(
                f"{k} {raw[k]:.6f}" for k in ("frames_per_s", "frame_ms_p50",
                                              "teacher_frame_ms_p50", "wall_s",
                                              "setup_s", "speedup_measured")))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_one(args) -> int:
    import spans

    facts = machine_facts()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.extent)
    units = ({m: u for m, u, _ in spans.PER_LAYER} if args.trace else dict(END_TO_END))
    values = result["metrics"]
    for problem in result["problems"]:
        print(f"CHECK FAILED {args.workload}: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(facts))
    print(f"workload {args.workload} seed {args.seed}: {result['attempted']} frames "
          f"attempted, {result['failed']} failed, outputs "
          f"{'correct' if result['correct'] else 'WRONG'}")
    for line in result["info"]:
        print("  " + line)
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<34} {values[name]:>14.6f} {unit}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items() if name in values}}))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in a fresh process, then one table."""
    import workloads

    status = 0
    table = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--extent", args.extent]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        table[name] = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        status = status or proc.returncode
    print("\nworkload               attempted  failed  correct")
    for name, result in table.items():
        if result is None:
            print(f"{name:<22} (no result)")
        else:
            print(f"{name:<22} {result['attempted']:>9} {result['failed']:>7}  "
                  f"{result['correct']}")
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload in this process (default: all, each in "
                             "its own process)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--extent", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for smoke tests")
    args = parser.parse_args(argv)
    if not (PROGRAM / "cli.py").is_file():
        print(f"perfbench: no program source at {PROGRAM}; run from the root of a "
              "jitstream checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))
    import jitstream

    if Path(jitstream.__file__).resolve().parent != PROGRAM.resolve():
        print(f"perfbench: imported jitstream from {jitstream.__file__}, not from "
              f"{PROGRAM}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
