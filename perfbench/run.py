"""Benchmark of tmsm on three seeded workloads.

    python3 perfbench/run.py --workload hemi_vmf --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the tmsm sources in `src/` next to this
directory. `--trace 0` measures the end-to-end metrics with tracing off.
`--trace 1` runs the first jobs of the workload once untraced and once
traced, runs the layer probes, and reports the per-layer metrics. Both
modes check the outputs.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the metrics are those
`BENCHMARK.json` names for the mode, each with only its value and unit.
The line before it gives each metric's sample count and, for counts, its
base. The line before that names a record file under `perfbench/out/`
holding every metric with its sample count, the machine and library
versions, and the seed; a traced run also writes its spans there. The exit code is 0 when every check passes, 1 when one
fails and 2 when the tmsm sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("hemi_vmf", "kent_frame", "usa_storms")
SETUP_PROBES = 5
# A set-up process is mostly process start and imports, whose speed on a
# shared machine follows the CPU gauge of `speed.py` poorly, so set-up
# times are scaled by a reference process instead: a fresh interpreter
# that imports numpy, timed before each set-up process and after the
# last. `setup_s` is in seconds at the speed at which the reference takes
# REFERENCE_IMPORT_S (it took 0.14-0.27 s on a shared 2-vCPU machine).
REFERENCE_IMPORT = [sys.executable, "-c", "import numpy"]
REFERENCE_IMPORT_S = 0.2
# Hard cap on the job loop, far inside the 180 s a run may take.
LOOP_CAP_S = 120.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes; the figures mean nothing")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_probe(args) -> int:
    """Child process: import, build the boundary, make the inputs; print times."""
    t0 = time.perf_counter()
    from spans import Tracer
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    tracer = Tracer(True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        WORKLOADS[args.workload](args.seed, tmp, tracer, None, tiny=args.tiny).setup()
    print(json.dumps({
        "import_ms": 1e3 * import_s,
        "build_ms": 1e3 * sum(tracer.durations("boundary.build")),
        "inputs_ms": 1e3 * sum(tracer.durations("setup.inputs")),
    }))
    return 0


def run_setup_probes(args) -> tuple[list[float], list[float], list[dict]]:
    """Wall seconds of fresh set-up processes and of the reference
    processes around them, with the set-up processes' own breakdown."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def timed(command):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"{command[1:]} failed: {done.stderr.strip()[-500:]}")
        return time.perf_counter() - start, done.stdout

    wall, reference, parts = [], [], []
    for _ in range(SETUP_PROBES):
        reference.append(timed(REFERENCE_IMPORT)[0])
        seconds, out = timed(cmd)
        wall.append(seconds)
        parts.append(json.loads(out.strip().splitlines()[-1]))
    reference.append(timed(REFERENCE_IMPORT)[0])
    return wall, reference, parts


def run_loop(workload, seconds: float) -> None:
    """Closed loop: the mandatory jobs, then a new job while one more job
    of the mean length so far still ends within `seconds`."""
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= workload.mandatory and (elapsed * (i + 1) / i > min(seconds, LOOP_CAP_S)):
            break
        workload.run_job(i)
        i += 1
    workload.gauge.tick()


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, setup, metric, scale) -> dict:
    """End-to-end figures; `setup` holds set-up seconds and `scale` maps a
    span to its seconds."""
    times = workload.times
    est_ms = [1e3 * scale(t) for t in times["estimate"]]
    seasons = [sum(scale(t) for t in parts) for parts in times["season"]]
    reports = [scale(t) for t in times["report"]]
    rates = [c / s for c, s in zip(workload.cells, seasons)]
    return {
        "setup_s": metric(statistics.median(setup), "s", len(setup)),
        "cells_per_s": metric(statistics.median(rates), "cells/s", len(rates),
                              base=f"{sum(workload.cells)} cells"),
        "estimate_ms_p50": metric(statistics.median(est_ms), "ms", len(est_ms)),
        "estimate_ms_p90": metric(p90(est_ms), "ms", len(est_ms)),
        "season_s": metric(statistics.median(seasons), "s", len(seasons)),
        "report_s": metric(statistics.median(reports), "s", len(reports)),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", 1),
    }


def traced(args, tmp, setup_parts, gauge) -> tuple[dict, list]:
    """Per-layer figures: the first jobs untraced, then traced, then probes."""
    from layers import Probes, fit_figures, metric
    from spans import Tracer
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    passes = []
    for tracer, count in ((Tracer(False), False), (Tracer(True), True)):
        w = cls(args.seed, tmp, tracer, gauge, count=count, tiny=args.tiny)
        gauge.tick()
        w.setup()
        with Tracer(False).span("pass") as t:
            for i in range(w.trace_jobs):
                w.run_job(i)
            gauge.tick()
        passes.append((w, t))
    (plain, plain_t), (w, traced_t) = passes
    untraced_s, traced_s = gauge.scaled(plain_t), gauge.scaled(traced_t)

    raw = sum(s[0] for s in w.sampling)
    accepted = sum(s[1] for s in w.sampling)
    imports = [p["import_ms"] for p in setup_parts]
    builds = [p["build_ms"] for p in setup_parts]
    m = {
        "setup.import_ms": metric(statistics.median(imports), "ms", len(imports)),
        "boundary.build_ms": metric(statistics.median(builds), "ms", len(builds)),
        "sampling.truncated_ms": metric(
            1e3 * statistics.median(gauge.scaled(s[2]) for s in w.sampling), "ms", len(w.sampling)),
        "sampling.raw_per_accepted": metric(raw / accepted, "draws/point", len(w.sampling),
                                            base=f"{raw} raw draws / {accepted} accepted"),
        "boundary.contains_points": metric(statistics.mean(w.job_points), "count",
                                           len(w.job_points),
                                           base="membership queries per job that passes the boundary"),
        "accuracy.tmsm_err_rad": metric(statistics.mean(w.errors), "rad", len(w.errors)),
        "trace.overhead": metric(traced_s / untraced_s, "x", w.trace_jobs,
                                 base=f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s"),
    }
    m.update(fit_figures(w))
    m.update(Probes(args.seed, w.tracer, gauge, tmp, args.tiny).run(w))
    return m, [plain, w]


def bounds(timing):
    """[start, end] of a span, or a list of them for a list of spans."""
    if isinstance(timing, list):
        return [bounds(t) for t in timing]
    return [timing.start, timing.end]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tmsm" / "__init__.py").is_file():
        print(f"perfbench: no tmsm sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    from speed import SpeedGauge

    gauge = SpeedGauge()
    setup_wall, setup_reference, setup_parts = run_setup_probes(args)

    import tmsm
    from layers import metric
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(tmsm.__file__).resolve().parent != SRC / "tmsm":
        print(f"perfbench: imported tmsm from {tmsm.__file__}, not {SRC}", file=sys.stderr)
        return 2

    problems: list[str] = []
    spans = None
    raw_wall = None
    runs, crashed = [], False
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        try:
            if args.trace:
                metrics, runs = traced(args, tmp, setup_parts, gauge)
                spans = runs[-1].tracer
            else:
                w = WORKLOADS[args.workload](args.seed, tmp, Tracer(False), gauge,
                                             tiny=args.tiny)
                runs = [w]
                w.setup()
                run_loop(w, args.seconds)
                slowdown = statistics.median(setup_reference) / REFERENCE_IMPORT_S
                setup_scaled = [t / slowdown for t in setup_wall]
                metrics = end_to_end(w, setup_scaled, metric, gauge.scaled)
                wall = end_to_end(w, setup_wall, metric, lambda t: t.seconds)
                raw_wall = {k: v["value"] for k, v in wall.items()}
        except Exception:  # report the failure as a failed, incorrect run
            problems.append(traceback.format_exc())
            metrics, crashed = {}, True
    for w in runs:
        w.finish_checks()
        problems += w.problems
    attempted = sum(w.attempted for w in runs)
    failed = sum(w.failed for w in runs) + crashed
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and not crashed:
        problems.append(f"metrics not computed: {missing}")
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine(),
        "problems": problems, "metrics": metrics, "raw_wall": raw_wall,
        # Raw material for re-analysis: speed samples (time, three kernel
        # runs), the start and end of every timed operation (a season is a
        # list of them), and the wall times of the set-up and reference
        # processes.
        "speed_samples": gauge.samples,
        "ops": {k: [bounds(t) for t in v] for w in runs[:1] for k, v in w.times.items()},
        "setup_wall_s": setup_wall,
        "setup_reference_s": setup_reference,
        "cells": [c for w in runs[:1] for c in w.cells],
    }
    if spans is not None:
        spans.write(OUT / f"{stem}-spans.jsonl")
        record["span_file"] = f"{stem}-spans.jsonl"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    correct = not problems
    reported = {m["name"]: metrics[m["name"]] for m in wanted if m["name"] in metrics}
    result = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in reported.items()},
    }
    print(f"perfbench: record in {OUT / (stem + '.json')}")
    print("perfbench: samples and bases: " + json.dumps(
        {k: {x: v[x] for x in ("samples", "base") if x in v} for k, v in reported.items()}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
