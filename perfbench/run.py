#!/usr/bin/env python3
"""topowalk benchmark.

    python3 perfbench/run.py --workload pair_walk --seed 1 --seconds 55 --trace 0

Run from the root of a topowalk checkout: the program is imported from the
checkout's src/. A run generates the workload's configs from --seed, times
set-up in fresh processes, then runs passes of the workload until --seconds
are used up. A pass is config_from_dict -> run() -> write_artifacts() into a
fresh directory, for each of the workload's experiments. Outputs are checked
after the timed passes (see verify.py).

--trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
untraced passes and reports the per-layer metrics of tracing.py. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it are a readable report. --workload all
runs every workload, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One BLAS thread: the program's matrix products are too small to gain from
# more, and an idle OpenBLAS worker spins on the second core, which makes
# timings depend on what else the machine runs. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np

import hostspeed
import tracing
import verify
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_PROBES = 15  # fresh processes timed per run, after one untimed warm-up probe
TIME_CAP_S = 120.0  # stop adding passes past this, whatever the minimum
END_TO_END = {"wall_s": "s", "work_per_s": "work/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    sys.path.insert(0, str(SRC))
    import topowalk

    if Path(topowalk.__file__).resolve().parent != SRC / "topowalk":
        raise ImportError(f"topowalk was imported from {topowalk.__file__}, not from {SRC}")
    return topowalk


def measure_setup(workload, work: Path) -> list[float]:
    configs = work / "configs.json"
    configs.write_text(json.dumps(list(workload.experiments.values())), encoding="utf-8")
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(configs)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def data_digest(out_dir: Path) -> str:
    """Digest of the data files; manifest.json holds a timestamp and is left out."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("*")):
        if path.name != "manifest.json":
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_passes(tw, workload, seconds: float, tracer, work: Path) -> list[dict]:
    """Timed passes until `seconds` are used. With a tracer, passes alternate
    traced and untraced, starting traced; at least two traced and one untraced.
    Without, at least two passes, so every output is produced twice."""
    passes = []
    first_digest = {}
    start = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        out = work / f"pass{len(passes)}"
        first_span = len(tracer.spans) if tracer else 0
        times = {}
        reference = []
        failed = set()  # experiments that raised or wrote different bytes
        with tracer.installed() if traced else contextlib.nullcontext():
            for label, cfg in workload.experiments.items():
                if tracer is not None:
                    tracer.run_label = f"pass{len(passes)}/{label}"
                t0 = perf_counter()
                try:
                    tw.write_artifacts(tw.run(tw.config_from_dict(cfg)), out / label)
                except Exception:  # counted as a failed experiment; the run goes on
                    traceback.print_exc()
                    failed.add(label)
                times[label] = perf_counter() - t0
                reference.append(hostspeed.time_reference())
                if (out / label).is_dir():
                    digest = data_digest(out / label)
                    if first_digest.setdefault(label, digest) != digest:
                        failed.add(label)
        wall = sum(times.values())
        record = {"traced": traced, "times": times, "wall_s": wall, "reference_s": reference,
                  "failed": sorted(failed)}
        if traced:
            record["layers"] = tracer.pass_metrics(first_span, wall)
        passes.append(record)
        if len(passes) > 1:
            shutil.rmtree(out)  # the first pass's outputs are kept for verification
        n_traced = sum(p["traced"] for p in passes)
        if tracer is not None:
            enough = n_traced >= 2 and len(passes) - n_traced >= 1
        else:
            enough = len(passes) >= 2
        elapsed = perf_counter() - start
        typical = statistics.median(p["wall_s"] for p in passes)
        if (enough and elapsed + typical > seconds) or elapsed > TIME_CAP_S:
            break
    return passes


def high_percentile(samples: list[float]):
    """(p, value) for the highest of p99/p90/p50 with at least ten samples above
    it, by nearest rank; None when there are too few samples."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return p, sorted(samples)[math.ceil(n * p / 100) - 1]
    return None


def blas_threads():
    """OpenBLAS thread count as numpy's bundled OpenBLAS reports it, or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    for lib in glob.glob(pattern):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")),
    }


def verify_outputs(tw, workload, work: Path) -> dict:
    """Problems per experiment, from the first pass's outputs."""
    problems = {}
    for label, cfg in workload.experiments.items():
        out = work / "pass0" / label
        try:
            found = verify.invariants(cfg, out)
            found += verify.cross_route(workload.name, tw, cfg, out, work / "check" / label)
        except Exception as exc:  # a check that cannot complete is a failed check
            found = [f"check raised {type(exc).__name__}: {exc}"]
        problems[label] = found
    return problems


def layer_metrics(passes: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics as means over the traced passes, plus trace.overhead_s."""
    traced = [p["layers"] for p in passes if p["traced"]]
    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    problems = []
    metrics = {}
    for name, unit in tracing.PER_LAYER.items():
        if name == "trace.overhead_s":
            continue
        values = [t[name] for t in traced]
        if unit in tracing.EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.fmean(values)
    untraced_wall = statistics.fmean(untraced) if untraced else metrics["trace.wall_s"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    accounted = sum(metrics[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
    accounted += metrics["trace.bookkeeping_s"] + metrics["trace.untraced_s"]
    if abs(accounted - metrics["trace.wall_s"]) > 1e-6:
        problems.append(f"layer self times add up to {accounted:.6f} s, not {metrics['trace.wall_s']:.6f} s")
    return metrics, problems


def run_workload(args) -> int:
    if not (SRC / "topowalk" / "__init__.py").is_file():
        print(f"error: no topowalk sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed)
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup = measure_setup(workload, work)
        tw = import_program()
        tracer = tracing.Tracer() if args.trace else None
        passes = run_passes(tw, workload, args.seconds, tracer, work)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = verify_outputs(tw, workload, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    attempted = len(passes) * len(workload.experiments)
    bad_checks = {label for label, found in problems.items() if found}
    failed = sum(len(set(p["failed"]) | bad_checks) for p in passes)

    if args.trace:
        metrics, trace_problems = layer_metrics(passes)
        units = tracing.PER_LAYER
        problems["trace"] = trace_problems
        absent = tracer.absent()
        tracer.write_spans(WORK / f"spans-{workload.name}.csv")
    else:
        # Each experiment's fastest pass, at the host speed of hostspeed.REFERENCE_S:
        # contention only ever slows the program, and a slow stretch can outlast a run.
        raw_wall_s = sum(min(p["times"][label] for p in untraced) for label in workload.experiments)
        reference_s = min(t for p in untraced for t in p["reference_s"])
        wall_s = raw_wall_s * hostspeed.REFERENCE_S / reference_s
        metrics = {
            "wall_s": wall_s,
            "work_per_s": workload.work_per_pass / wall_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        absent = []

    env = environment()
    print(f"# topowalk benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# passes: {len(passes)} ({sum(p['traced'] for p in passes)} traced), "
          f"work per pass: {workload.work_per_pass} {workload.work_unit}")
    samples = {"wall_s": ([p["wall_s"] for p in untraced], "passes"),
               "setup_s": (setup, "processes")}
    for name, value in metrics.items():
        line = f"{name:44s} {value:14.6g} {units[name]}"
        if name in samples:
            values, what = samples[name]
            hp = high_percentile(values)
            tail = f"p{hp[0]} {hp[1]:.6g}" if hp else "no percentile with >= 10 samples above it"
            line += f"  (n={len(values)} {what}; median {statistics.median(values):.6g}; {tail})"
        print(line)
    for name in absent:
        print(f"{name:44s} absent: no longer defined by the program")
    if not args.trace:
        print(f"# wall_s is {raw_wall_s:.6g} s as timed, scaled by the host speed reference: "
              f"{hostspeed.REFERENCE_S:g} s / {reference_s:.6g} s (fastest of "
              f"{sum(len(p['reference_s']) for p in untraced)}); pass times above are as timed")
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    for index, p in enumerate(passes):
        for label in p["failed"]:
            print(f"# FAILED {label}: pass {index} raised or wrote other bytes than pass 0")
    for label, found in problems.items():
        for problem in found:
            print(f"# FAILED {label}: {problem}")

    correct = failed == 0 and not any(problems.values())
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, setup_samples=setup, passes=passes,
                  problems=problems, absent=absent, failed_frac=failed / attempted)
    (WORK / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
