#!/usr/bin/env python3
"""Build and run the pitk benchmark.

    python3 benchmark/run.py [--workload NAME]... [--seed N] [--seconds S]
                             [--trace 0|1]

Configures and builds benchmark/ into build-bench/ (Release; build time is
not measured), then runs every requested workload (default: all of them) as
its own build-bench/pitk_bench process with every PITK_* variable removed
from its environment.  For each workload it prints one
`workload metric value unit` line per metric, and it writes
bench_results/<run>.json with the provenance of the run.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"},
where metrics are the BENCHMARK.json end_to_end metrics (--trace 0) or
per_layer metrics (--trace 1), each {"value", "unit"}.

--seconds sizes each workload's fixed operation count (default: run_seconds
of BENCHMARK.json).  Runs made with different --seconds or --trace are not
comparable; compare.py refuses to mix them.

Exit status: 0 when every correctness check passed, 1 when one failed, 2
when the build or a run could not complete (nothing is printed on stdout
then).
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmark"
BUILD_DIR = ROOT / "build-bench"
RESULTS_DIR = ROOT / "bench_results"
CHILD_TIMEOUT_S = 170


class RunError(Exception):
    """The build or a workload process could not complete."""


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def parse_args(spec, argv):
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=1, help="input generation seed")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"],
                   help="nominal measured seconds per workload (sizes the run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run reporting the per-layer metrics")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    return args


def run_quiet(cmd, what):
    """Run a build step, its output on stderr only when it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        raise RunError(f"{what} failed (exit {proc.returncode})")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", "pitk_bench", "-j", jobs], "build")


def clean_env():
    """The child's environment without any PITK_* knob, so a stray
    PITK_THREADS, PITK_TRACE, PITK_FAULTS or PITK_RESMOOTH_EXACT cannot
    change the program being measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PITK_")}


def run_workload(name, args):
    scratch = BUILD_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BUILD_DIR / "pitk_bench"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(RESULTS_DIR), "--scratch", str(scratch)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:  # the child has been killed and reaped
        raise RunError(f"{name}: no result within {CHILD_TIMEOUT_S} s") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        raise RunError(f"{name}: no result line (exit {proc.returncode})") from e
    result["returncode"] = proc.returncode
    if args.trace:
        trace = RESULTS_DIR / f"{name}.trace.json"
        try:
            with open(trace, encoding="utf-8") as f:
                json.load(f)
        except (OSError, json.JSONDecodeError):
            sys.stderr.write(f"run.py: {trace} is missing or not valid JSON\n")
            result["failed"] += 1
            result["returncode"] = result["returncode"] or 1
    return result


def command_output(cmd):
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(results):
    cache = {}
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text(encoding="utf-8").splitlines():
            m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_FLAGS|CMAKE_CXX_FLAGS_RELEASE|"
                         r"CMAKE_CXX_COMPILER|PITK_MARCH_NATIVE):[A-Z]+=(.*)$", line)
            if m:
                cache[m.group(1)] = m.group(2)
    except OSError:
        pass
    commit = command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    dirty = None
    if commit is not None:
        status = command_output(["git", "status", "--porcelain", "--untracked-files=no"])
        dirty = bool(status) if status is not None else None
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compilers = sorted({r.get("compiler", "unknown") for r in results.values()})
    return {
        "git_commit": commit or "unknown",
        "git_dirty": dirty,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": " ".join(v for v in (cache.get("CMAKE_CXX_FLAGS"),
                                          cache.get("CMAKE_CXX_FLAGS_RELEASE")) if v),
        "march_native": cache.get("PITK_MARCH_NATIVE"),
        "cxx_compiler": cache.get("CMAKE_CXX_COMPILER"),
        "compiler_version": ", ".join(compilers),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
    }


def main(argv=None):
    spec = load_spec()
    args = parse_args(spec, argv)
    selected = spec["per_layer" if args.trace else "end_to_end"]
    try:
        sys.stderr.write("run.py: building build-bench/pitk_bench\n")
        build()
        results = {}
        for name in args.workload:
            sys.stderr.write(f"run.py: {name} seed {args.seed} trace {args.trace}\n")
            results[name] = run_workload(name, args)
    except RunError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 2

    summary = {}
    for name, res in results.items():
        res["failed_frac"] = res["failed"] / max(1, res["attempted"])
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} {m['value']!r} {m['unit']}")
        print(f"{name} failed_frac {res['failed_frac']!r} ratio")
        missing = [m["name"] for m in selected
                   if not isinstance(res["metrics"].get(m["name"], {}).get("value"), (int, float))
                   or not math.isfinite(res["metrics"][m["name"]]["value"])]
        if missing:
            sys.stderr.write(f"run.py: {name} did not report {', '.join(missing)}\n")
            return 2
        for m in selected:
            key = m["name"] if len(results) == 1 else f"{name}.{m['name']}"
            summary[key] = {"value": res["metrics"][m["name"]]["value"], "unit": m["unit"]}

    correct = all(r["returncode"] == 0 and r["failed"] == 0 for r in results.values())
    stamp = time.strftime("%Y%m%dT%H%M%S")
    run_name = (f"{stamp}-{os.getpid()}-{'traced' if args.trace else 'untraced'}"
                f"-seed{args.seed}-{'+'.join(args.workload) if len(args.workload) < 4 else 'all'}")
    record = {
        "schema": "pitk-benchmark-v1",
        "run": run_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "provenance": provenance(results),
        "workloads": results,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{run_name}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    sys.stderr.write(f"run.py: wrote {out.relative_to(ROOT)}\n")

    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": summary,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
