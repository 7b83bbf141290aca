#!/usr/bin/env python3
"""End-to-end benchmark of the uavdc TCP plan service.

One run of one workload:

    python3 e2ebench/run.py --workload warm-hits --seed 1 --seconds 25 --trace 0

builds the library, the `uavdc` CLI and the benchmark driver from this
checkout into .bench_build/e2ebench, spawns `uavdc serve --tcp`, drives the
workload's closed loop over loopback, checks every reply against an
in-process reference plan and prints, as its last stdout line,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced in-process replay (--trace 1). The line before it is the full report,
host and build record included; it is also saved under
.bench_build/e2ebench/reports/.

    python3 e2ebench/run.py --all --seed 1
        every workload in turn, end-to-end metrics by name and unit
    python3 e2ebench/run.py --self-check --workload what-if --seed 1
        same seed -> byte-identical request stream and collected_gb;
        seed + 1 runs clean
    python3 e2ebench/run.py --compare A.json B.json
        metric-by-metric ratios of two saved reports, refused (exit 1) when
        they come from different hosts or builds
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
REPORTS = os.path.join(BUILD, "reports")
WORKLOADS = ["warm-hits", "cold-missions", "what-if"]
DRIVER_TIMEOUT_S = 170

END_TO_END = {
    "rps": "1/s",
    "rt_p50_ms": "ms",
    "setup_s": "s",
    "cpu_ms_per_req": "ms",
    "collected_gb": "GB",
}

# Reported in every report's "metrics" but not gated: rt_tail_ms on
# warm-hits is the 11th-slowest of ~300k replies, set by the run's worst
# scheduler stall (4.8 to 30 ms between seeds); failed_frac is 0 on a
# correct run; peak_rss_mb is bimodal on cold-missions (the same seed reads
# ~165 or ~188 MB from run to run). None of them has a usable bound.
UNGATED = {
    "rt_tail_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "net.frame.decode_us": "us",
    "net.frame.encode_us": "us",
    "net.bytes_in_per_req": "B",
    "net.bytes_out_per_req": "B",
    "io.json.parse_us": "us",
    "io.serialize.plan_us": "us",
    "service.request.decode_us": "us",
    "service.resolve_us": "us",
    "service.cache.get_us": "us",
    "service.cache.put_us": "us",
    "service.response_line_us": "us",
    "service.cache.hit_ratio": "ratio",
    "service.redundant_plans": "count",
    "service.divergent_replies": "count",
    "service.queue_ms": "ms",
    "service.exec_ms": "ms",
    "core.context.obtain_us": "us",
    "core.context.hit_ratio": "ratio",
    "core.candidates.build_ms": "ms",
    "core.candidates.grid_cells": "count",
    "core.candidates.kept": "count",
    "core.index.build_ms": "ms",
    "core.reduction.ms": "ms",
    "core.reduction.kept_ratio": "ratio",
    **{
        f"core.plan.{p}.{b}_ms": "ms"
        for p in ("alg1", "alg2", "alg3", "benchmark")
        for b in ("small", "paper", "sparse")
    },
    "core.plan.iterations": "count",
    "core.evaluate_us": "us",
    "trace.unattributed_frac": "ratio",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the server CLI and the driver; cmake's
    output goes to stderr so stdout stays the result."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD)  # configured for another checkout
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "uavdc_cli",
                  "e2e_driver", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"build failed: {' '.join(cmd)}")


def cmake_cache_value(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt"), encoding="utf-8",
                  errors="replace") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over every file the benchmark builds from, so two checkouts
    without git metadata can still be told apart."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "tools", "uavdc_cli.cpp")]
    for r in roots:
        for d, dirs, names in os.walk(r):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            files += [os.path.join(d, n) for n in names]
    for path in sorted(files):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def host_record(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": f"{compiler}: {version}",
        "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
        "commit": commit,
        "source_digest": source_digest(),
        "seed": seed,
        "transport": "loopback",
    }


def driver(*args):
    """Run e2e_driver in its own process group (the server it spawns joins
    it), so a timeout stops both; its last stdout line is its JSON output."""
    exe = os.path.join(BUILD, "e2e_driver")
    proc = subprocess.Popen([exe, *args], stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"e2e_driver {' '.join(args)} timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"e2e_driver {' '.join(args)} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    args = ["run", f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}",
            f"--server={os.path.join(BUILD, 'uavdc')}"]
    if trace:
        os.makedirs(REPORTS, exist_ok=True)
        # Set-up time is not reported from a traced run: spawn once.
        args += ["--trace", "--setups=1",
                 f"--spans={os.path.join(REPORTS, f'{workload}-seed{seed}-spans.jsonl')}"]
    report = driver(*args)
    report["host"] = host_record(seed)
    if report["client"]["saturated"]:
        log(f"warning: {workload}: the client used "
            f"{report['client']['cpu_share']:.0%} of a core; throughput may "
            "be the client's limit, not the server's")
    os.makedirs(REPORTS, exist_ok=True)
    path = os.path.join(REPORTS, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1, sort_keys=True)
    return report


def result_line(report, trace):
    table = PER_LAYER if trace else END_TO_END
    source = report["per_layer"] if trace else report["metrics"]
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit in table.items()}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def compare(path_a, path_b):
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    keys = ("nproc", "cpu_model", "machine", "compiler", "build_type")
    diff = [k for k in keys if a["host"].get(k) != b["host"].get(k)]
    if diff:
        print("NOT COMPARABLE: the runs differ in host or build: " +
              ", ".join(f"{k} ({a['host'].get(k)!r} vs {b['host'].get(k)!r})"
                        for k in diff))
        return 1
    if a["workload"] != b["workload"]:
        print(f"NOT COMPARABLE: workloads {a['workload']} vs {b['workload']}")
        return 1
    for name, unit in {**END_TO_END, **UNGATED}.items():
        va, vb = a["metrics"][name], b["metrics"][name]
        ratio = vb / va if va else float("nan")
        print(f"{name:16s} {va:14.6g} {vb:14.6g} {unit:6s} B/A {ratio:.4f}")
    return 0


def self_check(workload, seed, seconds):
    first = driver("digest", f"--workload={workload}", f"--seed={seed}")
    again = driver("digest", f"--workload={workload}", f"--seed={seed}")
    ok = first == again and first["feasible"]
    print(f"seed {seed}: stream digest {first['digest']} / {again['digest']}, "
          f"collected_gb {first['collected_gb']!r} / {again['collected_gb']!r}"
          f" -> {'identical' if first == again else 'DIFFERENT'}")
    report = run_workload(workload, seed + 1, seconds, False)
    clean = report["correct"] and report["failed"] == 0
    print(f"seed {seed + 1}: attempted {report['attempted']}, failed "
          f"{report['failed']}, correct {report['correct']}")
    return 0 if ok and clean else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload (end-to-end metrics)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="REPORT")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    build()
    workloads = WORKLOADS if args.all else [args.workload]
    if args.self_check:
        return max(self_check(w, args.seed, args.seconds) for w in workloads)
    correct = True
    for w in workloads:
        report = run_workload(w, args.seed, args.seconds, bool(args.trace))
        line = result_line(report, bool(args.trace))
        correct = correct and line["correct"]
        if args.all:
            table = PER_LAYER if args.trace else {**END_TO_END, **UNGATED}
            source = report["per_layer"] if args.trace else report["metrics"]
            for name, unit in table.items():
                print(f"{w:14s} {name:28s} {source[name]:14.6g} {unit}")
        else:
            print(json.dumps(report, sort_keys=True))
            print(json.dumps(line))
    # A single run reports an incorrect result in its line, not its exit.
    return 0 if correct or not args.all else 1


if __name__ == "__main__":
    sys.exit(main())
