#!/usr/bin/env python3
"""granulock performance benchmark.

Builds the benchmark runner (perfbench/src) and the library it links
(src/) in Release mode, runs one workload, checks the simulated outputs
and prints every metric by name and unit. The last line of standard output
is one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload incremental_2pl --seed 1 --seconds 55 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 makes a traced run and
reports the per-layer metrics instead, writing its spans next to the build.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Extra process launches that stop at the first cell: setup_s is the median
# over them and the measured run.
SETUP_LAUNCHES = 29
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the runner; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return None
    binary = os.path.join(out_dir, "granulock_perfbench")
    return binary if os.path.exists(binary) else None


def launch(binary, args, extra):
    """Launches the runner; returns (its JSON report, seconds from spawn to its
    first cell, exit code)."""
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}"] + extra
    start_ns = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"runner printed nothing (exit {proc.returncode})")
    report = json.loads(lines[-1])
    return report, (report["first_cell_ns"] - start_ns) / 1e9, proc.returncode


def cache_sizes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            with open(os.path.join(path, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(path, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(path, "size")) as f:
                size = f.read().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = size
    except OSError:
        pass
    return sizes


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library sources: identifies the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint(report):
    caches = cache_sizes()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "compiler": report["build"]["compiler"],
        "build_type": report["build"]["build_type"],
        "audit": report["build"]["audit"],
        "sanitizer": report["build"]["sanitizer"],
        "commit": commit(),
        "source_digest": source_digest(),
        "valid": report["build"]["valid"],
    }


def stored_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        stored = json.load(f)
    if seed != stored["seed"]:
        return None
    return stored["digests"].get(workload)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-cell", type=int, default=None,
                        help=argparse.SUPPRESS)  # self-test hook
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 2

    extra = []
    if args.corrupt_cell is not None:
        extra.append(f"--corrupt-cell={args.corrupt_cell}")
    setups = []
    if args.trace == 0:
        for _ in range(SETUP_LAUNCHES):
            _, setup_s, code = launch(binary, args, ["--setup-only"])
            if code != 0:
                log("perfbench: set-up launch failed")
                return 2
            setups.append(setup_s)
    else:
        spans = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        extra += ["--trace", f"--spans={spans}"]
    report, setup_s, code = launch(binary, args, extra)
    setups.append(setup_s)

    attempted = report["attempted"]
    failed = report["failed"]
    failures = list(report["failures"])
    expected = stored_digest(args.workload, args.seed)
    if expected is not None and report["digest"] != expected:
        # The digest covers every point: a mismatch fails a whole pass.
        failed += report["cells_per_pass"]
        attempted += report["cells_per_pass"]
        failures.append(f"digest {report['digest']} != stored {expected}")
    fp = fingerprint(report)
    if not fp["valid"]:
        failures.append("invalid timing build: " +
                        report["build"]["invalid_reason"])
    # The runner exits nonzero on any failed cell and on an invalid build.
    correct = code == 0 and failed == 0

    print("fingerprint " + json.dumps(fp, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} threads "
          f"{report['threads']} cells/pass {report['cells_per_pass']} "
          f"digest {report['digest']} inputs {report['inputs_digest']}")
    for f in failures:
        print(f"FAILED {f}")
    if args.trace == 0:
        metrics = dict(report["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        walls = " ".join(f"{w:.3f}" for w in report["pass_wall_s"])
        print(f"timed passes {report['passes']} (wall s: {walls}); cells "
              f"{report['cell_samples']}, set-up launches {len(setups)}")
        print(f"  cell_fail_frac = {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} cells)")
    else:
        metrics = report["per_layer"]
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
