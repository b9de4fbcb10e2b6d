#!/usr/bin/env python3
"""Streaming decision-path benchmark: builds the harness and runs one workload.

    python3 perfbench/run.py --workload cell_tsajs --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout. The harness (perfbench/) and the
repository's libraries are built with CMake into .bench_build/perfbench; the
first run builds, later runs only check that the build is current. Runs of
one checkout share .bench_build and must not overlap (they would also time
each other). Each run starts the workload in its own process (stream_bench),
prints its metrics, an environment stamp, and as its last line one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
`attempted` counts the arrivals offered in the timed window and `failed` the
ones admission rejected. A run is correct when the harness self-tests pass,
every pass of the run checks out, and the event digest matches any earlier
run of the same workload, seed and window on the same sources.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "perfbench"
WORKLOADS = ("cell_tsajs", "city_sharded", "faults_durable")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no TSAJS sources next to {HERE.name}/ (expected "
             f"{ROOT / 'CMakeLists.txt'} and {ROOT / 'src'})")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BIN / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BIN),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BIN), "-j", "4",
                  "--target", "stream_bench", "perfbench_selftest"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(step)} (log: {log_path})")


def selftest():
    """Runs the harness's own tests; returns True when they pass."""
    scratch = BUILD / "selftest"
    scratch.mkdir(exist_ok=True)
    done = subprocess.run([str(BIN / "perfbench_selftest"), "--gtest_brief=1"],
                          cwd=scratch, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        print(done.stdout + done.stderr)
    return done.returncode == 0


def source_digest():
    """sha256 over the sources the benchmark builds and the harness itself."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def steal_seconds():
    """Host steal time consumed so far, summed over all CPUs [s]."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    # cpu user nice system idle iowait irq softirq steal ...
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def filesystem_type(path):
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as mounts:
        for line in mounts:
            parts = line.split()
            mount = parts[1]
            inside = path == mount or path.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, parts[2]
    return kind


def check_digest(key, digest):
    """Compares the run's event digest with any earlier run of the same key."""
    store = BUILD / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        return known[key] == digest
    known[key] = digest
    store.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    build()
    tests_ok = selftest()

    # Bundles are deleted after their checks; a crashed run's leftovers go
    # here, so nothing accumulates across runs.
    scratch = BUILD / "scratch"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    sources = source_digest()
    load_1m = os.getloadavg()[0]
    steal_before = steal_seconds()
    command = [str(BIN / "stream_bench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scratch", str(scratch)]
    if args.trace:
        command += ["--spans",
                    str(traces / f"{args.workload}-{args.seed}.spans.csv")]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
        stdout, stderr, code = done.stdout, done.stderr, done.returncode
    except subprocess.TimeoutExpired as expired:
        stdout = expired.stdout or ""
        stderr = f"timed out after {RUN_TIMEOUT_S} s"
        code = -1
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    steal = steal_seconds() - steal_before

    lines = stdout.splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if stderr:
        print(stderr.rstrip())

    correct = tests_ok
    if not tests_ok:
        print("CHECK FAILED: harness self-tests")
    if result is None:
        print(f"CHECK FAILED: stream_bench exited with {code} and no result")
        result = {"correct": False, "attempted": 1, "failed": 1,
                  "digest": "", "metrics": {}}
    correct = correct and result["correct"] and code == 0
    key = f"{args.workload}|{args.seed}|{args.seconds!r}|{sources}"
    if result["digest"] and not check_digest(key, result["digest"]):
        print(f"CHECK FAILED: event digest {result['digest']} differs from "
              f"an earlier run of {key}")
        correct = False

    stamp = {
        "git_rev": git_revision(),
        "source_digest": sources,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_1m": load_1m,
        "steal_s": round(steal, 2),
        "scratch_fs": filesystem_type(scratch),
        "event_digest": result["digest"],
    }
    print("env " + json.dumps(stamp))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
