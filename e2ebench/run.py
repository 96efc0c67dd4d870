#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the harness (this directory's CMake package, which compiles the
library from ../src) into $CARGO_TARGET_DIR/e2ebench, or
.bench_build/e2ebench when that is unset, runs one workload, stamps the
result (commit or source hash, CPU model, compiler and flags, build
type, nproc, seed, tracing overhead), writes the full record under the
build directory's results/, and prints as its last line the JSON object
{"correct", "attempted", "failed", "metrics"}. Any build or run failure
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("resnet18-mixed", "mobilenet-mixed", "resnet18-abft",
             "serve-smallcnn")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "e2ebench")


def build(out):
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "e2ebench")


def source_sha256():
    """Hash of the library and benchmark sources (the checkout the
    driver runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_stamp(out):
    stamp = {}
    with open(os.path.join(out, "build_stamp.txt")) as f:
        for line in f:
            key, _, value = line.rstrip("\n").partition("=")
            stamp[key] = " ".join(value.split())
    return stamp


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(out, "traces", tag + ".json")]
    try:
        run = subprocess.run(command, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {run.returncode}")
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    stamp = build_stamp(out)
    stamp.update({
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    metrics = result["metrics"]
    if "trace.overhead_pct" in metrics:
        stamp["tracing_overhead_pct"] = metrics["trace.overhead_pct"]["value"]
    record = dict(result, stamp=stamp)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)
    record_path = os.path.join(out, "results", tag + ".json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    print("run.py: stamp " + json.dumps(stamp, sort_keys=True))
    print("run.py: record " + record_path)
    print(json.dumps({key: result[key]
                      for key in ("correct", "attempted", "failed",
                                  "metrics")}))


if __name__ == "__main__":
    main()
