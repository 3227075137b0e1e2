#!/usr/bin/env python3
"""Builds and runs the MultiMap end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is compiled from the
repository's src/ tree with CMake into $CARGO_TARGET_DIR (default
.bench_build) under the repository root; the first run builds, later runs
reuse the build. All scratch files (the store_olap store, the traced run's
Chrome trace) stay under that build directory. The last line of stdout is
the result JSON; see README.md in this directory for the metrics.

Extra options are passed to the benchmark binary unchanged (--scale,
--threads; see selftest.py).
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out, env):
    """Configures (once) and builds the benchmark; build output goes to
    stderr so stdout carries only the benchmark's lines."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", out, "-j", jobs],
                       check=True, stdout=sys.stderr, env=env)
    return os.path.join(out, "perfbench")


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith((".h", ".cc")):
                with open(os.path.join(dirpath, name), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    args, extra = parser.parse_known_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "query", "session.h")):
        log(f"no MultiMap sources under {ROOT}/src; nothing to benchmark")
        return 2

    out = build_dir()
    scratch = os.path.join(out, f"scratch-{os.getpid()}")
    traces = os.path.join(out, "traces")
    tmp = os.path.join(out, "tmp")
    for d in (scratch, traces, tmp):
        os.makedirs(d, exist_ok=True)
    # Compilers and libraries write temporaries under TMPDIR: keep them in
    # the build directory too.
    env = dict(os.environ, TMPDIR=tmp)
    try:
        binary = build(out, env)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        shutil.rmtree(scratch, ignore_errors=True)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--scratch", scratch,
           "--trace-out",
           os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
           "--git-sha", git_sha(), "--src-lines", str(src_lines())] + extra
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
