#!/usr/bin/env python3
"""Build and run the orinsim benchmark.

Run from the repository root:

  python3 orinbench/run.py --workload <chat_http|long_ctx|fleet_sim> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 orinbench/run.py --tests      # the benchmark's own unit tests

The first call configures and builds orinbench/ (which compiles src/ from
source) into .bench_build/orinbench; later calls rebuild only what changed.
Build output goes to stderr. The benchmark's last stdout line is the result
object {"correct", "attempted", "failed", "metrics"}; it is printed only
after it parsed and has that shape, and the exit code is 0 only then. Run
records and traces land in .bench_out/.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "orinbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "orinbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"orinbench/run.py: {message}", file=sys.stderr, flush=True)


def build(target):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
            + generator,
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(os.cpu_count() or 1)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(BUILD_DIR, target)


def source_identity():
    """The git commit when there is one, plus a digest of src/ either way."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return f"{commit}+src-sha256:{digest.hexdigest()[:16]}"


def valid_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["correct"], bool):
        return None
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return None
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            return None
    return result


def main(argv):
    try:
        if argv == ["--tests"]:
            return subprocess.run([build("orinbench_tests")]).returncode
        binary = build("orinbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    command = [binary] + argv + ["--out", OUT_DIR, "--commit", source_identity()]
    # One OpenMP thread: with the default team of one thread per core, any
    # other process on the host makes every parallel region wait out a
    # scheduler slice (decode steps quantized at 32 ms, runs 3x slower), so
    # results measured the host's neighbours. The run record shows the value.
    env = dict(os.environ, OMP_NUM_THREADS="1")
    try:
        proc = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S, env=env
        )
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or valid_result(lines[-1]) is None:
        log(f"no valid result (exit code {proc.returncode})")
        return proc.returncode or 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
