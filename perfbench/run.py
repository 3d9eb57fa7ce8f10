#!/usr/bin/env python3
"""Build and run the verifier benchmark from the root of a source checkout.

    python3 perfbench/run.py \
        --rate confirm_mem=2000,confirm_durable=500,enroll_storm=3200 \
        --workload confirm_mem --seed 1 --seconds 30 --trace 0

Builds perfbench/ (Release, against ../src) into $CARGO_TARGET_DIR or
.bench_build, runs verifier_bench with the given arguments and passes its
output through; the last line of standard output is the JSON result. Build
output goes to standard error. Journals and traces go under .bench_run/.

    python3 perfbench/run.py --selftest

builds and runs the benchmark's own tests (its summary maths).
"""

import hashlib
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(base, "perfbench-release"))


def build(targets):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return out


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main(argv):
    if argv == ["--selftest"]:
        out = build(["perfbench_stats_test"])
        if out is None:
            return 2
        return subprocess.run([os.path.join(out, "perfbench_stats_test")]
                              ).returncode

    out = build(["verifier_bench"])
    if out is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(out, "verifier_bench")] + argv + [
        "--commit", source_id(), "--run-dir", os.path.abspath(".bench_run")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s after %.0f s" %
              (RUN_TIMEOUT_S, time.monotonic() - started), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
