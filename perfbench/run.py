#!/usr/bin/env python3
"""Build the library and the benchmark binary from source, then run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload decode-bbfp --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The library is built with the repository's own CMakeLists.txt (target
`bbal` only) and the benchmark with perfbench/CMakeLists.txt, both under
$CARGO_TARGET_DIR (default .bench_build). Build logs go to stderr; the last
line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when a build fails or any output check fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("decode-bbfp", "prefill-shared-fp16", "sweep-table2")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def run(cmd, timeout, env=None, capture=False):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: timed out: %s\n" % " ".join(cmd))
        return 124, b""
    return proc.returncode, out or b""


def build(build_dir, jobs):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        sys.stderr.write("perfbench: no library sources next to perfbench/\n")
        return None
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    lib_dir = os.path.join(build_dir, "bbal")
    bench_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(lib_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib_dir, *gen,
                      "-DBUILD_TESTING=OFF"])
    steps.append(["cmake", "--build", lib_dir, "--target", "bbal",
                  "-j", str(jobs)])
    if not os.path.isfile(os.path.join(bench_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", bench_dir, *gen, "-DBBAL_SOURCE_DIR=" + ROOT,
                      "-DBBAL_LIBRARY=" + os.path.join(lib_dir, "libbbal.a")])
    steps.append(["cmake", "--build", bench_dir, "-j", str(jobs)])
    for cmd in steps:
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    return os.path.join(bench_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    threads = max(1, min(4, os.cpu_count() or 1))
    binary = build(build_dir, threads)
    if binary is None:
        return 2

    env = dict(os.environ, BBAL_THREADS=str(threads))
    # The self-tests run whenever the binary was rebuilt, so a checkout's
    # first run proves the counters and decorators before measuring.
    stamp = binary + ".selftest-ok"
    if args.selftest or not os.path.isfile(stamp) or \
            os.path.getmtime(stamp) < os.path.getmtime(binary):
        code, _ = run([binary, "--selftest"], RUN_TIMEOUT_S, env=env)
        if code != 0 or args.selftest:
            return code
        open(stamp, "w").close()

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--table2-baseline", os.path.join(ROOT, "BENCH_table2.json"),
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.tsv" % (args.workload, args.seed))]
    code, out = run(cmd, RUN_TIMEOUT_S, env=env, capture=True)
    lines = out.decode().strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
