#!/usr/bin/env python3
"""Build the AFS end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload update-8p --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The benchmark is built in Release under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run configures and
compiles, later runs only check that the build is current. The last line of stdout is the
run's JSON result; build output goes to stderr. --selftest builds and runs the benchmark's
own tests instead (decorators are pass-through; the payload check can fail).
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["update-8p", "read-mostly", "contended", "cross-shard"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir, target):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if "CMAKE_BUILD_TYPE:STRING=Release" not in cache.read_text():
        fail(f"{build_dir} is not a Release build; remove it and rerun")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail(f"no AFS source tree at {root}/src; run from the root of a checkout")
    out_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not out_dir.is_absolute():
        out_dir = root / out_dir
    build_dir = out_dir / "perfbench"
    work_dir = out_dir / "work"
    out_dir.mkdir(parents=True, exist_ok=True)

    # One run at a time per checkout: the build directory and the store are shared.
    with open(out_dir / "perfbench.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        target = "perfbench_tests" if args.selftest else "afs_perfbench"
        try:
            build(root, build_dir, target)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
            fail(f"build failed: {e}")
        if args.selftest:
            sys.exit(subprocess.run([str(build_dir / "perfbench_tests")],
                                    timeout=RUN_TIMEOUT_S).returncode)
        # Stores left by a run that was killed.
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        cmd = [str(build_dir / "afs_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
        start = time.monotonic()
        try:
            run = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                                 timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        sys.stdout.write(run.stdout)
        print(f"perfbench: run took {time.monotonic() - start:.1f} s", file=sys.stderr)
        sys.exit(run.returncode)


if __name__ == "__main__":
    main()
