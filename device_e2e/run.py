#!/usr/bin/env python3
"""Build and run the device_e2e benchmark.

Run from the root of a checkout:

  python3 device_e2e/run.py --workload <write_4k|read_zipf|seq_range16> \\
      --seed <n> --seconds <s> --trace <0|1>
  python3 device_e2e/run.py --selftest

The script builds the benchmark together with the repository libraries it
links (src/) with CMake, into $CARGO_TARGET_DIR (default .bench_build) under
the current directory. Every run first executes the benchmark's self-tests,
then the benchmark, whose last line of standard output is the result
object. Stores and scratch files live under .bench_data/ and are removed at
the end. --selftest additionally shows that a corrupted read makes a run
fail.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def run_logged(command, timeout):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no repository sources at {ROOT / 'src'}; cannot build")
        sys.exit(2)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = Path.cwd() / build_root
    build_dir = build_root / "device_e2e"
    try:
        if not (build_dir / "CMakeCache.txt").is_file():
            run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        run_logged(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log(f"build failed: {err}")
        sys.exit(2)
    return build_dir


def run_selftests(build_dir):
    result = subprocess.run([str(build_dir / "device_e2e_selftest")],
                            stdout=sys.stderr, stderr=sys.stderr,
                            timeout=RUN_TIMEOUT_S)
    if result.returncode != 0:
        log("benchmark self-tests failed")
        sys.exit(1)


def check_flip_fails(build_dir, data_dir):
    """A run whose read is corrupted by one flipped byte must fail."""
    result = subprocess.run(
        [str(build_dir / "device_e2e"), "--workload", "read_zipf", "--seed",
         "1", "--seconds", "1", "--trace", "0", "--dir", str(data_dir),
         "--inject-flip"],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = result.stdout.strip().splitlines()
    verdict = json.loads(lines[-1]) if lines else {}
    if result.returncode == 0 or verdict.get("correct") is not False:
        log("a run with a flipped byte did not fail")
        sys.exit(1)
    log("a run with a flipped byte failed, as it must")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = build()
    run_selftests(build_dir)
    data_dir = ROOT / ".bench_data" / f"run-{os.getpid()}"
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.selftest:
            check_flip_fails(build_dir, data_dir)
            return 0
        result = subprocess.run(
            [str(build_dir / "device_e2e"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--dir", str(data_dir)],
            timeout=RUN_TIMEOUT_S)
        return result.returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
        try:
            data_dir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
