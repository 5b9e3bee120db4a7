#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (the BENCHMARK.json command).

    python3 bench/e2e/run.py --workload W --seed N --seconds T --trace 0|1

Builds `eppi_cli` and `bench_e2e` from the checkout's sources into
.bench_build/e2e (incremental after the first run), runs one measurement in a
scratch directory under .bench_run/, and prints bench_e2e's JSON result as
the last line of stdout. Build output and the human-readable report go to
stderr. Exits nonzero when the sources are missing, the build fails, an
answer is wrong, or the printed metrics do not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "bench" / "e2e"
BUILD_DIR = ROOT / ".bench_build" / "e2e"
RUN_TIMEOUT_S = 170


def build() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"run.py: no repository sources under {ROOT}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   stdout=sys.stderr, check=True)


def expected_metrics(traced: bool) -> set:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(BUILD_DIR / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", str(BUILD_DIR / "eppi_cli"),
           "--work", str(work)]
    # Its own process group, so the daemon and parties it starts go down
    # with it even if it is killed or crashes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: bench_e2e timed out", file=sys.stderr)
        stdout = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    lines = stdout.strip().splitlines()
    if not lines:
        print(f"run.py: bench_e2e printed no result (exit {proc.returncode})",
              file=sys.stderr)
        return proc.returncode or 4
    result = json.loads(lines[-1])
    printed = set(result["metrics"])
    expected = expected_metrics(args.trace == 1)
    if printed != expected:
        print(f"run.py: metrics differ from BENCHMARK.json: "
              f"missing {sorted(expected - printed)}, "
              f"extra {sorted(printed - expected)}", file=sys.stderr)
        return 5
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
