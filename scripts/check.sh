#!/usr/bin/env bash
# Tier-1 verification plus sanitizer sweeps.
#
# Usage: scripts/check.sh [stage]
#   plain       build + full ctest in ./build (the tier-1 gate)    [default]
#   fault       plain build, but only the fault-injection matrix
#               (ctest -L fault)
#   storage     plain build, but only the durable-store recovery matrix
#               (ctest -L storage)
#   concurrency plain build, but only the serving-tier reader/writer storms
#               (ctest -L concurrency; the tsan stage reruns them raced)
#   index       plain build, but only the compressed-posting-index harness:
#               codec property/fuzz tests, the dense-vs-compressed
#               differential suite, and v3 persistence (ctest -L index)
#   mpc         plain build, but only the generic-MPC layer: circuit
#               builder, the bitsliced GMW engine, and the ε-PPI templates
#               checked bit for bit against their plain references with
#               pinned logical sizes (ctest -L mpc)
#   obs         plain build, but only the observability layer: metrics
#               registry, trace ring, JSONL replay, and the construction/
#               serving/storage instrumentation gates (ctest -L obs), plus
#               the CLI smoke pipe: serve --smoke --prom | eppi_cli stats -
#   asan        ASan+UBSan build in ./build-asan, full ctest
#   tsan        TSan build in ./build-tsan, fault-, concurrency-, obs-,
#               index- and mpc-labeled tests (the threaded cluster/
#               reliability paths, the epoch-snapshot serving tier, the
#               lock-free trace ring, the shared-shard snapshot swaps and
#               the multi-party GMW sessions are where races would live)
#   bench       smoke-mode bench_serving + bench_tcp, diffed against the
#               committed BENCH_*.json baselines with a loose (5x) tolerance
#               via scripts/check_bench.py — catches order-of-magnitude
#               cliffs, not percent-level drift
#   lint        static-analysis gate: eppi_lint.py + compile-fail probes
#               (ctest -L lint in ./build); adds clang-tidy and the clang
#               thread-safety -Werror build when clang is installed
#   analyze     whole-program analyzer (tools/eppi_analyze.py): fixture
#               self-test, then the repo scan gated by the committed
#               baseline; uses the clang AST frontend automatically when
#               clang++ and build/compile_commands.json are present
#   all         plain, then asan, then tsan, then lint, then analyze
# Stages may also be spelled --lint / --asan / etc.
#
# JOBS=<n> overrides the build/test parallelism (default: nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="${JOBS:-$(nproc)}"
stage="${1:-plain}"
stage="${stage#--}"  # accept --lint as well as lint

run_preset() {
  local preset="$1"
  shift
  cmake --preset "$preset"
  cmake --build --preset "$preset" -j "$jobs"
  ctest --preset "$preset" -j "$jobs" "$@"
}

case "$stage" in
  plain)
    run_preset default
    ;;
  fault)
    run_preset default -L fault
    ;;
  storage)
    run_preset default -L storage
    ;;
  concurrency)
    run_preset default -L concurrency
    ;;
  index)
    run_preset default -L index
    ;;
  mpc)
    run_preset default -L mpc
    ;;
  obs)
    run_preset default -L obs
    # End-to-end exposition smoke: the serve command's Prometheus dump must
    # survive both the CLI's own validator and the standalone CI checker.
    ./build/tools/eppi_cli serve --smoke --prom 2>/dev/null \
      | ./build/tools/eppi_cli stats -
    ./build/tools/eppi_cli serve --smoke --prom 2>/dev/null \
      | python3 scripts/check_prometheus.py
    ;;
  bench)
    cmake --preset default
    cmake --build --preset default -j "$jobs" \
      --target bench_serving bench_tcp
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    ./build/bench/bench_serving --smoke --json "$tmpdir/BENCH_serving.json"
    ./build/bench/bench_tcp --smoke --json "$tmpdir/BENCH_tcp.json"
    python3 scripts/check_bench.py BENCH_serving.json \
      "$tmpdir/BENCH_serving.json"
    python3 scripts/check_bench.py BENCH_tcp.json "$tmpdir/BENCH_tcp.json"
    ;;
  asan)
    run_preset asan
    ;;
  tsan)
    # TSAN_OPTIONS halt_on_error keeps a race from scrolling past unnoticed.
    TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" run_preset tsan
    ;;
  lint)
    # Local gate first: the pure-Python linter needs no toolchain and exits
    # nonzero on any violation, failing this script via `set -e`.
    python3 tools/eppi_lint.py --self-test
    python3 tools/eppi_lint.py

    # Compile-fail probes + the lint-labeled ctest entries (uses the default
    # build tree so a prior `plain` run is reused).
    cmake --preset default
    cmake --build --preset default -j "$jobs"
    ctest --preset default -L lint

    # Clang-only layers: thread-safety -Werror build and clang-tidy. Skipped
    # with a notice when clang is not installed (the CI lint job has it).
    if command -v clang++ >/dev/null 2>&1; then
      cmake --preset lint
      cmake --build --preset lint -j "$jobs"
      ctest --preset lint -j "$jobs"
      if command -v clang-tidy >/dev/null 2>&1; then
        mapfile -t tidy_sources < <(git ls-files 'src/**/*.cpp')
        clang-tidy -p build-lint "${tidy_sources[@]}"
      else
        echo "check.sh: clang-tidy not installed; skipping (CI runs it)" >&2
      fi
    else
      echo "check.sh: clang++ not installed; skipping thread-safety" \
           "-Werror build and clang-tidy (CI runs them)" >&2
    fi
    ;;
  analyze)
    # Needs no build tree: the syntax frontend works from the sources alone.
    # When clang++ and an exported build/compile_commands.json are both
    # available the clang AST frontend sharpens the same facts (the
    # --frontend auto default handles the pick).
    python3 tools/eppi_analyze.py --self-test
    python3 tools/eppi_analyze.py --verbose
    ;;
  all)
    "$0" plain
    "$0" asan
    "$0" tsan
    "$0" lint
    "$0" analyze
    ;;
  *)
    echo "usage: $0 [plain|fault|storage|concurrency|index|mpc|obs|bench|asan|tsan|lint|analyze|all]" >&2
    exit 2
    ;;
esac
