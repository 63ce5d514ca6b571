#!/usr/bin/env sh
# Regenerate the CI bench baselines (ci/baselines/BENCH_*.json).
#
# This script is the single source of truth for the pinned bench
# configurations: the bench-perf CI job runs it with --out-dir . to produce
# the "current" side of the gate, and a maintainer refreshing baselines runs
# it with the default --out-dir so both sides can never drift apart. Policy
# for WHEN to refresh lives in ci/baselines/README.md.
#
# Usage:
#   tools/refresh_baselines.sh [--build-dir DIR] [--out-dir DIR] [--skip-build]
#
#   --build-dir DIR  Release build tree (default: build-rel; configured and
#                    built here unless --skip-build)
#   --out-dir DIR    where BENCH_*.json land (default: ci/baselines)
#   --skip-build     assume the build tree is already built
set -eu

build_dir=build-rel
out_dir=ci/baselines
skip_build=0
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) build_dir=$2; shift 2 ;;
    --out-dir) out_dir=$2; shift 2 ;;
    --skip-build) skip_build=1; shift ;;
    *) echo "refresh_baselines: unknown argument: $1" >&2; exit 2 ;;
  esac
done

if [ "$skip_build" -eq 0 ]; then
  cmake -B "$build_dir" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build_dir" -j
fi

# Refuse to stamp baselines from a non-Release tree: a debug-built baseline
# would make every future Release run look like a huge improvement and
# defeat the gate.
build_type=$(grep -E '^CMAKE_BUILD_TYPE:' "$build_dir/CMakeCache.txt" |
  cut -d= -f2)
if [ "$build_type" != "Release" ]; then
  echo "refresh_baselines: $build_dir is built as '${build_type:-?}'," \
    "need Release" >&2
  exit 2
fi

mkdir -p "$out_dir"

# ---- Pinned configurations (keep ci/baselines/README.md in sync) ----------
"$build_dir/bench/fig1_sequential" --min-bits=8 --max-bits=16 \
  --seconds=0.1 --trials=2 --json="$out_dir/BENCH_fig1.json"
"$build_dir/bench/fig4_mix801010" --range-bits=16 --threads=1,2,4,8 \
  --seconds=0.3 --trials=4 --json="$out_dir/BENCH_fig4.json"
"$build_dir/bench/fig5_mix05050" --range-bits=16 --threads=2,4 \
  --seconds=0.25 --trials=2 --json="$out_dir/BENCH_fig5.json"
# fig7b carries the layout matrix plus the data-layout sweep: the
# scan_heavy/* and write_heavy/* rows pin static sorted vs static unsorted
# data chunks on the two mixes where they diverge (docs/TUNING.md "Chunk
# layouts"). Single thread on purpose: with threads > cores, preemption
# inside seqlock write sections turns the sweep cells into scheduler-noise
# measurements.
"$build_dir/bench/fig7b_sorted_unsorted" --range-bits=14 \
  --sweep-range-bits=14 --threads=1 --seconds=0.4 --trials=5 \
  --json="$out_dir/BENCH_fig7.json"
"$build_dir/bench/fig8_range" --range-bits=16 --spans=10 \
  --threads=2 --seconds=0.2 --json="$out_dir/BENCH_fig8.json"
# fig9 pins the sv::txn transaction layer: the YCSB-T rows gate the
# optimistic-read + NO_WAIT commit path, the TPCC-lite rows gate the
# multi-key RMW mix (and re-check the conservation invariants -- the bench
# exits nonzero on a violation, failing the refresh/gate outright).
"$build_dir/bench/fig9_txn" --rows=65536 --txns=4000 --threads=1,4 \
  --thetas=10,90 --warehouses=1,4 --json="$out_dir/BENCH_fig9.json"

tools/benchdiff.py --validate-only "$out_dir"/BENCH_fig1.json \
  "$out_dir"/BENCH_fig4.json "$out_dir"/BENCH_fig5.json \
  "$out_dir"/BENCH_fig7.json "$out_dir"/BENCH_fig8.json \
  "$out_dir"/BENCH_fig9.json
echo "refresh_baselines: wrote baselines to $out_dir"
