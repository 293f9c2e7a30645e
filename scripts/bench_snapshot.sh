#!/usr/bin/env bash
# Records the committed benchmark snapshots:
#   BENCH_fig1.json — packed-kernel primitives, scalar vs SIMD tiers
#                     (google-benchmark JSON; names are <kernel>/<tier>/<bits>),
#                     plus the per-page CRC-32C cost, crc32c/<impl>/<size>
#   BENCH_fig4.json — cold full-column scan, readahead off vs on at 1 ms
#                     simulated page latency, plus the io_sweep section:
#                     the same scan across I/O backend (sync vs io_uring)
#                     × readahead window × PAYG_IO_DEPTH
#   BENCH_exec_scaling.json — GetPage throughput at 1/2/4/8 client threads,
#                     hot (resident) and cold (evicting) sweeps. The shard
#                     count is pinned to 8 so the recorded configuration is
#                     identical across hosts; the JSON's "cores" field says
#                     how much physical parallelism backed the numbers.
#   BENCH_profile.json — sample p99 QueryProfile from a small fig9 query
#                     stream: the committed reference for the profiler's
#                     JSON shape and a sanity check on its stage numbers.
#   BENCH_server.json — closed-loop client/server sweep through the S25
#                     front door: unbatched vs batched point-lookup
#                     throughput and latency at 1/8/16 clients, plus an
#                     overload phase that must shed at admission.
#   BENCH_merge.json — delta-merge wall time on a 300k-row, 4-column table:
#                     the first merge, then 1000-delete + 400-insert merges
#                     and empty merges, five of each.
# Usage: scripts/bench_snapshot.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
cmake --build "$BUILD" -j --target bench_fig1_primitives bench_fig4_data_vector bench_exec_scaling bench_fig9_end_to_end bench_server \
  bench_merge

# fig1: the acceptance-relevant kernels (mget + search_eq) on every available
# tier at every bit width, plus the codec-dispatched variants (S22) per
# codec at the two representative widths, plus the page checksum per
# implementation and page size. Widen or drop the filter for full
# sweeps (search_range / search_in are registered too).
FILTER="${PAYG_FIG1_FILTER:-^(mget|search_eq|codec_mget|codec_search_eq|crc32c)/}"
"$BUILD"/bench/bench_fig1_primitives \
  --benchmark_filter="$FILTER" \
  --benchmark_min_time="${PAYG_FIG1_MIN_TIME:-0.2}" \
  --benchmark_out=BENCH_fig1.json --benchmark_out_format=json

PAYG_SCAN_ONLY=1 PAYG_BENCH_JSON=BENCH_fig4.json \
  "$BUILD"/bench/bench_fig4_data_vector

PAYG_CACHE_SHARDS="${PAYG_CACHE_SHARDS:-8}" \
  PAYG_BENCH_JSON=BENCH_exec_scaling.json \
  "$BUILD"/bench/bench_exec_scaling

# Sample query profile: a reduced fig9 run whose profiler phase writes the
# p99 query's profile (stage breakdown, cold/hit split, per-partition times).
PAYG_ROWS="${PAYG_PROFILE_ROWS:-50000}" PAYG_QUERIES="${PAYG_PROFILE_QUERIES:-300}" \
  PAYG_SESSION_US=0 PAYG_PROFILE_JSON=BENCH_profile.json \
  "$BUILD"/bench/bench_fig9_end_to_end > /dev/null

# Server front door: self-hosted store + server, closed-loop clients. The
# sweep asserts its own health (PAYG_EXPECT_SHED=1: no shedding at healthy
# load, shedding in the overload phase).
PAYG_BENCH_JSON=BENCH_server.json PAYG_EXPECT_SHED=1 \
  "$BUILD"/bench/bench_server

# Delta merge: the merge works in vid space (DESIGN.md §4); the bench
# checks the surviving row count and the key index after its rounds.
PAYG_BENCH_JSON=BENCH_merge.json "$BUILD"/bench/bench_merge

echo "bench_snapshot.sh: wrote BENCH_fig1.json BENCH_fig4.json BENCH_exec_scaling.json BENCH_profile.json BENCH_server.json BENCH_merge.json"
