#!/usr/bin/env bash
# Full verification: the static checker first (cheapest signal), then the
# regular build + complete test suite, then a
# ThreadSanitizer build running the concurrency-sensitive suites (the
# resource manager's lock-free pin path and recency stamps, the
# partition-parallel executor, the lock-free metrics/trace ring, the
# query-profile capture and slow-query ring, the page cache's asynchronous
# prefetch pool, the sharded-cache stress suite, the resident column load
# path, budget eviction through the store, the server, and the delta and
# the merge driven by the executor's workers in the table and integration
# suites), then an
# ASan+UBSan build of the buffer, cache stress, columnar, core, codec,
# CRC-32C, profile, server, table, exec, integration, paged and encoding
# suites.
# Usage: scripts/check.sh [build-dir-prefix]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

echo "== static checker (scripts/payg_analyzer.py) =="
python3 scripts/payg_analyzer.py
python3 scripts/payg_analyzer.py --self-test

echo "== regular build + full test suite =="
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "== I/O backend legs: storage + cache + paged suites under sync and uring =="
# The uring leg is skip-not-fail on hosts without io_uring: backend
# selection falls back to sync (one-time stderr note) and the
# uring-parameterized storage tests GTEST_SKIP, so the leg still passes.
for backend in sync uring; do
  echo "-- PAYG_IO_BACKEND=$backend"
  env PAYG_IO_BACKEND="$backend" ctest --test-dir "$BUILD" \
    --output-on-failure -j "$(nproc)" -R "Storage|Cache|Paged|Prefetch|Exec"
done

echo "== TSan build: buffer + exec + obs + profile + paged + cache-stress + columnar + core + server + table + integration suites =="
cmake -B "$BUILD-tsan" -S . -DPAYG_SANITIZE=thread >/dev/null
cmake --build "$BUILD-tsan" -j --target buffer_test exec_test obs_test profile_test paged_test cache_stress_test \
  columnar_test core_test server_test table_test integration_test
"$BUILD-tsan"/tests/buffer_test
"$BUILD-tsan"/tests/exec_test
"$BUILD-tsan"/tests/obs_test
"$BUILD-tsan"/tests/profile_test
"$BUILD-tsan"/tests/paged_test
"$BUILD-tsan"/tests/cache_stress_test
"$BUILD-tsan"/tests/columnar_test
"$BUILD-tsan"/tests/core_test
"$BUILD-tsan"/tests/server_test
"$BUILD-tsan"/tests/table_test
"$BUILD-tsan"/tests/integration_test
# Eviction racing owner teardown shows up only in some runs, so the paged
# suite's eviction tests run 50 times.
"$BUILD-tsan"/tests/paged_test \
  --gtest_filter='PagedTest.PageCacheHitRatioHotVsCold:PagedTest.DataVector*:PagedTest.*Sweep*' \
  --gtest_repeat=50
# Concurrent misses of one page share its one read: repeated for the same
# reason.
"$BUILD-tsan"/tests/cache_stress_test \
  --gtest_filter='Backends/CacheLoadPathTest.ConcurrentMissesOfOnePageShareOneRead/*' \
  --gtest_repeat=50

echo "== ASan+UBSan build: buffer + cache-stress + columnar + core + codec + crc32 + profile + server + table + exec + integration + paged + encoding + storage suites =="
cmake -B "$BUILD-asan" -S . -DPAYG_SANITIZE=address+undefined >/dev/null
cmake --build "$BUILD-asan" -j --target buffer_test cache_stress_test columnar_test core_test codec_test crc32_test \
  profile_test server_test table_test exec_test integration_test paged_test encoding_test storage_test
"$BUILD-asan"/tests/buffer_test
"$BUILD-asan"/tests/cache_stress_test
"$BUILD-asan"/tests/columnar_test
"$BUILD-asan"/tests/core_test
"$BUILD-asan"/tests/codec_test
"$BUILD-asan"/tests/crc32_test
PAYG_FORCE_SCALAR=1 "$BUILD-asan"/tests/crc32_test
"$BUILD-asan"/tests/profile_test
"$BUILD-asan"/tests/server_test
"$BUILD-asan"/tests/table_test
"$BUILD-asan"/tests/exec_test
"$BUILD-asan"/tests/integration_test
"$BUILD-asan"/tests/paged_test
"$BUILD-asan"/tests/encoding_test
"$BUILD-asan"/tests/storage_test

echo "check.sh: all green"
