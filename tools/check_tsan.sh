#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer (VSIM_SANITIZE=thread) and runs
# the concurrency-sensitive suites: the query-service stress test, the
# snapshot-swap-under-load stress suite (online reindex: 8 clients vs
# concurrent SwapSnapshot/Rebuilder publications), the thread pool, the
# sharded result cache, the parallel extraction path, and the TCP
# serving front-end on its epoll reactor (loopback server smoke, 300
# concurrent connections, hostile-client suite, snapshot swaps under
# live remote load), the
# observability layer's lock-free record paths (metrics registry under
# concurrent scrapes, the span ring's recent and slow seqlock rings
# under concurrent writers, the SIGPROF sampling profiler's
# handler-vs-collector ring, the Chrome trace exporter over snapshots,
# the cross-layer trace-propagation pipeline, IoStats counters), the
# pruned refinement path (flat matching core, multi-step prune, M-tree
# duplicate splits, engine-vs-plain equivalence on RAM and disk
# snapshots, the leaf-order store layout and the page-order scan), and
# the concurrent storage stack (sharded buffer pool stress/tiering,
# SharedMutex, PagedFile positioned I/O, the vector-set store's
# id-carrying records and their corrupt-file cases, disk-backed serving
# end-to-end). Any data race aborts with a non-zero
# exit.
#
# Usage: tools/check_tsan.sh [build-dir]
#   default: $VSIM_BUILD_ROOT/build-tsan (shared build-dir convention
#   with tools/ci.sh and tools/check_static.sh, so pipeline runs reuse
#   this incremental build instead of reconfiguring from scratch)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-${VSIM_BUILD_ROOT:-.}/build-tsan}"

cmake -B "$BUILD_DIR" -S . -DVSIM_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)" --target vsim_tests

# detect_deadlocks=1 turns on TSan's own lock-order inversion detector
# (second_deadlock_stack=1 reports both acquisition sites, mirroring
# the in-process detector behind VSIM_DEADLOCK_DETECT), so the race
# suite also fails on AB/BA cycles that never happened to collide.
# TryLockDoesNotEstablishOrder is excluded: it deliberately reverses
# the order of a pair whose first acquisition was a TryLock. A try-lock
# cannot block, so no deadlock is possible (the in-process detector
# models this), but TSan's order graph does not distinguish try-lock
# edges and reports the reversal as an inversion.
TSAN_OPTIONS="halt_on_error=1:detect_deadlocks=1:second_deadlock_stack=1" \
    "$BUILD_DIR/tests/vsim_tests" \
    --gtest_filter='QueryService*:SnapshotSwap*:ThreadPool*:ResultCache*:ParallelExtraction*:*NetServerTest*:*NetHostileTest*:*RemoteSwapTest*:*TracePipeline*:Obs*:FlightRecorderTest.*:Span*:Profiler*:TraceExport*:IoStatsConcurrency*:CachePool*:DiskServing*:SharedMutex*:PagedFile*:DeadlockDetector*:Kernel*:MultiStepPrune*:FlatMatching*:MTreeDuplicates*:RefinementEquivalence*:BitExactOracle*:ScanBaseline*:VectorSetStore*:CorruptFile*:-DeadlockDetectorTest.TryLockDoesNotEstablishOrder'

echo "TSan: service stress + snapshot-swap + net server + observability + storage stack + deadlock-detector suites clean"
