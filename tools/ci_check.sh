#!/usr/bin/env bash
# CI gate: sanitized builds, full test suite, and bounded fuzz runs.
#
# Usage: tools/ci_check.sh [build-dir]
#
# Stage 1 builds with ASan+UBSan (POPP_SANITIZE=address,undefined), runs
# ctest, then hammers the invariant oracles — including stream_vs_batch,
# the streamed-release == batch-release contract — with a bounded
# popp_check run. Stage 2 rebuilds with TSan (POPP_SANITIZE=thread) and
# runs the parallel execution layer's tests, the streaming release tests,
# the compiled-kernel tests, the frontier tree builder's stress battery
# (which sweeps 1/2/3/7/8-thread builds against the serial bytes) with
# the frontier_vs_resort oracle (the frontier engine at 1-8 threads
# against the serial kResort reference), and the parallel_determinism +
# stream_vs_batch + compiled_vs_interpreted oracles, which exercise every
# ThreadPool/ParallelFor path under real concurrency. Both stages also run the shard_vs_stream oracle plus the
# sharded-release test battery (fork-based worker suites only under ASan
# — TSan cannot host fork()), the serve_vs_cli oracle and the
# popp-serve test battery (byte-identity, tenant isolation, malformed
# frames, kill-mid-request crash schedules), and a final smoke stage
# round-trips a real popp-serve process against `popp encode`. Both
# stages also run the supervised_convergence oracle — randomized
# crash/error/delay schedules over the shard pipeline and the admission-
# controlled daemon, under a hard wall-clock timeout so an undetected
# hang fails the gate instead of stalling it — plus the resilience-layer
# test battery (retry/deadline/admission, the worker watchdog, the
# startup debris sweep and the hang-injection fail points). Any
# failure — test, sanitizer report, oracle, or timeout — fails the
# script.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
tsan_build_dir="${build_dir}-tsan"

echo "== configure (ASan+UBSan) =="
cmake -B "$build_dir" -S "$repo_root" \
  -DPOPP_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build =="
cmake --build "$build_dir" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== popp_check (bounded) =="
"$build_dir/tools/popp_check" --trials 200 --seed 7 --out "$build_dir"

echo "== fault injection: crash-safety oracle + corrupt corpus under ASan =="
# The fault_crash_safety oracle proves the atomic-rename + journal
# contract under randomized injected errors, torn writes and simulated
# kills; the corrupt-corpus and fault-layer tests pin the integrity
# diagnostics. Both run under ASan so leaked handles or buffer slips in
# the error paths fail the gate too.
"$build_dir/tools/popp_check" --oracle fault_crash_safety \
  --trials 25 --seed 11 --out "$build_dir"
"$build_dir/tests/popp_tests" \
  --gtest_filter='FailPoint*:FaultFile*:Manifest*:FaultCrashSafety*:SerializeGolden.Corrupt*:SerializeGolden.Legacy*:SerializeGolden.Cols*:Cols*'

echo "== cols_vs_csv oracle under ASan (bounded) =="
# The interchange-format contract: CSV -> popp-cols -> CSV is the
# identity, and a release fed from either format is byte-identical.
"$build_dir/tools/popp_check" --oracle cols_vs_csv \
  --trials 50 --seed 13 --out "$build_dir"

echo "== serve_vs_cli oracle + serving tests under ASan =="
# The serving contract: daemon-served encodes must be byte-identical to
# the one-shot CLI at 1/2/7 request threads in both framings, repeat
# requests must hit the plan cache, tenants stay isolated, and the
# kill-daemon-mid-request schedules (faults injected into the server-side
# SavePlan) must never leave a partial key. The test battery adds the
# malformed-frame, lifecycle and LRU-eviction cases.
"$build_dir/tools/popp_check" --oracle serve_vs_cli \
  --trials 10 --seed 17 --out "$build_dir"
"$build_dir/tests/popp_tests" \
  --gtest_filter='ServeProtocol*:PlanCache*:WorkspaceRegistry*:ServeEndToEnd*:ServeLifecycle*:CliServe*'

echo "== shard_vs_stream oracle + sharded-release tests under ASan =="
# The sharded-release contract: concatenated shard files are byte-identical
# to the single-process stream-release at every shard count, thread count
# and input format; the merge tree is order-robust; a published
# meta-manifest always verifies; randomized kill schedules either surface
# an error or leave a fully correct release, and --resume converges to the
# same bytes. ShardProcess*/CliShardProcess* fork real worker processes —
# fine under ASan, excluded from the TSan stage below.
"$build_dir/tools/popp_check" --oracle shard_vs_stream \
  --trials 10 --seed 19 --out "$build_dir"
"$build_dir/tests/popp_tests" \
  --gtest_filter='SplitRows*:CountRows*:RangeChunkReader*:SkipRows*:SummaryCodec*:MergeProperty*:ShardRelease*:ShardResume*:ShardProcess*:ShardOracle*:MetaManifest*:CliTest.Shard*:CliTest.VerifyManifest*:CliShardProcess*:CliBasicsTest.Shard*'

echo "== supervised_convergence oracle + resilience tests under ASan =="
# The supervision/overload contract: randomized crash/error/delay
# schedules over both execution backends must converge byte-identically
# or fail loudly — never hang, never leave debris. 40 trials x (3 shard
# + 3 serve) schedules = 240 randomized schedules. The hard timeout is
# the hang detector of last resort: a supervision bug that deadlocks the
# oracle fails the gate here instead of wedging CI. The battery adds the
# deterministic cases: backoff/deadline/admission units, watchdog kills
# and quarantine (fork-based, ASan only), queue-full shedding, the
# debris sweep, and the delay fail-point semantics.
timeout 900 "$build_dir/tools/popp_check" --oracle supervised_convergence \
  --trials 40 --seed 29 --out "$build_dir"
"$build_dir/tests/popp_tests" \
  --gtest_filter='ResilRetry*:ResilDeadline*:ResilHeartbeat*:ResilAdmission*:ResilSupervisor*:ServeAdmission*:ShardSweep*:ShardProcessSupervision*:FailPointDelay*'

echo "== configure (TSan) =="
cmake -B "$tsan_build_dir" -S "$repo_root" \
  -DPOPP_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build (TSan) =="
cmake --build "$tsan_build_dir" -j "$(nproc)" --target popp_tests popp_check

echo "== parallel + streaming tests under TSan =="
"$tsan_build_dir/tests/popp_tests" \
  --gtest_filter='ThreadPool*:ParallelFor*:ParallelEquality*:TrialStream*:StreamRelease*:OodPolicy*:IncrementalSummary*:ChunkIo*:Cols*:Compiled*'

echo "== frontier builder stress battery under TSan (1/2/3/7/8 threads) =="
# The builder tests byte-compare every parallel build — including the
# tie-saturated adversarial inputs and the columnar-partition internals —
# against the serial tree, so a TSan-visible race OR a scheduling-order
# dependence in the frontier engine (frontier scans, subtree solver,
# side-mask marking) fails here. Each stress case sweeps 1/2/3/7/8
# worker threads; the frontier_vs_resort oracle then builds each fuzz
# case's tree with the frontier engine at a case-derived 1-8 threads and
# byte-compares it with the serial kResort reference on both sides of
# the release.
"$tsan_build_dir/tests/popp_tests" \
  --gtest_filter='BuilderParallel*:BuilderEdge*:ColumnarPartitions*'
"$tsan_build_dir/tools/popp_check" --oracle frontier_vs_resort \
  --trials 50 --seed 7 --out "$tsan_build_dir"

echo "== stream resume under TSan (kill-point sweep + --resume at 7 threads) =="
# The resume sweep re-runs the multi-threaded encode on top of the
# journal recovery path; the CLI pass drives the same machinery end to
# end with --threads 7 and verifies the resumed artifact byte-for-byte.
"$tsan_build_dir/tests/popp_tests" --gtest_filter='StreamResume*'
cmake --build "$tsan_build_dir" -j "$(nproc)" --target popp_cli
resume_dir="$tsan_build_dir/resume-e2e"
mkdir -p "$resume_dir"
awk 'BEGIN {
  srand(5); print "x,y,z,class";
  for (i = 0; i < 2000; i++)
    printf "%d,%d,%.3f,%s\n", int(rand()*100), int(rand()*50), rand()*10,
           (rand() < 0.5 ? "a" : "b");
}' > "$resume_dir/data.csv"
"$tsan_build_dir/tools/popp" stream-release "$resume_dir/data.csv" \
  "$resume_dir/plain.csv" "$resume_dir/plain.key" \
  --seed 9 --chunk-rows 101 --threads 7
"$tsan_build_dir/tools/popp" stream-release "$resume_dir/data.csv" \
  "$resume_dir/resumed.csv" "$resume_dir/resumed.key" \
  --seed 9 --chunk-rows 101 --threads 7 --resume
cmp "$resume_dir/plain.csv" "$resume_dir/resumed.csv"
cmp "$resume_dir/plain.key" "$resume_dir/resumed.key"

echo "== parallel_determinism oracle under TSan (bounded) =="
"$tsan_build_dir/tools/popp_check" --oracle parallel_determinism \
  --trials 25 --seed 7 --out "$tsan_build_dir"

echo "== stream_vs_batch oracle under TSan (bounded) =="
"$tsan_build_dir/tools/popp_check" --oracle stream_vs_batch \
  --trials 25 --seed 7 --out "$tsan_build_dir"

echo "== compiled_vs_interpreted oracle under TSan (bounded) =="
"$tsan_build_dir/tools/popp_check" --oracle compiled_vs_interpreted \
  --trials 25 --seed 7 --out "$tsan_build_dir"

echo "== cols_vs_csv oracle under TSan (bounded) =="
"$tsan_build_dir/tools/popp_check" --oracle cols_vs_csv \
  --trials 25 --seed 7 --out "$tsan_build_dir"

echo "== shard_vs_stream oracle + sharded-release tests under TSan =="
# Thread-mode shard workers under real concurrency: the summarize/encode
# ThreadPool fan-out, the failpoint layer's shared counters, and the
# resume path all run with TSan watching. The fork-based ShardProcess*
# suites are excluded — TSan cannot host fork()ed children.
"$tsan_build_dir/tools/popp_check" --oracle shard_vs_stream \
  --trials 8 --seed 19 --out "$tsan_build_dir"
"$tsan_build_dir/tests/popp_tests" \
  --gtest_filter='SplitRows*:CountRows*:RangeChunkReader*:SkipRows*:SummaryCodec*:MergeProperty*:ShardRelease*:ShardResume*:ShardOracle*:MetaManifest*:CliTest.Shard*:CliTest.VerifyManifest*:-*ShardProcess*'

echo "== serve_vs_cli oracle + concurrent serving tests under TSan =="
# The daemon's accept loop, per-tenant locking and drain path under real
# concurrency: four tenants hammer one daemon from four client threads
# while TSan watches the ThreadPool handoffs, then the oracle replays the
# byte-identity + crash-schedule sweep.
"$tsan_build_dir/tools/popp_check" --oracle serve_vs_cli \
  --trials 8 --seed 7 --out "$tsan_build_dir"
"$tsan_build_dir/tests/popp_tests" \
  --gtest_filter='ServeEndToEnd*:ServeLifecycle*:ServeProtocol*'

echo "== supervised_convergence oracle + resilience tests under TSan =="
# The same contract with TSan watching the admission controller's
# cv/grant hand-offs, the daemon's deadline checks and the thread-mode
# shard pipeline under injected delays. 35 trials x 6 schedules = 210
# randomized schedules. The fork-based ResilSupervisor* and
# ShardProcessSupervision* suites are excluded — TSan cannot host fork().
timeout 900 "$tsan_build_dir/tools/popp_check" \
  --oracle supervised_convergence --trials 35 --seed 29 \
  --out "$tsan_build_dir"
"$tsan_build_dir/tests/popp_tests" \
  --gtest_filter='ResilRetry*:ResilDeadline*:ResilHeartbeat*:ResilAdmission*:ServeAdmission*:ShardSweep*:FailPointDelay*'

echo "== serve smoke: daemon round trip vs one-shot CLI =="
# Start a real popp-serve process, push one cols-framed encode through
# `popp serve-client`, byte-compare against `popp encode`, then shut the
# daemon down and verify it drained (exit 0) and removed its socket.
cmake --build "$build_dir" -j "$(nproc)" --target popp_serve popp_cli
serve_dir="$build_dir/serve-e2e"
rm -rf "$serve_dir" && mkdir -p "$serve_dir"
awk 'BEGIN {
  srand(3); print "u,v,w,class";
  for (i = 0; i < 1500; i++)
    printf "%d,%.3f,%.3f,%s\n", int(rand()*80), rand()*20, rand()*5,
           (rand() < 0.5 ? "p" : "q");
}' > "$serve_dir/data.csv"
"$build_dir/tools/popp" convert "$serve_dir/data.csv" \
  "$serve_dir/data.cols"
"$build_dir/tools/popp" encode "$serve_dir/data.csv" \
  "$serve_dir/oneshot.csv" "$serve_dir/oneshot.key" --seed 21 --policy bp
sock="$serve_dir/popp.sock"
"$build_dir/tools/popp-serve" "$sock" --threads 2 &
serve_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
"$build_dir/tools/popp" serve-client "$sock" encode \
  "$serve_dir/data.csv" "$serve_dir/served.csv" --seed 21 --policy bp
cmp "$serve_dir/oneshot.csv" "$serve_dir/served.csv"
"$build_dir/tools/popp" serve-client "$sock" encode \
  "$serve_dir/data.cols" "$serve_dir/served.cols" --seed 21 --policy bp
"$build_dir/tools/popp" convert "$serve_dir/served.cols" \
  "$serve_dir/served_from_cols.csv"
cmp "$serve_dir/oneshot.csv" "$serve_dir/served_from_cols.csv"
"$build_dir/tools/popp" serve-client "$sock" shutdown
wait "$serve_pid"
[ ! -e "$sock" ] || { echo "daemon left its socket behind"; exit 1; }

echo "ci_check: all gates passed"
