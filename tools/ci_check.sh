#!/usr/bin/env bash
# CI gate: sanitized builds, full test suite, and bounded fuzz runs.
#
# Usage: tools/ci_check.sh [build-dir]
#
# A cheap first stage checks the committed benchmark results: README.md,
# DESIGN.md and EXPERIMENTS.md may cite only a BENCH_*.json that git
# tracks, and every tracked BENCH_*.json must record its host. Stage 1
# builds with ASan+UBSan (POPP_SANITIZE=address,undefined), runs
# ctest, re-runs the file-writing suites (Cli, Shard, Stream, Cols,
# Fault, Resil) in parallel three times so a temp file two test cases
# share fails the gate instead of flaking, then hammers the invariant
# oracles — including stream_vs_batch,
# the streamed-release == batch-release contract — with a bounded
# popp_check run. Both sanitizer stages also run the release_injective
# oracle: the batch, two-pass stream and prefix-keyed --key-in releases
# (reject and extend-piece) must map no two distinct originals of an
# attribute to one released value, or refuse the release. Stage 2
# rebuilds with TSan (POPP_SANITIZE=thread) and runs the parallel
# execution layer's tests, the streaming release tests (the OodPolicy*
# suites drive --key-in style releases under a prefix-fitted plan), the
# compiled-kernel tests, the frontier tree builder's stress battery
# (which sweeps 1/2/3/7/8-thread builds against the serial bytes) with
# the frontier_vs_resort oracle (the frontier engine at 1-8 threads
# against the serial kResort reference), and the parallel_determinism +
# stream_vs_batch + compiled_vs_interpreted oracles, which exercise every
# ThreadPool/ParallelFor path under real concurrency. Both stages also run the shard_vs_stream oracle plus the
# sharded-release test battery (fork-based worker suites only under ASan
# — TSan cannot host fork()), the serve_vs_cli oracle and the
# popp-serve test battery (byte-identity, tenant isolation, malformed
# frames, kill-mid-request crash schedules), and a final smoke stage
# round-trips a real popp-serve process against `popp encode` (the
# daemon runs one request at a time, and its CSV request and `health`
# are answered while three idle connections stay open; the
# popp-cols request cold, on its own tenant; the CSV request and its
# reply are over 1 MiB each, so frames cross between the two processes
# in partial gather writes and stepped reads), sends it an encode with an
# `inf` cell in each framing, a risk request with zero trials, a decode
# whose tree splits on an attribute the data lacks and a header-only CSV
# as an encode and as a verify (each must be refused by name), and a risk
# request on a constant column (which must succeed), while the daemon
# keeps answering `health`, then drains it to exit 0; a bad --format to
# `popp encode` and --threads 0 to popp-serve must each exit 2. Both
# stages also run the supervised_convergence oracle — randomized
# crash/error/delay schedules over the shard pipeline and the admission-
# controlled daemon, under a hard wall-clock timeout so an undetected
# hang fails the gate instead of stalling it — plus the resilience-layer
# test battery (retry/deadline/admission, the worker watchdog, the
# startup debris sweep and the hang-injection fail points). Both
# sanitizer builds tune for the host (POPP_NATIVE), so on an x86-64 host
# with PCLMULQDQ they run CRC-64's carry-less-multiply kernel; a third,
# unsanitized POPP_NATIVE=OFF build runs the CRC-64 tests and the
# checksum-guarded suites (popp-cols, serve frames, manifests, goldens,
# stream resume, shard release) on the slice-by-8 loop that such a build
# uses for inputs of every length. The last stage builds the release
# benchmark (perfbench/) against this checkout and runs its tiny
# self-check, so a library change that breaks the benchmark fails here
# instead of at the next benchmark run. Any
# failure — test, sanitizer report, oracle, benchmark self-check, or
# timeout — fails the script.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-ci}"
tsan_build_dir="${build_dir}-tsan"

echo "== committed benchmark results: cited files tracked, hosts recorded =="
# A performance figure in the docs must rest on a committed result that
# says where it was measured. A result file records a "host" object at
# its top level, or in each entry of its "results" list.
(cd "$repo_root" && python3 - <<'PY'
import json, re, subprocess, sys

tracked = subprocess.run(["git", "ls-files", "BENCH_*.json"], check=True,
                         stdout=subprocess.PIPE, text=True).stdout.split()
problems = []
for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
    with open(doc) as f:
        for name in sorted(set(re.findall(r"BENCH_\w+\.json", f.read()))):
            if name not in tracked:
                problems.append(doc + " cites " + name +
                                ", which git does not track")
for name in tracked:
    with open(name) as f:
        data = json.load(f)
    entries = data.get("results") or [data]
    if not isinstance(data.get("host"), dict) and not all(
            isinstance(e.get("host"), dict) for e in entries):
        problems.append(name + " records no \"host\" object")
for problem in problems:
    print(problem)
sys.exit(1 if problems else 0)
PY
)

echo "== configure (ASan+UBSan) =="
cmake -B "$build_dir" -S "$repo_root" \
  -DPOPP_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build =="
cmake --build "$build_dir" -j "$(nproc)"

echo "== ctest =="
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"

echo "== file-writing suites, in parallel, three times =="
# Every test case runs in its own process; these suites write files, so
# two cases that share a temp name race under -j. Repeating them in
# parallel turns such a race into a failure here instead of a flake.
ctest --test-dir "$build_dir" --output-on-failure \
  -R '^(Cli|Shard|Stream|Cols|Fault|Resil)' -j "$(nproc)" \
  --repeat until-fail:3

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

echo "== release_injective oracle under ASan (bounded) =="
# The no-collision contract on every path that can emit a release: batch,
# two-pass stream, and a prefix-fitted --key-in plan under reject and
# extend-piece (which may only refuse with OUT_OF_RANGE).
"$build_dir/tools/popp_check" --oracle release_injective \
  --trials 100 --seed 23 --out "$build_dir"

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

echo "== configure (portable: POPP_NATIVE=OFF, no sanitizer) =="
# Without -march=native CRC-64 has no carry-less-multiply kernel and
# hashes long inputs with the slice-by-8 loop; every checksum, golden
# and container byte must come out the same.
portable_build_dir="${build_dir}-portable"
cmake -B "$portable_build_dir" -S "$repo_root" \
  -DPOPP_NATIVE=OFF -DPOPP_SANITIZE= \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo

echo "== build (portable) =="
cmake --build "$portable_build_dir" -j "$(nproc)" --target popp_tests

echo "== CRC-64 and checksum-guarded tests on the slice-by-8 path =="
"$portable_build_dir/tests/popp_tests" \
  --gtest_filter='Crc64*:Cols*:ServeProtocol*:ColsServeEncode*:Manifest*:MetaManifest*:SerializeGolden*:StreamResume*:ShardRelease*'

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

echo "== release_injective oracle under TSan (bounded) =="
"$tsan_build_dir/tools/popp_check" --oracle release_injective \
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
# while TSan watches the per-connection threads, then the oracle replays the
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
# Start a real popp-serve process with one request slot (--threads 1)
# and hold three connections to it open and silent: every connection has
# its own thread, so `health` and the CSV encode below must each be
# answered within their timeouts. Push a CSV and a cols-framed encode
# through `popp serve-client` (the cols one first on tenant `cols`, so it
# takes the cold path that fits the plan) and byte-compare both against
# `popp encode`. At 80,000 rows the CSV request is 1.4 MB and its reply
# 4.8 MB, far over one socket buffer, so each frame leaves in many
# partial gather writes and arrives in stepped reads, under ASan on both
# sides. Then send six bad requests (an encode with an `inf` cell as
# CSV and as popp-cols, a risk report with zero trials, a decode whose
# tree splits on attribute index 4 of 3-attribute data, a header-only CSV
# as an encode to a fresh tenant and as a verify), each refused by name,
# and a risk report on a constant column, which must succeed, while the
# daemon still answers `health` (one-shot `popp encode` refuses the
# header-only CSV too, and a bad --format with exit 2 before it opens the
# missing input; popp-serve --threads 0 exits 2 without a socket), then
# shut the daemon down and verify it drained (exit 0) and removed its
# socket.
cmake --build "$build_dir" -j "$(nproc)" --target popp_serve popp_cli
serve_dir="$build_dir/serve-e2e"
rm -rf "$serve_dir" && mkdir -p "$serve_dir"
awk 'BEGIN {
  srand(3); print "u,v,w,class";
  for (i = 0; i < 80000; i++)
    printf "%d,%.3f,%.3f,%s\n", int(rand()*80), rand()*20, rand()*5,
           (rand() < 0.5 ? "p" : "q");
}' > "$serve_dir/data.csv"
"$build_dir/tools/popp" convert "$serve_dir/data.csv" \
  "$serve_dir/data.cols"
"$build_dir/tools/popp" encode "$serve_dir/data.csv" \
  "$serve_dir/oneshot.csv" "$serve_dir/oneshot.key" --seed 21 --policy bp
sock="$serve_dir/popp.sock"
"$build_dir/tools/popp-serve" "$sock" --threads 1 &
serve_pid=$!
for _ in $(seq 50); do [ -S "$sock" ] && break; sleep 0.1; done
python3 -c '
import socket, sys, time
held = [socket.socket(socket.AF_UNIX) for _ in range(3)]
for s in held:
    s.connect(sys.argv[1])
print("held", flush=True)
time.sleep(300)
' "$sock" > "$serve_dir/held.out" &
holder_pid=$!
for _ in $(seq 50); do grep -qs held "$serve_dir/held.out" && break; sleep 0.1; done
timeout 10 "$build_dir/tools/popp" serve-client "$sock" health
timeout 120 "$build_dir/tools/popp" serve-client "$sock" encode \
  "$serve_dir/data.csv" "$serve_dir/served.csv" --seed 21 --policy bp
cmp "$serve_dir/oneshot.csv" "$serve_dir/served.csv"
kill "$holder_pid"
wait "$holder_pid" || true
"$build_dir/tools/popp" serve-client "$sock" encode \
  "$serve_dir/data.cols" "$serve_dir/served.cols" --seed 21 --policy bp \
  --tenant cols
"$build_dir/tools/popp" convert "$serve_dir/served.cols" \
  "$serve_dir/served_from_cols.csv"
cmp "$serve_dir/oneshot.csv" "$serve_dir/served_from_cols.csv"
# refused MESSAGE ARGS...: `popp ARGS` must fail, naming MESSAGE; its
# exit code is left in $refused_exit.
refused() {
  local message="$1"
  shift
  refused_exit=0
  "$build_dir/tools/popp" "$@" 2> "$serve_dir/refused.err" || refused_exit=$?
  if [ "$refused_exit" = 0 ]; then
    echo "popp $* succeeded; expected a refusal naming: $message"; exit 1
  fi
  grep -qF -- "$message" "$serve_dir/refused.err" || {
    echo "popp $* was refused without naming '$message':"
    cat "$serve_dir/refused.err"; exit 1
  }
}
printf 'u,v,w,class\n1,2,3,p\n4,inf,6,q\n' > "$serve_dir/inf.csv"
"$build_dir/tools/popp" convert "$serve_dir/inf.csv" "$serve_dir/inf.cols"
printf 'popp-tree v1\nsplit 4 0.5 hist 0\nleaf 0 hist 0\nleaf 1 hist 0\n' \
  > "$serve_dir/wide.tree"
refused "attribute 'v' = inf" serve-client "$sock" encode \
  "$serve_dir/inf.csv" "$serve_dir/inf_out.csv"
refused "attribute 'v' = inf" serve-client "$sock" encode \
  "$serve_dir/inf.cols" "$serve_dir/inf_out.cols"
refused "'trials' must be >= 1" serve-client "$sock" risk \
  "$serve_dir/data.csv" --trials 0
refused "splits on attribute index 4" serve-client "$sock" decode \
  "$serve_dir/wide.tree" "$serve_dir/data.csv" "$serve_dir/wide_out.tree"
printf 'u,v,w,class\n' > "$serve_dir/empty.csv"
printf 'u,v,class\n1,7,p\n2,7,q\n3,7,p\n4,7,q\n' > "$serve_dir/constant.csv"
refused "no data rows" serve-client "$sock" encode "$serve_dir/empty.csv" \
  "$serve_dir/empty_out.csv" --tenant empty
refused "no data rows" serve-client "$sock" verify "$serve_dir/empty.csv"
"$build_dir/tools/popp" serve-client "$sock" risk "$serve_dir/constant.csv" \
  --trials 3 > "$serve_dir/constant.risk"
refused "no data rows" encode "$serve_dir/empty.csv" \
  "$serve_dir/empty_out.csv" "$serve_dir/empty_out.key"
# A bad flag value is a usage error named before any file is opened.
refused "--format" encode "$serve_dir/missing.csv" o k --format bogus
[ "$refused_exit" = 2 ] || {
  echo "a bad --format exited $refused_exit, not 2"; exit 1
}
bad_exit=0
"$build_dir/tools/popp-serve" "$serve_dir/bad.sock" --threads 0 || bad_exit=$?
[ "$bad_exit" = 2 ] && [ ! -e "$serve_dir/bad.sock" ] || {
  echo "popp-serve --threads 0 exited $bad_exit or left its socket"; exit 1
}
"$build_dir/tools/popp" serve-client "$sock" health
"$build_dir/tools/popp" serve-client "$sock" shutdown
wait "$serve_pid"
[ ! -e "$sock" ] || { echo "daemon left its socket behind"; exit 1; }

echo "== release benchmark: build + tiny self-check =="
# perfbench links the library and calls shard::CountRows,
# ChunkReader::SkipRows, the StreamStats/ShardStats fields, PlanKey::Make,
# the one-argument ResumableCsvChunkWriter, the serve codec (EncodeFrame,
# DecodeFrame, RequestBody and ReplyBody's Encode and Decode, and
# ReplyBody::Ok) and ServeClient::Call. The self-check builds it
# from this checkout into .bench_build/ and runs every workload on tiny
# inputs, untraced and traced, checking every metric and the output
# bytes (about 90 s).
(cd "$repo_root" && python3 perfbench/selfcheck.py)

echo "ci_check: all gates passed"
