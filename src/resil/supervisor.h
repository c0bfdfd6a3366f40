#ifndef POPP_RESIL_SUPERVISOR_H_
#define POPP_RESIL_SUPERVISOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resil/retry.h"
#include "util/status.h"

/// \file
/// Supervised execution of forked worker processes.
///
/// `RunSupervised` forks one child per task, then polls the whole set with
/// `waitpid(WNOHANG)` while running a heartbeat watchdog: a worker whose
/// `.hb` file stops changing for longer than `worker_deadline_ms` is
/// presumed hung, SIGKILLed, and treated like any other failed attempt. A
/// failed attempt (non-zero exit, fatal signal, or watchdog kill) is
/// retried with deterministic exponential backoff (`RetryPolicy`, seeded
/// per task from the supervisor seed) until `max_restarts` restarts are
/// exhausted, at which point the task is quarantined and the run fails
/// with a diagnostic naming the task and its complete failure history.
///
/// One failure is final at once: an exit the decoder maps to
/// kInvalidArgument (the CLI taxonomy's exit 2, invalid input). A worker
/// that rejects its input rejects it again on every attempt, so it is
/// neither restarted nor counted as quarantined; the run fails with that
/// status (with the earlier attempts' history, if there were any).
///
/// The contract the shard pipeline relies on: `run(attempt)` is invoked in
/// the child with the 0-based attempt number, so a restarted encode worker
/// can switch itself into journal-resume mode and only redo missing
/// chunks. The coordinator must be effectively single-threaded when this
/// is called (fork does not mix with live thread pools) — the same
/// restriction the unsupervised fork path always had.

namespace popp::resil {

struct SupervisorOptions {
  /// Max wall-clock ms a worker may go without heartbeat-file change
  /// before the watchdog kills it. 0 disables the watchdog (crash
  /// detection and restarts still work). Tasks with no heartbeat path are
  /// never killed.
  uint64_t worker_deadline_ms = 30000;
  /// Restarts per task after the initial attempt; 0 means fail fast.
  /// Invalid-input failures are never restarted.
  size_t max_restarts = 2;
  /// Backoff between a failed attempt and its restart.
  BackoffOptions backoff{};
  /// Seeds the per-task jitter streams (task k uses a child seed forked
  /// from this), so a supervised run's restart timing replays exactly.
  uint64_t seed = 1;
  /// Poll interval of the waitpid/watchdog loop.
  uint64_t poll_ms = 10;
};

/// One supervised unit of work, executed in a forked child.
struct WorkerTask {
  /// Diagnostic name, e.g. "shard 3 encode worker".
  std::string name;
  /// Heartbeat file this worker appends to; empty disables the watchdog
  /// for this task.
  std::string heartbeat_path;
  /// Child body: runs in the forked process, returns the exit code
  /// (`_exit`ed verbatim). `attempt` is 0 on the first try.
  std::function<int(size_t attempt)> run;
};

/// Aggregate counters for stats surfaces (ShardStats, logs).
struct SupervisionReport {
  size_t workers_killed = 0;    ///< watchdog SIGKILLs
  size_t worker_restarts = 0;   ///< respawns after a failed attempt
  size_t quarantined = 0;       ///< tasks that exhausted their restarts
};

/// Maps a worker's raw exit code to the Status it encodes. Watchdog kills
/// and fatal signals never reach the decoder — the supervisor classifies
/// those itself (kUnavailable for a hang, kInternal for a stray signal).
using ExitDecoder = std::function<Status(const WorkerTask&, int exit_code)>;

/// Runs every task to completion under supervision. Returns OK iff every
/// task eventually exited 0; otherwise the first failed task's final
/// status (the quarantine diagnostic when restarts were exhausted).
Status RunSupervised(const SupervisorOptions& options,
                     const std::vector<WorkerTask>& tasks,
                     const ExitDecoder& decode, SupervisionReport* report);

}  // namespace popp::resil

#endif  // POPP_RESIL_SUPERVISOR_H_
