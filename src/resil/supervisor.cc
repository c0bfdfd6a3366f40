#include "resil/supervisor.h"

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include "resil/heartbeat.h"
#include "util/rng.h"

namespace popp::resil {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t MsSince(Clock::time_point then) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            then)
          .count());
}

enum class TaskState { kRunning, kBackoff, kDone };

struct TaskRuntime {
  const WorkerTask* task = nullptr;
  TaskState state = TaskState::kRunning;
  pid_t pid = -1;
  size_t attempt = 0;
  bool killed_by_watchdog = false;
  uint64_t stalled_ms = 0;
  // Watchdog baseline: any change in heartbeat-file size counts as
  // progress; the spawn itself counts as the first beat.
  uint64_t last_hb_bytes = 0;
  Clock::time_point last_progress{};
  Clock::time_point restart_at{};
  RetryPolicy policy;
  std::vector<std::string> history;
  Status final_status;
};

/// Forks the child for one attempt. Returns false (with a synthetic
/// failure recorded by the caller) if fork itself failed.
bool Spawn(TaskRuntime& rt) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    ::_exit(rt.task->run(rt.attempt));
  }
  rt.pid = pid;
  rt.state = TaskState::kRunning;
  rt.killed_by_watchdog = false;
  rt.last_hb_bytes = HeartbeatFileBytes(rt.task->heartbeat_path);
  rt.last_progress = Clock::now();
  return true;
}

std::string JoinHistory(const std::vector<std::string>& history) {
  std::string out;
  for (size_t i = 0; i < history.size(); ++i) {
    if (i > 0) out += "; ";
    out += history[i];
  }
  return out;
}

/// Records one failed attempt and either schedules a restart or settles
/// the task: at once on invalid input, which every attempt would meet
/// again, otherwise with its quarantine diagnostic once the restarts are
/// spent.
void HandleFailure(const SupervisorOptions& options, TaskRuntime& rt,
                   const Status& failure, SupervisionReport* report) {
  std::ostringstream entry;
  entry << "attempt " << rt.attempt << ": " << failure.ToString();
  rt.history.push_back(entry.str());
  const bool bad_input = failure.code() == StatusCode::kInvalidArgument;
  if (!bad_input && rt.attempt < options.max_restarts) {
    rt.state = TaskState::kBackoff;
    rt.restart_at = Clock::now() + std::chrono::milliseconds(
                                       rt.policy.DelayMs(rt.attempt));
    return;
  }
  rt.state = TaskState::kDone;
  if (!bad_input && report != nullptr) ++report->quarantined;
  if (rt.history.size() == 1) {
    // A lone failure (bad input, or no restart budget) surfaces verbatim.
    rt.final_status = failure;
    return;
  }
  std::ostringstream oss;
  oss << rt.task->name << (bad_input ? " failed" : " quarantined")
      << " after " << rt.history.size() << " failed attempts ("
      << JoinHistory(rt.history) << ")";
  rt.final_status = Status(failure.code(), oss.str());
}

}  // namespace

Status RunSupervised(const SupervisorOptions& options,
                     const std::vector<WorkerTask>& tasks,
                     const ExitDecoder& decode, SupervisionReport* report) {
  std::vector<TaskRuntime> runtime(tasks.size());
  Rng seeder(options.seed);
  for (size_t k = 0; k < tasks.size(); ++k) {
    TaskRuntime& rt = runtime[k];
    rt.task = &tasks[k];
    rt.policy = RetryPolicy(options.backoff, seeder.Fork(k).Next());
    if (!Spawn(rt)) {
      HandleFailure(options, rt,
                    Status::Internal(tasks[k].name + ": fork failed"), report);
    }
  }

  bool all_done = false;
  while (!all_done) {
    all_done = true;
    for (TaskRuntime& rt : runtime) {
      if (rt.state == TaskState::kDone) continue;
      all_done = false;

      if (rt.state == TaskState::kBackoff) {
        if (Clock::now() < rt.restart_at) continue;
        ++rt.attempt;
        if (report != nullptr) ++report->worker_restarts;
        if (!Spawn(rt)) {
          HandleFailure(options, rt,
                        Status::Internal(rt.task->name + ": fork failed"),
                        report);
        }
        continue;
      }

      // kRunning: reap if exited, else watchdog-check.
      int wstatus = 0;
      const pid_t got = ::waitpid(rt.pid, &wstatus, WNOHANG);
      if (got == rt.pid) {
        if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) {
          rt.state = TaskState::kDone;
          rt.final_status = Status::Ok();
        } else if (rt.killed_by_watchdog) {
          std::ostringstream oss;
          oss << rt.task->name << " hung: no heartbeat for " << rt.stalled_ms
              << " ms (deadline " << options.worker_deadline_ms
              << " ms); killed by watchdog";
          HandleFailure(options, rt, Status::Unavailable(oss.str()), report);
        } else if (WIFEXITED(wstatus)) {
          HandleFailure(options, rt, decode(*rt.task, WEXITSTATUS(wstatus)),
                        report);
        } else {
          std::ostringstream oss;
          oss << rt.task->name << " terminated by signal "
              << (WIFSIGNALED(wstatus) ? WTERMSIG(wstatus) : 0);
          HandleFailure(options, rt, Status::Internal(oss.str()), report);
        }
        if (rt.state == TaskState::kDone) {
          RemoveHeartbeatFile(rt.task->heartbeat_path);
        }
        continue;
      }

      // Still running: a heartbeat-file size change is progress.
      if (options.worker_deadline_ms == 0 || rt.task->heartbeat_path.empty() ||
          rt.killed_by_watchdog) {
        continue;
      }
      const uint64_t bytes = HeartbeatFileBytes(rt.task->heartbeat_path);
      if (bytes != rt.last_hb_bytes) {
        rt.last_hb_bytes = bytes;
        rt.last_progress = Clock::now();
        continue;
      }
      const uint64_t silent_ms = MsSince(rt.last_progress);
      if (silent_ms > options.worker_deadline_ms) {
        rt.killed_by_watchdog = true;
        rt.stalled_ms = silent_ms;
        if (report != nullptr) ++report->workers_killed;
        ::kill(rt.pid, SIGKILL);
        // The next poll reaps the corpse and routes it to HandleFailure.
      }
    }
    if (!all_done) {
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  }

  for (const TaskRuntime& rt : runtime) {
    if (!rt.final_status.ok()) return rt.final_status;
  }
  return Status::Ok();
}

}  // namespace popp::resil
