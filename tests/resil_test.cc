#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "fault/file.h"
#include "resil/admission.h"
#include "resil/deadline.h"
#include "resil/heartbeat.h"
#include "resil/retry.h"
#include "resil/supervisor.h"
#include "temp_path.h"
#include "util/status.h"

/// \file
/// The resilience layer (src/resil): deterministic retry backoff,
/// deadlines, bounded admission control, heartbeats, and the forked-worker
/// supervisor. ResilSupervisor* tests fork(); sanitizer stages that cannot
/// host fork filter them with --gtest_filter=-*ResilSupervisor*.

namespace popp {
namespace {

using resil::AdmissionController;
using resil::AdmissionOptions;
using resil::BackoffOptions;
using resil::Deadline;
using resil::HeartbeatWriter;
using resil::RetryPolicy;
using resil::SupervisionReport;
using resil::SupervisorOptions;
using resil::WorkerTask;

// ----------------------------------------------------------- backoff --

TEST(ResilRetryTest, ScheduleIsDeterministicInTheSeed) {
  const RetryPolicy a(BackoffOptions{}, 97);
  const RetryPolicy b(BackoffOptions{}, 97);
  const RetryPolicy c(BackoffOptions{}, 98);
  bool any_differs = false;
  for (size_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(a.DelayMs(attempt), b.DelayMs(attempt)) << attempt;
    any_differs |= a.DelayMs(attempt) != c.DelayMs(attempt);
  }
  EXPECT_TRUE(any_differs) << "different seeds produced identical jitter";
}

TEST(ResilRetryTest, DelayIsOrderIndependent) {
  // DelayMs is a pure function of (seed, attempt): querying attempts out
  // of order, repeatedly, or interleaved must not change any value.
  const RetryPolicy policy(BackoffOptions{}, 12);
  const uint64_t d3 = policy.DelayMs(3);
  const uint64_t d0 = policy.DelayMs(0);
  EXPECT_EQ(policy.DelayMs(3), d3);
  EXPECT_EQ(policy.DelayMs(0), d0);
}

TEST(ResilRetryTest, CurveIsBoundedByJitteredBaseAndCap) {
  BackoffOptions options;
  options.base_ms = 100;
  options.cap_ms = 1000;
  options.multiplier = 2.0;
  options.jitter = 0.25;
  const RetryPolicy policy(options, 5);
  for (size_t attempt = 0; attempt < 12; ++attempt) {
    const uint64_t raw = std::min<uint64_t>(
        options.cap_ms, static_cast<uint64_t>(100 * (1ull << attempt)));
    const uint64_t delay = policy.DelayMs(attempt);
    EXPECT_GE(delay, static_cast<uint64_t>(raw * 0.75) - 1) << attempt;
    EXPECT_LE(delay, static_cast<uint64_t>(raw * 1.25) + 1) << attempt;
  }
}

TEST(ResilRetryTest, ZeroJitterIsTheExactCurveAndZeroBaseIsZero) {
  BackoffOptions exact;
  exact.base_ms = 50;
  exact.cap_ms = 400;
  exact.multiplier = 2.0;
  exact.jitter = 0.0;
  const RetryPolicy policy(exact, 1);
  EXPECT_EQ(policy.DelayMs(0), 50u);
  EXPECT_EQ(policy.DelayMs(1), 100u);
  EXPECT_EQ(policy.DelayMs(2), 200u);
  EXPECT_EQ(policy.DelayMs(3), 400u);
  EXPECT_EQ(policy.DelayMs(9), 400u);  // capped forever after

  BackoffOptions zero;
  zero.base_ms = 0;
  EXPECT_EQ(RetryPolicy(zero, 1).DelayMs(0), 0u);
}

// ---------------------------------------------------------- deadline --

TEST(ResilDeadlineTest, DefaultNeverExpires) {
  const Deadline none;
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.Expired());
  EXPECT_EQ(none.RemainingMs(), UINT64_MAX);
  EXPECT_FALSE(Deadline::None().Expired());
}

TEST(ResilDeadlineTest, AfterZeroIsAlreadyExpired) {
  const Deadline shed = Deadline::After(0);
  EXPECT_TRUE(shed.has_deadline());
  EXPECT_TRUE(shed.Expired());
  EXPECT_EQ(shed.RemainingMs(), 0u);
}

TEST(ResilDeadlineTest, ExpiresAfterItsWindow) {
  const Deadline d = Deadline::After(30);
  EXPECT_FALSE(d.Expired());
  EXPECT_LE(d.RemainingMs(), 30u);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMs(), 0u);
}

// --------------------------------------------------------- heartbeat --

TEST(ResilHeartbeatTest, BeatsGrowTheFileAndTruncateOnReopen) {
  const std::string path = TempPath("hb");
  resil::RemoveHeartbeatFile(path);
  EXPECT_EQ(resil::HeartbeatFileBytes(path), 0u);
  {
    HeartbeatWriter writer(path);
    ASSERT_TRUE(writer.enabled());
    writer.Beat();
    const uint64_t one = resil::HeartbeatFileBytes(path);
    EXPECT_GT(one, 0u);
    writer.Beat();
    EXPECT_GT(resil::HeartbeatFileBytes(path), one);
  }
  const uint64_t before = resil::HeartbeatFileBytes(path);
  // A restarted attempt truncates: the size *change* is the liveness
  // signal, so the watchdog re-baselines instead of waiting for the file
  // to outgrow its previous length.
  HeartbeatWriter restarted(path);
  restarted.Beat();
  EXPECT_LT(resil::HeartbeatFileBytes(path), before);
  resil::RemoveHeartbeatFile(path);
  EXPECT_EQ(resil::HeartbeatFileBytes(path), 0u);
}

TEST(ResilHeartbeatTest, EmptyPathAndUnwritablePathAreInert) {
  HeartbeatWriter disabled("");
  EXPECT_FALSE(disabled.enabled());
  disabled.Beat();  // must not crash
  HeartbeatWriter unwritable("/no/such/dir/for/popp.hb");
  EXPECT_FALSE(unwritable.enabled());
  unwritable.Beat();
}

// --------------------------------------------------------- admission --

TEST(ResilAdmissionTest, QueueFullShedsWithRetryAfterHint) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;  // no queue: the second request sheds immediately
  options.retry_after_ms = 123;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
  const Status shed = admission.Acquire("b", Deadline::None(), nullptr);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("overloaded"), std::string::npos);
  EXPECT_NE(shed.message().find("retry-after-ms 123"), std::string::npos);
  const auto snapshot = admission.Snapshot();
  EXPECT_EQ(snapshot.shed_queue_full, 1u);
  EXPECT_EQ(snapshot.inflight, 1u);
  admission.Release("a");
  EXPECT_EQ(admission.Snapshot().inflight, 0u);
  // The slot freed: the same request now admits directly.
  EXPECT_TRUE(admission.Acquire("b", Deadline::None(), nullptr).ok());
  admission.Release("b");
}

TEST(ResilAdmissionTest, QueuedWaiterIsGrantedOnRelease) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    ASSERT_TRUE(admission.Acquire("b", Deadline::None(), nullptr).ok());
    granted.store(true);
    admission.Release("b");
  });
  while (admission.Snapshot().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(granted.load());
  admission.Release("a");
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(admission.Snapshot().admitted, 2u);
}

TEST(ResilAdmissionTest, ExpiredDeadlineIsShedBeforeAdmission) {
  AdmissionController admission(AdmissionOptions{});
  const Status shed = admission.Acquire("a", Deadline::After(0), nullptr);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("deadline exceeded"), std::string::npos);
  EXPECT_EQ(admission.Snapshot().shed_deadline, 1u);
  EXPECT_EQ(admission.Snapshot().inflight, 0u);
}

TEST(ResilAdmissionTest, DeadlineExpiryWhileQueuedShedsWithoutExecuting) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
  const Status shed =
      admission.Acquire("b", Deadline::After(40), nullptr);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("while queued"), std::string::npos);
  // The shed waiter left no debris: queue empty, slot math intact.
  const auto snapshot = admission.Snapshot();
  EXPECT_EQ(snapshot.queued, 0u);
  EXPECT_EQ(snapshot.inflight, 1u);
  admission.Release("a");
  EXPECT_TRUE(admission.Acquire("c", Deadline::None(), nullptr).ok());
  admission.Release("c");
}

TEST(ResilAdmissionTest, TenantCapDoesNotStarveOtherTenants) {
  AdmissionOptions options;
  options.max_inflight = 2;
  options.max_queue = 4;
  options.per_tenant_inflight = 1;
  AdmissionController admission(options);
  // Tenant a saturates its cap with one running request and one queued.
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
  std::atomic<bool> a_backlog_granted{false};
  std::thread backlog([&] {
    ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
    a_backlog_granted.store(true);
    admission.Release("a");
  });
  while (admission.Snapshot().queued == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Tenant b arrives *behind* a's backlog, but the second global slot is
  // grantable only to b — the grant scan must skip the capped waiter.
  ASSERT_TRUE(admission.Acquire("b", Deadline::None(), nullptr).ok());
  EXPECT_FALSE(a_backlog_granted.load());
  EXPECT_EQ(admission.Snapshot().inflight, 2u);
  admission.Release("b");
  admission.Release("a");  // frees a's cap; the backlog drains
  backlog.join();
  EXPECT_TRUE(a_backlog_granted.load());
}

TEST(ResilAdmissionTest, StopFlagDrainsImmediatelyAndWhileQueued) {
  AdmissionOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  AdmissionController admission(options);
  std::atomic<bool> stop{true};
  const Status drained = admission.Acquire("a", Deadline::None(), &stop);
  ASSERT_FALSE(drained.ok());
  EXPECT_EQ(drained.code(), StatusCode::kFailedPrecondition);

  stop.store(false);
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), &stop).ok());
  std::thread raiser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    stop.store(true);
  });
  const Status queued = admission.Acquire("b", Deadline::None(), &stop);
  raiser.join();
  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(admission.Snapshot().queued, 0u);
}

TEST(ResilAdmissionTest, RenderStatsSpeaksTheHealthVocabulary) {
  AdmissionOptions options;
  options.max_inflight = 3;
  options.max_queue = 7;
  options.per_tenant_inflight = 2;
  AdmissionController admission(options);
  ASSERT_TRUE(admission.Acquire("a", Deadline::None(), nullptr).ok());
  const std::string stats = admission.RenderStats();
  EXPECT_NE(stats.find("inflight 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("admitted 1\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("max-inflight 3\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("max-queue 7\n"), std::string::npos) << stats;
  EXPECT_NE(stats.find("tenant-cap 2\n"), std::string::npos) << stats;
  admission.Release("a");
}

// -------------------------------------------------------- supervisor --
// (ResilSupervisor* suites fork(); keep them out of TSan stages.)

SupervisorOptions FastSupervisor(uint64_t deadline_ms = 0) {
  SupervisorOptions options;
  options.worker_deadline_ms = deadline_ms;
  options.max_restarts = 2;
  options.backoff.base_ms = 5;
  options.backoff.cap_ms = 20;
  options.backoff.jitter = 0.0;
  options.poll_ms = 5;
  return options;
}

resil::ExitDecoder PlainDecoder() {
  return [](const WorkerTask& task, int exit_code) {
    return Status::IoError(task.name + " failed (exit " +
                           std::to_string(exit_code) + ")");
  };
}

TEST(ResilSupervisorTest, AllWorkersSucceeding) {
  std::vector<WorkerTask> tasks;
  for (int k = 0; k < 3; ++k) {
    tasks.push_back({"worker " + std::to_string(k), "",
                     [](size_t) { return 0; }});
  }
  SupervisionReport report;
  const Status status =
      resil::RunSupervised(FastSupervisor(), tasks, PlainDecoder(), &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.worker_restarts, 0u);
  EXPECT_EQ(report.workers_killed, 0u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ResilSupervisorTest, FailingAttemptIsRestartedWithTheAttemptNumber) {
  // The worker fails until a marker file exists, creating it on attempt 1
  // — proving the restart happened *and* that the attempt number
  // propagates into the child body (the journal-resume hook).
  const std::string marker = TempPath("restart_marker");
  ::unlink(marker.c_str());
  std::vector<WorkerTask> tasks{{"flaky worker", "", [&](size_t attempt) {
    if (attempt == 0) return 7;
    (void)fault::WriteFileAtomic(marker, "attempt " +
                                             std::to_string(attempt));
    return 0;
  }}};
  SupervisionReport report;
  const Status status =
      resil::RunSupervised(FastSupervisor(), tasks, PlainDecoder(), &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.worker_restarts, 1u);
  auto seen = fault::ReadFileToString(marker);
  ASSERT_TRUE(seen.ok());
  EXPECT_EQ(seen.value(), "attempt 1");
  ::unlink(marker.c_str());
}

TEST(ResilSupervisorTest, ExhaustedRestartsQuarantineWithTheHistory) {
  std::vector<WorkerTask> tasks{
      {"doomed worker", "", [](size_t) { return 3; }}};
  SupervisionReport report;
  const Status status =
      resil::RunSupervised(FastSupervisor(), tasks, PlainDecoder(), &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);  // the decoder's taxonomy
  EXPECT_NE(status.message().find("doomed worker"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("quarantined after 3 failed attempts"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("attempt 0"), std::string::npos);
  EXPECT_NE(status.message().find("attempt 2"), std::string::npos);
  EXPECT_EQ(report.worker_restarts, 2u);
  EXPECT_EQ(report.quarantined, 1u);
}

TEST(ResilSupervisorTest, SingleFailureWithoutRestartBudgetIsVerbatim) {
  // max_restarts 0: the lone failure surfaces as the decoder's Status,
  // not wrapped in quarantine prose (the shard pipeline's existing error
  // contract depends on this).
  SupervisorOptions options = FastSupervisor();
  options.max_restarts = 0;
  std::vector<WorkerTask> tasks{
      {"fragile worker", "", [](size_t) { return 4; }}};
  SupervisionReport report;
  const Status status =
      resil::RunSupervised(options, tasks, PlainDecoder(), &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "fragile worker failed (exit 4)");
  EXPECT_EQ(report.quarantined, 1u);
}

/// Decodes exit 2 as invalid input, the CLI taxonomy's exit code for it,
/// and every other code as an I/O error.
resil::ExitDecoder TaxonomyDecoder() {
  return [](const WorkerTask& task, int exit_code) {
    if (exit_code == 2) {
      return Status::InvalidArgument(task.name + " failed (invalid input)");
    }
    return Status::IoError(task.name + " failed (exit " +
                           std::to_string(exit_code) + ")");
  };
}

/// Appends one line per attempt to `path`, from inside the forked child.
void LogAttempt(const std::string& path, size_t attempt) {
  std::ofstream(path, std::ios::app) << "attempt " << attempt << "\n";
}

TEST(ResilSupervisorTest, InvalidInputRunsOnceAndIsNotRestarted) {
  // Every attempt would reject the same input, so exit 2 is final: one
  // run, no backoff, no quarantine, the decoded status verbatim.
  const std::string log = TempPath("attempts");
  ::unlink(log.c_str());
  std::vector<WorkerTask> tasks{{"picky worker", "", [&](size_t attempt) {
    LogAttempt(log, attempt);
    return 2;
  }}};
  SupervisionReport report;
  const Status status = resil::RunSupervised(FastSupervisor(), tasks,
                                             TaxonomyDecoder(), &report);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "picky worker failed (invalid input)");
  EXPECT_EQ(report.worker_restarts, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  auto runs = fault::ReadFileToString(log);
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs.value(), "attempt 0\n");
  ::unlink(log.c_str());
}

TEST(ResilSupervisorTest, InvalidInputAfterARestartEndsWithTheHistory) {
  // A crash is restarted; the restart's invalid input is then final, and
  // the failure names both attempts.
  std::vector<WorkerTask> tasks{{"late worker", "", [](size_t attempt) {
    return attempt == 0 ? 7 : 2;
  }}};
  SupervisionReport report;
  const Status status = resil::RunSupervised(FastSupervisor(), tasks,
                                             TaxonomyDecoder(), &report);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(),
            "late worker failed after 2 failed attempts (attempt 0: "
            "IO_ERROR: late worker failed (exit 7); attempt 1: "
            "INVALID_ARGUMENT: late worker failed (invalid input))");
  EXPECT_EQ(report.worker_restarts, 1u);
  EXPECT_EQ(report.quarantined, 0u);
}

TEST(ResilSupervisorTest, WatchdogKillsASilentWorkerAndRestartsIt) {
  // Attempt 0 beats once then sleeps far past the deadline; the watchdog
  // must SIGKILL it. Attempt 1 finishes promptly — the run succeeds.
  const std::string hb = TempPath("watchdog.hb");
  std::vector<WorkerTask> tasks{{"sleepy worker", hb, [&](size_t attempt) {
    HeartbeatWriter writer(hb);
    writer.Beat();
    if (attempt == 0) {
      std::this_thread::sleep_for(std::chrono::seconds(30));
    }
    return 0;
  }}};
  SupervisionReport report;
  const auto start = std::chrono::steady_clock::now();
  const Status status = resil::RunSupervised(FastSupervisor(/*deadline=*/150),
                                             tasks, PlainDecoder(), &report);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(report.workers_killed, 1u);
  EXPECT_EQ(report.worker_restarts, 1u);
  EXPECT_LT(elapsed.count(), 10000) << "the watchdog did not cut the hang";
  // The heartbeat file is removed once the task settles.
  EXPECT_EQ(resil::HeartbeatFileBytes(hb), 0u);
  struct stat sb;
  EXPECT_NE(::stat(hb.c_str(), &sb), 0);
}

TEST(ResilSupervisorTest, HungWorkerWithNoBudgetIsUnavailable) {
  SupervisorOptions options = FastSupervisor(/*deadline=*/100);
  options.max_restarts = 0;
  const std::string hb = TempPath("hang.hb");
  std::vector<WorkerTask> tasks{{"stuck worker", hb, [&](size_t) {
    HeartbeatWriter writer(hb);
    writer.Beat();
    std::this_thread::sleep_for(std::chrono::seconds(30));
    return 0;
  }}};
  SupervisionReport report;
  const Status status =
      resil::RunSupervised(options, tasks, PlainDecoder(), &report);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_NE(status.message().find("stuck worker"), std::string::npos);
  EXPECT_EQ(report.workers_killed, 1u);
}

}  // namespace
}  // namespace popp
