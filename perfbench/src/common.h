#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file
/// Shared plumbing of the release benchmark: the run configuration, clocks
/// and quantiles, child processes, small key/value result files, and the
/// final JSON result line.

namespace perfbench {

/// One benchmark invocation (`perfbench run ...`).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs for the self-check: every workload finishes in seconds.
  bool tiny = false;
  /// Path of this executable (release children re-exec it).
  std::string self_path;
  /// Path of the popp-serve daemon built from the same sources.
  std::string serve_path;
};

/// Monotonic seconds since an arbitrary process-local epoch.
double Now();

/// Process CPU seconds (user + system) of this process so far.
double ProcessCpuSeconds();

/// Quantile by linear interpolation between order statistics (the
/// definition numpy and Python's statistics module call "inclusive").
/// Returns 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

/// "name: v1 v2 ..." for the report lines.
std::string Samples(const std::string& name, const std::vector<double>& values);

/// The host, build and input facts every result records.
std::string HostJson(const RunConfig& config);

/// Starts `argv` as a child with stdout and stderr appended to `log_path`.
/// Returns the pid, or -1 when the fork fails.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path);

/// Waits for a child; returns its exit code, -1 when a signal ended it.
int WaitChild(pid_t pid);

/// Peak RSS (VmHWM) of a live process ("self" or a pid) in MB. Unlike
/// ru_maxrss it covers only the current program image: a child forked from
/// a large parent does not inherit the parent's footprint across exec.
double PeakRssMb(const std::string& pid);

/// Flat "key value" result files exchanged with release children.
using KeyValues = std::map<std::string, double>;
bool WriteKeyValues(const std::string& path, const KeyValues& values);
KeyValues ReadKeyValues(const std::string& path);

/// Whole-file read; returns false when the file cannot be read.
bool ReadFile(const std::string& path, std::string* out);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The final result line the benchmark contract requires.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};
std::string OutcomeJson(const Outcome& outcome);

/// Full-precision JSON number.
std::string Num(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
