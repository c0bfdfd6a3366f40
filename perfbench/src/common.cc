#include "common.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
         1e-6 * (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Samples(const std::string& name,
                    const std::vector<double>& values) {
  std::string out = name + ":";
  for (const double v : values) out += " " + Num(v);
  return out;
}

std::string HostJson(const RunConfig& config) {
  std::ostringstream out;
  out << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"popp_native\": " << JsonString(PERFBENCH_POPP_NATIVE)
      << ", \"march_native\": " << JsonString(PERFBENCH_MARCH_NATIVE)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
      << ", \"compiler\": " << JsonString(__VERSION__)
      << ", \"commit\": " << JsonString(EnvOr("PERFBENCH_COMMIT", "unknown"))
      << ", \"source_digest\": "
      << JsonString(EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown"))
      << ", \"workload\": " << JsonString(config.workload)
      << ", \"seed\": " << config.seed << ", \"seconds\": "
      << Num(config.seconds) << ", \"trace\": " << (config.trace ? 1 : 0)
      << ", \"tiny\": " << (config.tiny ? 1 : 0) << "}";
  return out.str();
}

pid_t Spawn(const std::vector<std::string>& argv,
            const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid != 0) return pid;
  const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
  }
  execv(args[0], args.data());
  _exit(127);
}

int WaitChild(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

double PeakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0;
}

bool WriteKeyValues(const std::string& path, const KeyValues& values) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& [key, value] : values) out << key << ' ' << Num(value) << '\n';
  return static_cast<bool>(out);
}

KeyValues ReadKeyValues(const std::string& path) {
  KeyValues values;
  std::ifstream in(path);
  std::string key;
  double value = 0;
  while (in >> key >> value) values[key] = value;
  return values;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream oss;
  oss << in.rdbuf();
  *out = std::move(oss).str();
  return true;
}

std::string OutcomeJson(const Outcome& outcome) {
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out << ", ";
    out << JsonString(m.name) << ": {\"value\": " << Num(m.value)
        << ", \"unit\": " << JsonString(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
