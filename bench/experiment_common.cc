#include "experiment_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "attack/sorting_attack.h"
#include "data/csv.h"
#include "transform/serialize.h"
#include "util/decimal.h"
#include "util/status.h"

namespace popp::bench {
namespace {

/// The value of environment variable `name`, or `fallback` when it is
/// unset. Anything but a whole unsigned decimal (the rule every popp flag
/// follows), or 0 where `positive`, exits 2 naming the variable.
uint64_t EnvNumber(const char* name, uint64_t fallback, bool positive) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  uint64_t parsed = 0;
  if (!ParseDecimalU64(value, &parsed) || (positive && parsed == 0)) {
    std::fprintf(stderr, "%s='%s' must be an unsigned decimal integer%s\n",
                 name, value, positive ? " >= 1" : "");
    std::exit(2);
  }
  return parsed;
}

}  // namespace

ExperimentEnv GetEnv() {
  ExperimentEnv env;
  env.rows = EnvNumber("POPP_ROWS", env.rows, /*positive=*/true);
  env.trials = EnvNumber("POPP_TRIALS", env.trials, /*positive=*/true);
  env.seed = EnvNumber("POPP_SEED", env.seed, /*positive=*/false);
  return env;
}

void PrintBanner(const std::string& name, const ExperimentEnv& env) {
  std::printf("\n################ %s ################\n", name.c_str());
  std::printf(
      "# rows=%zu trials=%zu seed=%llu   (override with POPP_ROWS / "
      "POPP_TRIALS / POPP_SEED;\n#  paper scale: POPP_ROWS=581012 "
      "POPP_TRIALS=500)\n\n",
      env.rows, env.trials, static_cast<unsigned long long>(env.seed));
}

Dataset LoadCovtype(const ExperimentEnv& env) {
  Rng rng(env.seed);
  return GenerateCovtypeLike(DefaultCovtypeSpec(env.rows), rng);
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

uint64_t ReleaseChecksum(const TransformPlan& plan,
                         std::string_view released_csv) {
  return Fnv1a(SerializePlan(plan), Fnv1a(released_csv));
}

uint64_t BatchReleaseChecksum(const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  const TransformPlan plan =
      TransformPlan::Create(data, PiecewiseOptions{}, rng);
  return ReleaseChecksum(plan, ToCsvString(plan.EncodeDataset(data)));
}

std::string HostJson() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      model = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  }
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + model + "\"}";
}

PiecewiseOptions PaperTransform(BreakpointPolicy policy) {
  PiecewiseOptions options;
  options.policy = policy;
  options.min_breakpoints = 20;
  options.min_mono_width = 2;
  options.family.forced_shape = FamilyOptions::ShapeChoice::kSqrtLog;
  return options;
}

KnowledgeOptions PaperKnowledge(HackerProfile profile,
                                double radius_fraction) {
  KnowledgeOptions options;
  options.num_good = GoodKpCount(profile);
  options.num_bad = 0;
  options.radius_fraction = radius_fraction;
  return options;
}

SortingCrack::SortingCrack(const AttributeSummary& original,
                           const PiecewiseTransform& transform) {
  POPP_CHECK(!original.empty());
  released_sorted_.reserve(original.NumDistinct());
  for (AttrValue v : original.values()) {
    released_sorted_.push_back(transform.Apply(v));
  }
  std::sort(released_sorted_.begin(), released_sorted_.end());
  guesses_ = SortingAttackGuesses(released_sorted_.size(),
                                  original.MinValue(), original.MaxValue());
}

AttrValue SortingCrack::Guess(AttrValue released) const {
  auto it = std::lower_bound(released_sorted_.begin(),
                             released_sorted_.end(), released);
  size_t rank;
  if (it == released_sorted_.end()) {
    rank = released_sorted_.size() - 1;
  } else if (it == released_sorted_.begin()) {
    rank = 0;
  } else {
    // Nearest released value (the hacker only ever sees released values,
    // but Guess must be total).
    const size_t hi = static_cast<size_t>(it - released_sorted_.begin());
    rank = (released - released_sorted_[hi - 1]) <=
                   (released_sorted_[hi] - released)
               ? hi - 1
               : hi;
  }
  return guesses_[rank];
}

}  // namespace popp::bench
