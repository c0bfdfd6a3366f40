#include "risk/trials.h"

#include "parallel/parallel_for.h"
#include "util/status.h"

namespace popp {

std::vector<double> CollectTrials(size_t num_trials, uint64_t seed,
                                  const std::function<double(Rng&)>& trial,
                                  const ExecPolicy& exec) {
  POPP_CHECK(num_trials > 0);
  // The master is never advanced: trial t derives the t-th indexed child
  // on demand, wherever (and on whichever thread) it happens to run.
  const Rng master(seed);
  std::vector<double> values(num_trials);
  ParallelFor(exec, num_trials, [&](size_t t) {
    Rng stream = master.Fork(static_cast<uint64_t>(t));
    values[t] = trial(stream);
  });
  return values;
}

double MedianOverTrials(size_t num_trials, uint64_t seed,
                        const std::function<double(Rng&)>& trial,
                        const ExecPolicy& exec) {
  return Median(CollectTrials(num_trials, seed, trial, exec));
}

Summary SummarizeTrials(size_t num_trials, uint64_t seed,
                        const std::function<double(Rng&)>& trial,
                        const ExecPolicy& exec) {
  return Summarize(CollectTrials(num_trials, seed, trial, exec));
}

}  // namespace popp
