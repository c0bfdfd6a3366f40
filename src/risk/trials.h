#ifndef POPP_RISK_TRIALS_H_
#define POPP_RISK_TRIALS_H_

#include <functional>
#include <vector>

#include "parallel/exec_policy.h"
#include "util/rng.h"
#include "util/stats.h"

/// \file
/// Multi-trial harness: the paper reports each disclosure figure as the
/// median over 500 random trials (Section 6.1). Trial t always draws from
/// the t-th indexed child stream of the master seed (Rng::Fork(t)), so a
/// trial's outcome depends on nothing but (seed, t): not on the trial
/// count, not on the order trials run in, and not on the thread count.

namespace popp {

/// Runs `trial` `num_trials` times with independent RNG streams seeded
/// from `seed`, under `exec` (serial by default); returns the collected
/// values, bit-identical for every thread count. When run in parallel,
/// `trial` must be safe to invoke concurrently (the usual pattern —
/// capturing only const references to shared inputs — is).
std::vector<double> CollectTrials(size_t num_trials, uint64_t seed,
                                  const std::function<double(Rng&)>& trial,
                                  const ExecPolicy& exec = {});

/// Median over the trials.
double MedianOverTrials(size_t num_trials, uint64_t seed,
                        const std::function<double(Rng&)>& trial,
                        const ExecPolicy& exec = {});

/// Full distribution summary over the trials.
Summary SummarizeTrials(size_t num_trials, uint64_t seed,
                        const std::function<double(Rng&)>& trial,
                        const ExecPolicy& exec = {});

}  // namespace popp

#endif  // POPP_RISK_TRIALS_H_
