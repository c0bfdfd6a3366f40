// Randomized invariant checker: run N seeded trials of random datasets and
// transform/builder configurations through the oracle suite, print a
// per-oracle pass/fail table, and shrink + persist the first failure as a
// CSV + recipe reproducer. See `popp_check --help`.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "check/runner.h"
#include "util/decimal.h"

namespace {

constexpr const char* kUsage = R"(usage: popp_check [options]

Runs seeded randomized trials of the popp invariant oracles (listed
below) and prints a pass/fail table. On the first failure the case is
shrunk to a minimal reproducer and written as
<out>/popp_check_repro.{csv,recipe}.

options:
  --trials N          number of random trials (default 200)
  --seed S            run seed (default 1)
  --time-budget-ms M  stop starting new trials after M ms (default: none)
  --oracle NAME       run only the named oracle
  --max-rows N        cap generated dataset rows (default 200)
  --max-attrs N       cap generated dataset attributes (default 4)
  --out DIR           directory for reproducer files (default .)
  --no-shrink         report failures without shrinking
  --replay FILE       re-run the oracle recorded in a reproducer recipe
  --help              this text

exit status: 0 all oracles passed, 1 a failure was found (or a replayed
recipe still fails), 2 bad usage.

oracles:)";

/// Every oracle's name, each after a space.
std::string OracleNames() {
  std::string names;
  for (const auto& oracle : popp::check::AllOracles()) {
    names += " " + oracle.name;
  }
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  popp::check::CheckOptions options;
  std::string replay_path;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string* {
      return i + 1 < args.size() ? &args[++i] : nullptr;
    };
    uint64_t n = 0;
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage << OracleNames() << "\n";
      return 0;
    } else if (arg == "--trials") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &n) || n == 0) {
        std::cerr << "popp_check: --trials needs a positive integer\n";
        return 2;
      }
      options.trials = static_cast<size_t>(n);
    } else if (arg == "--seed") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &n)) {
        std::cerr << "popp_check: --seed needs an integer\n";
        return 2;
      }
      options.seed = n;
    } else if (arg == "--time-budget-ms") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &n)) {
        std::cerr << "popp_check: --time-budget-ms needs an integer\n";
        return 2;
      }
      options.time_budget_ms = n;
    } else if (arg == "--oracle") {
      const std::string* v = value();
      if (!v) {
        std::cerr << "popp_check: --oracle needs a name\n";
        return 2;
      }
      bool known = false;
      for (const auto& oracle : popp::check::AllOracles()) {
        known = known || oracle.name == *v;
      }
      if (!known) {
        std::cerr << "popp_check: no oracle named '" << *v
                  << "' (have:" << OracleNames() << ")\n";
        return 2;
      }
      options.only_oracle = *v;
    } else if (arg == "--max-rows") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &n) || n == 0) {
        std::cerr << "popp_check: --max-rows needs a positive integer\n";
        return 2;
      }
      options.generator.max_rows = static_cast<size_t>(n);
      options.generator.min_rows =
          std::min(options.generator.min_rows, options.generator.max_rows);
    } else if (arg == "--max-attrs") {
      const std::string* v = value();
      if (!v || !popp::ParseDecimalU64(*v, &n) || n == 0) {
        std::cerr << "popp_check: --max-attrs needs a positive integer\n";
        return 2;
      }
      options.generator.max_attributes = static_cast<size_t>(n);
      options.generator.min_attributes = std::min(
          options.generator.min_attributes, options.generator.max_attributes);
    } else if (arg == "--out") {
      const std::string* v = value();
      if (!v) {
        std::cerr << "popp_check: --out needs a directory\n";
        return 2;
      }
      options.out_dir = *v;
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--replay") {
      const std::string* v = value();
      if (!v) {
        std::cerr << "popp_check: --replay needs a recipe file\n";
        return 2;
      }
      replay_path = *v;
    } else {
      std::cerr << "popp_check: unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }

  if (!replay_path.empty()) {
    auto result = popp::check::ReplayRecipe(replay_path, std::cerr);
    if (!result.ok()) {
      std::cerr << "popp_check: " << result.status().ToString() << "\n";
      return 2;
    }
    if (result.value().passed) {
      std::cout << "replay: PASS (the recorded failure no longer occurs)\n";
      return 0;
    }
    std::cout << "replay: FAIL — " << result.value().message << "\n";
    return 1;
  }

  const popp::check::CheckReport report =
      popp::check::RunChecks(options, std::cerr);
  std::cout << popp::check::RenderReport(report);
  if (!report.reproducer_recipe.empty()) {
    std::cout << "reproducer: " << report.reproducer_csv << " ("
              << report.reproducer_rows << " rows), replay with\n  popp_check"
              << " --replay " << report.reproducer_recipe << "\n";
  }
  return report.AllPassed() ? 0 : 1;
}
