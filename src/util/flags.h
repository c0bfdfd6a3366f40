#ifndef POPP_UTIL_FLAGS_H_
#define POPP_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

/// \file
/// The command-line parser `popp` and popp-serve share. A flag is written
/// `--name value` or `--name=value`; every other argument is positional.
/// Each flag a program takes has a rule, and the parser applies every rule
/// before the program runs, so a bad value is refused, naming its flag,
/// before any file is opened: a switch takes no value, a number must be a
/// whole unsigned decimal (ParseDecimalU64) within the rule's bounds, and
/// a text value must pass the rule's check (for a choice flag, the
/// library's own parse function).

namespace popp {

/// How one flag reads its value.
struct FlagRule {
  enum class Kind { kSwitch, kNumber, kText };
  std::string name;  ///< without the leading "--"
  Kind kind = Kind::kNumber;
  uint64_t min = 0;           ///< kNumber: the smallest value accepted
  uint64_t max = UINT64_MAX;  ///< kNumber: the largest value accepted
  /// kText: refuses a bad value, saying why; null accepts any text.
  Status (*check)(std::string_view value) = nullptr;
};

FlagRule SwitchFlag(std::string name);
FlagRule NumberFlag(std::string name, uint64_t min = 0,
                    uint64_t max = UINT64_MAX);
FlagRule TextFlag(std::string name,
                  Status (*check)(std::string_view) = nullptr);

/// A command line split into positional arguments and checked flags.
struct ParsedFlags {
  std::vector<std::string> positional;
  std::map<std::string, std::string> values;  ///< name -> value ("" if switch)

  bool Has(const std::string& name) const { return values.count(name) > 0; }
  /// A number flag's value, or `fallback` if it is absent.
  uint64_t Number(const std::string& name, uint64_t fallback) const;
  /// A text flag's value, or `fallback` if it is absent.
  std::string Text(const std::string& name,
                   const std::string& fallback = "") const;
};

/// Parses `args` under `rules`. An unknown flag (refused with a pointer to
/// `help`), a switch given a value, a missing value, or a value its rule
/// refuses is an kInvalidArgument whose message names the flag.
Result<ParsedFlags> ParseFlags(const std::vector<std::string>& args,
                               const std::vector<FlagRule>& rules,
                               std::string_view help);

}  // namespace popp

#endif  // POPP_UTIL_FLAGS_H_
