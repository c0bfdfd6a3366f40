#include "util/flags.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/decimal.h"

namespace popp {

FlagRule SwitchFlag(std::string name) {
  return {std::move(name), FlagRule::Kind::kSwitch};
}

FlagRule NumberFlag(std::string name, uint64_t min, uint64_t max) {
  return {std::move(name), FlagRule::Kind::kNumber, min, max};
}

FlagRule TextFlag(std::string name, Status (*check)(std::string_view)) {
  return {std::move(name), FlagRule::Kind::kText, 0, UINT64_MAX, check};
}

uint64_t ParsedFlags::Number(const std::string& name,
                             uint64_t fallback) const {
  auto it = values.find(name);
  uint64_t value = fallback;
  if (it != values.end()) ParseDecimalU64(it->second, &value);
  return value;
}

std::string ParsedFlags::Text(const std::string& name,
                              const std::string& fallback) const {
  auto it = values.find(name);
  return it != values.end() ? it->second : fallback;
}

Result<ParsedFlags> ParseFlags(const std::vector<std::string>& args,
                               const std::vector<FlagRule>& rules,
                               std::string_view help) {
  ParsedFlags parsed;
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      parsed.positional.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> value;
    const size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    const auto rule =
        std::find_if(rules.begin(), rules.end(),
                     [&](const FlagRule& r) { return r.name == name; });
    const auto fail = [&](const std::string& what) {
      return Status::InvalidArgument("--" + name + what);
    };
    if (rule == rules.end()) {
      return Status::InvalidArgument("unknown flag --" + name + " (see " +
                                     std::string(help) + ")");
    }
    if (rule->kind == FlagRule::Kind::kSwitch) {
      if (value) return fail(" takes no value");
      parsed.values[name];
      continue;
    }
    if (!value) {
      if (i + 1 == args.size()) return fail(" needs a value");
      value = args[++i];
    }
    if (rule->kind == FlagRule::Kind::kText) {
      if (rule->check != nullptr) {
        const Status checked = rule->check(*value);
        if (!checked.ok()) return fail(": " + checked.message());
      }
    } else {
      uint64_t number = 0;
      if (!ParseDecimalU64(*value, &number)) {
        return fail(" needs an unsigned decimal integer, got '" + *value +
                    "'");
      }
      if (number < rule->min || number > rule->max) {
        return fail(" must be " +
                    (rule->max == UINT64_MAX
                         ? ">= " + std::to_string(rule->min)
                         : "in " + std::to_string(rule->min) + "-" +
                               std::to_string(rule->max)) +
                    ", got " + *value);
      }
    }
    parsed.values[name] = *value;
  }
  return parsed;
}

}  // namespace popp
