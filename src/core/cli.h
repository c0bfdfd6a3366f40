#ifndef POPP_CORE_CLI_H_
#define POPP_CORE_CLI_H_

#include <ostream>
#include <string>
#include <vector>

/// \file
/// The `popp` command-line tool, implemented as a library function so the
/// full workflow is unit-testable. Its subcommands mirror the custodian
/// (encode, stream-release, shard-release, decode, verify, report, harden,
/// convert) and provider (mine) roles, plus serve-client for a running
/// popp-serve; `popp help` lists each with its arguments, flags and exit
/// codes. Every flag value is checked before a command runs (util/flags.h).

namespace popp {

/// Runs the CLI. `args` excludes the program name. Returns the process
/// exit code; human-readable output goes to `out`, errors to `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace popp

#endif  // POPP_CORE_CLI_H_
