#ifndef POPP_TESTS_TEMP_PATH_H_
#define POPP_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace popp {

/// `name` under the test temp directory, prefixed with the running test's
/// suite and name. ctest runs every test case in its own process, several
/// at once under `-j`, and `fault::AtomicFileWriter` stages each write
/// through `<path>.tmp`: two cases writing one name would truncate and
/// rename each other's files.
inline std::string TempPath(const std::string& name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string prefix = "popp_";
  if (info != nullptr) {
    prefix += std::string(info->test_suite_name()) + "." + info->name() + "_";
  }
  for (char& c : prefix) {  // parameterized names carry '/'
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
  }
  return ::testing::TempDir() + "/" + prefix + name;
}

}  // namespace popp

#endif  // POPP_TESTS_TEMP_PATH_H_
