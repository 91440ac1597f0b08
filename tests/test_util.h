#ifndef GORDER_TESTS_TEST_UTIL_H_
#define GORDER_TESTS_TEST_UTIL_H_

// The one temp-directory helper of the test suites. ctest runs every
// test case as its own process, and `ctest -j` runs them concurrently,
// so a fixed name under the temp directory is shared by all of them:
// one case's cleanup deletes the files another case is still using.
// ScopedTempDir names its directory after the pid, a per-process
// counter and the running test, and removes it on destruction.
// The tier-1 CI job rejects temp_directory_path and testing::TempDir
// anywhere else under tests/.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <system_error>

namespace gorder {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    static std::atomic<int> counter{0};
    std::string name = "gorder_" + std::to_string(::getpid()) + "_" +
                       std::to_string(counter++);
    if (const auto* info =
            ::testing::UnitTest::GetInstance()->current_test_info()) {
      name += std::string("_") + info->test_suite_name() + "_" + info->name();
    }
    for (char& c : name) {
      if (c == '/' || c == '\\') c = '_';
    }
    path_ = std::filesystem::temp_directory_path() / name;
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // debris of a recycled pid
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::filesystem::path& path() const { return path_; }

  /// `name` inside the directory (nothing is created).
  std::string Path(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace gorder

#endif  // GORDER_TESTS_TEST_UTIL_H_
