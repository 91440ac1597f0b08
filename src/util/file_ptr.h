#ifndef GORDER_UTIL_FILE_PTR_H_
#define GORDER_UTIL_FILE_PTR_H_

#include <cstdio>
#include <memory>

namespace gorder::util {

/// Owning std::FILE* handle, closed on destruction. Writers check
/// util::FlushAndSync before letting it close.
struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

}  // namespace gorder::util

#endif  // GORDER_UTIL_FILE_PTR_H_
