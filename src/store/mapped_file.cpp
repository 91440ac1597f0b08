#include "store/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "util/failpoint.h"

namespace gorder::store {

namespace {
GORDER_FAILPOINT_DEFINE(fp_map_open, "store.map.open");
GORDER_FAILPOINT_DEFINE(fp_map_stat, "store.map.stat");
GORDER_FAILPOINT_DEFINE(fp_map_mmap, "store.map.mmap");
}  // namespace

IoResult MappedFile::Map(const std::string& path,
                         std::shared_ptr<MappedFile>* out) {
  auto file = std::shared_ptr<MappedFile>(new MappedFile());
  if (GORDER_FAILPOINT(fp_map_open) != util::FaultKind::kNone) {
    return IoResult::Error("cannot open " + path);
  }
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return IoResult::Error("cannot open " + path);
  struct stat st;
  if (GORDER_FAILPOINT(fp_map_stat) != util::FaultKind::kNone ||
      ::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return IoResult::Error("cannot stat " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* p = GORDER_FAILPOINT(fp_map_mmap) != util::FaultKind::kNone
                  ? MAP_FAILED
                  : ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      return IoResult::Error("cannot mmap " + path);
    }
    file->data_ = static_cast<const std::byte*>(p);
  }
  // The mapping outlives the descriptor; close it now.
  ::close(fd);
  file->size_ = size;
  *out = std::move(file);
  return IoResult::Ok();
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

}  // namespace gorder::store
