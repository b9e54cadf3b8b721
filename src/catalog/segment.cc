#include "catalog/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/blas.h"

namespace mips {
namespace {

constexpr char kMagic[8] = {'M', 'I', 'P', 'S', 'S', 'E', 'G', '1'};
constexpr uint32_t kVersion = 1;
constexpr uint32_t kHeaderBytes = 64;

struct SegmentHeader {
  char magic[8];
  uint32_t version;
  uint32_t header_bytes;
  int64_t rows;
  int64_t cols;
  int64_t payload_bytes;
  uint64_t checksum;
  char reserved[16];
};
static_assert(sizeof(SegmentHeader) == kHeaderBytes,
              "header layout must match the documented 64-byte format");

/// FNV-1a over the header prefix the checksum field protects.
uint64_t HeaderChecksum(const SegmentHeader& header) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&header);
  uint64_t hash = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < offsetof(SegmentHeader, checksum); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ull;
  }
  return hash;
}

Status CloseAndUnlink(int fd, const std::string& tmp, std::string message) {
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  return Status::IOError(std::move(message));
}

Status WriteFully(int fd, const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::write(fd, p, bytes);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("write failed: ") +
                             std::strerror(errno));
    }
    p += n;
    bytes -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status CatalogSegment::Write(const ConstRowBlock& items,
                             const std::string& path) {
  if (items.rows() <= 0 || items.cols() <= 0) {
    return Status::InvalidArgument("segment needs a non-empty item matrix");
  }

  SegmentHeader header{};
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.header_bytes = kHeaderBytes;
  header.rows = items.rows();
  header.cols = items.cols();
  header.payload_bytes =
      static_cast<int64_t>(items.rows()) * items.cols() *
          static_cast<int64_t>(sizeof(Real)) +
      static_cast<int64_t>(items.rows()) * static_cast<int64_t>(sizeof(Real));
  header.checksum = HeaderChecksum(header);

  // Norms via the dispatched level-1 kernels: bit-identical on every ISA,
  // so the written file is byte-reproducible across machines.
  std::vector<Real> norms(static_cast<std::size_t>(items.rows()));
  RowNorms(items.data(), items.rows(), items.cols(), norms.data());

  // Temp file beside the target so rename(2) stays within one filesystem.
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open for write: " + tmp + ": " +
                           std::strerror(errno));
  }
  Status status = WriteFully(fd, &header, sizeof(header));
  if (status.ok()) {
    status = WriteFully(fd, items.data(),
                        static_cast<std::size_t>(items.rows()) *
                            static_cast<std::size_t>(items.cols()) *
                            sizeof(Real));
  }
  if (status.ok()) {
    status = WriteFully(fd, norms.data(), norms.size() * sizeof(Real));
  }
  if (!status.ok()) {
    return CloseAndUnlink(fd, tmp, status.message() + " (" + tmp + ")");
  }
  // Data must be durable BEFORE the rename publishes the file: rename is
  // atomic in the namespace, but only fsync makes the bytes behind it
  // crash-safe.
  if (::fsync(fd) != 0) {
    return CloseAndUnlink(fd, tmp,
                          "fsync failed: " + tmp + ": " + std::strerror(errno));
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("close failed: " + tmp + ": " +
                           std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path + ": " +
                           std::strerror(errno));
  }
  // Persist the rename itself (the directory entry).  Failure here is
  // reported but the segment at `path` is already complete and valid.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    const int rc = ::fsync(dir_fd);
    ::close(dir_fd);
    if (rc != 0) {
      return Status::IOError("directory fsync failed: " + dir + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

StatusOr<CatalogSegment> CatalogSegment::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open for read: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("fstat failed: " + path + ": " +
                           std::strerror(errno));
  }
  const auto file_bytes = static_cast<std::size_t>(st.st_size);
  if (file_bytes < kHeaderBytes) {
    ::close(fd);
    return Status::InvalidArgument(
        "truncated segment (file smaller than the 64-byte header): " + path);
  }
  void* map = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference; the descriptor can close now.
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::IOError("mmap failed: " + path + ": " +
                           std::strerror(errno));
  }

  CatalogSegment segment;
  segment.map_ = map;
  segment.map_bytes_ = file_bytes;

  SegmentHeader header{};
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("bad magic in segment: " + path);
  }
  if (header.version != kVersion) {
    return Status::InvalidArgument(
        "unsupported segment version " + std::to_string(header.version) +
        " in " + path + " (this build reads version " +
        std::to_string(kVersion) + ")");
  }
  if (header.header_bytes != kHeaderBytes) {
    return Status::InvalidArgument("bad header size in segment: " + path);
  }
  if (header.checksum != HeaderChecksum(header)) {
    return Status::InvalidArgument("header checksum mismatch in segment: " +
                                   path);
  }
  constexpr int64_t kMaxExtent = std::numeric_limits<Index>::max();
  if (header.rows <= 0 || header.cols <= 0 || header.rows > kMaxExtent ||
      header.cols > kMaxExtent) {
    return Status::InvalidArgument("bad dimensions in segment: " + path);
  }
  // rows x (cols + 1) doubles: items plus norms.  Checked by division
  // first, so a hostile header cannot overflow the product.
  constexpr int64_t kMaxReals =
      std::numeric_limits<int64_t>::max() / static_cast<int64_t>(sizeof(Real));
  if (header.rows > kMaxReals / (header.cols + 1)) {
    return Status::InvalidArgument("payload size overflows in segment: " +
                                   path);
  }
  const int64_t expected_payload =
      header.rows * (header.cols + 1) * static_cast<int64_t>(sizeof(Real));
  if (header.payload_bytes != expected_payload) {
    return Status::InvalidArgument("payload size mismatch in segment: " +
                                   path);
  }
  if (file_bytes != kHeaderBytes + static_cast<std::size_t>(expected_payload)) {
    return Status::InvalidArgument(
        "truncated segment (header promises " +
        std::to_string(kHeaderBytes + expected_payload) + " bytes, file has " +
        std::to_string(file_bytes) + "): " + path);
  }

  segment.rows_ = static_cast<Index>(header.rows);
  segment.cols_ = static_cast<Index>(header.cols);
  const char* base = static_cast<const char*>(map);
  const int64_t item_reals = header.rows * header.cols;
  segment.items_ = reinterpret_cast<const Real*>(base + kHeaderBytes);
  segment.norms_ = segment.items_ + item_reals;
  // A NaN or +-Inf would reach scores and norm bounds that the BetterEntry
  // order cannot rank.  The norms follow the items, so one pass checks
  // both.
  const int64_t bad = FirstNonFinite(
      segment.items_, static_cast<std::size_t>(item_reals + header.rows));
  if (bad >= 0) {
    return Status::InvalidArgument(
        (bad < item_reals ? "non-finite value at row " +
                                std::to_string(bad / header.cols) +
                                ", column " + std::to_string(bad % header.cols)
                          : "non-finite norm of row " +
                                std::to_string(bad - item_reals)) +
        " in segment: " + path);
  }
  return segment;
}

void CatalogSegment::Unmap() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
}

void CatalogSegment::MoveFrom(CatalogSegment& other) {
  map_ = other.map_;
  map_bytes_ = other.map_bytes_;
  items_ = other.items_;
  norms_ = other.norms_;
  rows_ = other.rows_;
  cols_ = other.cols_;
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  other.items_ = nullptr;
  other.norms_ = nullptr;
  other.rows_ = 0;
  other.cols_ = 0;
}

}  // namespace mips
