// CatalogSegment: mmap-backed persistence for an item catalog.
//
// A segment file holds one row-major item matrix plus its per-row
// Euclidean norms behind a small versioned header.  Opening a segment
// memory-maps it read-only and hands back ConstRowBlock / span views, so
// an engine can Open() directly over the mapped pages: restart cost is
// one mmap plus one read-only pass that checks every value is finite,
// instead of a copy, and a catalog larger than RAM is served through the
// page cache instead of an up-front allocation.
//
// On-disk layout (little-endian, offsets in bytes):
//
//   0   magic      "MIPSSEG1"                                  (8 bytes)
//   8   version    uint32 (currently 1)
//   12  header_bytes uint32 (64; payload starts here)
//   16  rows       int64
//   24  cols       int64
//   32  payload_bytes int64  (= rows*cols*8 + rows*8, self-check)
//   40  checksum   uint64 (FNV-1a over bytes [0, 40))
//   48  reserved   zeros to byte 64
//   64  items      rows*cols doubles, row-major
//   64 + rows*cols*8  norms   rows doubles (||row||_2, computed with the
//       dispatched Dot kernel — bit-identical across ISAs, so a segment
//       written on one machine byte-matches one written on another)
//
// Durability: Write() streams to a sibling temp file, fsyncs it, and
// atomically rename(2)s it over `path` (then fsyncs the directory), so a
// crash leaves either the old file or the new one — never a torn
// segment at `path`.  Open() still defends against truncated or
// corrupted files (partial copies, disk faults): any header/size/
// checksum mismatch is a clean InvalidArgument, never UB.

#ifndef MIPS_CATALOG_SEGMENT_H_
#define MIPS_CATALOG_SEGMENT_H_

#include <cstdint>
#include <span>
#include <string>

#include "common/status.h"
#include "linalg/matrix.h"

namespace mips {

/// Read-only memory-mapped view of one persisted item catalog; see the
/// file comment for the format.  Move-only (owns the mapping).
class CatalogSegment {
 public:
  /// Writes `items` (and its freshly computed row norms) to `path` via
  /// the atomic temp-file + rename protocol.  IOError on any filesystem
  /// failure; `path`'s previous content is untouched on error.
  static Status Write(const ConstRowBlock& items, const std::string& path);

  /// Maps `path` read-only.  IOError on open/map failures;
  /// InvalidArgument on bad magic, unsupported version, dimension /
  /// size / checksum mismatches (torn or corrupted files included), and
  /// on a NaN or +-Inf item value or norm, naming its row (and column).
  static StatusOr<CatalogSegment> Open(const std::string& path);

  CatalogSegment(const CatalogSegment&) = delete;
  CatalogSegment& operator=(const CatalogSegment&) = delete;
  CatalogSegment(CatalogSegment&& other) noexcept { MoveFrom(other); }
  CatalogSegment& operator=(CatalogSegment&& other) noexcept {
    if (this != &other) {
      Unmap();
      MoveFrom(other);
    }
    return *this;
  }
  ~CatalogSegment() { Unmap(); }

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  /// View of the mapped item matrix.  Valid while this segment is alive.
  ConstRowBlock items() const { return ConstRowBlock(items_, rows_, cols_); }
  /// Per-row Euclidean norms, parallel to items().
  std::span<const Real> norms() const {
    return {norms_, static_cast<std::size_t>(rows_)};
  }

 private:
  CatalogSegment() = default;
  void Unmap();
  void MoveFrom(CatalogSegment& other);

  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;
  const Real* items_ = nullptr;
  const Real* norms_ = nullptr;
  Index rows_ = 0;
  Index cols_ = 0;
};

}  // namespace mips

#endif  // MIPS_CATALOG_SEGMENT_H_
