// Replacement global allocation functions that count the bytes requested,
// and keep the largest single request, while an AllocationCounter is
// alive.  Tests use it to bound what a call allocates, in bytes rather
// than time, so the bound cannot flake on a slow host.
//
// This header DEFINES the global operator new/delete: include it from
// exactly one translation unit of a test binary.  Every form is replaced
// (plain, nothrow and aligned, with their deletes), all on malloc /
// aligned_alloc / free, because the sanitizer runtimes supply each form
// separately and would otherwise pair a counted allocation with their own
// deallocation.  Matrix storage comes from the aligned form.

#ifndef MIPS_TESTS_COUNTING_NEW_H_
#define MIPS_TESTS_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace mips {
namespace testing {
namespace internal {

inline std::atomic<bool> g_count_new{false};
inline std::atomic<std::size_t> g_new_bytes{0};
inline std::atomic<std::size_t> g_largest_new{0};

inline void CountNew(std::size_t size) noexcept {
  if (!g_count_new.load(std::memory_order_relaxed)) return;
  g_new_bytes.fetch_add(size, std::memory_order_relaxed);
  std::size_t largest = g_largest_new.load(std::memory_order_relaxed);
  while (size > largest &&
         !g_largest_new.compare_exchange_weak(largest, size,
                                              std::memory_order_relaxed)) {
  }
}

inline void* CountedMalloc(std::size_t size) noexcept {
  CountNew(size);
  return std::malloc(size == 0 ? 1 : size);
}

inline void* CountedAlignedAlloc(std::size_t size,
                                 std::align_val_t align) noexcept {
  CountNew(size);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc needs a size that is a multiple of the alignment.
  const std::size_t request = size == 0 ? 1 : size;
  const std::size_t rounded =
      (request + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

/// Out of line, so the compiler does not see free() meet a pointer from
/// operator new after inlining (-Wmismatched-new-delete).
[[gnu::noinline]] inline void CountedFree(void* p) noexcept { std::free(p); }

}  // namespace internal

/// Counts every allocation made, by any thread, from construction to
/// destruction.  One at a time.
class AllocationCounter {
 public:
  AllocationCounter() {
    internal::g_new_bytes.store(0);
    internal::g_largest_new.store(0);
    internal::g_count_new.store(true);
  }
  ~AllocationCounter() { internal::g_count_new.store(false); }
  AllocationCounter(const AllocationCounter&) = delete;
  AllocationCounter& operator=(const AllocationCounter&) = delete;

  /// Bytes requested so far.
  std::size_t bytes() const { return internal::g_new_bytes.load(); }
  /// The largest single request so far.
  std::size_t largest() const { return internal::g_largest_new.load(); }
};

}  // namespace testing
}  // namespace mips

void* operator new(std::size_t size) {
  void* p = mips::testing::internal::CountedMalloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return mips::testing::internal::CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return mips::testing::internal::CountedMalloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  void* p = mips::testing::internal::CountedAlignedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return mips::testing::internal::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return mips::testing::internal::CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete(void* p, std::size_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  mips::testing::internal::CountedFree(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  mips::testing::internal::CountedFree(p);
}

#endif  // MIPS_TESTS_COUNTING_NEW_H_
