// Deterministic over-aligned allocation for the benchmark process.
//
// The simulator's cache and registration models key on the host addresses
// of page-aligned message buffers (mem::Buffer), so a pass's simulated
// results depend on which buffers share addresses.  glibc places and
// reuses large blocks according to the whole history of the process, so
// two identical passes in one process can see different address reuse and
// report different simulated times.  This replacement of the aligned
// operator new keeps freed blocks on exact-size LIFO lists and never hands
// memory back: the address-reuse pattern inside a pass then depends only
// on the pass's own allocation sequence, which is deterministic.

#include <cstdlib>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace {

struct Arena {
  std::mutex mu;
  std::unordered_map<std::size_t, std::vector<void*>> free_by_size;
  std::unordered_map<void*, std::size_t> size_of;
};

Arena& arena() {
  static Arena* a = new Arena;  // never destroyed: used until exit
  return *a;
}

void* arena_alloc(std::size_t n, std::align_val_t al) {
  const auto align = static_cast<std::size_t>(al);
  const std::size_t size = ((n ? n : 1) + align - 1) / align * align;
  Arena& a = arena();
  {
    const std::lock_guard<std::mutex> lock(a.mu);
    auto it = a.free_by_size.find(size);
    if (it != a.free_by_size.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      return p;
    }
  }
  void* p = std::aligned_alloc(align, size);
  if (!p) throw std::bad_alloc();
  const std::lock_guard<std::mutex> lock(a.mu);
  a.size_of[p] = size;
  return p;
}

void arena_free(void* p) noexcept {
  if (!p) return;
  Arena& a = arena();
  const std::lock_guard<std::mutex> lock(a.mu);
  a.free_by_size[a.size_of.at(p)].push_back(p);
}

}  // namespace

void* operator new(std::size_t n, std::align_val_t al) { return arena_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return arena_alloc(n, al); }
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return arena_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  try {
    return arena_alloc(n, al);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p, std::align_val_t) noexcept { arena_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { arena_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { arena_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { arena_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { arena_free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { arena_free(p); }
