#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace openmx::sim {

/// One scheduled event.  The callback lives here — never inside the
/// priority structure — so queue rebalancing moves 24-byte index entries
/// instead of type-erased closures.
///
/// `gen` implements ABA-safe weak handles: it is bumped every time the
/// slot is released, so an EventHandle{slot, gen} taken earlier can tell
/// that "its" event is gone even after the slot has been recycled for a
/// different event.  This replaces the seed engine's per-event
/// `std::make_shared<bool>` liveness flag with zero allocation.
struct EventRecord {
  InlineFn<48> fn;
  std::uint32_t gen = 0;
  bool cancelled = false;
};

/// Chunked slab of EventRecords with a free list.
///
/// Records are allocated in fixed chunks, so they have stable addresses
/// and the engine never pays a per-event malloc once warm; queue entries
/// and EventHandles carry the record pointer directly (no index
/// arithmetic on the hot path).  Release bumps the record's generation
/// and recycles the slot LIFO, which keeps the working set cache-hot
/// for the dominant schedule-dispatch-schedule pattern.
class EventSlab {
 public:
  static constexpr std::size_t kChunkSize = 256;  // records per chunk

  EventSlab() = default;
  EventSlab(const EventSlab&) = delete;
  EventSlab& operator=(const EventSlab&) = delete;

  /// Pops a free slot (growing by one chunk when exhausted).  The
  /// returned record's fn is empty and `cancelled` is false.
  [[nodiscard]] EventRecord* alloc() {
    if (free_.empty()) grow();
    EventRecord* r = free_.back();
    free_.pop_back();
    return r;
  }

  /// Returns the record to the free list and invalidates all handles
  /// that captured its current generation.  The callback must already
  /// have been moved out or abandoned.
  void release(EventRecord* r) {
    r->fn.reset();
    r->cancelled = false;
    ++r->gen;
    free_.push_back(r);
  }

  /// Currently allocated (queued) records.
  [[nodiscard]] std::size_t in_use() const {
    return capacity() - free_.size();
  }

  /// Total capacity ever grown to (test hook: asserts slab reuse).
  [[nodiscard]] std::size_t capacity() const {
    return chunks_.size() * kChunkSize;
  }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
    EventRecord* base = chunks_.back().get();
    // Push in reverse so records are handed out in ascending address order.
    free_.reserve(free_.size() + kChunkSize);
    for (std::size_t i = kChunkSize; i-- > 0;) free_.push_back(base + i);
  }

  std::vector<std::unique_ptr<EventRecord[]>> chunks_;
  std::vector<EventRecord*> free_;
};

/// Queue entry (24 bytes): the total dispatch order is lexicographic
/// (when, seq), seq being the global schedule sequence — FIFO per
/// timestamp, the determinism invariant every experiment relies on.
/// The callback stays in the slab; only this key moves during heap
/// rebalancing.
struct EventKey {
  Time when;
  std::uint64_t seq;
  EventRecord* rec;

  [[nodiscard]] bool before(const EventKey& o) const {
    if (when != o.when) return when < o.when;
    return seq < o.seq;
  }
};

/// Owned 4-ary implicit min-heap of EventKeys.
///
/// Replaces `std::priority_queue<Event>`: entries are 24-byte PODs (the
/// callback stays in the slab), the 4-ary layout halves the tree depth
/// of a binary heap and keeps each sift level inside one cache line, and
/// `pop_min` moves — never copies — which `std::priority_queue::top()`
/// cannot do.
class EventHeap {
 public:
  EventHeap() { heap_.reserve(kReserve); }

  void push(EventKey k) {
    heap_.push_back(k);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!k.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] const EventKey& min() const { return heap_.front(); }

  EventKey pop_min() {
    const EventKey top = heap_.front();
    const EventKey k = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        const std::size_t first = i * kArity + 1;
        if (first >= n) break;
        const std::size_t last = std::min(first + kArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
          if (heap_[c].before(heap_[best])) best = c;
        if (!heap_[best].before(k)) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = k;
    }
    return top;
  }

 private:
  static constexpr std::size_t kArity = 4;
  static constexpr std::size_t kReserve = 1024;  // skip early regrowth

  std::vector<EventKey> heap_;
};

}  // namespace openmx::sim
