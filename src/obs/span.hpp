#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/registry.hpp"
#include "sim/time.hpp"

namespace openmx::obs {

/// Lifecycle phases of one large-message receive, in protocol order.
/// Each fragment of the message may stamp a phase several times; the
/// span keeps the first and last stamp per phase, which is exactly what
/// the paper's Figure 8 analysis needs: the window during which the DMA
/// engine worked concurrently with fragment arrival.
enum class Phase : std::uint8_t {
  WireArrival = 0,  // a pull reply reached the NIC
  BottomHalf,       // bottom-half processing of a fragment
  IoatSubmit,       // copy descriptors handed to the DMA engine
  DmaComplete,      // a fragment's offloaded copy finished
  CopyOut,          // CPU copy into the application buffer (memcpy path)
  Notify,           // completion event pushed / observed by the library
  kCount,
};

inline constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

[[nodiscard]] inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::WireArrival: return "wire-arrival";
    case Phase::BottomHalf: return "bottom-half";
    case Phase::IoatSubmit: return "ioat-submit";
    case Phase::DmaComplete: return "dma-complete";
    case Phase::CopyOut: return "copy-out";
    case Phase::Notify: return "notify";
    default: return "?";
  }
}

/// Raw wait-state stamps, accumulated per message at the instrumented
/// sites (cpu::Machine run queue, dma::IoatEngine descriptor ring, the
/// driver's rx copy paths).  These are resource-time totals: most of
/// them overlap the wire window and each other, so they do NOT sum to
/// the end-to-end latency — obs::attribute_blame uses them to split the
/// serial residual instead.
enum class Wait : std::uint8_t {
  BhQueueWait = 0,  // bottom-half work sat in a core's run queue
  BhExec,           // bottom-half protocol processing (driver-charged)
  DmaQueueWait,     // descriptor sat queued behind ring occupancy
  DmaTransfer,      // engine-side descriptor time (startup + streaming)
  DmaDrainWait,     // CPU blocked waiting for the slowest channel to drain
  MemcpyExec,       // CPU copy at the uncontended memcpy rate
  BusStall,         // extra memcpy time lost to memory-bus contention
  kCount,
};

inline constexpr std::size_t kNumWaits = static_cast<std::size_t>(Wait::kCount);

[[nodiscard]] inline const char* wait_name(Wait w) {
  switch (w) {
    case Wait::BhQueueWait: return "bh-queue-wait";
    case Wait::BhExec: return "bh-exec";
    case Wait::DmaQueueWait: return "dma-queue-wait";
    case Wait::DmaTransfer: return "dma-transfer";
    case Wait::DmaDrainWait: return "dma-drain-wait";
    case Wait::MemcpyExec: return "memcpy-exec";
    case Wait::BusStall: return "bus-stall";
    default: return "?";
  }
}

/// Span key: one large-message receive is identified by (receiving node,
/// driver pull handle) — unique for the lifetime of a simulation because
/// drivers never reuse handles.
[[nodiscard]] constexpr std::uint64_t span_key(int node, std::uint32_t handle) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node)) << 32) |
         handle;
}

/// First/last timestamp of every phase of one message receive, and the
/// message's raw wait-state totals.
struct Span {
  std::uint64_t key = 0;
  int node = -1;
  std::uint64_t bytes = 0;
  std::array<sim::Time, kNumPhases> first;
  std::array<sim::Time, kNumPhases> last;
  std::array<sim::Time, kNumWaits> waits{};

  Span() {
    first.fill(-1);
    last.fill(-1);
  }

  [[nodiscard]] bool has(Phase p) const {
    return first[static_cast<std::size_t>(p)] >= 0;
  }
  [[nodiscard]] sim::Time first_at(Phase p) const {
    return first[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] sim::Time last_at(Phase p) const {
    return last[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] sim::Time waited(Wait w) const {
    return waits[static_cast<std::size_t>(w)];
  }

  void mark(Phase p, sim::Time t) {
    auto& f = first[static_cast<std::size_t>(p)];
    auto& l = last[static_cast<std::size_t>(p)];
    if (f < 0 || t < f) f = t;
    if (t > l) l = t;
  }

  /// The Figure 8 overlap window: how long the DMA engine was moving this
  /// message's bytes while fragments were still arriving and being
  /// processed — the intersection of the DMA activity window
  /// [first ioat-submit, last dma-complete] with the ingress window
  /// [first wire-arrival, last bottom-half].  Zero for the memcpy path.
  [[nodiscard]] sim::Time overlap_ns() const {
    if (!has(Phase::IoatSubmit) || !has(Phase::DmaComplete) ||
        !has(Phase::WireArrival) || !has(Phase::BottomHalf))
      return 0;
    const sim::Time lo =
        std::max(first_at(Phase::IoatSubmit), first_at(Phase::WireArrival));
    const sim::Time hi =
        std::min(last_at(Phase::DmaComplete), last_at(Phase::BottomHalf));
    return std::max<sim::Time>(0, hi - lo);
  }

  /// End-to-end receive time: first wire arrival to the last stamp.
  [[nodiscard]] sim::Time total_ns() const {
    sim::Time lo = -1, hi = -1;
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (first[p] < 0) continue;
      if (lo < 0 || first[p] < lo) lo = first[p];
      hi = std::max(hi, last[p]);
    }
    return lo < 0 ? 0 : hi - lo;
  }
};

/// Table of message-lifecycle spans, keyed by span_key(), plus the global
/// per-Wait stamp distributions.  Disabled by default: a disabled table
/// is one branch per stamp site, schedules nothing and allocates nothing,
/// and an enabled one schedules nothing either: a ping-pong run with it
/// off and on gives bit-identical timings and event counts (test_attrib).
/// Spans are kept after the message completes — they are the post-run
/// waterfall and the input of obs::AttribReport.
class SpanTable {
 public:
  void enable(bool on = true) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Registers the message's identity (called once, at pull start).
  void begin(std::uint64_t key, int node, std::uint64_t bytes) {
    if (!enabled_) return;
    Span& s = spans_[key];
    s.key = key;
    s.node = node;
    s.bytes = bytes;
  }

  void mark(std::uint64_t key, Phase p, sim::Time t) {
    if (!enabled_) return;
    Span& s = spans_[key];
    if (s.key == 0) s.key = key;
    s.mark(p, t);
  }

  /// Accumulates one wait-state stamp.  Zero-duration stamps still count
  /// toward the per-stamp distribution (a zero queue wait is a
  /// measurement, not noise).
  void add(std::uint64_t key, Wait w, sim::Time ns) {
    if (!enabled_ || ns < 0) return;
    Span& s = spans_[key];
    if (s.key == 0) s.key = key;
    s.waits[static_cast<std::size_t>(w)] += ns;
    stamp_hist_[static_cast<std::size_t>(w)].add(static_cast<std::uint64_t>(ns));
  }

  [[nodiscard]] const std::map<std::uint64_t, Span>& all() const {
    return spans_;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  [[nodiscard]] const Span* find(std::uint64_t key) const {
    auto it = spans_.find(key);
    return it == spans_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const Histogram& stamp_hist(Wait w) const {
    return stamp_hist_[static_cast<std::size_t>(w)];
  }

  /// Exports the global per-stamp distributions as
  /// `attrib.wait.<name>_ns` histograms.
  void to_registry(Registry& reg) const {
    for (std::size_t w = 0; w < kNumWaits; ++w) {
      if (stamp_hist_[w].count() == 0) continue;
      reg.histogram(std::string("attrib.wait.") +
                    wait_name(static_cast<Wait>(w)) + "_ns")
          .merge(stamp_hist_[w]);
    }
  }

  void clear() {
    spans_.clear();
    for (auto& h : stamp_hist_) h.reset();
  }

 private:
  bool enabled_ = false;
  std::map<std::uint64_t, Span> spans_;
  std::array<Histogram, kNumWaits> stamp_hist_{};
};

/// Per-message waterfall: phase offsets relative to the first wire
/// arrival, plus the measured overlap window.
inline void dump_waterfall(std::FILE* out, const SpanTable& spans,
                           std::size_t max_spans = 16) {
  std::size_t shown = 0;
  for (const auto& [key, s] : spans.all()) {
    if (shown++ == max_spans) {
      std::fprintf(out, "  ... %zu more spans\n", spans.size() - max_spans);
      break;
    }
    sim::Time base = -1;
    for (std::size_t p = 0; p < kNumPhases; ++p)
      if (s.first[p] >= 0 && (base < 0 || s.first[p] < base)) base = s.first[p];
    if (base < 0) continue;
    std::fprintf(out, "span n%d #%u  %llu bytes\n", s.node,
                 static_cast<unsigned>(key & 0xffffffffu),
                 static_cast<unsigned long long>(s.bytes));
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (s.first[p] < 0) continue;
      std::fprintf(out, "  %-14s +%10.3f us .. +%10.3f us\n",
                   phase_name(static_cast<Phase>(p)),
                   sim::to_micros(s.first[p] - base),
                   sim::to_micros(s.last[p] - base));
    }
    std::fprintf(out, "  %-14s %11.3f us of %.3f us total\n", "dma-overlap",
                 sim::to_micros(s.overlap_ns()), sim::to_micros(s.total_ns()));
  }
}

}  // namespace openmx::obs
