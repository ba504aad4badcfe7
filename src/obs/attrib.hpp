#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "sim/time.hpp"

namespace openmx::obs {

// ---------------------------------------------------------------------
// Causal latency attribution for large-message receives.
//
// The span table (obs/span.hpp) records *when* the phases of a receive
// happened and *which resource the message was waiting on* (the raw
// obs::Wait stamps); this layer turns both into a per-message blame
// breakdown that exactly partitions the end-to-end receive time.  It is
// the machinery behind the paper's Figures 8/9 argument: CPU memcpy vs.
// I/OAT DMA vs. overlapped packet processing, now with queue waits and
// bus-contention stalls separated from actual work.
// ---------------------------------------------------------------------

/// Blame categories of the end-to-end partition.  attribute_blame()
/// assigns every nanosecond of a span's total_ns() to exactly one of
/// these, so per-message blame sums equal the span total exactly.
enum class Blame : std::uint8_t {
  Wire = 0,      // fragments still serializing on the wire
  BhQueueWait,   // run-queue delay of bottom-half processing
  BhExec,        // bottom-half protocol execution
  DmaQueueWait,  // descriptors queued behind DMA ring occupancy
  DmaTransfer,   // actual DMA engine transfer time
  MemcpyExec,    // CPU copy execution (memcpy path)
  BusStall,      // memory-bus contention stall during CPU copies
  Notify,        // completion event posted but not yet observed
  kCount,
};

inline constexpr std::size_t kNumBlames = static_cast<std::size_t>(Blame::kCount);

[[nodiscard]] inline const char* blame_name(Blame b) {
  switch (b) {
    case Blame::Wire: return "wire";
    case Blame::BhQueueWait: return "bh-queue";
    case Blame::BhExec: return "bh-exec";
    case Blame::DmaQueueWait: return "dma-queue";
    case Blame::DmaTransfer: return "dma-xfer";
    case Blame::MemcpyExec: return "memcpy";
    case Blame::BusStall: return "bus-stall";
    case Blame::Notify: return "notify";
    default: return "?";
  }
}

/// Registry-safe variant (dots and dashes collide with the metric
/// naming convention).
[[nodiscard]] inline const char* blame_key(Blame b) {
  switch (b) {
    case Blame::Wire: return "wire";
    case Blame::BhQueueWait: return "bh_queue";
    case Blame::BhExec: return "bh_exec";
    case Blame::DmaQueueWait: return "dma_queue";
    case Blame::DmaTransfer: return "dma_transfer";
    case Blame::MemcpyExec: return "memcpy";
    case Blame::BusStall: return "bus_stall";
    case Blame::Notify: return "notify";
    default: return "?";
  }
}

using BlameVec = std::array<sim::Time, kNumBlames>;

[[nodiscard]] inline sim::Time blame_sum(const BlameVec& v) {
  sim::Time t = 0;
  for (sim::Time b : v) t += b;
  return t;
}

/// The causal partition.  Walks the span's phase timeline and assigns
/// every nanosecond of [first stamp, last stamp] to exactly one blame
/// category — the resource the message was *serially* waiting on during
/// that interval:
///
///   [start .. last wire-arrival]          -> Wire.  Work that overlaps
///       fragment ingress (DMA transfers, per-fragment copies, bottom
///       halves of earlier fragments) is deliberately NOT blamed: while
///       bytes are still serializing, no host-side speedup can finish
///       the message sooner.  This is the Figure 8 overlap argument in
///       partition form.
///   [last wire-arrival .. driver notify]  -> the host-side residual.
///       First the measured DMA drain wait (the CPU blocking on the
///       slowest channel) is peeled off and split between DmaQueueWait
///       and DmaTransfer in proportion to this message's measured
///       descriptor queue-wait vs. engine-time totals; the remainder is
///       split across BhQueueWait / BhExec / MemcpyExec / BusStall in
///       proportion to their measured totals.
///   [driver notify .. library dequeue]    -> Notify.
///
/// Splits use integer proportions with the remainder assigned to the
/// largest component, so blame_sum() equals Span::total_ns() exactly.
[[nodiscard]] inline BlameVec attribute_blame(const Span& s) {
  BlameVec out{};
  // Span window, as total_ns() computes it.
  sim::Time lo = -1, hi = -1;
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (s.first[p] < 0) continue;
    if (lo < 0 || s.first[p] < lo) lo = s.first[p];
    hi = std::max(hi, s.last[p]);
  }
  if (lo < 0) return out;

  auto at = [&out](Blame b) -> sim::Time& {
    return out[static_cast<std::size_t>(b)];
  };

  // 1. Wire serialization: until the last fragment reached host memory.
  const sim::Time w =
      s.has(Phase::WireArrival)
          ? std::clamp(s.last_at(Phase::WireArrival), lo, hi)
          : lo;
  at(Blame::Wire) = w - lo;

  // 3 (computed early). Notify delay: driver pushed the completion at the
  // first Notify stamp; the library observed it at the last.
  const sim::Time notify_start =
      s.has(Phase::Notify) ? std::clamp(s.first_at(Phase::Notify), w, hi) : hi;
  at(Blame::Notify) = hi - notify_start;

  // 2. Host-side residual between ingress end and completion push.
  sim::Time mid = notify_start - w;
  if (mid <= 0) return out;

  // 2a. DMA tail: the measured drain wait, split queue-wait vs.
  // transfer by this message's descriptor-level totals.
  const sim::Time tail = std::min(mid, s.waited(Wait::DmaDrainWait));
  if (tail > 0) {
    const sim::Time q = s.waited(Wait::DmaQueueWait);
    const sim::Time x = s.waited(Wait::DmaTransfer);
    if (q + x > 0) {
      const auto qpart = static_cast<sim::Time>(
          static_cast<double>(tail) * static_cast<double>(q) /
          static_cast<double>(q + x));
      at(Blame::DmaQueueWait) = qpart;
      at(Blame::DmaTransfer) = tail - qpart;
    } else {
      at(Blame::DmaTransfer) = tail;
    }
    mid -= tail;
  }
  // 2b. Remaining residual: proportional to the measured host-side
  // resource totals, remainder to the largest share (deterministic).
  struct Part {
    Blame blame;
    Wait wait;
  };
  static constexpr Part parts[] = {
      {Blame::BhQueueWait, Wait::BhQueueWait},
      {Blame::BhExec, Wait::BhExec},
      {Blame::MemcpyExec, Wait::MemcpyExec},
      {Blame::BusStall, Wait::BusStall},
  };
  sim::Time total = 0;
  for (const Part& p : parts) total += s.waited(p.wait);
  if (total > 0 && mid > 0) {
    sim::Time assigned = 0;
    std::size_t largest = 0;
    for (std::size_t i = 0; i < std::size(parts); ++i) {
      const auto share = static_cast<sim::Time>(
          static_cast<double>(mid) *
          static_cast<double>(s.waited(parts[i].wait)) /
          static_cast<double>(total));
      at(parts[i].blame) += share;
      assigned += share;
      if (s.waited(parts[i].wait) > s.waited(parts[largest].wait))
        largest = i;
    }
    at(parts[largest].blame) += mid - assigned;
  } else if (mid > 0) {
    // No host-side stamps (a span built by hand, or stamps enabled
    // mid-run): the residual is generic bottom-half time.
    at(Blame::BhExec) += mid;
  }
  return out;
}

/// The critical-path verdict: the single resource whose speedup would
/// shorten this message's end-to-end latency the most.  Because the
/// partition assigns overlapped work zero blame, this is simply the
/// largest partitioned category (ties break toward the earlier enum
/// value, deterministically).
[[nodiscard]] inline Blame critical_blame(const BlameVec& v) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < kNumBlames; ++i)
    if (v[i] > v[best]) best = i;
  return static_cast<Blame>(best);
}

/// Power-of-two ceiling used as the size-class key (matches the
/// doubling size sweeps of the paper's figures).
[[nodiscard]] inline std::uint64_t attrib_size_class(std::uint64_t bytes) {
  if (bytes <= 1) return 1;
  std::uint64_t c = 1;
  while (c < bytes) c <<= 1;
  return c;
}

[[nodiscard]] inline std::string attrib_class_label(std::uint64_t cls) {
  char buf[32];
  if (cls >= sim::MiB)
    std::snprintf(buf, sizeof buf, "%lluMB",
                  static_cast<unsigned long long>(cls / sim::MiB));
  else if (cls >= sim::KiB)
    std::snprintf(buf, sizeof buf, "%llukB",
                  static_cast<unsigned long long>(cls / sim::KiB));
  else
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(cls));
  return buf;
}

/// Aggregated blame per size class: deterministic percentile tables of
/// each category, total-latency distribution, and the critical-path
/// tally.  Built post-run from the span table; exported through
/// the existing Registry plumbing so the bench metrics JSON (and the
/// regression guard sitting on it) see attribution drift.
class AttribReport {
 public:
  struct ClassAgg {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
    std::array<Histogram, kNumBlames> blame_hist{};
    std::array<std::uint64_t, kNumBlames> blame_sum{};
    std::array<std::uint64_t, kNumBlames> critical{};
    Histogram total_hist;
  };

  /// Folds one message in.
  void add(const Span& s) {
    const BlameVec blame = attribute_blame(s);
    const sim::Time total = s.total_ns();
    ++checked_;
    if (blame_sum(blame) != total) ++mismatched_;
    ClassAgg& agg = classes_[attrib_size_class(s.bytes)];
    ++agg.msgs;
    agg.bytes += s.bytes;
    agg.total_hist.add(static_cast<std::uint64_t>(total));
    for (std::size_t b = 0; b < kNumBlames; ++b) {
      agg.blame_hist[b].add(static_cast<std::uint64_t>(blame[b]));
      agg.blame_sum[b] += static_cast<std::uint64_t>(blame[b]);
    }
    ++agg.critical[static_cast<std::size_t>(critical_blame(blame))];
  }

  /// Builds the report from a run's spans (key order: deterministic).
  void build(const SpanTable& spans) {
    for (const auto& [key, s] : spans.all()) add(s);
  }

  [[nodiscard]] const std::map<std::uint64_t, ClassAgg>& classes() const {
    return classes_;
  }
  [[nodiscard]] std::uint64_t messages() const { return checked_; }
  /// Messages whose partition did not sum to total_ns() — always 0 by
  /// construction; asserted by tests and omx_blame.
  [[nodiscard]] std::uint64_t sum_mismatches() const { return mismatched_; }

  /// Critical resource of a size class: the category most often found
  /// on the critical path (ties toward the earlier enum value).
  [[nodiscard]] static Blame class_critical(const ClassAgg& agg) {
    std::size_t best = 0;
    for (std::size_t b = 1; b < kNumBlames; ++b)
      if (agg.critical[b] > agg.critical[best]) best = b;
    return static_cast<Blame>(best);
  }

  /// Exports per-class percentile tables:
  ///   attrib.<class>.<blame>_ns   (histogram: count/min/mean/p50/p90/p99/max)
  ///   attrib.<class>.total_ns     (end-to-end distribution)
  ///   attrib.<class>.critical.<blame>  (counter: critical-path tally)
  void to_registry(Registry& reg) const {
    for (const auto& [cls, agg] : classes_) {
      const std::string base = "attrib." + attrib_class_label(cls) + ".";
      reg.histogram(base + "total_ns").merge(agg.total_hist);
      for (std::size_t b = 0; b < kNumBlames; ++b) {
        if (agg.blame_hist[b].count() == 0) continue;
        reg.histogram(base + blame_key(static_cast<Blame>(b)) + "_ns")
            .merge(agg.blame_hist[b]);
        if (agg.critical[b])
          reg.counter(base + "critical." + blame_key(static_cast<Blame>(b)))
              .add(agg.critical[b]);
      }
    }
  }

  /// The Figure 8/9-style table: one row per size class, one column per
  /// blame category (percent of end-to-end time), the p50 total, and
  /// the critical resource.
  void print(std::FILE* out) const {
    std::fprintf(out, "%-8s %5s", "class", "msgs");
    for (std::size_t b = 0; b < kNumBlames; ++b)
      std::fprintf(out, "%10s", blame_name(static_cast<Blame>(b)));
    std::fprintf(out, "  %12s  %s\n", "p50 total", "critical");
    for (const auto& [cls, agg] : classes_) {
      std::fprintf(out, "%-8s %5llu", attrib_class_label(cls).c_str(),
                   static_cast<unsigned long long>(agg.msgs));
      std::uint64_t total = 0;
      for (std::uint64_t s : agg.blame_sum) total += s;
      for (std::size_t b = 0; b < kNumBlames; ++b)
        std::fprintf(out, "%9.1f%%",
                     total ? 100.0 * static_cast<double>(agg.blame_sum[b]) /
                                 static_cast<double>(total)
                           : 0.0);
      std::fprintf(out, "  %9.3f us  %s\n",
                   sim::to_micros(static_cast<sim::Time>(agg.total_hist.p50())),
                   blame_name(class_critical(agg)));
    }
    if (mismatched_)
      std::fprintf(out, "WARNING: %llu/%llu blame partitions do not sum to "
                        "span totals\n",
                   static_cast<unsigned long long>(mismatched_),
                   static_cast<unsigned long long>(checked_));
  }

 private:
  std::map<std::uint64_t, ClassAgg> classes_;
  std::uint64_t checked_ = 0;
  std::uint64_t mismatched_ = 0;
};

}  // namespace openmx::obs
