#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <string>
#include <string_view>

namespace openmx::obs {

/// One named monotonically increasing counter.  Components look the
/// counter up once (by name, in their constructor) and keep the returned
/// reference, so the per-event cost is a single add — no map lookup, no
/// string hashing on the hot path.
struct Counter {
  std::uint64_t value = 0;

  void add(std::uint64_t delta = 1) { value += delta; }
  void reset() { value = 0; }
};

/// One named level gauge: a value that goes up and down (ring occupancy,
/// LP inbox depth), with its high-water mark tracked on every update.
/// Counters are monotone and merge by addition; gauges are instantaneous
/// and merge by taking the componentwise maximum — summing two shards'
/// peaks would overstate a level neither shard ever saw.
struct Gauge {
  std::int64_t value = 0;
  std::int64_t peak = 0;

  void set(std::int64_t v) {
    value = v;
    peak = std::max(peak, v);
  }
  void add(std::int64_t delta) { set(value + delta); }
  void reset() { value = peak = 0; }
};

/// Log-bucketed HDR-style histogram of non-negative integer samples
/// (latencies in ns, sizes in bytes).
///
/// Layout: values below 8 get exact buckets; above that each power of
/// two is split into 4 linear sub-buckets, bounding the relative error
/// of any reported quantile at ~25 %.  251 buckets cover the full u64
/// range, so the footprint is a fixed 2 KiB and add() is branch-light
/// integer arithmetic — cheap enough to leave enabled everywhere.
///
/// merge() adds bucket counts elementwise, which is associative and
/// commutative over integers: combining per-replica histograms after a
/// SweepRunner fan-out gives bit-identical results regardless of worker
/// count as long as the fold order is fixed (SweepRunner returns results
/// in index order).
class Histogram {
 public:
  static constexpr unsigned kSubBits = 2;                  // 4 sub-buckets
  static constexpr std::uint32_t kSub = 1u << kSubBits;
  static constexpr std::uint32_t kLinearMax = 2 * kSub;    // exact below this
  static constexpr std::size_t kNumBuckets = 256;

  /// Bucket index of a value.  Exact for v < kLinearMax; otherwise the
  /// msb selects the power-of-two range and the next kSubBits bits the
  /// linear sub-bucket within it.
  [[nodiscard]] static std::uint32_t bucket_of(std::uint64_t v) {
    if (v < kLinearMax) return static_cast<std::uint32_t>(v);
    const unsigned top = 63u - static_cast<unsigned>(std::countl_zero(v));
    const auto sub =
        static_cast<std::uint32_t>((v >> (top - kSubBits)) & (kSub - 1));
    return kLinearMax + (top - kSubBits - 1) * kSub + sub;
  }

  /// Smallest value mapping to bucket `b` (the quantile estimate we
  /// report: a deterministic lower bound of the true quantile).
  [[nodiscard]] static std::uint64_t bucket_lo(std::uint32_t b) {
    if (b < kLinearMax) return b;
    const std::uint32_t r = b - kLinearMax;
    const unsigned top = kSubBits + 1 + r / kSub;
    const std::uint64_t sub = r % kSub;
    return (std::uint64_t{1} << top) + (sub << (top - kSubBits));
  }

  void add(std::uint64_t v, std::uint64_t weight = 1) {
    buckets_[bucket_of(v)] += weight;
    count_ += weight;
    sum_ += v * weight;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return count_ ? max_ : 0; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Lower-bound estimate of the p-quantile (p in [0, 1]).
  [[nodiscard]] std::uint64_t percentile(double p) const {
    if (count_ == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(p * static_cast<double>(count_) + 0.5));
    std::uint64_t seen = 0;
    for (std::uint32_t b = 0; b < kNumBuckets; ++b) {
      seen += buckets_[b];
      if (seen >= rank) return bucket_lo(b);
    }
    return max();
  }

  [[nodiscard]] std::uint64_t p50() const { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p90() const { return percentile(0.90); }
  [[nodiscard]] std::uint64_t p99() const { return percentile(0.99); }

  void merge(const Histogram& o) {
    for (std::size_t b = 0; b < kNumBuckets; ++b) buckets_[b] += o.buckets_[b];
    count_ += o.count_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

  void reset() { *this = Histogram{}; }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Registry of named counters and histograms.
///
/// The contract components rely on:
///  - counter()/histogram() return references that stay valid for the
///    registry's lifetime (std::map nodes never move), so construction-time
///    interning makes later updates lookup-free;
///  - add()/get() keep the old sim::Counters string API alive for cold
///    paths and tests;
///  - merge() folds another registry in by name — with a fixed fold order
///    (e.g. SweepRunner index order) the result is deterministic;
///  - reset() zeroes values but never removes entries, so cached handles
///    survive.
class Registry {
 public:
  [[nodiscard]] Counter& counter(std::string_view name) {
    auto it = counters_.find(name);
    if (it == counters_.end())
      it = counters_.emplace(std::string(name), Counter{}).first;
    return it->second;
  }

  [[nodiscard]] Histogram& histogram(std::string_view name) {
    auto it = histograms_.find(name);
    if (it == histograms_.end())
      it = histograms_.emplace(std::string(name), Histogram{}).first;
    return it->second;
  }

  [[nodiscard]] Gauge& gauge(std::string_view name) {
    auto it = gauges_.find(name);
    if (it == gauges_.end())
      it = gauges_.emplace(std::string(name), Gauge{}).first;
    return it->second;
  }

  // ----- sim::Counters-compatible string API (cold paths, tests) -----

  void add(std::string_view name, std::uint64_t delta = 1) {
    counter(name).add(delta);
  }

  [[nodiscard]] std::uint64_t get(std::string_view name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value;
  }

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>&
  all_counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>&
  all_histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& all_gauges()
      const {
    return gauges_;
  }

  void merge(const Registry& o) {
    for (const auto& [name, c] : o.counters_)
      if (c.value) counter(name).add(c.value);
    for (const auto& [name, h] : o.histograms_)
      if (h.count()) histogram(name).merge(h);
    for (const auto& [name, g] : o.gauges_) {
      Gauge& mine = gauge(name);
      mine.value = std::max(mine.value, g.value);
      mine.peak = std::max(mine.peak, g.peak);
    }
  }

  void reset() {
    for (auto& kv : counters_) kv.second.reset();
    for (auto& kv : histograms_) kv.second.reset();
    for (auto& kv : gauges_) kv.second.reset();
  }

  /// Machine-readable dump: counters plus histogram summary statistics,
  /// in sorted name order (deterministic across runs and platforms).
  void dump_json(std::FILE* out, int indent = 0) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const char* p = pad.c_str();
    std::fprintf(out, "%s{\n%s  \"counters\": {", p, p);
    bool first = true;
    for (const auto& [name, c] : counters_) {
      std::fprintf(out, "%s\n%s    \"%s\": %llu", first ? "" : ",", p,
                   name.c_str(), static_cast<unsigned long long>(c.value));
      first = false;
    }
    std::fprintf(out, "\n%s  },\n%s  \"histograms\": {", p, p);
    first = true;
    for (const auto& [name, h] : histograms_) {
      std::fprintf(
          out,
          "%s\n%s    \"%s\": {\"count\": %llu, \"min\": %llu, \"mean\": %.1f, "
          "\"p50\": %llu, \"p90\": %llu, \"p99\": %llu, \"max\": %llu}",
          first ? "" : ",", p, name.c_str(),
          static_cast<unsigned long long>(h.count()),
          static_cast<unsigned long long>(h.min()), h.mean(),
          static_cast<unsigned long long>(h.p50()),
          static_cast<unsigned long long>(h.p90()),
          static_cast<unsigned long long>(h.p99()),
          static_cast<unsigned long long>(h.max()));
      first = false;
    }
    std::fprintf(out, "\n%s  }", p);
    // Emitted only when present, so registries without gauges keep the
    // exact two-section JSON shape of the committed baselines.
    if (!gauges_.empty()) {
      std::fprintf(out, ",\n%s  \"gauges\": {", p);
      first = true;
      for (const auto& [name, g] : gauges_) {
        std::fprintf(out, "%s\n%s    \"%s\": {\"value\": %lld, \"peak\": %lld}",
                     first ? "" : ",", p, name.c_str(),
                     static_cast<long long>(g.value),
                     static_cast<long long>(g.peak));
        first = false;
      }
      std::fprintf(out, "\n%s  }", p);
    }
    std::fprintf(out, "\n%s}\n", p);
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Histogram, std::less<>> histograms_;
  std::map<std::string, Gauge, std::less<>> gauges_;
};

}  // namespace openmx::obs
