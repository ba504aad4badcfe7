#pragma once

// Measurement helpers shared by the perfbench workloads: host clocks,
// the seeded input generator, the payload pool that fills send buffers
// and checks receive buffers, the pass-summary digest, the percentile
// helper, and the benchmark's own span recorder.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Host nanoseconds since the first call (the span time base).
inline std::int64_t host_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

/// Voluntary context switches of the calling thread.  A simulated process
/// blocks once per hand-off to the engine, so the delta over a process
/// body counts its hand-offs.
inline std::uint64_t thread_voluntary_switches() {
  rusage u{};
  getrusage(RUSAGE_THREAD, &u);
  return static_cast<std::uint64_t>(u.ru_nvcsw);
}

/// Host memory high-water mark of this process, in MiB.
inline double peak_rss_mib() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded generator for the workload inputs (size orders, payloads).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return splitmix64(state_);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// A seeded pool of random bytes.  Message (op, stream) of length `len`
/// carries the pool window starting at a seeded offset, so consecutive
/// messages differ and a stale or misplaced receive buffer fails the check.
class Payloads {
 public:
  Payloads(std::uint64_t seed, std::size_t max_len)
      : seed_(seed), max_len_(max_len), pool_(max_len + kSlack) {
    Rng rng(seed ^ 0x7061796c6f6164ULL);
    for (std::size_t i = 0; i < pool_.size(); i += 8) {
      const std::uint64_t w = rng.next();
      std::memcpy(pool_.data() + i, &w, std::min<std::size_t>(8, pool_.size() - i));
    }
  }

  [[nodiscard]] const std::uint8_t* window(std::uint64_t op,
                                           std::uint64_t stream) const {
    const std::uint64_t h =
        splitmix64(seed_ ^ splitmix64(op * 0x100000001b3ULL + stream));
    return pool_.data() + h % (kSlack + 1);
  }

  void fill(std::uint8_t* dst, std::uint64_t op, std::uint64_t stream,
            std::size_t len) const {
    std::memcpy(dst, window(op, stream), len);
  }

  [[nodiscard]] bool check(const std::uint8_t* got, std::uint64_t op,
                           std::uint64_t stream, std::size_t len) const {
    return std::memcmp(got, window(op, stream), len) == 0;
  }

  [[nodiscard]] std::size_t max_len() const { return max_len_; }

 private:
  static constexpr std::size_t kSlack = 1 << 20;
  std::uint64_t seed_;
  std::size_t max_len_;
  std::vector<std::uint8_t> pool_;
};

/// FNV-1a over 64-bit words: the digest of one pass's simulated summary
/// (per-op simulated completion times, delivered bytes, final virtual
/// time).  Equal inputs give equal digests; one differing word changes it.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Nearest-rank quantile of `v`, with the sample count and the number of
/// samples strictly beyond the reported rank (a p90 over >= 100 samples
/// has >= 10 samples beyond it).
struct Quantile {
  double value = 0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};

inline Quantile quantile(std::vector<double> v, double q) {
  Quantile out;
  out.samples = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  out.value = v[rank - 1];
  out.beyond = v.size() - rank;
  return out;
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5).value; }

/// One span of the benchmark's own trace: a public call (or a whole op)
/// made from one simulated process.  `parent` indexes the op span in the
/// same process log (-1 for op spans); spans of one op share `op`.
struct Span {
  const char* name = "";
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

/// Everything one simulated process records during a pass.  Only the
/// process's own thread touches it while the pass runs.
struct ProcLog {
  explicit ProcLog(bool traced = false) : trace(traced) {}

  bool trace;
  // Per op: (simulated completion time, delivered bytes); IMB ops record
  // the kernel's simulated time per repetition in place of the bytes.
  std::vector<std::pair<std::int64_t, std::uint64_t>> sim;
  std::vector<double> op_us;     // host time of each op this process timed
  std::vector<double> post_ns;   // traced: isend/irecv spans
  std::vector<double> wait_us;   // traced: wait spans
  std::vector<Span> spans;       // traced
  std::set<std::uint64_t> failed;
  std::int64_t end_vtime = 0;
  std::uint64_t handoffs = 0;

  /// Opens an op span; returns the handle end_op() takes.
  std::pair<std::int32_t, std::int64_t> begin_op(std::uint32_t op,
                                                 const char* name = "op") {
    const std::int64_t t0 = host_ns();
    std::int32_t idx = -1;
    if (trace) {
      idx = static_cast<std::int32_t>(spans.size());
      spans.push_back(Span{name, t0, 0, -1, op});
    }
    return {idx, t0};
  }

  /// Closes an op span and returns its host duration in microseconds.
  double end_op(std::pair<std::int32_t, std::int64_t> h) {
    const std::int64_t t1 = host_ns();
    if (h.first >= 0) spans[static_cast<std::size_t>(h.first)].t1 = t1;
    const double us = static_cast<double>(t1 - h.second) / 1e3;
    op_us.push_back(us);
    return us;
  }

  enum class Call { Post, Wait };

  /// Runs one public call; when tracing, records it as a child span of
  /// the op `h` and files its duration under post or wait.
  template <typename F>
  auto call(const char* name, Call kind, std::pair<std::int32_t, std::int64_t> h,
            std::uint32_t op, F&& f) {
    if (!trace) return f();
    const std::int64_t t0 = host_ns();
    auto r = f();
    const std::int64_t t1 = host_ns();
    spans.push_back(Span{name, t0, t1, h.first, op});
    if (kind == Call::Post)
      post_ns.push_back(static_cast<double>(t1 - t0));
    else
      wait_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    return r;
  }
};

}  // namespace perfbench
