#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace openmx::obs {

/// Host wall-clock self-profiler: where does the *simulator's own* time go?
///
/// Everything else in obs/ observes virtual time and is deterministic by
/// contract.  This class is its host-time mirror: RAII scoped zones
/// (OMX_WALL_ZONE("engine.dispatch")) aggregate count / inclusive-ns /
/// exclusive-ns per zone into thread-local tables — no locks, no shared
/// writes on the hot path — so the cost of a timed zone is two timestamp
/// reads (rdtsc where available) plus a handful of thread-local adds.
/// Zone ids are interned once per call site through a function-local
/// static, and a per-thread zone *stack* subtracts child time from the
/// parent, so exclusive times satisfy excl == incl - sum(child incl).
///
/// Two tiers.  Zones outside engine events (engine.run, lp.*, harness
/// zones) are exact: every occurrence is timed.  Inside an event — the
/// scope of one EventSample, opened by sim::Engine::step — zones are
/// sampled: one event in kEventSampleEvery is timed together with every
/// zone opened inside it, and each of those occurrences is recorded at
/// weight kEventSampleEvery (count, inclusive and child time alike); in
/// the other events a zone costs one thread-local flag check.  Sampled
/// totals are therefore estimates that also carry the cost of their own
/// zones, so a parent's exclusive time (incl minus the estimated child
/// time) can come out negative; it is clamped at 0.  While the slice ring
/// is on every event is timed at weight 1, so traces show every slice.
///
/// Wall numbers are inherently nondeterministic, so they live strictly
/// apart from the deterministic metrics stream: export_metrics() writes
/// wall.<zone>.{ns,count,excl_ns} into a *caller-chosen* registry and
/// nothing in the library ever merges them into a simulation registry,
/// replay digest, or committed baseline (asserted by test_wallprof).
///
/// Gate: OMX_WALLPROF=0 in the environment (or set_enabled(false))
/// reduces a zone to one relaxed atomic load — no clock reads, no
/// thread-table allocation, nothing recorded.
///
/// Each zone exit additionally appends a {zone, t0, t1} slice to a
/// bounded per-thread ring, from which write_trace_events() renders one
/// host-time Perfetto process per thread — the dual-clock view next to
/// the virtual-time timeline (see obs::write_dual_clock_trace_file).
///
/// reset() and the read-side APIs (export_metrics, totals, coverage,
/// write_trace_events) touch other threads' tables and must only run
/// while no instrumented code executes concurrently (between runs, after
/// ThreadPool::join) — the same quiescence the LP scheduler's metric
/// export already requires.
class WallProfiler {
 public:
  struct ZoneTotals {
    std::uint64_t count = 0;
    std::uint64_t ns = 0;       // inclusive
    std::uint64_t excl_ns = 0;  // inclusive minus time in nested zones
  };

  /// One completed zone occurrence, for the host-time Perfetto track.
  /// Timestamps are raw clock ticks; to_ns() converts at export time.
  struct Slice {
    std::uint32_t zone = 0;
    std::uint32_t depth = 0;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
  };

  static WallProfiler& instance() {
    static WallProfiler p;
    return p;
  }

  /// Interns a zone name; ids are dense and stable for the process
  /// lifetime.  Called once per call site via OMX_WALL_ZONE's static.
  [[nodiscard]] static std::uint32_t intern(std::string_view name) {
    WallProfiler& p = instance();
    const std::lock_guard<std::mutex> lock(p.mu_);
    for (std::size_t i = 0; i < p.names_.size(); ++i)
      if (p.names_[i] == name) return static_cast<std::uint32_t>(i);
    p.names_.emplace_back(name);
    return static_cast<std::uint32_t>(p.names_.size() - 1);
  }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Runtime toggle (the OMX_WALLPROF env var sets the initial state).
  /// Disabling mid-zone is safe: an open zone finishes against the table
  /// it captured at entry; new zones become no-ops.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  [[nodiscard]] const char* clock_name() const {
#if defined(__x86_64__) || defined(__i386__)
    return "rdtsc";
#else
    return "steady_clock";
#endif
  }

  /// Raw timestamp (ticks of clock_name()).  rdtsc on x86 — cheaper than
  /// a clock_gettime vsyscall, but still ~16 ns on a virtualized host, so
  /// a timed zone costs ~40 ns: too much to pay on every ~30 ns engine
  /// event, which is why in-event zones are sampled (see EventSample).
  [[nodiscard]] static std::uint64_t now_raw() {
#if defined(__x86_64__) || defined(__i386__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
#endif
  }

  /// Ticks → nanoseconds.  Calibrated once, lazily, on the first
  /// read-side call: the constant-rate TSC is measured against
  /// steady_clock over the time since profiler construction (spinning
  /// briefly if that baseline is still under 1 ms), then cached — so
  /// every later conversion uses the *same* rate and cross-call
  /// arithmetic like excl == incl - child stays exact in nanoseconds
  /// too, not just in ticks.
  [[nodiscard]] double ns_per_tick() const {
#if defined(__x86_64__) || defined(__i386__)
    double cached = npt_cache_.load(std::memory_order_relaxed);
    if (cached > 0.0) return cached;
    double dns = 0.0;
    do {
      dns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - epoch_wall_)
              .count());
    } while (dns < 1e6);
    const double dticks = static_cast<double>(now_raw() - epoch_raw_);
    cached = dticks > 0 ? dns / dticks : 1.0;
    npt_cache_.store(cached, std::memory_order_relaxed);
    return cached;
#else
    return 1.0;
#endif
  }

  [[nodiscard]] std::uint64_t to_ns(std::uint64_t ticks, double npt) const {
    return static_cast<std::uint64_t>(static_cast<double>(ticks) * npt);
  }

  // ----- read side (quiescent only) --------------------------------------

  [[nodiscard]] std::size_t num_zones() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return names_.size();
  }

  [[nodiscard]] std::size_t num_threads() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return tables_.size();
  }

  /// Aggregated totals of one zone across every thread, in nanoseconds.
  [[nodiscard]] ZoneTotals totals(std::string_view name) const {
    const double npt = ns_per_tick();
    const std::lock_guard<std::mutex> lock(mu_);
    ZoneTotals out;
    const std::size_t zid = find_zone(name);
    if (zid == names_.size()) return out;
    for (const auto& t : tables_) {
      if (zid >= t->stats.size()) continue;
      const ZoneStat& s = t->stats[zid];
      out.count += s.count;
      out.ns += to_ns(s.incl_ticks, npt);
      out.excl_ns += to_ns(excl_ticks(s), npt);
    }
    return out;
  }

  /// Total time in top-level (unnested) zones across all threads — the
  /// denominator for shares like "what fraction of instrumented wall
  /// time went to barrier waits".
  [[nodiscard]] std::uint64_t toplevel_ns() const {
    const double npt = ns_per_tick();
    const std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t total = 0;
    for (const auto& t : tables_) total += to_ns(t->toplevel_ticks, npt);
    return total;
  }

  /// Fraction of `root`'s inclusive time attributed to nested zones
  /// (1 - excl/incl): how much of a run the instrumentation actually
  /// explains.  The bench_sim_speed KPI asserts this >= 0.90 for the
  /// sequential engine run.  Sampled child estimates can exceed the
  /// parent (exclusive time clamps at 0), so this saturates at 1.0; the
  /// KPI prints the unclamped child/parent ratio next to it.
  [[nodiscard]] double coverage(std::string_view root) const {
    const ZoneTotals t = totals(root);
    if (t.ns == 0) return 0.0;
    return 1.0 -
           static_cast<double>(t.excl_ns) / static_cast<double>(t.ns);
  }

  /// Writes wall.<scope><zone>.{ns,count,excl_ns} counters into `out` —
  /// which must be a wall-side registry, never the deterministic metrics
  /// one.  `scope` (e.g. "seq.") namespaces repeated exports of the same
  /// process, as when a bench profiles several modes back to back with a
  /// reset() in between.  Zones in interned-id order; Registry sorts by
  /// name on dump.
  void export_metrics(Registry& out, const char* scope = "") const {
    const double npt = ns_per_tick();
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<ZoneTotals> agg(names_.size());
    for (const auto& t : tables_) {
      for (std::size_t z = 0; z < t->stats.size() && z < agg.size(); ++z) {
        agg[z].count += t->stats[z].count;
        agg[z].ns += to_ns(t->stats[z].incl_ticks, npt);
        agg[z].excl_ns += to_ns(excl_ticks(t->stats[z]), npt);
      }
    }
    char name[96];
    for (std::size_t z = 0; z < agg.size(); ++z) {
      if (!agg[z].count) continue;
      std::snprintf(name, sizeof name, "wall.%s%s.ns", scope,
                    names_[z].c_str());
      out.counter(name).add(agg[z].ns);
      std::snprintf(name, sizeof name, "wall.%s%s.count", scope,
                    names_[z].c_str());
      out.counter(name).add(agg[z].count);
      std::snprintf(name, sizeof name, "wall.%s%s.excl_ns", scope,
                    names_[z].c_str());
      out.counter(name).add(agg[z].excl_ns);
    }
  }

  /// Zeroes every thread's aggregates and slice ring (zone names and
  /// thread registrations survive).  Quiescent-only, like the exports.
  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : tables_) {
      for (ZoneStat& s : t->stats) s = ZoneStat{};
      t->toplevel_ticks = 0;
      t->ring_size = 0;
      t->ring_head = 0;
      t->slices_seen = 0;
    }
  }

  /// Per-thread slice-ring capacity.  Off by default — the ring write is
  /// the one hot-path cost that is pure tracing, so only trace-producing
  /// harnesses turn it on (before the run: it resizes every registered
  /// thread's ring, so quiescent-only like the other read-side calls).
  /// While it is on, every engine event is timed (no sampling).
  void set_slice_capacity(std::size_t cap) {
    const std::lock_guard<std::mutex> lock(mu_);
    slice_cap_ = cap;
    every_event_.store(cap != 0, std::memory_order_relaxed);
    for (const auto& t : tables_) {
      t->ring.assign(cap, Slice{});
      t->ring_head = 0;
      t->ring_size = 0;
    }
  }

  /// Emits the captured slices as Chrome-trace events: one Perfetto
  /// process per host thread (pid = kWallTracePidBase + thread index,
  /// named "host-thread<i>"), slices in ring-chronological order with
  /// timestamps in microseconds since the profiler epoch.  `first`
  /// carries the caller's separator state so the events can be appended
  /// to an existing traceEvents array (the dual-clock writer does this).
  static constexpr int kWallTracePidBase = 2000;

  void write_trace_events(std::FILE* out, bool& first) const {
    const double npt = ns_per_tick();
    const std::lock_guard<std::mutex> lock(mu_);
    auto sep = [&] {
      std::fputs(first ? "\n" : ",\n", out);
      first = false;
    };
    for (std::size_t ti = 0; ti < tables_.size(); ++ti) {
      const ThreadTable& t = *tables_[ti];
      if (!t.ring_size) continue;
      const int pid = kWallTracePidBase + static_cast<int>(ti);
      sep();
      std::fprintf(out,
                   "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                   "\"args\":{\"name\":\"host-thread%zu\"}}",
                   pid, ti);
      // ring_head is the *next write* slot: a full ring's oldest entry
      // lives there, a partially-filled one starts ring_size slots back.
      const std::size_t start =
          (t.ring_head + t.ring.size() - t.ring_size) % t.ring.size();
      for (std::size_t i = 0; i < t.ring_size; ++i) {
        const Slice& s = t.ring[(start + i) % t.ring.size()];
        const double ts =
            static_cast<double>(to_ns(s.t0 - epoch_raw_, npt)) / 1e3;
        const double dur =
            static_cast<double>(to_ns(s.t1 - s.t0, npt)) / 1e3;
        sep();
        std::fprintf(out,
                     "{\"name\":\"%s\",\"cat\":\"wall\",\"ph\":\"X\","
                     "\"pid\":%d,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                     names_[s.zone].c_str(), pid, s.depth, ts, dur);
      }
    }
  }

  /// Standalone host-time trace file (the dual-clock composition lives
  /// in obs/perfetto.hpp to keep this header engine-independent).
  bool write_trace_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    bool first = true;
    std::fputs("{\"traceEvents\":[", f);
    write_trace_events(f, first);
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", f);
    std::fclose(f);
    return true;
  }

 private:
  friend class WallZone;
  friend class EventSample;

  struct ZoneStat {
    std::uint64_t count = 0;
    std::uint64_t incl_ticks = 0;
    std::uint64_t child_ticks = 0;
  };

  /// Inclusive minus child time, clamped at 0: a sampled child estimate
  /// may exceed its exactly timed parent.
  [[nodiscard]] static std::uint64_t excl_ticks(const ZoneStat& s) {
    return s.incl_ticks > s.child_ticks ? s.incl_ticks - s.child_ticks : 0;
  }

  /// Event-tier state of one thread: `skip` is set for the whole of an
  /// event that is not timed, `weight` is what a zone closing now is
  /// recorded at, `tick` counts the events begun on this thread.
  /// Constant-initialized, so reading it is a plain thread-local load.
  struct Sampling {
    bool skip = false;
    std::uint32_t weight = 1;
    std::uint32_t tick = 0;
  };
  static thread_local Sampling sampling_;
  static inline std::atomic<bool> every_event_{false};

  struct StackFrame {
    std::uint32_t zone = 0;
    std::uint64_t t0 = 0;
    std::uint64_t child_ticks = 0;
  };

  /// All hot-path state of one thread.  Owned by the profiler's table
  /// list (the thread only caches a raw pointer), so the aggregates
  /// survive thread exit (LP helper threads come and go).
  struct ThreadTable {
    std::vector<ZoneStat> stats;       // indexed by zone id
    std::vector<StackFrame> stack;     // open zones, innermost last
    std::uint64_t toplevel_ticks = 0;  // inclusive ticks of depth-0 zones
    std::vector<Slice> ring;           // bounded slice capture
    std::size_t ring_head = 0;
    std::size_t ring_size = 0;
    std::uint64_t slices_seen = 0;
  };

  WallProfiler() {
    epoch_raw_ = now_raw();
    epoch_wall_ = std::chrono::steady_clock::now();
    const char* env = std::getenv("OMX_WALLPROF");
    enabled_.store(!(env && env[0] == '0' && !env[1]),
                   std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t find_zone(std::string_view name) const {
    for (std::size_t i = 0; i < names_.size(); ++i)
      if (names_[i] == name) return i;
    return names_.size();
  }

  /// The hot-path accessor: one relaxed load when disabled; otherwise
  /// the thread's table, registered (and its ring sized) on first use.
  /// The cache is a constant-initialized raw pointer, not the owning
  /// shared_ptr — a zero-initialized thread_local has no dynamic-init
  /// guard check, which matters at ~2 zones per engine event.  The
  /// profiler's tables_ list keeps the table alive past thread exit.
  [[nodiscard]] static ThreadTable* tls() {
    WallProfiler& p = instance();
    if (!p.enabled_.load(std::memory_order_relaxed)) return nullptr;
    thread_local ThreadTable* table = nullptr;
    if (!table) table = p.register_thread();
    return table;
  }

  [[nodiscard]] ThreadTable* register_thread() {
    auto t = std::make_shared<ThreadTable>();
    const std::lock_guard<std::mutex> lock(mu_);
    t->stats.resize(names_.size() + 8);
    t->stack.reserve(32);
    t->ring.resize(slice_cap_);
    tables_.push_back(t);
    return t.get();
  }

  std::atomic<bool> enabled_{false};
  mutable std::atomic<double> npt_cache_{0.0};
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::shared_ptr<ThreadTable>> tables_;
  std::size_t slice_cap_ = 0;
  std::uint64_t epoch_raw_ = 0;
  std::chrono::steady_clock::time_point epoch_wall_{};
};

inline thread_local WallProfiler::Sampling WallProfiler::sampling_{};

/// Marks the scope of one engine event for the sampled zone tier:
/// sim::Engine::step opens one around each dispatch, before its
/// "engine.dispatch" zone.  One event in kEventSampleEvery per thread is
/// timed, with every zone opened inside it recorded at that weight; the
/// others set the thread's skip flag, so their zones record nothing.
/// While the slice ring is on every event is timed at weight 1.  The
/// destructor restores the state it found, so a callback that throws
/// leaves no skip flag or weight behind, and a nested event inside a
/// skipped one stays skipped.
class EventSample {
 public:
  static constexpr std::uint32_t kEventSampleEvery = 64;

  EventSample()
      : saved_skip_(WallProfiler::sampling_.skip),
        saved_weight_(WallProfiler::sampling_.weight) {
    WallProfiler::Sampling& s = WallProfiler::sampling_;
    if (s.skip) return;
    if (WallProfiler::every_event_.load(std::memory_order_relaxed))
      s.weight = 1;
    else if (++s.tick % kEventSampleEvery != 0)
      s.skip = true;
    else
      s.weight = kEventSampleEvery;
  }

  EventSample(const EventSample&) = delete;
  EventSample& operator=(const EventSample&) = delete;

  ~EventSample() {
    WallProfiler::sampling_.skip = saved_skip_;
    WallProfiler::sampling_.weight = saved_weight_;
  }

 private:
  bool saved_skip_;
  std::uint32_t saved_weight_;
};

/// RAII scoped zone.  Constructed with an interned zone id (see
/// OMX_WALL_ZONE); destruction folds the occurrence into the thread's
/// table at the current EventSample weight and charges the inclusive time
/// to the parent frame's child accumulator — the exclusive-time
/// invariant.  Inside an event that is not timed it records nothing.
class WallZone {
 public:
  explicit WallZone(std::uint32_t zone)
      : table_(WallProfiler::sampling_.skip ? nullptr : WallProfiler::tls()) {
    if (!table_) return;
    table_->stack.push_back(
        {zone, WallProfiler::now_raw(), 0});
  }

  WallZone(const WallZone&) = delete;
  WallZone& operator=(const WallZone&) = delete;

  ~WallZone() {
    if (!table_) return;
    const std::uint64_t t1 = WallProfiler::now_raw();
    const WallProfiler::StackFrame f = table_->stack.back();
    table_->stack.pop_back();
    const std::uint64_t w = WallProfiler::sampling_.weight;
    const std::uint64_t incl = w * (t1 - f.t0);
    if (f.zone >= table_->stats.size())
      table_->stats.resize(f.zone + 8);
    WallProfiler::ZoneStat& s = table_->stats[f.zone];
    s.count += w;
    s.incl_ticks += incl;
    s.child_ticks += f.child_ticks;
    if (table_->stack.empty())
      table_->toplevel_ticks += incl;
    else
      table_->stack.back().child_ticks += incl;
    if (!table_->ring.empty()) {
      table_->ring[table_->ring_head] = WallProfiler::Slice{
          f.zone, static_cast<std::uint32_t>(table_->stack.size()), f.t0, t1};
      table_->ring_head = (table_->ring_head + 1) % table_->ring.size();
      if (table_->ring_size < table_->ring.size()) ++table_->ring_size;
      ++table_->slices_seen;
    }
  }

 private:
  WallProfiler::ThreadTable* table_;
};

}  // namespace openmx::obs

#define OMX_WALL_CAT2(a, b) a##b
#define OMX_WALL_CAT(a, b) OMX_WALL_CAT2(a, b)
#define OMX_WALL_ZONE_IMPL(name, id_var, zone_var)                     \
  static const std::uint32_t id_var =                                  \
      ::openmx::obs::WallProfiler::intern(name);                       \
  const ::openmx::obs::WallZone zone_var { id_var }
/// Opens a scoped wall-clock zone for the rest of the enclosing block.
/// The name is interned once (function-local static); inside an event
/// that is not sampled the zone is one thread-local flag check, and when
/// the profiler is disabled at runtime it adds one relaxed atomic load.
/// A zone must not contain a sim::SimThread yield: a process is a fiber on
/// the engine's thread, whose zone stack the engine and other fibers use.
#define OMX_WALL_ZONE(name)                                            \
  OMX_WALL_ZONE_IMPL(name, OMX_WALL_CAT(omx_wzid_, __COUNTER__),       \
                     OMX_WALL_CAT(omx_wz_, __COUNTER__))
