#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"
#include "sim/thread_pool.hpp"
#include "sim/time.hpp"

namespace openmx::sim {

/// One timestamped message crossing from one logical process to another.
///
/// `apply` runs on the destination LP (from the window loop, never from
/// engine context) and typically schedules engine work at `when`; it may
/// only touch destination-LP state.  (when, origin, seq) is a total
/// order — `origin` is a globally unique source id (the sending node)
/// and `seq` a per-origin monotonic counter — so sorting each window's
/// inbound batch makes delivery order, and therefore engine sequence
/// assignment, independent of worker count and OS scheduling.
struct LpMessage {
  Time when = 0;
  std::uint32_t origin = 0;
  std::uint64_t seq = 0;
  std::function<void()> apply;

  [[nodiscard]] bool before(const LpMessage& o) const {
    if (when != o.when) return when < o.when;
    if (origin != o.origin) return origin < o.origin;
    return seq < o.seq;
  }
};

/// One logical process: an Engine plus in/out message queues.  The LP id
/// must equal its registration index with the scheduler.  All engine and
/// outbox access is confined to the worker currently executing this LP's
/// window (or the coordinator between windows); the barrier protocol
/// provides the necessary happens-before edges, so no per-LP locking is
/// needed anywhere.
class Lp {
 public:
  explicit Lp(int id) : id_(id) {}

  Lp(const Lp&) = delete;
  Lp& operator=(const Lp&) = delete;

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] Engine& engine() { return engine_; }
  [[nodiscard]] const Engine& engine() const { return engine_; }

  /// Queues a message for another LP.  Only legal while this LP's window
  /// executes.  `msg.when` must be at or beyond the current window's end
  /// — that is the conservative-lookahead contract; violating it means
  /// the lookahead passed to the scheduler exceeds the real minimum
  /// latency of the model, which would silently break causality, so it
  /// throws instead.
  void post(int dst_lp, LpMessage msg) {
    if (msg.when < min_safe_when_)
      throw std::logic_error("Lp: message violates conservative lookahead");
    outbox_.at(static_cast<std::size_t>(dst_lp)).push_back(std::move(msg));
  }

 private:
  friend class LpScheduler;

  int id_;
  Engine engine_;
  std::vector<std::vector<LpMessage>> outbox_;  // indexed by destination LP
  std::vector<LpMessage> inbox_;
  Time min_safe_when_ = 0;  // current window end; set by the scheduler

  // Per-LP scheduler telemetry, accumulated across windows.  Everything
  // here lives in the *virtual-time* domain — window boundaries, event
  // counts, message counts, last-dispatch times — so the numbers are
  // bit-identical across runs and worker counts; the counter fields are
  // written either by the worker owning this LP's window or by the
  // coordinator between windows (never both in the same phase), so the
  // barrier protocol makes them race-free without atomics.  Exported in
  // LP-id order by LpScheduler::export_metrics as lp.<id>.*.
  std::uint64_t tl_windows_active_ = 0;  // windows with any event or inbox
  std::uint64_t tl_events_ = 0;          // events dispatched inside windows
  std::uint64_t tl_msgs_in_ = 0;         // cross-LP messages received
  std::uint64_t tl_msgs_out_ = 0;        // cross-LP messages sent
  std::uint64_t tl_critical_ = 0;        // windows this LP bounded
  Time tl_stall_ns_ = 0;                 // summed virtual barrier stall
  obs::Histogram tl_events_per_window_;
  obs::Histogram tl_inbox_depth_;
  obs::Histogram tl_stall_hist_;
};

/// Pause hint for spin loops: tells the core (and on SMT, the sibling
/// thread) that we are busy-waiting, without giving up the timeslice.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Centralized sense-reversing spin barrier for the window loop, with a
/// spin→yield backoff sized to the hardware.
///
/// The window loop hits this barrier twice per window, so when workers ≤
/// hardware threads the waiter stays hot: stage one spins briefly with a
/// pause hint (short — `pause` runs ~140 cycles on recent x86, so even
/// 256 of them is only ~10 µs; a longer spin stage measurably starves an
/// oversubscribed peer of its timeslice).  When the party count exceeds
/// the hardware threads the spin stage is skipped outright — a waiter
/// can only open the barrier by letting the runnable peer onto the core,
/// so stage two yields on every probe.  Deliberately no sleep stage: a
/// parked waiter cannot wake before its timer even when the barrier
/// opened long ago, and that timer floor dwarfs a window — measured on
/// the 1-core container, a 1–64 µs escalating sleep stage dropped w2
/// parity from ~1.0x to 0.45x.
class SpinBarrier {
 public:
  explicit SpinBarrier(unsigned parties = 1) { reset(parties); }

  /// Must only be called while no thread is inside arrive_and_wait().
  void reset(unsigned parties) {
    parties_ = parties;
    const unsigned hw = std::thread::hardware_concurrency();
    spin_limit_ = (hw && parties_ > hw) ? 0 : 256;
  }

  void arrive_and_wait() {
    if (parties_ <= 1) return;
    const std::uint64_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      gen_.fetch_add(1, std::memory_order_acq_rel);
    } else {
      unsigned waits = 0;
      while (gen_.load(std::memory_order_acquire) == gen) {
        if (waits < spin_limit_)
          cpu_relax();  // stage 1: short hot spin
        else
          std::this_thread::yield();  // stage 2: give up the timeslice
        ++waits;
      }
    }
  }

 private:
  unsigned parties_ = 1;
  unsigned spin_limit_ = 256;
  std::atomic<unsigned> arrived_{0};
  std::atomic<std::uint64_t> gen_{0};
};

/// Conservative parallel discrete-event scheduler over logical processes.
///
/// Classic null-message-free window synchronization (the SimBricks /
/// CMB-window scheme): with lookahead L — the minimum latency of any
/// inter-LP link — every event in [T, T+L) is independent of events
/// other LPs execute in the same window, because anything an LP sends
/// from inside the window cannot take effect before T+L.  The loop is:
///
///   1. coordinator: route every outbox message to its destination
///      inbox, pick T = min(next event, earliest queued message) over
///      all LPs; done when queues and engines are all empty,
///   2. barrier,
///   3. all workers: for each owned LP, sort + apply inbound messages,
///      then Engine::run_until just before T+L,
///   4. barrier, repeat.
///
/// Determinism does not depend on the worker count: each LP's window is
/// single-threaded over private state, inbound batches are sorted by the
/// total (when, origin, seq) order before delivery, and routing runs on
/// the coordinator in LP-id order.  The same loop executes for one
/// worker and for eight — byte-identical results either way (asserted
/// by test_determinism's multi-LP suite).
class LpScheduler {
 public:
  /// `lookahead` must not exceed the true minimum inter-LP latency.
  explicit LpScheduler(Time lookahead) : lookahead_(lookahead) {
    if (lookahead_ <= 0)
      throw std::logic_error("LpScheduler: lookahead must be positive");
  }

  /// Registers an LP; lp.id() must equal the registration index.
  void add(Lp& lp) {
    if (lp.id() != static_cast<int>(lps_.size()))
      throw std::logic_error("LpScheduler: LP id must equal its index");
    lps_.push_back(&lp);
  }

  [[nodiscard]] Time lookahead() const { return lookahead_; }
  [[nodiscard]] std::size_t num_lps() const { return lps_.size(); }

  /// Windows executed so far (monotone; for benches and tests).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  /// Cross-LP messages routed so far.
  [[nodiscard]] std::uint64_t messages_routed() const { return messages_; }

  // ----- scale-out telemetry ---------------------------------------------

  /// Keeps the last `capacity` windows in a chronological log from which
  /// write_lp_trace renders one Perfetto timeline per LP (busy / stall /
  /// critical slices).  Call before run(); off by default.
  void enable_window_log(std::size_t capacity = 4096) {
    log_cap_ = capacity;
  }
  [[nodiscard]] const obs::LpWindowLog& window_log() const {
    return window_log_;
  }

  /// Folds the per-LP telemetry into `out` in LP-id order (deterministic
  /// for any worker count): per-LP counters/histograms under lp.<id>.*,
  /// the critical-LP summary under lp.critical.*, and scheduler-wide
  /// totals (lp.windows, lp.messages_routed, lp.window_advance_ns,
  /// lp.max_inbox_depth).
  void export_metrics(obs::Registry& out) const {
    char name[64];
    for (const Lp* lp : lps_) {
      const int id = lp->id_;
      const auto put = [&](const char* suffix, std::uint64_t v) {
        std::snprintf(name, sizeof name, "lp.%d.%s", id, suffix);
        if (v) out.counter(name).add(v);
      };
      put("windows_active", lp->tl_windows_active_);
      put("events", lp->tl_events_);
      put("msgs_in", lp->tl_msgs_in_);
      put("msgs_out", lp->tl_msgs_out_);
      put("critical_windows", lp->tl_critical_);
      put("stall_ns", static_cast<std::uint64_t>(lp->tl_stall_ns_));
      std::snprintf(name, sizeof name, "lp.%d.events_per_window", id);
      out.histogram(name).merge(lp->tl_events_per_window_);
      std::snprintf(name, sizeof name, "lp.%d.inbox_depth", id);
      out.histogram(name).merge(lp->tl_inbox_depth_);
      std::snprintf(name, sizeof name, "lp.%d.barrier_stall_ns", id);
      out.histogram(name).merge(lp->tl_stall_hist_);
      out.gauge("lp.max_inbox_depth")
          .set(static_cast<std::int64_t>(lp->tl_inbox_depth_.max()));
    }
    if (windows_) out.counter("lp.windows").add(windows_);
    if (messages_) out.counter("lp.messages_routed").add(messages_);
    out.histogram("lp.critical.slack_ns").merge(crit_slack_);
    out.histogram("lp.window_advance_ns").merge(advance_hist_);
  }

  /// Runs every LP to global quiescence.  `workers` = 0 sizes the team
  /// automatically (shared pool soft capacity); an explicit count is
  /// honoured exactly, as SweepRunner does.  Helpers come from
  /// ThreadPool::shared(), so LP teams and sweep fan-out share one
  /// thread budget.
  void run(unsigned workers = 0) {
    if (lps_.empty()) return;
    for (Lp* lp : lps_)
      lp->outbox_.resize(lps_.size());
    if (log_cap_ && window_log_.num_lps() != lps_.size())
      window_log_.reset(lps_.size(), log_cap_);

    unsigned want =
        workers ? workers : ThreadPool::shared().soft_cap();
    want = static_cast<unsigned>(
        std::min<std::size_t>(want, lps_.size()));
    if (want == 0) want = 1;

    error_ = nullptr;
    done_ = false;

    if (want == 1) {
      nworkers_ = 1;
      worker_loop(0);
    } else {
      // The grant decides the team size, so helpers must not start the
      // loop until the barrier is sized: hold them at a go-latch.
      std::atomic<int> go{0};
      auto helper = [this, &go](unsigned slot) {
        while (go.load(std::memory_order_acquire) == 0)
          std::this_thread::yield();
        worker_loop(slot + 1);
      };
      ThreadPool::Team team = ThreadPool::shared().spawn(
          want - 1, /*exact=*/workers != 0, helper);
      nworkers_ = team.size() + 1;
      barrier_.reset(nworkers_);
      go.store(1, std::memory_order_release);
      worker_loop(0);
      ThreadPool::shared().join(team);
    }
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void worker_loop(unsigned w) {
    for (;;) {
      if (w == 0) {
        OMX_WALL_ZONE("lp.plan");
        plan_window();
      }
      {
        OMX_WALL_ZONE("lp.barrier_wait");
        barrier_.arrive_and_wait();
      }
      if (done_) break;
      try {
        OMX_WALL_ZONE("lp.window_compute");
        for (std::size_t i = w; i < lps_.size(); i += nworkers_)
          run_window(*lps_[i]);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu_);
        if (!error_) error_ = std::current_exception();
      }
      OMX_WALL_ZONE("lp.barrier_wait");
      barrier_.arrive_and_wait();
    }
  }

  /// Coordinator step between windows: route outboxes (source-id order,
  /// deterministic), then pick the next window or decide quiescence.
  void plan_window() {
    {
      const std::lock_guard<std::mutex> lock(error_mu_);
      if (error_) {
        done_ = true;
        return;
      }
    }
    for (Lp* src : lps_) {
      for (std::size_t d = 0; d < src->outbox_.size(); ++d) {
        auto& out = src->outbox_[d];
        if (out.empty()) continue;
        messages_ += out.size();
        src->tl_msgs_out_ += out.size();
        lps_[d]->tl_msgs_in_ += out.size();
        auto& in = lps_[d]->inbox_;
        in.insert(in.end(), std::make_move_iterator(out.begin()),
                  std::make_move_iterator(out.end()));
        out.clear();
      }
    }

    // The window start is the global minimum next action; the LP holding
    // that minimum is the window's *critical* LP — it alone determined
    // how far everyone may advance — and the runner-up's distance is the
    // slack: how much further the window could have reached without it.
    constexpr Time kInf = std::numeric_limits<Time>::max();
    Time start = kInf;
    Time second = kInf;
    Lp* critical = nullptr;
    for (Lp* lp : lps_) {
      Time t = kInf;
      Time next;
      if (lp->engine_.next_event_time(next)) t = next;
      for (const LpMessage& m : lp->inbox_) t = std::min(t, m.when);
      if (t < start) {
        second = start;
        start = t;
        critical = lp;
      } else if (t < second) {
        second = t;
      }
    }
    if (start == kInf) {
      done_ = true;
      return;
    }
    const Time slack = second == kInf ? 0 : second - start;
    critical->tl_critical_ += 1;
    crit_slack_.add(static_cast<std::uint64_t>(slack));
    if (windows_)
      advance_hist_.add(static_cast<std::uint64_t>(start - prev_start_));
    prev_start_ = start;
    window_end_ = start + lookahead_;
    for (Lp* lp : lps_) lp->min_safe_when_ = window_end_;
    ++windows_;
    cur_win_ = log_cap_ ? &window_log_.append(start, window_end_,
                                              critical->id_, slack)
                        : nullptr;
  }

  /// One LP's slice of the window: deliver the sorted inbound batch,
  /// then run the engine up to (excluding) the window end.  The trailing
  /// accounting block is the per-LP telemetry: events and inbox depth
  /// are exact, and the *virtual* barrier stall is the gap between the
  /// LP's last dispatch and the window end — the simulated-time span the
  /// LP spent finished while the window stayed open.  Defining stall in
  /// virtual time (not wall time) keeps it bit-identical across runs and
  /// worker counts.
  void run_window(Lp& lp) {
    const Time wstart = window_end_ - lookahead_;
    const std::uint64_t ev_before = lp.engine_.events_dispatched();
    const std::size_t depth = lp.inbox_.size();
    if (!lp.inbox_.empty()) {
      OMX_WALL_ZONE("lp.inbox_merge");
      std::sort(lp.inbox_.begin(), lp.inbox_.end(),
                [](const LpMessage& a, const LpMessage& b) {
                  return a.before(b);
                });
      for (LpMessage& m : lp.inbox_) m.apply();
      lp.inbox_.clear();
    }
    lp.engine_.run_until(window_end_ - 1);

    const std::uint64_t ev = lp.engine_.events_dispatched() - ev_before;
    const Time busy =
        ev ? std::max(lp.engine_.last_dispatch_when(), wstart) : wstart;
    const Time stall = (window_end_ - 1) - busy;
    lp.tl_events_ += ev;
    lp.tl_stall_ns_ += stall;
    lp.tl_events_per_window_.add(ev);
    lp.tl_inbox_depth_.add(depth);
    lp.tl_stall_hist_.add(static_cast<std::uint64_t>(stall));
    if (ev || depth) ++lp.tl_windows_active_;
    if (cur_win_) {
      obs::LpWindowStat& s =
          cur_win_->per_lp[static_cast<std::size_t>(lp.id_)];
      s.events = static_cast<std::uint32_t>(ev);
      s.inbox = static_cast<std::uint32_t>(depth);
      s.busy_until = busy;
    }
  }

  Time lookahead_;
  std::vector<Lp*> lps_;
  SpinBarrier barrier_;
  unsigned nworkers_ = 1;
  Time window_end_ = 0;
  bool done_ = false;
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
  std::mutex error_mu_;
  std::exception_ptr error_;

  // Telemetry state.  crit_slack_/advance_hist_/prev_start_ are written
  // by the coordinator only; cur_win_ points at the current window's log
  // record, whose per-LP slots the workers fill (disjoint indices, with
  // the barrier ordering the coordinator's append against the writes).
  obs::Histogram crit_slack_;
  obs::Histogram advance_hist_;
  Time prev_start_ = 0;
  std::size_t log_cap_ = 0;
  obs::LpWindowLog window_log_;
  obs::LpWindow* cur_win_ = nullptr;
};

}  // namespace openmx::sim
