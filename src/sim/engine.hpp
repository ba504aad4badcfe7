#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/wallprof.hpp"
#include "sim/event_slab.hpp"
#include "sim/inline_fn.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace openmx::sim {

class Engine;

/// Callback type stored per event: 48 bytes of inline capture storage
/// covers every per-frame lambda the simulator schedules (the NIC
/// delivery closure, a Network pointer plus a 40-byte Frame, is exactly
/// 48 bytes and static_asserts that it fits); bigger captures silently
/// fall back to one heap allocation.
using EventFn = InlineFn<48>;

/// Sub-timestamp dispatch band.
///
/// Events at the same instant normally fire in schedule order (FIFO), but
/// that order is a *global* property of one engine — it cannot survive
/// partitioning the simulation into logical processes, where each LP
/// assigns its own sequence numbers.  Resource-claim events (the network's
/// rx-port claims) therefore run in a dedicated band that fires before all
/// normal events at the same timestamp, and order claims among themselves
/// by an explicit location-independent key (see net::Network's claim
/// heaps).  With claims lifted out of FIFO tie-breaking, a partitioned
/// run dispatches bit-identically to the single-engine run.
///
/// kFlow sits between claims and normal events: the fluid network's
/// flow-completion events fire there, so any normal event at the same
/// nanosecond observes post-completion fair-share rates (and, like
/// claims, completions keep a location-independent identity — the flow
/// id — when the fluid fabric is sharded across LPs).
enum class Band : std::uint8_t { kClaim = 0, kFlow = 1, kNormal = 2 };

/// Handle to a scheduled event that may be cancelled before it fires.
///
/// A handle is a weak {slot, generation} reference into the engine's
/// event slab: cancel() and pending() are O(1) pointer-free lookups, and
/// allocation-free — the seed engine's `shared_ptr<bool>` liveness flag
/// is gone.  When the event fires (or the slot is recycled for a newer
/// event) the generation no longer matches and the handle becomes an
/// inert no-op.  Copies share fate: they all refer to the same slot.
/// Used by retransmission timers, which are cancelled far more often
/// than they fire.  A handle must not outlive its Engine.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet.  Idempotent.
  inline void cancel();

  /// True if the event is still pending (scheduled, not fired or cancelled).
  [[nodiscard]] inline bool pending() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, EventRecord* rec, std::uint32_t gen)
      : engine_(engine), rec_(rec), gen_(gen) {}

  Engine* engine_ = nullptr;
  EventRecord* rec_ = nullptr;
  std::uint32_t gen_ = 0;
};

/// Deterministic discrete-event engine with nanosecond virtual time.
///
/// Events scheduled for the same instant fire in schedule order (FIFO via a
/// monotonically increasing sequence number), which makes every experiment
/// bit-reproducible.  The engine is strictly single-threaded: only the
/// currently running entity (the engine itself, or the one SimThread it has
/// handed control to) may call schedule().
///
/// Hot-path layout (see DESIGN.md "Scheduler architecture"): callbacks
/// are slab-allocated EventRecords with small-buffer-optimized storage;
/// the priority structure — an owned 4-ary heap — orders 24-byte
/// {when, seq, slot} keys, so scheduling and dispatch are allocation-free
/// in steady state and no callback is ever copied.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` to run `delay` nanoseconds from now.  Accepts any
  /// void() callable, including move-only ones.
  template <typename F>
  void schedule(Time delay, F&& fn) {
    schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at absolute time `when` (must not be in the past).
  template <typename F>
  void schedule_at(Time when, F&& fn) {
    schedule_at(when, Band::kNormal, std::forward<F>(fn));
  }

  /// Band-explicit variant: Band::kClaim events fire before every normal
  /// event at the same timestamp, regardless of schedule order.
  template <typename F>
  void schedule_at(Time when, Band band, F&& fn) {
    if (when < now_) throw std::logic_error("Engine: scheduling in the past");
    push_event(when, band, std::forward<F>(fn));
  }

  /// Schedules a cancellable event; see EventHandle.
  template <typename F>
  EventHandle schedule_cancellable(Time delay, F&& fn) {
    return schedule_cancellable(delay, Band::kNormal, std::forward<F>(fn));
  }

  /// Band-explicit cancellable variant (the fluid network reschedules its
  /// Band::kFlow completion events whenever fair-share rates change).
  template <typename F>
  EventHandle schedule_cancellable(Time delay, Band band, F&& fn) {
    const Time when = now_ + delay;
    if (when < now_) throw std::logic_error("Engine: scheduling in the past");
    EventRecord* rec = push_event(when, band, std::forward<F>(fn));
    return EventHandle{this, rec, rec->gen};
  }

  /// Runs until the event queue is empty (cancelled events do not keep the
  /// engine alive).  Returns the final virtual time.
  Time run() {
    OMX_WALL_ZONE("engine.run");
    while (step()) {
    }
    return now_;
  }

  /// Runs events up to and including time `deadline`.  Events scheduled
  /// after the deadline remain queued.  Returns current virtual time.
  /// No profiler zone of its own: the LP scheduler calls it once per LP
  /// per window, inside its "lp.window_compute" zone.
  Time run_until(Time deadline) {
    Time next;
    while (peek_next_when(next) && next <= deadline) step();
    if (now_ < deadline) now_ = deadline;
    return now_;
  }

  /// Dispatches the single next live event.  Returns false when drained.
  /// The callback runs in place in its slab slot — never moved, never
  /// copied: the slot is not on the free list while it runs, so
  /// re-entrant scheduling cannot recycle it.  `cancelled` is flipped
  /// first so the event's own handle reads as not pending inside the
  /// callback, and the guard releases the slot even if the callback
  /// throws.
  bool step() {
    reap_cancelled();
    if (heap_.empty()) return false;
    // One "engine.dispatch" zone per dispatched event, covering the pop,
    // the callback and the slab release.  The EventSample makes it, and
    // every zone opened inside the callback, the sampled tier: one event
    // in 64 is timed and recorded at weight 64, the rest record nothing
    // (every event is timed while the slice ring is on).
    const obs::EventSample sample;
    OMX_WALL_ZONE("engine.dispatch");
    const EventKey k = heap_.pop_min();
    EventRecord* r = k.rec;
    --live_;
    now_ = k.when;
    ++dispatched_;
    last_dispatch_when_ = k.when;
    r->cancelled = true;
    const ReleaseGuard guard{&slab_, r};
    try {
      r->fn();
    } catch (...) {
      panic("event callback threw");
      throw;
    }
    return true;
  }

  /// Number of events still occupying a slab slot.  This includes
  /// cancelled events that still occupy a queue entry (they are reaped
  /// lazily, at the head of the queue) and the event currently being
  /// dispatched, if any; use live_events() for the count of events that
  /// will still fire.
  [[nodiscard]] std::size_t pending_events() const { return slab_.in_use(); }

  /// Number of scheduled events that will actually fire (cancelled
  /// events excluded the moment cancel() is called).
  [[nodiscard]] std::size_t live_events() const { return live_; }

  /// Total number of events ever scheduled (the FIFO sequence counter).
  /// Two runs of the same workload must agree on this exactly — used to
  /// assert that telemetry layers add no events to the simulation, and
  /// summed in LP-id order by a partitioned Cluster for cross-worker-count
  /// determinism checks.
  [[nodiscard]] std::uint64_t events_scheduled() const { return next_seq_; }

  /// Total number of events dispatched (cancelled events never count).
  /// Deterministic; the LP scheduler differences it across windows for
  /// per-LP events-per-window telemetry.
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }

  /// Timestamp of the most recently dispatched event (0 before the
  /// first).  With events_dispatched() this lets the LP scheduler locate
  /// the busy prefix of a window — the basis of the *virtual-time*
  /// barrier-stall metric, which unlike a wall-clock wait is
  /// bit-identical across runs and worker counts.
  [[nodiscard]] Time last_dispatch_when() const { return last_dispatch_when_; }

  /// Installs the postmortem hook: panic(why) invokes it at most once
  /// (re-armed by installing a new hook).  Harnesses point it at
  /// Trace::dump_json_file so the event tail survives any fatal path — a
  /// throwing event callback triggers it automatically, and components
  /// call panic() at their own unrecoverable sites (e.g. the driver when a
  /// fault plan exhausts a message's retry budget).
  void set_on_panic(std::function<void(const char*)> fn) {
    on_panic_ = std::move(fn);
    panicked_ = false;
  }

  /// Fires the on_panic hook (if installed and not already fired).
  /// Never throws: every caller is already on a failure path.
  void panic(const char* why) noexcept {
    if (panicked_ || !on_panic_) return;
    panicked_ = true;
    try {
      on_panic_(why);
    } catch (...) {
    }
  }

  /// Timestamp of the next live event, or false when the queue is
  /// drained.  Used by the LP scheduler to pick the next conservative
  /// synchronization window.
  [[nodiscard]] bool next_event_time(Time& when) { return peek_next_when(when); }

  /// Event ring shared by every component driven by this engine
  /// (disabled by default; see sim::Trace).
  [[nodiscard]] Trace& trace() { return trace_; }

  /// Message-lifecycle spans with their wait-state stamps, the input of
  /// latency attribution (disabled by default; see obs::SpanTable).
  [[nodiscard]] obs::SpanTable& spans() { return spans_; }

  /// Core/DMA utilization timeline (disabled by default; see
  /// obs::Timeline).
  [[nodiscard]] obs::Timeline& timeline() { return timeline_; }

 private:
  friend class EventHandle;

  struct ReleaseGuard {
    EventSlab* slab;
    EventRecord* rec;
    ~ReleaseGuard() { slab->release(rec); }
  };

  /// The queue key's sequence field carries the band in its top bits, so
  /// (when, seq) lexicographic order yields claims-before-normal per
  /// timestamp with plain FIFO inside each band.  next_seq_ stays a pure
  /// schedule counter (events_scheduled()).
  static constexpr unsigned kBandShift = 62;
  static_assert(static_cast<unsigned>(Band::kNormal) <  // the largest band
                    (1u << (64 - kBandShift)),
                "every Band must fit above kBandShift in the sequence key");

  template <typename F>
  EventRecord* push_event(Time when, Band band, F&& fn) {
    OMX_WALL_ZONE("engine.schedule");
    EventRecord* rec = slab_.alloc();
    rec->fn.emplace(std::forward<F>(fn));
    const std::uint64_t seq =
        (static_cast<std::uint64_t>(band) << kBandShift) | next_seq_++;
    heap_.push(EventKey{when, seq, rec});
    ++live_;
    return rec;
  }

  /// Pops cancelled events off the head of the queue so that peeks see
  /// the true next live event.
  void reap_cancelled() {
    while (!heap_.empty() && heap_.min().rec->cancelled)
      slab_.release(heap_.pop_min().rec);
  }

  bool peek_next_when(Time& when) {
    reap_cancelled();
    if (heap_.empty()) return false;
    when = heap_.min().when;
    return true;
  }

  void cancel_event(EventRecord* rec, std::uint32_t gen) {
    if (rec->gen != gen || rec->cancelled) return;
    rec->cancelled = true;
    --live_;
  }

  [[nodiscard]] static bool event_pending(const EventRecord* rec,
                                          std::uint32_t gen) {
    return rec->gen == gen && !rec->cancelled;
  }

  EventSlab slab_;
  EventHeap heap_;
  Trace trace_;
  obs::SpanTable spans_;
  obs::Timeline timeline_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::uint64_t dispatched_ = 0;
  Time last_dispatch_when_ = 0;
  std::function<void(const char*)> on_panic_;
  bool panicked_ = false;
};

inline void EventHandle::cancel() {
  if (engine_) engine_->cancel_event(rec_, gen_);
}

inline bool EventHandle::pending() const {
  return engine_ != nullptr && Engine::event_pending(rec_, gen_);
}

}  // namespace openmx::sim
