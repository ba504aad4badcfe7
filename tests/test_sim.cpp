// Unit tests for the discrete-event engine, cancellable events, the
// SimThread handoff scheduler and the wait queue.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_slab.hpp"
#include "sim/inline_fn.hpp"
#include "sim/lp.hpp"
#include "sim/rng.hpp"
#include "sim/sim_thread.hpp"
#include "sim/stats.hpp"
#include "sim/sweep.hpp"
#include "sim/thread_pool.hpp"
#include "sim/time.hpp"

namespace sim = openmx::sim;

TEST(Time, DurationForBytesRoundsAndNeverZero) {
  EXPECT_EQ(sim::duration_for_bytes(0, 1e9), 0);
  EXPECT_EQ(sim::duration_for_bytes(1000, 1e9), 1000);
  EXPECT_GE(sim::duration_for_bytes(1, 1e12), 1);  // sub-ns clamps to 1
}

TEST(Time, MibPerSecond) {
  // 1 MiB per millisecond = 1000 MiB per second.
  EXPECT_NEAR(sim::mib_per_second(sim::MiB, sim::kMillisecond), 1000.0, 1e-6);
  EXPECT_EQ(sim::mib_per_second(123, 0), 0.0);
}

TEST(Engine, FiresInTimeOrder) {
  sim::Engine e;
  std::vector<int> order;
  e.schedule(30, [&] { order.push_back(3); });
  e.schedule(10, [&] { order.push_back(1); });
  e.schedule(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, SameTimeIsFifo) {
  sim::Engine e;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) e.schedule(5, [&, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, NestedScheduling) {
  sim::Engine e;
  sim::Time inner_fired_at = -1;
  e.schedule(10, [&] {
    e.schedule(5, [&] { inner_fired_at = e.now(); });
  });
  e.run();
  EXPECT_EQ(inner_fired_at, 15);
}

TEST(Engine, SchedulingInThePastThrows) {
  sim::Engine e;
  e.schedule(10, [&] { EXPECT_THROW(e.schedule_at(5, [] {}), std::logic_error); });
  e.run();
}

TEST(Engine, CancelledEventDoesNotFire) {
  sim::Engine e;
  bool fired = false;
  auto h = e.schedule_cancellable(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireIsHarmless) {
  sim::Engine e;
  int fires = 0;
  auto h = e.schedule_cancellable(10, [&] { ++fires; });
  e.run();
  h.cancel();
  e.run();
  EXPECT_EQ(fires, 1);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  sim::Engine e;
  int fires = 0;
  e.schedule(10, [&] { ++fires; });
  e.schedule(100, [&] { ++fires; });
  e.run_until(50);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(fires, 2);
}

TEST(Engine, DoubleCancelIsIdempotent) {
  sim::Engine e;
  bool fired = false;
  auto h = e.schedule_cancellable(10, [&] { fired = true; });
  e.schedule(10, [] {});  // a live event keeps run() going
  h.cancel();
  h.cancel();  // second cancel must not decrement live counts again
  EXPECT_FALSE(h.pending());
  e.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(e.live_events(), 0u);
}

TEST(Engine, HandleNotPendingInsideOwnCallback) {
  sim::Engine e;
  sim::EventHandle h;
  bool was_pending = true;
  h = e.schedule_cancellable(10, [&] { was_pending = h.pending(); });
  e.run();
  EXPECT_FALSE(was_pending);  // dispatch happens-before the callback
}

TEST(Engine, HandleNotPendingAfterDispatch) {
  sim::Engine e;
  auto h = e.schedule_cancellable(10, [] {});
  EXPECT_TRUE(h.pending());
  e.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op on a fired event
  EXPECT_FALSE(h.pending());
}

TEST(Engine, CancelledEventDoesNotKeepRunAlive) {
  // A cancelled far-future event must not make run() dispatch anything
  // or advance time to the cancelled deadline.
  sim::Engine e;
  auto h = e.schedule_cancellable(1000000, [] { FAIL(); });
  h.cancel();
  EXPECT_EQ(e.live_events(), 0u);
  e.run();
  EXPECT_EQ(e.now(), 0);
}

TEST(Engine, LiveVersusPendingEvents) {
  sim::Engine e;
  auto h = e.schedule_cancellable(10, [] {});
  e.schedule(20, [] {});
  EXPECT_EQ(e.live_events(), 2u);
  EXPECT_EQ(e.pending_events(), 2u);
  h.cancel();
  // The cancelled record still occupies its slab slot until reaped...
  EXPECT_EQ(e.live_events(), 1u);
  EXPECT_EQ(e.pending_events(), 2u);
  e.run();
  EXPECT_EQ(e.live_events(), 0u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, RunUntilIgnoresCancelledHeadEvent) {
  // A cancelled event before the deadline must not cause run_until to
  // dispatch a live event that lies beyond the deadline.
  sim::Engine e;
  int fires = 0;
  auto h = e.schedule_cancellable(10, [&] { ++fires; });
  e.schedule(100, [&] { ++fires; });
  h.cancel();
  e.run_until(50);
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(e.now(), 50);
  e.run();
  EXPECT_EQ(fires, 1);
}

TEST(Engine, AcceptsMoveOnlyCallable) {
  // The seed engine stored std::function and silently required copyable
  // callbacks; the slab engine must take move-only ones.
  sim::Engine e;
  bool fired = false;
  auto flag = std::make_unique<bool>(false);
  e.schedule(10, [&fired, flag = std::move(flag)] { fired = *flag = true; });
  e.run();
  EXPECT_TRUE(fired);
}

namespace {
// Callable that fails the test if it is ever copied (it cannot be —
// deleted copy ctor — but also counts moves so we can assert the
// schedule path does not bounce it around).
struct MoveCounting {
  bool* fired;
  int* moves;
  MoveCounting(bool* f, int* m) : fired(f), moves(m) {}
  MoveCounting(const MoveCounting&) = delete;
  MoveCounting& operator=(const MoveCounting&) = delete;
  MoveCounting(MoveCounting&& o) noexcept : fired(o.fired), moves(o.moves) {
    ++*moves;
  }
  MoveCounting& operator=(MoveCounting&&) = delete;
  void operator()() const { *fired = true; }
};
}  // namespace

TEST(Engine, ScheduleEmplacesWithSingleMove) {
  sim::Engine e;
  bool fired = false;
  int moves = 0;
  e.schedule(10, MoveCounting{&fired, &moves});
  e.run();
  EXPECT_TRUE(fired);
  // One move from the schedule() argument into the slab slot; dispatch
  // runs the callable in place.
  EXPECT_EQ(moves, 1);
}

TEST(Engine, CallbackExceptionReleasesSlot) {
  sim::Engine e;
  e.schedule(10, [] { throw std::runtime_error("cb"); });
  EXPECT_THROW(e.run(), std::runtime_error);
  EXPECT_EQ(e.pending_events(), 0u);  // guard released the slot
  // The engine stays usable afterwards.
  bool fired = false;
  e.schedule(10, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(InlineFn, SmallCallableIsInline) {
  int hits = 0;
  sim::InlineFn<48> f([&hits] { ++hits; });
  EXPECT_TRUE(f.is_inline());
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFn, OversizedCallableFallsBackToHeap) {
  char big[96] = {0};
  int hits = 0;
  sim::InlineFn<48> f([big, &hits] { ++hits; (void)big; });
  EXPECT_FALSE(f.is_inline());
  f();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, MoveTransfersTarget) {
  int hits = 0;
  sim::InlineFn<48> a([&hits] { ++hits; });
  sim::InlineFn<48> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFn, DestroysTargetExactlyOnce) {
  int alive = 0;
  struct Probe {
    int* alive;
    explicit Probe(int* a) : alive(a) { ++*alive; }
    Probe(const Probe& o) : alive(o.alive) { ++*alive; }
    Probe(Probe&& o) noexcept : alive(o.alive) { ++*alive; }
    ~Probe() { --*alive; }
    void operator()() const {}
  };
  {
    sim::InlineFn<48> f{Probe(&alive)};
    EXPECT_GE(alive, 1);
    sim::InlineFn<48> g(std::move(f));
    EXPECT_EQ(alive, 1);
  }
  EXPECT_EQ(alive, 0);
}

TEST(EventSlab, RecyclesSlotsAndBumpsGeneration) {
  sim::EventSlab slab;
  sim::EventRecord* a = slab.alloc();
  const std::uint32_t gen0 = a->gen;
  slab.release(a);
  sim::EventRecord* b = slab.alloc();  // LIFO: same slot back
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->gen, gen0 + 1);
  slab.release(b);
  EXPECT_EQ(slab.in_use(), 0u);
}

TEST(EventSlab, SteadyStateDoesNotGrow) {
  sim::Engine e;
  int remaining = 10000;
  std::function<void()> tick = [&] {
    if (--remaining > 0) e.schedule(1, tick);
  };
  e.schedule(1, tick);
  e.run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Sweep, SeedIsDecorrelatedAndDeterministic) {
  EXPECT_EQ(sim::sweep_seed(42, 0), sim::sweep_seed(42, 0));
  EXPECT_NE(sim::sweep_seed(42, 0), sim::sweep_seed(42, 1));
  EXPECT_NE(sim::sweep_seed(42, 0), sim::sweep_seed(43, 0));
}

TEST(Sweep, MapReturnsResultsInIndexOrder) {
  sim::SweepRunner runner{sim::SweepOptions{.threads = 4}};
  const std::vector<int> out = runner.map<int>(
      100, [](std::size_t i) { return static_cast<int>(i) * 3; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * 3);
}

TEST(Sweep, FirstExceptionPropagates) {
  sim::SweepRunner runner{sim::SweepOptions{.threads = 4}};
  EXPECT_THROW(runner.for_each(64,
                               [](std::size_t i) {
                                 if (i == 7)
                                   throw std::runtime_error("job failed");
                               }),
               std::runtime_error);
}

TEST(SimThread, AdvancesVirtualTime) {
  sim::Engine e;
  sim::Time t1 = -1, t2 = -1;
  sim::SimThread t(e, "worker", [&] {
    t1 = e.now();
    t.advance(100);
    t2 = e.now();
  });
  t.start();
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(t1, 0);
  EXPECT_EQ(t2, 100);
}

TEST(SimThread, PauseAndWake) {
  sim::Engine e;
  sim::Time woke_at = -1;
  sim::SimThread t(e, "sleeper", [&] {
    t.pause();
    woke_at = e.now();
  });
  t.start();
  e.schedule(500, [&] { t.wake(); });
  e.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(woke_at, 500);
}

TEST(SimThread, WakeBeforePauseIsNotLost) {
  sim::Engine e;
  bool done = false;
  sim::SimThread t(e, "t", [&] {
    t.advance(100);  // wake() arrives while we are running
    t.pause();       // must return immediately
    done = true;
  });
  t.start();
  e.schedule(50, [&] { t.wake(); });
  e.run();
  EXPECT_TRUE(done);
}

TEST(SimThread, StuckThreadIsDetectedAndAborted) {
  struct Guard {
    bool* destroyed;
    ~Guard() { *destroyed = true; }
  };
  sim::Engine e;
  bool unwound = false;
  {
    sim::SimThread t(e, "stuck", [&] {
      const Guard g{&unwound};
      t.pause();
    });
    t.start();
    e.run();
    EXPECT_FALSE(t.finished());
    EXPECT_FALSE(unwound);
  }  // destructor aborts it without hanging, unwinding the blocked body
  EXPECT_TRUE(unwound);

  // Destroyed by stack unwinding: the abort throws and catches SimAborted
  // on the process's stack while the test's own exception is in flight.
  unwound = false;
  try {
    sim::SimThread t(e, "stuck", [&] {
      const Guard g{&unwound};
      t.pause();
    });
    t.start();
    e.run();
    throw std::runtime_error("teardown");
  } catch (const std::runtime_error& err) {
    EXPECT_STREQ(err.what(), "teardown");
  }
  EXPECT_TRUE(unwound);
}

TEST(SimThread, ExceptionIsCaptured) {
  for (const bool after_advance : {false, true}) {
    sim::Engine e;
    sim::SimThread t(e, "thrower", [&] {
      if (after_advance) t.advance(10);
      throw std::runtime_error("boom");
    });
    t.start();
    e.run();
    EXPECT_TRUE(t.finished());
    EXPECT_TRUE(t.failed());
    EXPECT_THROW(t.rethrow_if_failed(), std::runtime_error);
    EXPECT_EQ(e.now(), after_advance ? 10 : 0);
  }
}

TEST(SimThread, TwoThreadsInterleaveDeterministically) {
  sim::Engine e;
  std::vector<std::pair<char, sim::Time>> trace;
  sim::SimThread a(e, "a", [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back({'a', e.now()});
      a.advance(10);
    }
  });
  sim::SimThread b(e, "b", [&] {
    for (int i = 0; i < 3; ++i) {
      trace.push_back({'b', e.now()});
      b.advance(15);
    }
  });
  a.start();
  b.start();
  e.run();
  ASSERT_EQ(trace.size(), 6u);
  // a fires at 0,10,20; b at 0,15,30.
  EXPECT_EQ(trace[0], (std::pair<char, sim::Time>{'a', 0}));
  EXPECT_EQ(trace[1], (std::pair<char, sim::Time>{'b', 0}));
  EXPECT_EQ(trace[2], (std::pair<char, sim::Time>{'a', 10}));
  EXPECT_EQ(trace[3], (std::pair<char, sim::Time>{'b', 15}));
  EXPECT_EQ(trace[4], (std::pair<char, sim::Time>{'a', 20}));
  EXPECT_EQ(trace[5], (std::pair<char, sim::Time>{'b', 30}));
}

TEST(WaitQueue, WakeOneReleasesInFifoOrder) {
  sim::Engine e;
  sim::WaitQueue q;
  std::vector<int> woken;
  sim::SimThread t1(e, "w1", [&] {
    q.sleep(t1);
    woken.push_back(1);
  });
  sim::SimThread t2(e, "w2", [&] {
    q.sleep(t2);
    woken.push_back(2);
  });
  t1.start();
  t2.start();
  e.schedule(10, [&] { q.wake_one(); });
  e.schedule(20, [&] { q.wake_one(); });
  e.run();
  EXPECT_EQ(woken, (std::vector<int>{1, 2}));
}

TEST(WaitQueue, WakeAll) {
  sim::Engine e;
  sim::WaitQueue q;
  int woken = 0;
  sim::SimThread t1(e, "w1", [&] { q.sleep(t1); ++woken; });
  sim::SimThread t2(e, "w2", [&] { q.sleep(t2); ++woken; });
  t1.start();
  t2.start();
  e.schedule(10, [&] { q.wake_all(); });
  e.run();
  EXPECT_EQ(woken, 2);
  EXPECT_TRUE(q.empty());
}

TEST(Rng, DeterministicAcrossInstances) {
  sim::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DoublesInUnitInterval) {
  sim::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  sim::Rng r(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Stats, SummaryTracksMoments) {
  sim::Summary s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Stats, CountersAccumulate) {
  sim::Counters c;
  c.add("x");
  c.add("x", 4);
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("missing"), 0u);
}

TEST(Stats, SummaryMergeFoldsReplicas) {
  sim::Summary a, b;
  a.add(1.0);
  a.add(5.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
  EXPECT_DOUBLE_EQ(a.max(), 5.0);
  sim::Summary empty;
  a.merge(empty);  // merging an empty summary changes nothing
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(Stats, CountersMergeAdds) {
  sim::Counters a, b;
  a.add("x", 2);
  b.add("x", 3);
  b.add("y", 1);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
}

TEST(Engine, ClaimBandFiresBeforeNormalAtSameTimestamp) {
  // Rx-port claims must win every same-nanosecond tie regardless of
  // scheduling order — that is what makes partitioned runs order the
  // port arbitration identically to the sequential engine.
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(1); });  // normal, scheduled first
  e.schedule_at(10, sim::Band::kClaim, [&] { order.push_back(0); });
  e.schedule_at(10, [&] { order.push_back(2); });
  e.schedule_at(5, [&] {
    // A claim scheduled from a callback still beats normals queued earlier.
    e.schedule_at(10, sim::Band::kClaim, [&] { order.push_back(-1); });
  });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2}));
}

TEST(Engine, BandOrderIsClaimThenFlowThenNormal) {
  // The fluid network's completion events run in the kFlow band: after
  // every claim (port arbitration settles first) but before any normal
  // event at the same nanosecond, so same-time normal events observe
  // post-completion fair-share rates.
  sim::Engine e;
  std::vector<int> order;
  e.schedule_at(10, [&] { order.push_back(3); });
  e.schedule_at(10, sim::Band::kFlow, [&] { order.push_back(2); });
  e.schedule_at(10, sim::Band::kClaim, [&] { order.push_back(1); });
  e.schedule_at(10, sim::Band::kFlow, [&] { order.push_back(20); });
  e.schedule_at(10, [&] { order.push_back(30); });
  e.run();
  // Bands in enum order; FIFO within each band.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3, 30}));
}

TEST(Engine, BandPackingHoldsAtHighEventCounts) {
  // The band lives in the top bits of the queue key's seq field; the
  // FIFO counter occupies the low bits.  After hundreds of thousands of
  // events the counter must neither bleed into the band bits nor stop
  // breaking same-band ties FIFO, and events_scheduled() must stay a
  // pure schedule count (no band bits folded in).
  sim::Engine e;
  constexpr int kBulk = 300000;
  std::uint64_t fired = 0;
  for (int i = 0; i < kBulk; ++i) e.schedule_at(i, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBulk));
  EXPECT_EQ(e.events_scheduled(), static_cast<std::uint64_t>(kBulk));

  std::vector<int> order;
  const sim::Time when = e.now() + 10;
  e.schedule_at(when, [&] { order.push_back(2); });
  e.schedule_at(when, sim::Band::kFlow, [&] { order.push_back(1); });
  e.schedule_at(when, sim::Band::kClaim, [&] { order.push_back(0); });
  e.schedule_at(when, [&] { order.push_back(3); });
  e.schedule_at(when, sim::Band::kClaim, [&] { order.push_back(-1); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2, 3}));
  EXPECT_EQ(e.events_scheduled(), static_cast<std::uint64_t>(kBulk) + 5);

  // A cancellable flow-band event at high seq still cancels cleanly.
  auto h = e.schedule_cancellable(5, sim::Band::kFlow, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  e.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBulk));
}

TEST(Engine, RunUntilStopsAtDeadlineAndAdvancesTime) {
  sim::Engine e;
  std::vector<sim::Time> fired;
  for (sim::Time t : {10, 20, 30, 40})
    e.schedule_at(t, [&, t] { fired.push_back(t); });
  EXPECT_EQ(e.run_until(25), 25);
  EXPECT_EQ(fired, (std::vector<sim::Time>{10, 20}));
  EXPECT_EQ(e.now(), 25);         // idle time up to the deadline elapses
  EXPECT_EQ(e.run_until(100), 100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(ThreadPool, ExactSpawnGrantsEveryHelper) {
  // An explicit worker count must be honoured even past the soft cap —
  // determinism tests pin 8 workers on any machine.
  sim::ThreadPool pool(1);
  std::atomic<unsigned> ran{0};
  sim::ThreadPool::Team team =
      pool.spawn(4, /*exact=*/true, [&](unsigned) { ran.fetch_add(1); });
  EXPECT_EQ(team.size(), 4u);
  pool.join(team);
  EXPECT_EQ(ran.load(), 4u);
}

TEST(ThreadPool, AutoSpawnStaysUnderSoftCap) {
  sim::ThreadPool pool(2);
  std::atomic<unsigned> ran{0};
  sim::ThreadPool::Team team =
      pool.spawn(8, /*exact=*/false, [&](unsigned) { ran.fetch_add(1); });
  const unsigned granted = team.size();  // join() consumes the handle
  EXPECT_LE(granted, 2u);
  pool.join(team);
  EXPECT_EQ(ran.load(), granted);
}

TEST(ThreadPool, NestedSpawnDoesNotDeadlock) {
  // A sweep job that itself runs a multi-LP simulation draws helpers
  // from the same pool; the inner request may be granted nothing, and
  // the caller always participates, so the nesting must complete.
  sim::ThreadPool pool(2);
  std::atomic<unsigned> inner_done{0};
  sim::ThreadPool::Team outer =
      pool.spawn(2, /*exact=*/true, [&](unsigned) {
        sim::ThreadPool::Team inner = pool.spawn(
            4, /*exact=*/false, [&](unsigned) { inner_done.fetch_add(1); });
        pool.join(inner);
        inner_done.fetch_add(1);
      });
  pool.join(outer);
  EXPECT_GE(inner_done.load(), 2u);  // both outer jobs finished
}

TEST(ThreadPool, JoinRethrowsHelperError) {
  sim::ThreadPool pool(2);
  sim::ThreadPool::Team team = pool.spawn(2, /*exact=*/true, [](unsigned s) {
    if (s == 1) throw std::runtime_error("helper failed");
  });
  EXPECT_THROW(pool.join(team), std::runtime_error);
}

namespace {

// A bounded cross-LP ping-pong at the raw scheduler level: each hop
// posts the next message one lookahead ahead.  Returns the per-LP event
// traces (times at which each side handled a hop).
std::vector<std::vector<sim::Time>> lp_pingpong(unsigned workers, int hops,
                                                sim::Time lookahead) {
  sim::Lp a(0), b(1);
  sim::LpScheduler sched(lookahead);
  sched.add(a);
  sched.add(b);
  std::vector<std::vector<sim::Time>> trace(2);

  // hop() runs on the LP that just received the ball and posts it onward.
  std::function<void(sim::Lp&, sim::Lp&, int)> hop = [&](sim::Lp& self,
                                                         sim::Lp& peer,
                                                         int remaining) {
    trace[static_cast<std::size_t>(self.id())].push_back(self.engine().now());
    if (remaining == 0) return;
    const sim::Time when = self.engine().now() + lookahead;
    sim::LpMessage msg;
    msg.when = when;
    msg.origin = static_cast<std::uint32_t>(self.id());
    msg.seq = static_cast<std::uint64_t>(remaining);
    msg.apply = [&, when, remaining] {
      peer.engine().schedule_at(
          when, [&, remaining] { hop(peer, self, remaining - 1); });
    };
    self.post(peer.id(), std::move(msg));
  };
  a.engine().schedule_at(0, [&] { hop(a, b, hops); });
  sched.run(workers);
  return trace;
}

}  // namespace

TEST(LpScheduler, CrossLpPingPongIdenticalAcrossWorkerCounts) {
  const auto ref = lp_pingpong(1, 16, 100);
  EXPECT_EQ(ref[0].size() + ref[1].size(), 17u);
  EXPECT_EQ(lp_pingpong(2, 16, 100), ref);
  EXPECT_EQ(lp_pingpong(2, 16, 100), ref);  // re-run: identical again
}

TEST(LpScheduler, WindowsSkipIdleVirtualTime) {
  // Two sparse events 1 ms apart must not cost ~10000 lookahead windows:
  // the coordinator jumps each window start to the global next event.
  sim::Lp a(0), b(1);
  sim::LpScheduler sched(100);
  sched.add(a);
  sched.add(b);
  int fired = 0;
  a.engine().schedule_at(0, [&] { ++fired; });
  b.engine().schedule_at(sim::kMillisecond, [&] { ++fired; });
  sched.run(1);
  EXPECT_EQ(fired, 2);
  EXPECT_LE(sched.windows_run(), 4u);
}

TEST(LpScheduler, LookaheadViolationThrows) {
  // Posting a message inside the current window means the configured
  // lookahead overstates the real minimum latency — a silent causality
  // break, so it must throw instead.
  sim::Lp a(0), b(1);
  sim::LpScheduler sched(100);
  sched.add(a);
  sched.add(b);
  a.engine().schedule_at(50, [&] {
    sim::LpMessage msg;
    msg.when = a.engine().now();  // inside the window: illegal
    msg.apply = [] {};
    a.post(1, std::move(msg));
  });
  EXPECT_THROW(sched.run(1), std::logic_error);
}
