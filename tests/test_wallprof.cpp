// Host wall-clock self-profiler: zone aggregation invariants, the
// disabled-mode zero-cost contract, and the separation guarantee that
// wall.* metrics never contaminate the deterministic metrics stream.
//
// Wall durations are inherently nondeterministic, so these tests assert
// *structural* properties (counts, nesting arithmetic, ordering bounds)
// rather than absolute times.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "obs/registry.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"

using namespace openmx;

namespace {

obs::WallProfiler& prof() { return obs::WallProfiler::instance(); }

/// Spins until the profiler clock advances by roughly `ns` (coarse — the
/// tests only need "inner is a visible chunk of outer").
void spin_ns(std::uint64_t ns) {
  const double npt = prof().ns_per_tick();
  const std::uint64_t ticks =
      static_cast<std::uint64_t>(static_cast<double>(ns) / npt) + 1;
  const std::uint64_t t0 = obs::WallProfiler::now_raw();
  while (obs::WallProfiler::now_raw() - t0 < ticks) {
  }
}

class WallProfTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prof().set_enabled(true);
    prof().reset();
  }
  void TearDown() override {
    prof().set_enabled(true);
    prof().set_slice_capacity(0);
    prof().reset();
  }
};

TEST_F(WallProfTest, CountsAndInclusiveTime) {
  for (int i = 0; i < 5; ++i) {
    OMX_WALL_ZONE("t.leaf");
    spin_ns(20'000);
  }
  const auto t = prof().totals("t.leaf");
  EXPECT_EQ(t.count, 5u);
  EXPECT_GE(t.ns, 5u * 20'000u);
  // A leaf zone has no children: exclusive == inclusive.
  EXPECT_EQ(t.excl_ns, t.ns);
}

TEST_F(WallProfTest, NestingExclusiveTimeIsExact) {
  for (int i = 0; i < 3; ++i) {
    OMX_WALL_ZONE("t.outer");
    spin_ns(30'000);
    {
      OMX_WALL_ZONE("t.inner");
      spin_ns(60'000);
    }
    {
      OMX_WALL_ZONE("t.inner");
      spin_ns(60'000);
    }
  }
  const auto outer = prof().totals("t.outer");
  const auto inner = prof().totals("t.inner");
  EXPECT_EQ(outer.count, 3u);
  EXPECT_EQ(inner.count, 6u);
  // The stack charges every inner tick to the parent's child accumulator,
  // so excl == incl - sum(child incl) exactly in ticks; the separate
  // tick->ns conversions may round each total by < 1 ns per occurrence.
  EXPECT_NEAR(static_cast<double>(outer.excl_ns),
              static_cast<double>(outer.ns - inner.ns), 16.0);
  // The spin ratios survive aggregation: inner ~2/3 of outer inclusive.
  EXPECT_GT(inner.ns, outer.ns / 2);
  EXPECT_GE(outer.ns, inner.ns);
  // Coverage of the outer zone = inner share of inclusive time.
  const double cov = prof().coverage("t.outer");
  EXPECT_GT(cov, 0.5);
  EXPECT_LE(cov, 1.0);
}

TEST_F(WallProfTest, ToplevelTimeCountsOnlyUnnestedZones) {
  {
    OMX_WALL_ZONE("t.top");
    spin_ns(20'000);
    OMX_WALL_ZONE("t.nested");
    spin_ns(20'000);
  }
  const auto top = prof().totals("t.top");
  EXPECT_EQ(prof().toplevel_ns(), top.ns);
}

TEST_F(WallProfTest, DisabledModeRecordsNothingAndRegistersNoThread) {
  prof().set_enabled(false);
  const std::size_t threads_before = prof().num_threads();
  // A brand-new thread running zones while disabled must not even
  // allocate its thread table — the whole zone is one atomic load.
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      OMX_WALL_ZONE("t.disabled");
    }
  });
  t.join();
  EXPECT_EQ(prof().num_threads(), threads_before);
  EXPECT_EQ(prof().totals("t.disabled").count, 0u);
  prof().set_enabled(true);
}

TEST_F(WallProfTest, RuntimeToggleMidStreamIsSafe) {
  {
    OMX_WALL_ZONE("t.toggle");
    // Disabling with the zone open: it captured its table at entry and
    // still closes into it; only *new* zones become no-ops.
    prof().set_enabled(false);
    { OMX_WALL_ZONE("t.toggle_off"); }
    prof().set_enabled(true);
  }
  EXPECT_EQ(prof().totals("t.toggle").count, 1u);
  EXPECT_EQ(prof().totals("t.toggle_off").count, 0u);
}

TEST_F(WallProfTest, ResetClearsAggregatesButKeepsZones) {
  { OMX_WALL_ZONE("t.reset_me"); }
  EXPECT_EQ(prof().totals("t.reset_me").count, 1u);
  const std::size_t zones = prof().num_zones();
  prof().reset();
  EXPECT_EQ(prof().totals("t.reset_me").count, 0u);
  EXPECT_EQ(prof().num_zones(), zones);
}

TEST_F(WallProfTest, ExportMetricsEmitsWallSectionWithScope) {
  {
    OMX_WALL_ZONE("t.exported");
    spin_ns(10'000);
  }
  obs::Registry wall;
  prof().export_metrics(wall);
  prof().export_metrics(wall, "modeA.");
  EXPECT_GE(wall.counter("wall.t.exported.ns").value, 10'000u);
  EXPECT_EQ(wall.counter("wall.t.exported.count").value, 1u);
  EXPECT_EQ(wall.counter("wall.modeA.t.exported.count").value, 1u);
  EXPECT_LE(wall.counter("wall.t.exported.excl_ns").value,
            wall.counter("wall.t.exported.ns").value);
}

TEST_F(WallProfTest, SliceRingRendersHostThreadTraceProcess) {
  prof().set_slice_capacity(64);
  for (int i = 0; i < 4; ++i) {
    OMX_WALL_ZONE("t.sliced");
    spin_ns(5'000);
  }
  const std::string path = testing::TempDir() + "wallprof_trace.json";
  ASSERT_TRUE(prof().write_trace_file(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content(1 << 16, '\0');
  content.resize(std::fread(content.data(), 1, content.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(content.find("host-thread"), std::string::npos);
  EXPECT_NE(content.find("\"t.sliced\""), std::string::npos);
  EXPECT_NE(content.find("\"cat\":\"wall\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Simulation-side contracts
// ---------------------------------------------------------------------

TEST_F(WallProfTest, OffAddsNoEventsAndOnDoesNotChangeTiming) {
  // The profiler observes host time only: toggling it must leave the
  // simulation bit-identical — same final virtual time, same event
  // count (the events_scheduled() pattern from test_attrib).
  auto run = [](bool on, std::uint64_t* events_out) {
    prof().set_enabled(on);
    bench::Cluster cluster;
    cluster.add_nodes(2, bench::cfg_omx_ioat());
    const sim::Time t = bench::run_pingpong(cluster, sim::MiB, 2,
                                            /*warmup=*/1);
    *events_out = cluster.engine().events_scheduled();
    return t;
  };
  std::uint64_t ev_off = 0, ev_on = 0;
  const sim::Time off = run(false, &ev_off);
  const sim::Time on = run(true, &ev_on);
  EXPECT_EQ(off, on);
  EXPECT_EQ(ev_off, ev_on);
  EXPECT_GT(off, 0);
  // And the instrumented layers actually recorded zones when enabled.
  EXPECT_GT(prof().totals("engine.dispatch").count, 0u);
  EXPECT_GT(prof().totals("engine.run").count, 0u);
}

TEST_F(WallProfTest, SimulatedProcessesRegisterNoThreadTables) {
  // Processes run on the thread that runs the engine, so back-to-back
  // runs add no thread tables after the first one registered the
  // engine's thread.
  std::size_t after_first = 0;
  for (int run = 0; run < 3; ++run) {
    bench::Cluster cluster;
    cluster.add_nodes(2, bench::cfg_omx_ioat());
    EXPECT_GT(bench::run_pingpong(cluster, 64 * sim::KiB, 2, /*warmup=*/1),
              0);
    if (run == 0) after_first = prof().num_threads();
  }
  EXPECT_GT(prof().totals("engine.schedule").count, 0u);
  EXPECT_EQ(prof().num_threads(), after_first);
}

// ---------------------------------------------------------------------
// The sampled event tier
// ---------------------------------------------------------------------

constexpr std::uint64_t kEvery = obs::EventSample::kEventSampleEvery;

TEST_F(WallProfTest, EventZonesAreSampledAtTheirWeight) {
  // N consecutive events on one thread contain exactly N / kEvery timed
  // ones, whatever the thread's phase; each records itself and the zone
  // opened inside it at weight kEvery, so the estimates equal N.
  constexpr std::uint64_t kEvents = 10 * kEvery;
  sim::Engine e;
  for (std::uint64_t i = 0; i < kEvents; ++i)
    e.schedule(static_cast<sim::Time>(i), [] { OMX_WALL_ZONE("t.in_event"); });
  e.run();
  EXPECT_EQ(prof().totals("engine.dispatch").count, kEvents);
  EXPECT_EQ(prof().totals("t.in_event").count, kEvents);
  // engine.run is exact: one occurrence.  Its child estimate may exceed
  // it, and then its exclusive time clamps at 0 instead of wrapping.
  const auto run = prof().totals("engine.run");
  EXPECT_EQ(run.count, 1u);
  EXPECT_LE(run.excl_ns, run.ns);
  EXPECT_LE(prof().coverage("engine.run"), 1.0);
}

TEST_F(WallProfTest, SliceRingTimesEveryEvent) {
  prof().set_slice_capacity(64);
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  prof().reset();
  EXPECT_GT(bench::run_pingpong(cluster, 64 * sim::KiB, 2, /*warmup=*/1), 0);
  EXPECT_EQ(prof().totals("engine.dispatch").count,
            cluster.engine().events_dispatched());
}

TEST_F(WallProfTest, SampledDispatchCountEstimatesEventsDispatched) {
  bench::Cluster cluster;
  cluster.add_nodes(2, bench::cfg_omx_ioat());
  prof().reset();
  EXPECT_GT(bench::run_pingpong(cluster, sim::MiB, 2, /*warmup=*/1), 0);
  const std::uint64_t count = prof().totals("engine.dispatch").count;
  const auto events =
      static_cast<double>(cluster.engine().events_dispatched());
  EXPECT_EQ(count % kEvery, 0u);
  EXPECT_GT(count, 0u);
  EXPECT_NEAR(static_cast<double>(count), events, 0.10 * events);
}

TEST_F(WallProfTest, ThrowingEventLeavesNoSkipStateBehind) {
  // 2 x kEvery consecutive throwing events unwind both skipped and timed
  // events.  After each, a zone outside any event must record exactly
  // once: a leaked skip flag would drop it, a leaked weight inflate it.
  constexpr std::uint64_t kThrows = 2 * kEvery;
  sim::Engine e;
  for (std::uint64_t i = 0; i < kThrows; ++i)
    e.schedule(static_cast<sim::Time>(i),
               [] { throw std::runtime_error("event failed"); });
  for (std::uint64_t i = 0; i < kThrows; ++i) {
    EXPECT_THROW(e.step(), std::runtime_error);
    OMX_WALL_ZONE("t.after_throw");
  }
  EXPECT_EQ(prof().totals("t.after_throw").count, kThrows);
  EXPECT_EQ(prof().totals("engine.dispatch").count, kThrows);
}

TEST_F(WallProfTest, WallMetricsNeverLeakIntoDeterministicRegistry) {
  // The deterministic metrics stream (cluster counters, the replay
  // digest's input) must stay byte-identical whether or not the profiler
  // ran — wall.* lives only in the explicitly exported wall registry.
  auto dump = [](const obs::Registry& reg) {
    const std::string path = testing::TempDir() + "wallprof_dump.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    reg.dump_json(f);
    std::fclose(f);
    f = std::fopen(path.c_str(), "r");
    std::string content(1 << 20, '\0');
    content.resize(std::fread(content.data(), 1, content.size(), f));
    std::fclose(f);
    std::remove(path.c_str());
    return content;
  };
  auto run = [&](bool on) {
    prof().set_enabled(on);
    obs::Registry reg;
    bench::pingpong_oneway(bench::cfg_omx_ioat(), 256 * sim::KiB, 2, 1, {},
                           {}, &reg);
    return dump(reg);
  };
  const std::string off = run(false);
  const std::string on = run(true);
  EXPECT_EQ(off, on);
  EXPECT_EQ(on.find("wall."), std::string::npos);
  // The wall section exists only where it was asked for.
  obs::Registry wallside;
  prof().export_metrics(wallside);
  EXPECT_NE(dump(wallside).find("wall."), std::string::npos);
}

TEST_F(WallProfTest, BuildAndClockIntrospection) {
  EXPECT_TRUE(std::string(prof().clock_name()) == "rdtsc" ||
              std::string(prof().clock_name()) == "steady_clock");
  EXPECT_GT(prof().ns_per_tick(), 0.0);
}

}  // namespace
