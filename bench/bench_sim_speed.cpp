// Wall-clock micro-benchmarks (google-benchmark) of the simulator
// substrate itself: event-engine dispatch, DMA-engine descriptor
// processing, cache-model touches, and a full simulated ping-pong per
// wall second — the numbers that bound how large an experiment the
// harness can run.
//
// After the micro-benchmarks, main() measures the single-run scale-out
// KPI: events/sec of an 8-node ring mesh on a one-LP Cluster vs. an
// 8-LP Cluster at 1/2/4 workers, written to
// BENCH_sim_speed_metrics.json (and guarded by bench_guard's
// sim_speed.par_ratio_w1 row).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/lp_mesh.hpp"
#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "dma/ioat.hpp"
#include "mem/cache_model.hpp"
#include "obs/registry.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"
#include "sim/sweep.hpp"

using namespace openmx;

static void BM_EngineDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) e.schedule(i, [] {});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineDispatch);

namespace {
// Self-rescheduling timer in the engine's native idiom: a small
// trivially-copyable callable handed to schedule() by value.  The seed
// engine forced every callback through std::function (see the
// StdFunction variant below for that legacy shape).
struct Tick {
  sim::Engine* e;
  int* remaining;
  void operator()() const {
    if (--*remaining > 0) e->schedule(10, *this);
  }
};
}  // namespace

static void BM_EngineNestedTimers(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine e;
    int remaining = 1000;
    e.schedule(10, Tick{&e, &remaining});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineNestedTimers);

static void BM_EngineNestedTimersStdFunction(benchmark::State& state) {
  // Legacy shape: the callback is a std::function copied on every
  // reschedule, exactly what the seed engine's queue imposed.  Kept for
  // an apples-to-apples lineage comparison.
  for (auto _ : state) {
    sim::Engine e;
    int remaining = 1000;
    std::function<void()> tick = [&] {
      if (--remaining > 0) e.schedule(10, tick);
    };
    e.schedule(10, tick);
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineNestedTimersStdFunction);

namespace {
// Driver-style timer churn: many concurrent flows, each rescheduling a
// short-delay timer from its own callback.
struct ShortTick {
  sim::Engine* e;
  int* remaining;
  int delay;
  void operator()() const {
    if (--*remaining > 0) e->schedule(delay, *this);
  }
};
}  // namespace

static void BM_EngineShortTimersHeap(benchmark::State& state) {
  constexpr int kFlows = 256;
  constexpr int kEvents = 16384;
  for (auto _ : state) {
    sim::Engine e;
    int remaining = kEvents;
    for (int i = 0; i < kFlows; ++i)
      e.schedule(1 + i % 61, ShortTick{&e, &remaining, 1 + i % 61});
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EngineShortTimersHeap);

static void BM_EngineCancelTimers(benchmark::State& state) {
  // The retransmission-timer pattern: schedule a cancellable guard, then
  // cancel it before it fires (the common case on a healthy fabric).
  for (auto _ : state) {
    sim::Engine e;
    for (int i = 0; i < 1000; ++i) {
      sim::EventHandle h = e.schedule_cancellable(1000 + i, [] {});
      e.schedule(i, [h]() mutable { h.cancel(); });
    }
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineCancelTimers);

static void BM_SweepPingPong(benchmark::State& state) {
  // Replica fan-out throughput: the fig12/ablation driver pattern of N
  // independent simulations spread across worker threads.
  const std::size_t replicas = 16;
  sim::SweepRunner runner{sim::sweep_options_from_env()};
  for (auto _ : state) {
    std::vector<double> times = runner.map<double>(replicas, [](std::size_t) {
      return bench::pingpong_oneway(bench::cfg_omx(), 4096, 3, 1);
    });
    benchmark::DoNotOptimize(times.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * replicas);
}
BENCHMARK(BM_SweepPingPong);

static void BM_IoatDescriptors(benchmark::State& state) {
  mem::Buffer src(4096), dst(4096);
  for (auto _ : state) {
    sim::Engine e;
    dma::IoatEngine io(e);
    for (int i = 0; i < 256; ++i)
      io.submit(i % 4, src.data(), dst.data(), src.size());
    e.run();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_IoatDescriptors);

static void BM_CacheTouch(benchmark::State& state) {
  mem::CacheModel cache;
  mem::Buffer buf(1 * sim::MiB);
  for (auto _ : state) {
    cache.touch(buf.data(), buf.size());
    benchmark::DoNotOptimize(cache.hit_fraction(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(buf.size()));
}
BENCHMARK(BM_CacheTouch);

static void BM_SimulatedPingPong4k(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::pingpong_oneway(bench::cfg_omx(), 4096, 5, 1));
  }
}
BENCHMARK(BM_SimulatedPingPong4k);

static void BM_SimulatedLargeTransfer1M(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::pingpong_oneway(bench::cfg_omx_ioat(), sim::MiB, 2, 1));
  }
}
BENCHMARK(BM_SimulatedLargeTransfer1M);

static void BM_MultiLpRingMesh(benchmark::State& state) {
  // One whole partitioned run per iteration, at the worker count given
  // by the benchmark argument.
  const auto workers = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const bench::SimSpeedPoint p = bench::sim_speed(8, 8, workers, 4);
    benchmark::DoNotOptimize(p.events);
    state.SetItemsProcessed(static_cast<int64_t>(state.items_processed()) +
                            static_cast<int64_t>(p.events));
  }
}
BENCHMARK(BM_MultiLpRingMesh)->Arg(1)->Arg(2)->Arg(4);

namespace {

// The scale-out KPI: sequential vs. multi-LP events/sec on the fig12
// ring mesh, recorded as counters so the JSON is machine-comparable.
// The events-scheduled totals of every mode must agree (the determinism
// suite asserts bit-identical results; this is the perf-side echo).
//
// The wall-clock self-profiler runs alongside: each mode is profiled in
// isolation (reset between modes), the barrier share of multi-LP worker
// time lands in the table, and the sequential mode asserts that the
// instrumented zones explain >= 90 % of the engine-run wall time — the
// coverage contract that makes "where does the wall time go" claims
// trustworthy.  engine.dispatch is a sampled estimate that also carries
// the cost of its own zones, so it can exceed engine.run, where coverage
// saturates at 100 %; the dispatch/run column prints the unclamped ratio.
// Zone totals go to a *separate*
// BENCH_sim_speed_wall_metrics.json: wall numbers are nondeterministic
// and must never mix into the deterministic metrics stream.
void run_scaleout_kpi() {
  const int kNodes = 8, kIters = 48;
  openmx::obs::Registry reg;
  openmx::obs::Registry wall;
  openmx::obs::WallProfiler& prof = openmx::obs::WallProfiler::instance();
  const bool prof_on = prof.enabled();

  prof.reset();
  const bench::SimSpeedPoint seq = bench::sim_speed(kNodes, 1, 1, kIters);
  const double seq_coverage = prof.coverage("engine.run");
  const double run_ns = static_cast<double>(prof.totals("engine.run").ns);
  const double seq_dispatch_share =
      run_ns > 0
          ? static_cast<double>(prof.totals("engine.dispatch").ns) / run_ns
          : 0;
  if (prof_on) prof.export_metrics(wall, "seq.");
  std::printf("\n=== sim_speed scale-out KPI (%d-node ring, %d iters) ===\n",
              kNodes, kIters);
  std::printf("%-14s %14s %12s %12s %10s %10s %13s\n", "mode", "events/s",
              "events", "wall[ms]", "barrier%", "coverage", "dispatch/run");
  std::printf("%-14s %14.0f %12llu %12.1f %10s %9.1f%% %12.1f%%\n",
              "sequential", seq.events_per_sec,
              static_cast<unsigned long long>(seq.events), 1e3 * seq.wall_s,
              "-", 100.0 * seq_coverage, 100.0 * seq_dispatch_share);
  if (prof_on && seq_coverage < 0.90) {
    std::fprintf(stderr,
                 "FAIL: wall zones cover %.1f%% of sequential engine-run "
                 "wall time (need >= 90%%)\n",
                 100.0 * seq_coverage);
    std::exit(1);
  }

  reg.counter("sim_speed.nodes").add(static_cast<std::uint64_t>(kNodes));
  reg.counter("sim_speed.iters").add(static_cast<std::uint64_t>(kIters));
  reg.counter("sim_speed.events").add(seq.events);
  reg.counter("sim_speed.seq_events_per_sec")
      .add(static_cast<std::uint64_t>(seq.events_per_sec));
  wall.counter("wall.coverage.seq_x1000")
      .add(static_cast<std::uint64_t>(1000.0 * seq_coverage));

  double w4_speedup = 0;
  for (unsigned workers : {1u, 2u, 4u}) {
    // The 4-worker point doubles as the scale-out observability export:
    // per-LP scheduler counters land in the same metrics JSON and the
    // window log becomes a per-LP Perfetto timeline next to it.
    const bool instrument = workers == 4;
    const std::string lp_trace =
        instrument ? bench::out_path("BENCH_sim_speed_lp_trace.json") : "";
    prof.reset();
    const bench::SimSpeedPoint mlp = bench::sim_speed(
        kNodes, kNodes, workers, kIters, instrument ? &reg : nullptr, lp_trace);
    // Barrier share: wall time in lp.barrier_wait over all workers'
    // top-level zone time — the scale-out tax the profiler was built to
    // expose (compute shrinks with workers, the barrier does not).
    const auto barrier = prof.totals("lp.barrier_wait");
    const std::uint64_t top = prof.toplevel_ns();
    const double bshare =
        top ? static_cast<double>(barrier.ns) / static_cast<double>(top) : 0;
    const std::string scope = "mlp_w" + std::to_string(workers) + ".";
    if (prof_on) prof.export_metrics(wall, scope.c_str());
    if (instrument)
      std::printf("per-LP scheduler timeline: %s\n", lp_trace.c_str());
    const double speedup =
        seq.wall_s > 0 && mlp.wall_s > 0 ? seq.wall_s / mlp.wall_s : 0;
    std::printf(
        "%-14s %14.0f %12llu %12.1f %9.1f%% %10s %13s   speedup %.2fx\n",
        ("multi-lp w" + std::to_string(workers)).c_str(), mlp.events_per_sec,
        static_cast<unsigned long long>(mlp.events), 1e3 * mlp.wall_s,
        100.0 * bshare, "-", "-", speedup);
    const std::string prefix = "sim_speed.mlp_w" + std::to_string(workers);
    reg.counter(prefix + "_events_per_sec")
        .add(static_cast<std::uint64_t>(mlp.events_per_sec));
    reg.counter(prefix + "_speedup_x1000")
        .add(static_cast<std::uint64_t>(1000.0 * speedup));
    wall.counter("wall.barrier_share.w" + std::to_string(workers) + "_x1000")
        .add(static_cast<std::uint64_t>(1000.0 * bshare));
    if (workers == 4) w4_speedup = speedup;
  }
  std::printf("4-worker speedup over sequential: %.2fx (on %u hardware "
              "threads)\n",
              w4_speedup, std::thread::hardware_concurrency());
  reg.counter("sim_speed.hardware_threads")
      .add(std::thread::hardware_concurrency());
  bench::emit_metrics_json("sim_speed", reg);
  if (prof_on) {
    std::printf("(host-time profile: %zu zones over %zu threads, clock %s)\n",
                prof.num_zones(), prof.num_threads(), prof.clock_name());
    bench::emit_metrics_json("sim_speed_wall", wall);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  run_scaleout_kpi();
  return 0;
}
