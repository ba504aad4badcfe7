// Telemetry overhead check: runs the same ping-pong workload with all
// telemetry off, with every opt-in obs subsystem on (full trace ring,
// spans with their wait-state stamps, utilization timeline; counters are
// always on), and with only the 256-event postmortem trace ring — and
// reports the wall-clock cost of each.  The contracts are that
// telemetry-off throughput stays within 2 % of the pre-telemetry
// baseline, and that the postmortem ring costs < 3 % on the Fig. 8
// ping-pong path (pinned by the obs.recorder_overhead guard row).
#include <chrono>
#include <cstdio>

#include "common.hpp"

using namespace openmx;
using namespace openmx::bench;

namespace {

enum class Mode { kOff, kAll, kRecorder };

struct Sample {
  double wall_ms = 0;
  double msgs_per_sec = 0;  // simulated messages per wall second
};

/// One measured configuration: `reps` ping-pong simulations with the
/// chosen obs layer active.  The workload mixes an eager and a large size
/// so both the packet-dispatch and the descriptor-submit hot paths are
/// exercised.
Sample run(Mode mode, int reps) {
  using clock = std::chrono::steady_clock;
  const int iters = 30;
  int msgs = 0;

  auto run_once = [&](std::size_t len, int n) {
    Cluster cluster;
    cluster.add_nodes(2, cfg_omx_ioat());
    switch (mode) {
      case Mode::kOff:
        break;
      case Mode::kAll:
        cluster.engine().trace().enable();
        cluster.engine().spans().enable();
        cluster.engine().timeline().enable();
        break;
      case Mode::kRecorder:
        cluster.engine().trace().enable(256);
        break;
    }
    run_pingpong(cluster, len, n, 1);
    msgs += 2 * n;
  };

  const auto t0 = clock::now();
  for (int r = 0; r < reps; ++r) {
    run_once(4 * sim::KiB, iters);
    run_once(sim::MiB, iters / 6);
  }
  const auto t1 = clock::now();
  Sample s;
  s.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  s.msgs_per_sec = 1000.0 * msgs / s.wall_ms;
  return s;
}

double pct_over(const Sample& base, const Sample& other) {
  return 100.0 * (base.msgs_per_sec / other.msgs_per_sec - 1.0);
}

}  // namespace

int main() {
  const int reps = 6;
  run(Mode::kOff, 1);  // warm caches/allocator before measuring
  const Sample off = run(Mode::kOff, reps);
  const Sample on = run(Mode::kAll, reps);
  const Sample rec = run(Mode::kRecorder, reps);

  std::printf("=== telemetry overhead (ping-pong 4kB + 1MB, %d reps) ===\n",
              reps);
  std::printf("telemetry off:  %8.1f ms  %8.0f msgs/s\n", off.wall_ms,
              off.msgs_per_sec);
  std::printf("telemetry on:   %8.1f ms  %8.0f msgs/s  (%.1f%% overhead)\n",
              on.wall_ms, on.msgs_per_sec, pct_over(off, on));
  std::printf("recorder only:  %8.1f ms  %8.0f msgs/s  (%.1f%% overhead)\n",
              rec.wall_ms, rec.msgs_per_sec, pct_over(off, rec));

  const std::string out = openmx::bench::out_path("BENCH_obs_overhead.json");
  if (std::FILE* f = std::fopen(out.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"telemetry_off\": {\"wall_ms\": %.1f, \"msgs_per_sec\": "
                 "%.0f},\n"
                 "  \"telemetry_on\": {\"wall_ms\": %.1f, \"msgs_per_sec\": "
                 "%.0f},\n"
                 "  \"recorder_only\": {\"wall_ms\": %.1f, \"msgs_per_sec\": "
                 "%.0f},\n"
                 "  \"overhead_pct\": %.1f,\n"
                 "  \"recorder_overhead_pct\": %.1f\n"
                 "}\n",
                 off.wall_ms, off.msgs_per_sec, on.wall_ms, on.msgs_per_sec,
                 rec.wall_ms, rec.msgs_per_sec, pct_over(off, on),
                 pct_over(off, rec));
    std::fclose(f);
    std::printf("written to %s\n", out.c_str());
  }
  return 0;
}
