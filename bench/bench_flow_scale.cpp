// Background-traffic scaling of the fluid network model: sweeps the
// number of background endpoints to 131072 while measuring wall-clock
// solver throughput, and shows the per-event cost is independent of
// transfer size — the O(active flows), not O(frames), property the flow
// model exists for.  Finishes with the cross-validation table against the
// exact packet engine.  Exits 1 if the event count moves with transfer
// size or if any endpoint-count point's solver visits per flow exceed
// kMaxVisitsPerFlow.
//
//   bench_flow_scale          full sweep (~131k endpoints)
//   bench_flow_scale --smoke  CI-sized subset, same checks (tier-1)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "flow_xval.hpp"
#include "net/flow.hpp"

using namespace openmx;
using namespace openmx::bench;

namespace {

// Incremental re-solve visits about one flow per start/finish on the
// disjoint-pair workload (the sweep reads 1.00); 8 marks a collapse to
// re-solving whole components, not noise.
constexpr double kMaxVisitsPerFlow = 8.0;

struct ScalePoint {
  int endpoints = 0;
  std::size_t bytes = 0;
  std::uint64_t flows = 0;           // completed transfers
  std::uint64_t sim_events = 0;      // engine events scheduled
  double visits_per_flow = 0;        // solver flow-visits / completed flow
  double wall_ms = 0;
  double flows_per_sec = 0;
};

/// Disjoint background pairs (2i -> 2i+1), each restarting its transfer
/// `rounds` times: the steady state the fluid model is built for.
ScalePoint run_scale_point(int endpoints, std::size_t bytes, int rounds) {
  sim::Engine eng;
  net::FlowNetwork flow(eng, flow_params_like());
  flow.ensure_endpoints(static_cast<std::size_t>(endpoints));

  std::function<void(int, int)> start = [&](int pair, int left) {
    flow.transfer(2 * pair, 2 * pair + 1, bytes,
                  [&, pair, left](const net::FlowInfo&) {
                    if (left > 1) start(pair, left - 1);
                  });
  };
  const auto t0 = std::chrono::steady_clock::now();
  for (int p = 0; p < endpoints / 2; ++p) start(p, rounds);
  eng.run();
  const auto t1 = std::chrono::steady_clock::now();

  ScalePoint sp;
  sp.endpoints = endpoints;
  sp.bytes = bytes;
  sp.flows = flow.counters().get("flow.completed");
  sp.sim_events = eng.events_scheduled();
  const auto visits = flow.counters().get("flow.solver_visits");
  sp.visits_per_flow =
      sp.flows ? static_cast<double>(visits) / static_cast<double>(sp.flows)
               : 0;
  sp.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  sp.flows_per_sec =
      sp.wall_ms > 0 ? 1000.0 * static_cast<double>(sp.flows) / sp.wall_ms : 0;
  return sp;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  obs::Registry metrics;

  // --- endpoint-count sweep -------------------------------------------
  std::vector<int> endpoint_counts =
      smoke ? std::vector<int>{1024, 8192}
            : std::vector<int>{1024, 8192, 32768, 131072};
  const int rounds = 4;
  std::printf("=== background endpoint sweep (1 MiB flows, %d rounds) ===\n",
              rounds);
  std::printf("%10s %10s %12s %14s %12s\n", "endpoints", "flows",
              "visits/flow", "flows/sec", "wall ms");
  bool solver_bounded = true;
  for (int n : endpoint_counts) {
    const ScalePoint sp = run_scale_point(n, sim::MiB, rounds);
    std::printf("%10d %10llu %12.2f %14.0f %12.1f\n", sp.endpoints,
                static_cast<unsigned long long>(sp.flows), sp.visits_per_flow,
                sp.flows_per_sec, sp.wall_ms);
    if (sp.visits_per_flow > kMaxVisitsPerFlow) solver_bounded = false;
    const std::string tag = "flow_scale.n" + std::to_string(n);
    metrics.add(tag + ".flows", sp.flows);
    metrics.add(tag + ".sim_events", sp.sim_events);
    metrics.add(tag + ".visits_per_flow_x1000",
                static_cast<std::uint64_t>(1000.0 * sp.visits_per_flow));
  }
  metrics.add("flow_scale.max_endpoints",
              static_cast<std::uint64_t>(endpoint_counts.back()));

  // --- transfer-size independence -------------------------------------
  // Same endpoint count, transfer sizes spanning 256x: a fluid event
  // count that moves with size would mean per-frame cost crept back in.
  const int n_fixed = smoke ? 1024 : 8192;
  std::printf("\n=== per-event cost vs transfer size (%d endpoints) ===\n",
              n_fixed);
  std::printf("%10s %12s %14s %12s\n", "size", "sim events", "visits/flow",
              "wall ms");
  std::uint64_t events_ref = 0;
  bool size_independent = true;
  for (std::size_t bytes :
       {64 * sim::KiB, sim::MiB, 16 * sim::MiB}) {
    const ScalePoint sp = run_scale_point(n_fixed, bytes, rounds);
    std::printf("%10s %12llu %14.2f %12.1f\n", size_label(bytes).c_str(),
                static_cast<unsigned long long>(sp.sim_events),
                sp.visits_per_flow, sp.wall_ms);
    if (!events_ref) events_ref = sp.sim_events;
    if (sp.sim_events != events_ref) size_independent = false;
    metrics.add("flow_scale.size_" + size_label(bytes) + ".sim_events",
                sp.sim_events);
  }
  std::printf("per-event cost independent of transfer size: %s\n",
              size_independent ? "yes (identical event counts)" : "NO");
  metrics.add("flow_scale.size_independent", size_independent ? 1 : 0);

  // --- cross-validation against the packet engine ---------------------
  std::printf("\n=== fluid vs packet cross-validation (nocopy config) ===\n");
  const core::OmxConfig cfg = cfg_omx_nocopy();
  const sim::Time overhead = flow_calibrate_pingpong(cfg);
  std::printf("calibrated per-message host overhead: %.2f us\n",
              sim::to_micros(overhead));
  std::printf("%10s %12s\n", "size", "flow/packet");
  for (std::size_t bytes : {256 * sim::KiB, sim::MiB, 4 * sim::MiB}) {
    const int iters = bytes >= sim::MiB ? 3 : 6;
    const double ratio = xval_pingpong_ratio(cfg, bytes, iters, overhead);
    std::printf("%10s %12.4f\n", size_label(bytes).c_str(), ratio);
    metrics.add("flow_xval.pingpong_" + size_label(bytes) + "_ratio_x1000",
                static_cast<std::uint64_t>(1000.0 * ratio));
  }

  if (!solver_bounded) {
    std::fprintf(stderr, "bench_flow_scale: solver visits per flow above "
                         "%g — incremental re-solve collapsed\n",
                 kMaxVisitsPerFlow);
    return 1;
  }
  if (!size_independent) {
    std::fprintf(stderr, "bench_flow_scale: event count varies with "
                         "transfer size — fluid model regressed to "
                         "per-frame cost\n");
    return 1;
  }
  emit_metrics_json("flow_scale", metrics);
  return 0;
}
