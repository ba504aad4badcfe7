#pragma once

// Fig. 12-style multi-node ring mesh used to measure simulation speed:
// every node streams a mix of eager, multi-fragment and rendezvous
// messages to its ring successor.  The same workload drives a one-LP
// and a multi-LP Cluster, so events/sec and scale-out speedup compare
// like for like.  Shared by bench_sim_speed (the KPI measurement +
// metrics JSON) and bench_guard (the single-worker parity guard row).

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"

namespace openmx::bench {

/// One simulation-speed measurement: how fast the harness chews through
/// simulated events, in wall-clock terms.
struct SimSpeedPoint {
  double events_per_sec = 0;
  std::uint64_t events = 0;   // engine events scheduled over the run
  double wall_s = 0;
  sim::Time vtime = 0;  // final virtual time (multi-LP overshoots the last
                        // event by up to one lookahead window)
};

/// Spawns the ring traffic on `cluster`.  Buffers are owned by the
/// returned holder; keep it alive across run().
inline std::shared_ptr<void> spawn_ring_mesh(Cluster& cluster, int nnodes,
                                             int iters) {
  struct Bufs {
    mem::Buffer s16k = mem::Buffer(16 * sim::KiB, 1);
    mem::Buffer s256k = mem::Buffer(256 * sim::KiB, 2);
    mem::Buffer r16k = mem::Buffer(16 * sim::KiB, 0);
    mem::Buffer r256k = mem::Buffer(256 * sim::KiB, 0);
  };
  auto bufs = std::make_shared<std::vector<Bufs>>(
      static_cast<std::size_t>(nnodes));

  for (int i = 0; i < nnodes; ++i) {
    const int next = (i + 1) % nnodes;
    cluster.spawn(
        cluster.node(static_cast<std::size_t>(i)), 0,
        "ring" + std::to_string(i), [bufs, i, next, iters](Process& p) {
          Endpoint ep(p, i);
          Bufs& b = (*bufs)[static_cast<std::size_t>(i)];
          for (int it = 0; it < iters; ++it) {
            const std::uint64_t tag = static_cast<std::uint64_t>(it) * 4;
            core::Request* r256k =
                ep.irecv(b.r256k.data(), 256 * sim::KiB, tag + 1);
            core::Request* r16k =
                ep.irecv(b.r16k.data(), 16 * sim::KiB, tag + 2);
            core::Request* s256k =
                ep.isend(b.s256k.data(), 256 * sim::KiB,
                         core::Addr{next, static_cast<std::uint16_t>(next)},
                         tag + 1);
            core::Request* s16k =
                ep.isend(b.s16k.data(), 16 * sim::KiB,
                         core::Addr{next, static_cast<std::uint16_t>(next)},
                         tag + 2);
            ep.wait(s256k);
            ep.wait(s16k);
            ep.wait(r256k);
            ep.wait(r16k);
          }
        });
  }
  return bufs;
}

/// One ring-mesh run on `num_lps` LPs (1 = the sequential single-engine
/// reference), executed on `workers` OS threads.  When `sched_metrics`
/// is given the per-LP scheduler counters (lp.<id>.windows/events/
/// barrier_stall_ns, lp.critical.*) are folded into it after the run;
/// when `lp_trace_path` is set the window log is enabled and rendered as
/// one Perfetto track per LP.
inline SimSpeedPoint sim_speed(int nnodes, int num_lps, unsigned workers,
                               int iters,
                               obs::Registry* sched_metrics = nullptr,
                               const std::string& lp_trace_path = {}) {
  core::Cluster cluster(num_lps);
  cluster.add_nodes(nnodes, cfg_omx());
  if (!lp_trace_path.empty()) cluster.scheduler().enable_window_log();
  auto hold = spawn_ring_mesh(cluster, nnodes, iters);
  const auto t0 = std::chrono::steady_clock::now();
  cluster.run(workers);
  const auto t1 = std::chrono::steady_clock::now();
  if (sched_metrics) cluster.collect_scheduler_metrics(*sched_metrics);
  if (!lp_trace_path.empty())
    obs::write_lp_trace_file(lp_trace_path, cluster.scheduler().window_log());
  SimSpeedPoint p;
  p.events = cluster.events_scheduled();
  p.wall_s = std::chrono::duration<double>(t1 - t0).count();
  p.events_per_sec = p.wall_s > 0 ? static_cast<double>(p.events) / p.wall_s
                                  : 0;
  p.vtime = cluster.now();
  return p;
}

}  // namespace openmx::bench
