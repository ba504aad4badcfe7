#pragma once

// Cross-validation harness for the fluid network model: runs the
// same ping-pong workloads through the fluid FlowNetwork and through the
// exact packet engine, and reports the throughput ratio between them.
//
// The fluid model carries only wire physics (fair-share bandwidth at
// Open-MX fragment granularity, one fabric latency); everything the
// packet stack spends per message *off* the wire — interrupt entry,
// driver queueing, process wakeups — is folded into one host-overhead
// constant per configuration, *calibrated* from a single small-message
// packet-level run rather than assumed.  A 16-byte ping-pong is pure
// host overhead (wire time ~50 ns), so the calibration point and the
// validation points (256 kB+) are independent measurements: agreement at
// large sizes is a genuine check of the fluid bandwidth model, not a
// curve fit.

#include <cstddef>
#include <functional>

#include "common.hpp"
#include "core/wire.hpp"
#include "imb/imb.hpp"
#include "mpi/world.hpp"
#include "net/flow.hpp"

namespace openmx::bench {

/// Fluid parameters modeling the same fabric as the packet NetParams,
/// framed at the Open-MX fragment payload (so per-chunk overhead matches
/// the 32-byte Open-MX header + 38-byte Ethernet overhead the packet
/// path charges per fragment).
inline net::FlowParams flow_params_like(const net::NetParams& np = {},
                                        std::size_t frag_payload = 4096) {
  return net::FlowParams::match(np, /*oversub=*/1.0, frag_payload,
                                core::kOmxHeaderBytes);
}

/// One-way time of a fluid-model ping-pong: each leg costs the calibrated
/// host overhead plus the flow's analytic delivery time.  Runs the real
/// FlowNetwork (start → solve → completion event → delivery callback),
/// so it exercises exactly the machinery bench_flow_scale scales up.
inline sim::Time flow_pingpong_oneway(std::size_t len, int iters,
                                      sim::Time host_overhead_ns,
                                      net::FlowParams fp = flow_params_like()) {
  sim::Engine eng;
  net::FlowNetwork flow(eng, fp);
  flow.ensure_endpoints(2);
  int remaining = 2 * iters;
  sim::Time done_at = 0;
  std::function<void(const net::FlowInfo&)> bounce =
      [&](const net::FlowInfo& fi) {
        if (--remaining == 0) {
          done_at = eng.now();
          return;
        }
        eng.schedule(host_overhead_ns, [&, src = fi.dst, dst = fi.src] {
          flow.transfer(src, dst, len, bounce);
        });
      };
  eng.schedule(host_overhead_ns, [&] { flow.transfer(0, 1, len, bounce); });
  eng.run();
  return done_at / (2 * iters);
}

/// Calibrates the per-message host overhead of `cfg`'s packet stack: the
/// measured 16-byte packet one-way time minus the fluid model's wire
/// time for the same message.
inline sim::Time flow_calibrate_pingpong(const core::OmxConfig& cfg,
                                         net::FlowParams fp =
                                             flow_params_like()) {
  sim::Engine eng;
  net::FlowNetwork probe(eng, fp);
  const sim::Time wire16 = probe.uncontended_delivery_ns(16);
  const sim::Time pkt16 = pingpong_oneway(cfg, 16, 8);
  return pkt16 > wire16 ? pkt16 - wire16 : 0;
}

/// Fluid-vs-packet ping-pong throughput ratio at `len` (1.0 = the two
/// fidelities agree exactly).  Both sides are deterministic simulations,
/// so guard rows built on this are machine-independent.
inline double xval_pingpong_ratio(const core::OmxConfig& cfg, std::size_t len,
                                  int iters, sim::Time host_overhead_ns) {
  const double pkt = pingpong_mibs(cfg, len, iters);
  const double flo = sim::mib_per_second(
      len, flow_pingpong_oneway(len, iters, host_overhead_ns));
  return pkt > 0 ? flo / pkt : 0;
}

/// IMB PingPong at the MPI level against the fluid model, calibrated the
/// same way (16-byte IMB run fixes the MPI-stack overhead constant).
inline sim::Time imb_pingpong_oneway(const core::OmxConfig& cfg,
                                     std::size_t bytes, int reps) {
  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  mpi::World world(cluster, mpi::placements(2, 1));
  sim::Time rtt = 0;
  world.run([&](mpi::Comm& c) {
    const sim::Time t = imb::run_test(c, imb::Test::PingPong, bytes, reps);
    if (c.rank() == 0) rtt = t;
  });
  return rtt / 2;
}

inline sim::Time flow_calibrate_imb(const core::OmxConfig& cfg,
                                    net::FlowParams fp = flow_params_like()) {
  sim::Engine eng;
  net::FlowNetwork probe(eng, fp);
  const sim::Time wire16 = probe.uncontended_delivery_ns(16);
  const sim::Time imb16 = imb_pingpong_oneway(cfg, 16, 8);
  return imb16 > wire16 ? imb16 - wire16 : 0;
}

inline double xval_imb_ratio(const core::OmxConfig& cfg, std::size_t len,
                             int reps, sim::Time host_overhead_ns) {
  const double pkt =
      sim::mib_per_second(len, imb_pingpong_oneway(cfg, len, reps));
  const double flo = sim::mib_per_second(
      len, flow_pingpong_oneway(len, reps, host_overhead_ns));
  return pkt > 0 ? flo / pkt : 0;
}

/// Canonical deterministic background workload for the solver-throughput
/// guard row: `pairs` disjoint endpoint pairs, each restarting a 1 MiB
/// flow `rounds` times.  Returns solver flow-visits per completed flow —
/// an integer-derived, machine-independent measure of incremental
/// re-solve cost (O(1) for disjoint pairs; growth means the component
/// closure regressed).
inline double flow_solver_visits_per_flow(int pairs, int rounds) {
  sim::Engine eng;
  net::FlowNetwork flow(eng, flow_params_like());
  flow.ensure_endpoints(static_cast<std::size_t>(2 * pairs));
  std::function<void(int, int)> start = [&](int pair, int left) {
    flow.transfer(2 * pair, 2 * pair + 1, sim::MiB,
                  [&, pair, left](const net::FlowInfo&) {
                    if (left > 1) start(pair, left - 1);
                  });
  };
  for (int p = 0; p < pairs; ++p) start(p, rounds);
  eng.run();
  const auto visits = flow.counters().get("flow.solver_visits");
  const auto done = flow.counters().get("flow.completed");
  return done ? static_cast<double>(visits) / static_cast<double>(done) : 0;
}

}  // namespace openmx::bench
