// Unit tests for the fluid network model and the hybrid-fidelity
// coupling: max-min fair-share allocation, incremental re-solve,
// oversubscribed fabrics, packet-path parity, throttle coupling in both
// directions, and cross-shard determinism of a partitioned FlowNetwork.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "cpu/machine.hpp"
#include "mem/aligned_buffer.hpp"
#include "mem/memcpy_model.hpp"
#include "net/flow.hpp"
#include "net/hybrid.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"
#include "sim/time.hpp"

namespace sim = openmx::sim;
namespace net = openmx::net;
namespace cpu = openmx::cpu;
namespace core = openmx::core;

namespace {

constexpr double kBw = 1244.125e6;  // default port rate, bytes/s

/// Wire time of `wire_bytes` at a fraction of the port rate, in ns.
double ns_at(double wire_bytes, double rate_frac) {
  return wire_bytes * 1e9 / (kBw * rate_frac);
}

struct TestPayload : net::Payload {
  int value = 0;
  explicit TestPayload(int v) : value(v) {}
};

/// Minimal packet fixture (mirrors test_net.cpp) for parity and
/// coupling tests.
struct PacketPair {
  sim::Engine engine;
  cpu::Machine m0{engine}, m1{engine};
  openmx::mem::MemBus b0, b1;
  net::Network network{engine};
  net::Nic nic0{engine, m0, b0, 0, 1};
  net::Nic nic1{engine, m1, b1, 1, 1};

  PacketPair() {
    network.attach(nic0);
    network.attach(nic1);
  }

  void send(int from, int to, std::size_t bytes, int tag = 0) {
    net::Frame f;
    f.src_node = from;
    f.dst_node = to;
    f.wire_bytes = bytes;
    f.payload = std::make_shared<TestPayload>(tag);
    network.transmit(std::move(f));
  }
};

}  // namespace

TEST(FlowNetwork, UncontendedFlowDeliversAtAnalyticTime) {
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  sim::Time delivered = -1;
  net::FlowInfo got;
  flow.transfer(0, 1, sim::MiB, [&](const net::FlowInfo& fi) {
    delivered = eng.now();
    got = fi;
  });
  eng.run();
  EXPECT_EQ(delivered, flow.uncontended_delivery_ns(sim::MiB));
  EXPECT_EQ(got.src, 0);
  EXPECT_EQ(got.dst, 1);
  EXPECT_EQ(got.bytes, sim::MiB);
  EXPECT_EQ(got.finish + flow.params().latency_ns, delivered);
  EXPECT_EQ(flow.counters().get("flow.completed"), 1u);
  EXPECT_EQ(flow.active_flows(), 0u);
}

TEST(FlowNetwork, TwoFlowsShareTheirCommonTxPort) {
  // Same source, different destinations: the tx port is the bottleneck,
  // so each flow runs at half rate and finishes in twice the solo time.
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  const std::size_t bytes = sim::MiB;
  const double wire = static_cast<double>(flow.wire_bytes_for(bytes));
  std::vector<sim::Time> done;
  for (int dst : {1, 2})
    flow.transfer(0, dst, bytes,
                  [&](const net::FlowInfo& fi) { done.push_back(fi.finish); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(static_cast<double>(done[0]), ns_at(wire, 0.5), 5.0);
  EXPECT_NEAR(static_cast<double>(done[1]), ns_at(wire, 0.5), 5.0);
}

TEST(FlowNetwork, MaxMinGivesUnequalSharesAcrossLinks) {
  // Three flows share tx port 0 (each gets C/3); a fourth flow from an
  // idle source contends with one of them on rx port 1.  Max-min: the
  // fourth flow gets the 2C/3 the bottlenecked flow cannot use — not the
  // C/2 a naive per-link equal split would give.
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  const std::size_t bytes = sim::MiB;
  const double wire = static_cast<double>(flow.wire_bytes_for(bytes));
  std::map<int, sim::Time> finish;  // keyed by src*10+dst
  auto track = [&](const net::FlowInfo& fi) {
    finish[fi.src * 10 + fi.dst] = fi.finish;
  };
  flow.transfer(0, 1, bytes, track);
  flow.transfer(0, 2, bytes, track);
  flow.transfer(0, 3, bytes, track);
  flow.transfer(4, 1, bytes, track);
  eng.run();
  ASSERT_EQ(finish.size(), 4u);
  // The cross-traffic flow 4->1 finishes first, at rate 2C/3.
  EXPECT_NEAR(static_cast<double>(finish[41]), ns_at(wire, 2.0 / 3.0), 10.0);
  // The tx-0 flows stay pinned at C/3 throughout (4->1 finishing frees
  // rx-1 headroom, but tx 0 is still their bottleneck).
  for (int key : {1, 2, 3})
    EXPECT_NEAR(static_cast<double>(finish[key]), ns_at(wire, 1.0 / 3.0),
                10.0);
}

TEST(FlowNetwork, CompletionReleasesBandwidthIncrementally) {
  // A 2 MiB and a 1 MiB flow share a tx port at C/2 each; when the small
  // one drains, the big one is re-solved up to full rate mid-flight:
  //   phase 1: both at C/2 until t1 = small_wire/(C/2)
  //   phase 2: big alone at C, finishing at 3*small_wire/C (not 4x).
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  const std::size_t small = sim::MiB;
  const double ws = static_cast<double>(flow.wire_bytes_for(small));
  sim::Time big_done = 0, small_done = 0;
  flow.transfer(0, 1, 2 * small,
                [&](const net::FlowInfo& fi) { big_done = fi.finish; });
  flow.transfer(0, 2, small,
                [&](const net::FlowInfo& fi) { small_done = fi.finish; });
  eng.run();
  EXPECT_NEAR(static_cast<double>(small_done), ns_at(ws, 0.5), 10.0);
  // Wire bytes of 2 MiB are ~2x those of 1 MiB (chunk rounding differs
  // by at most one frame's overhead, far under the tolerance here).
  EXPECT_NEAR(static_cast<double>(big_done), 3.0 * ns_at(ws, 1.0), 100.0);
  EXPECT_GE(flow.counters().get("flow.resolves"), 3u);
}

TEST(FlowNetwork, OversubscribedFabricCouplesDisjointPairs) {
  // With oversub=4 and four ports, the fabric aggregate (4C/4 = C) binds
  // before any port does: two otherwise-disjoint pairs each get C/2.
  sim::Engine eng;
  net::FlowParams fp;
  fp.oversub = 4.0;
  net::FlowNetwork flow(eng, fp);
  flow.ensure_endpoints(4);
  const std::size_t bytes = sim::MiB;
  const double wire = static_cast<double>(flow.wire_bytes_for(bytes));
  std::vector<sim::Time> done;
  flow.transfer(0, 1, bytes,
                [&](const net::FlowInfo& fi) { done.push_back(fi.finish); });
  flow.transfer(2, 3, bytes,
                [&](const net::FlowInfo& fi) { done.push_back(fi.finish); });
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  for (sim::Time t : done)
    EXPECT_NEAR(static_cast<double>(t), ns_at(wire, 0.5), 10.0);
}

TEST(FlowNetwork, DisjointPairsResolveInConstantWork) {
  // The incremental solver only visits the changed flow's component:
  // for disjoint pairs that is exactly one flow per resolve, no matter
  // how many pairs are active — the O(active flows) scaling claim.
  for (int pairs : {8, 256}) {
    sim::Engine eng;
    net::FlowNetwork flow(eng);
    flow.ensure_endpoints(static_cast<std::size_t>(2 * pairs));
    for (int p = 0; p < pairs; ++p)
      flow.transfer(2 * p, 2 * p + 1, sim::MiB, {});
    eng.run();
    const auto visits = flow.counters().get("flow.solver_visits");
    const auto done = flow.counters().get("flow.completed");
    EXPECT_EQ(done, static_cast<std::uint64_t>(pairs));
    EXPECT_EQ(visits, done);  // exactly one visit per flow
  }
}

TEST(FlowNetwork, GaugeTracksActiveFlowPeak) {
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  for (int p = 0; p < 3; ++p) flow.transfer(2 * p, 2 * p + 1, sim::MiB, {});
  EXPECT_EQ(flow.active_flows(), 3u);
  eng.run();
  const auto& g = flow.counters().all_gauges().at("flow.active");
  EXPECT_EQ(g.peak, 3);
  EXPECT_EQ(g.value, 0);
}

TEST(FlowNetwork, WireBytesMatchFramingGranularity) {
  sim::Engine eng;
  net::FlowParams fp = net::FlowParams::match(net::NetParams{}, 1.0,
                                              /*chunk=*/4096,
                                              /*chunk_overhead=*/32);
  net::FlowNetwork flow(eng, fp);
  // One full 4 KiB fragment: payload + OMX header + Ethernet overhead.
  EXPECT_EQ(flow.wire_bytes_for(4096), 4096u + 32 + 38);
  // 1 MiB = 256 fragments, each charged the per-fragment overhead.
  EXPECT_EQ(flow.wire_bytes_for(sim::MiB), sim::MiB + 256 * (32u + 38u));
  // Zero-byte transfers still cross the wire as one header-only frame.
  EXPECT_EQ(flow.wire_bytes_for(0), 70u);
}

TEST(FlowNetwork, TransferValidatesEndpoints) {
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  EXPECT_THROW(flow.transfer(1, 1, 64, {}), std::logic_error);
  EXPECT_THROW(flow.transfer(-1, 1, 64, {}), std::logic_error);
}

// ---- hybrid coupling ---------------------------------------------------

TEST(HybridNetwork, PacketPathIsBitIdenticalWithIdleCoupling) {
  // Installing the hybrid router (throttle hook active, but no
  // background flows anywhere) must not move a single packet event:
  // same arrival times, same event count as a plain packet run.
  auto run = [](bool hybrid) {
    PacketPair fx;
    sim::Engine flow_eng;  // separate engine: the coupling is stateless
    net::FlowNetwork flow(flow_eng);
    std::unique_ptr<net::HybridNetwork> hy;
    if (hybrid) hy = std::make_unique<net::HybridNetwork>(fx.network, flow);
    std::vector<sim::Time> arrivals;
    fx.nic1.set_rx_callback(
        [&](net::Skbuff) { arrivals.push_back(fx.engine.now()); });
    for (int i = 0; i < 8; ++i) fx.send(0, 1, 4096, i);
    fx.engine.run();
    arrivals.push_back(static_cast<sim::Time>(fx.engine.events_scheduled()));
    return arrivals;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(HybridNetwork, BackgroundFlowSlowsForegroundFrames) {
  // A background flow landing on node 1 holds its rx port; a foreground
  // frame into node 1 must serialize at the residual rate and arrive
  // later than on an idle fabric.
  auto arrival_with_bg = [](bool background) {
    PacketPair fx;
    net::FlowNetwork flow(fx.engine);
    net::HybridNetwork hy(fx.network, flow);
    hy.set_fidelity(2, 1, net::Fidelity::kFlow);
    if (background) hy.transfer(2, 1, 64 * sim::MiB);
    sim::Time arrival = -1;
    fx.nic1.set_rx_callback([&](net::Skbuff) { arrival = fx.engine.now(); });
    fx.send(0, 1, 4096);
    fx.engine.run();
    return arrival;
  };
  const sim::Time idle = arrival_with_bg(false);
  const sim::Time contended = arrival_with_bg(true);
  EXPECT_GT(contended, idle);
}

TEST(HybridNetwork, ForegroundLoadSlowsBackgroundFlows) {
  // The reverse direction: foreground frames reported through on_wire
  // reserve capacity in the fluid solver, so a background flow across
  // the loaded port completes later than uncontended.
  sim::Engine eng;
  net::FlowNetwork flow(eng);
  flow.ensure_endpoints(2);
  const sim::Time solo = flow.uncontended_delivery_ns(sim::MiB);
  // Report heavy foreground traffic into port 1's rx side, then start
  // the background flow over the same port.
  for (int i = 0; i < 64; ++i)
    flow.note_foreground(0, 1, 256 * sim::KiB);
  sim::Time delivered = 0;
  flow.transfer(0, 1, sim::MiB,
                [&](const net::FlowInfo&) { delivered = eng.now(); });
  eng.run();
  EXPECT_GT(delivered, solo + solo / 2);  // at least 1.5x slower
}

TEST(HybridNetwork, TransferRequiresFlowFidelitySource) {
  PacketPair fx;
  net::FlowNetwork flow(fx.engine);
  net::HybridNetwork hy(fx.network, flow);
  // Node 0 defaults to packet fidelity: flows may not originate there.
  EXPECT_THROW(hy.transfer(0, 5, 64), std::logic_error);
  hy.set_fidelity(4, 2, net::Fidelity::kFlow);
  EXPECT_NO_THROW(hy.transfer(4, 5, 64));
  fx.engine.run();
}

TEST(HybridNetwork, ForegroundPingpongRunsOverBackgroundTraffic) {
  // Full-stack smoke: two Open-MX nodes ping-pong while 64 background
  // endpoints keep fluid flows running.  The run must terminate, count
  // background completions, and the foreground must still complete.
  core::Cluster cluster;
  cluster.add_nodes(2, core::OmxConfig{});
  net::FlowNetwork flow(cluster.engine(),
                        net::FlowParams::match(net::NetParams{}));
  net::HybridNetwork hybrid(cluster.network(), flow);
  // Background endpoints 2..65 pair up disjointly (2i <-> 2i+1), and
  // each pair moves three 256 KiB transfers back to back.
  hybrid.set_fidelity(2, 64, net::Fidelity::kFlow);
  int bg_completions = 0;
  std::function<void(int, int)> start_flow = [&](int src, int left) {
    hybrid.transfer(src, src + 1, 256 * sim::KiB,
                    [&, src, left](const net::FlowInfo&) {
                      ++bg_completions;
                      if (left > 1) start_flow(src, left - 1);
                    });
  };
  for (int src = 2; src < 66; src += 2) start_flow(src, 3);
  int rounds_done = 0;
  cluster.spawn(cluster.node(0), 0, "ping", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    openmx::mem::Buffer buf(4096, 1);
    for (int i = 0; i < 4; ++i) {
      ep.wait(ep.isend(buf.data(), 4096, core::Addr{1, 1}, 7));
      ep.wait(ep.irecv(buf.data(), 4096, 7));
      ++rounds_done;
    }
  });
  cluster.spawn(cluster.node(1), 0, "pong", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    openmx::mem::Buffer buf(4096, 2);
    for (int i = 0; i < 4; ++i) {
      ep.wait(ep.irecv(buf.data(), 4096, 7));
      ep.wait(ep.isend(buf.data(), 4096, core::Addr{0, 0}, 7));
    }
  });
  cluster.run();
  EXPECT_EQ(rounds_done, 4);
  EXPECT_EQ(bg_completions, 32 * 3);
  // Every start (initial + each restart) routes through the hybrid.
  EXPECT_EQ(hybrid.counters().get("hybrid.bg_flows"), 32u * 3u);
  EXPECT_GT(hybrid.counters().get("hybrid.fg_frames"), 0u);
}

// ---- multi-LP sharding -------------------------------------------------

TEST(FlowNetwork, CrossShardFlowsMatchTheSingleEngineRun) {
  // Four endpoints, two shards (0,1 | 2,3); flows 0->2 and 0->3 share
  // shard 0's tx port and cross the boundary, 2->1 crosses back.
  // Delivery times must equal the unpartitioned single-engine run
  // exactly.  (Contention here is tx-side and shard-local by design:
  // rx-port sharing *between* shards is approximated, not shared — see
  // DESIGN.md on fidelity-boundary semantics.)
  const std::size_t bytes = 3 * sim::MiB;
  auto run_single = [&] {
    sim::Engine eng;
    net::FlowNetwork flow(eng);
    flow.ensure_endpoints(4);
    std::map<int, sim::Time> at;
    auto track = [&](const net::FlowInfo& fi) {
      at[fi.src * 10 + fi.dst] = fi.finish;
    };
    flow.transfer(0, 2, bytes, track);
    flow.transfer(0, 3, bytes, track);
    flow.transfer(2, 1, bytes, track);
    eng.run();
    return at;
  };
  auto run_sharded = [&] {
    const std::vector<int> lp_of_ep{0, 0, 1, 1};
    sim::Lp lp0(0), lp1(1);
    net::FlowNetwork f0(lp0.engine()), f1(lp1.engine());
    std::vector<net::FlowNetwork*> shards{&f0, &f1};
    f0.bind_partition(lp0, lp_of_ep, shards);
    f1.bind_partition(lp1, lp_of_ep, shards);
    std::map<int, sim::Time> at;
    auto track = [&](const net::FlowInfo& fi) {
      at[fi.src * 10 + fi.dst] = fi.finish;
    };
    f0.transfer(0, 2, bytes, track);
    f0.transfer(0, 3, bytes, track);
    f1.transfer(2, 1, bytes, track);
    sim::LpScheduler sched(net::FlowParams{}.latency_ns);
    sched.add(lp0);
    sched.add(lp1);
    sched.run(1);
    EXPECT_GT(f0.counters().get("flow.completed") +
                  f1.counters().get("flow.completed"),
              0u);
    EXPECT_GT(f1.counters().get("flow.lp_deliveries"), 0u);
    return at;
  };
  const auto single = run_single();
  const auto sharded = run_sharded();
  ASSERT_EQ(single.size(), 3u);
  EXPECT_EQ(single, sharded);
}

TEST(FlowNetwork, ShardedTransferMustStartOnOwningShard) {
  const std::vector<int> lp_of_ep{0, 1};
  sim::Lp lp0(0), lp1(1);
  net::FlowNetwork f0(lp0.engine()), f1(lp1.engine());
  std::vector<net::FlowNetwork*> shards{&f0, &f1};
  f0.bind_partition(lp0, lp_of_ep, shards);
  f1.bind_partition(lp1, lp_of_ep, shards);
  // Endpoint 1 lives on shard 1: shard 0 may not originate its flows.
  EXPECT_THROW(f0.transfer(1, 0, 64, {}), std::logic_error);
}
