// Determinism regression tests for the rebuilt event engine.
//
// The engine's contract is a total dispatch order, lexicographic in
// (when, schedule-sequence) — FIFO per timestamp.  The seed engine got
// this from std::priority_queue over per-event sequence numbers; the
// slab engine gets it from 24-byte keys in an owned 4-ary heap.  These
// tests pin the contract down against a straightforward reference
// implementation and randomized workloads, and assert that SweepRunner
// fan-out cannot change experiment results.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "fault/fault.hpp"
#include "mem/aligned_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/sweep.hpp"

namespace sim = openmx::sim;

namespace {

// Reference scheduler: the seed engine's exact ordering logic — a
// std::priority_queue of (when, seq) popped smallest-first.
struct RefEvent {
  sim::Time when;
  std::uint64_t seq;
  int id;
};
struct RefLater {
  bool operator()(const RefEvent& a, const RefEvent& b) const {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }
};

struct WorkloadOp {
  sim::Time at;     // schedule-time of the op (engine time when issued)
  sim::Time delay;  // delay passed to schedule()
  int id;
};

// Random batches of same-time and distinct-time events, some scheduled
// from inside callbacks, exercising ties, far jumps and interleaving.
std::vector<WorkloadOp> random_workload(std::uint64_t seed, int n) {
  sim::Rng rng(seed);
  std::vector<WorkloadOp> ops;
  sim::Time t = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) t += static_cast<sim::Time>(rng.next_u64() % 1000);
    ops.push_back({t, static_cast<sim::Time>(rng.next_u64() % 128), i});
  }
  return ops;
}

// Dispatch order of the reference scheduler for a pre-built op list
// (ops whose `at` exceeds the current dispatch time are scheduled from
// a driver event at that time, mirroring what the engine test does).
std::vector<int> reference_order(const std::vector<WorkloadOp>& ops) {
  std::priority_queue<RefEvent, std::vector<RefEvent>, RefLater> q;
  std::uint64_t seq = 0;
  for (const auto& op : ops) q.push({op.at + op.delay, seq++, op.id});
  std::vector<int> order;
  while (!q.empty()) {
    order.push_back(q.top().id);
    q.pop();
  }
  return order;
}

std::vector<int> engine_order(const std::vector<WorkloadOp>& ops) {
  sim::Engine e;
  std::vector<int> order;
  // Schedule in op order so engine sequence numbers match the reference
  // seq assignment one-to-one.
  for (const auto& op : ops)
    e.schedule_at(op.at + op.delay, [&order, id = op.id] {
      order.push_back(id);
    });
  e.run();
  return order;
}

}  // namespace

TEST(Determinism, HeapMatchesPriorityQueueReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto ops = random_workload(seed, 500);
    EXPECT_EQ(engine_order(ops), reference_order(ops)) << "seed " << seed;
  }
}

TEST(Determinism, NestedSchedulingMatchesAcrossQueues) {
  // Events scheduled from inside callbacks (the dominant pattern in the
  // driver) must interleave identically on every run.
  auto run = [] {
    sim::Engine e;
    std::vector<std::pair<sim::Time, int>> trace;
    sim::Rng rng(99);
    for (int i = 0; i < 32; ++i) {
      e.schedule(static_cast<sim::Time>(rng.next_u64() % 64),
                 [&e, &trace, &rng, i] {
                   trace.push_back({e.now(), i});
                   for (int k = 0; k < 3; ++k)
                     e.schedule(static_cast<sim::Time>(rng.next_u64() % 32),
                                [&trace, &e, i, k] {
                                  trace.push_back({e.now(), 1000 + i * 10 + k});
                                });
                 });
    }
    e.run();
    return trace;
  };
  const auto first = run();
  EXPECT_EQ(run(), first);  // re-run: identical
}

TEST(Determinism, SimulatedPingPongIdenticalAcrossQueuesAndReruns) {
  // Whole-simulation check: one cluster ping-pong gives bit-identical
  // virtual times on a re-run.
  const sim::Time heap1 =
      openmx::bench::pingpong_oneway(openmx::bench::cfg_omx(), 4096, 3, 1);
  const sim::Time heap2 =
      openmx::bench::pingpong_oneway(openmx::bench::cfg_omx(), 4096, 3, 1);
  EXPECT_EQ(heap1, heap2);
  EXPECT_GT(heap1, 0);
}

TEST(Determinism, SweepResultsIdenticalAcrossWorkerCounts) {
  // The fig12/ablation driver pattern: N independent simulations fanned
  // out across threads must give exactly the sequential results.
  auto job = [](std::size_t i) {
    return openmx::bench::pingpong_oneway(openmx::bench::cfg_omx(),
                                          1024 << (i % 4), 2, 1);
  };
  sim::SweepRunner seq{sim::SweepOptions{.threads = 1}};
  const std::vector<sim::Time> ref = seq.map<sim::Time>(8, job);
  for (unsigned threads : {2u, 4u, 8u}) {
    sim::SweepRunner par{sim::SweepOptions{.threads = threads}};
    EXPECT_EQ(par.map<sim::Time>(8, job), ref) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Multi-LP execution: for the same workload, a partitioned run must be
// bit-identical to the sequential single-engine run — at every worker
// count.  The replay digest covers each process's finish time, the total
// event count, and every counter/histogram of the merged registry.
// ---------------------------------------------------------------------------

namespace {

namespace core = openmx::core;
namespace fault = openmx::fault;
namespace mem = openmx::mem;
namespace obs = openmx::obs;
using core::Addr;
using core::Endpoint;
using core::Process;

struct MeshDigest {
  std::vector<sim::Time> finish;  // per-node process completion times
  std::uint64_t events = 0;       // events scheduled, summed in LP order
  std::string metrics;            // merged registry JSON (sorted keys)

  bool operator==(const MeshDigest&) const = default;
};

std::string registry_json(const obs::Registry& reg) {
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  reg.dump_json(f);
  std::fclose(f);
  std::string s(buf, len);
  std::free(buf);
  return s;
}

// Protocol-heavy ring traffic: every node sends eager, multi-fragment
// eager, and rendezvous-sized messages to its successor; the small
// receive is posted late (after compute) so the unexpected queue and
// both protocol paths are exercised on every link.
void spawn_mesh_traffic(core::Cluster& cluster, int nnodes, int iters,
                        std::vector<sim::Time>& finish) {
  struct NodeBufs {
    // Parenthesized construction: Buffer is a std::vector, so braces
    // would mean an initializer list.
    mem::Buffer s64 = mem::Buffer(64, 1);
    mem::Buffer s16k = mem::Buffer(16 * sim::KiB, 2);
    mem::Buffer s256k = mem::Buffer(256 * sim::KiB, 3);
    mem::Buffer r64 = mem::Buffer(64, 0);
    mem::Buffer r16k = mem::Buffer(16 * sim::KiB, 0);
    mem::Buffer r256k = mem::Buffer(256 * sim::KiB, 0);
  };
  auto bufs = std::make_shared<std::vector<NodeBufs>>(
      static_cast<std::size_t>(nnodes));
  finish.assign(static_cast<std::size_t>(nnodes), 0);

  for (int i = 0; i < nnodes; ++i) {
    const int next = (i + 1) % nnodes;
    cluster.spawn(
        cluster.node(static_cast<std::size_t>(i)), 0, "mesh" + std::to_string(i),
        [&finish, bufs, i, next, iters](Process& p) {
          Endpoint ep(p, i);
          NodeBufs& b = (*bufs)[static_cast<std::size_t>(i)];
          for (int it = 0; it < iters; ++it) {
            const std::uint64_t tag = static_cast<std::uint64_t>(it) * 8;
            // Large + medium receives posted up front...
            core::Request* r256k = ep.irecv(b.r256k.data(), 256 * sim::KiB,
                                            tag + 3);
            core::Request* r16k = ep.irecv(b.r16k.data(), 16 * sim::KiB,
                                           tag + 2);
            core::Request* s64 =
                ep.isend(b.s64.data(), 64, Addr{next, static_cast<std::uint16_t>(next)}, tag + 1);
            core::Request* s256k = ep.isend(b.s256k.data(), 256 * sim::KiB,
                                            Addr{next, static_cast<std::uint16_t>(next)}, tag + 3);
            // ...while the small one lands unexpected during this compute.
            p.compute(3 * sim::kMicrosecond);
            core::Request* r64 = ep.irecv(b.r64.data(), 64, tag + 1);
            core::Request* s16k = ep.isend(b.s16k.data(), 16 * sim::KiB,
                                           Addr{next, static_cast<std::uint16_t>(next)}, tag + 2);
            ep.wait(s64);
            ep.wait(s16k);
            ep.wait(s256k);
            ep.wait(r64);
            ep.wait(r16k);
            ep.wait(r256k);
          }
          finish[static_cast<std::size_t>(i)] = p.now();
        });
  }
}

// num_lps == 1 is the sequential reference: one engine, run inline.
MeshDigest mesh_digest(int nnodes, int num_lps, unsigned workers,
                       int iters) {
  MeshDigest d;
  core::Cluster cluster(num_lps);
  cluster.add_nodes(nnodes, openmx::bench::cfg_omx());
  spawn_mesh_traffic(cluster, nnodes, iters, d.finish);
  cluster.run(workers);
  d.events = cluster.events_scheduled();
  obs::Registry reg;
  cluster.collect_metrics(reg);
  d.metrics = registry_json(reg);
  return d;
}

}  // namespace

TEST(Determinism, MultiLpMatchesSequentialAtEveryWorkerCount) {
  // One LP per node, 8 nodes of ring traffic over eager + rendezvous
  // paths: the partitioned digests must all equal the single-engine
  // reference bit for bit.
  const int kNodes = 8, kIters = 2;
  const MeshDigest ref = mesh_digest(kNodes, 1, 1, kIters);
  ASSERT_EQ(ref.finish.size(), 8u);
  for (sim::Time t : ref.finish) EXPECT_GT(t, 0);
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    const MeshDigest par = mesh_digest(kNodes, kNodes, workers, kIters);
    EXPECT_EQ(par.finish, ref.finish) << workers << " workers";
    EXPECT_EQ(par.events, ref.events) << workers << " workers";
    EXPECT_EQ(par.metrics, ref.metrics) << workers << " workers";
  }
}

TEST(Determinism, SchedulerMetricsIdenticalAcrossWorkersAndReruns) {
  // The per-LP scheduler telemetry (lp.<id>.* counters and histograms,
  // critical-LP attribution, virtual-time barrier stalls) is exported in
  // LP-id order and derives only from the deterministic window protocol —
  // so the merged registry must be byte-identical across repeated runs
  // AND across 1/2/4/8 workers.  Wall-clock barrier waits live in the
  // separate wall_metrics() registry precisely so this holds.
  const int kNodes = 8, kIters = 2;
  auto scheduler_digest = [&](unsigned workers) {
    core::Cluster cluster(kNodes);
    cluster.add_nodes(kNodes, openmx::bench::cfg_omx());
    std::vector<sim::Time> finish;
    spawn_mesh_traffic(cluster, kNodes, kIters, finish);
    cluster.run(workers);
    obs::Registry reg;
    cluster.collect_scheduler_metrics(reg);
    return registry_json(reg);
  };
  const std::string ref = scheduler_digest(4);
  // The export actually carries the per-LP telemetry it promises.
  EXPECT_NE(ref.find("lp.0.events"), std::string::npos) << ref;
  EXPECT_NE(ref.find("lp.0.barrier_stall_ns"), std::string::npos);
  EXPECT_NE(ref.find("lp.critical.slack_ns"), std::string::npos);
  EXPECT_NE(ref.find("lp.max_inbox_depth"), std::string::npos);
  EXPECT_EQ(scheduler_digest(4), ref);  // repeated-run bit-identity
  for (unsigned workers : {1u, 2u, 8u})
    EXPECT_EQ(scheduler_digest(workers), ref) << workers << " workers";
}

TEST(Determinism, MultiLpFewerLpsThanNodesStillMatchesSequential) {
  // Round-robin placement with 2 nodes per LP: partition shape must not
  // change results either.
  const MeshDigest ref = mesh_digest(4, 1, 1, 1);
  for (unsigned workers : {1u, 2u}) {
    const MeshDigest par = mesh_digest(4, 2, workers, 1);
    EXPECT_EQ(par.finish, ref.finish) << workers << " workers";
    EXPECT_EQ(par.events, ref.events) << workers << " workers";
    EXPECT_EQ(par.metrics, ref.metrics) << workers << " workers";
  }
}

namespace {

// Fault-plan scenario: each fabric shard carries its own scripted plan
// (occurrence counts follow the shard-local transmit order, so the
// script is part of the partition, not global state).  The digest must
// be identical at every worker count.
MeshDigest faulted_mesh_digest(int nnodes, unsigned workers, int iters) {
  MeshDigest d;
  core::Cluster cluster(nnodes);
  cluster.add_nodes(nnodes, openmx::bench::cfg_omx());
  std::vector<std::unique_ptr<fault::Plan>> plans;
  for (int i = 0; i < nnodes; ++i) {
    auto plan = std::make_unique<fault::Plan>(sim::sweep_seed(0xFA17, i));
    plan->drop_nth(fault::Match::Data, 2)
        .duplicate_nth(fault::Match::Eager, 4)
        .delay_nth(fault::Match::PullReply, 3, 20 * sim::kMicrosecond)
        .corrupt_nth(fault::Match::Data, 9);
    cluster.shard(static_cast<std::size_t>(i)).set_fault_injector(plan.get());
    plans.push_back(std::move(plan));
  }
  spawn_mesh_traffic(cluster, nnodes, iters, d.finish);
  cluster.run(workers);
  d.events = cluster.events_scheduled();
  obs::Registry reg;
  cluster.collect_metrics(reg);
  d.metrics = registry_json(reg);
  return d;
}

}  // namespace

TEST(Determinism, MultiLpFaultPlanIdenticalAcrossWorkerCounts) {
  // Drops force retransmission, duplicates force dedup, delays reorder,
  // corruption forces checksum discard — and the recovery machinery must
  // still replay bit-identically at 1/2/4/8 workers.
  const MeshDigest ref = faulted_mesh_digest(4, 1, 2);
  for (sim::Time t : ref.finish) EXPECT_GT(t, 0);
  // The plans must actually have fired or the scenario tests nothing.
  EXPECT_NE(ref.metrics.find("\"net.fault_drops\": 4"), std::string::npos)
      << ref.metrics;
  for (unsigned workers : {2u, 4u, 8u}) {
    const MeshDigest par = faulted_mesh_digest(4, workers, 2);
    EXPECT_EQ(par.finish, ref.finish) << workers << " workers";
    EXPECT_EQ(par.events, ref.events) << workers << " workers";
    EXPECT_EQ(par.metrics, ref.metrics) << workers << " workers";
  }
}
