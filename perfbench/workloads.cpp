#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "core/parallel_cluster.hpp"
#include "mem/aligned_buffer.hpp"
#include "mpi/world.hpp"

namespace perfbench {

namespace {

using core::Addr;
using core::Request;
using Call = ProcLog::Call;

constexpr std::size_t KiB = 1024;
constexpr std::size_t MiB = 1024 * KiB;

// Ops per pass.  Each size class keeps a fixed share of a pass; the seed
// only permutes the order, so every seed does the same amount of work.
constexpr int kSmallOpsPerSize = 1000;  // x {16 B, 256 B, 4 KiB}
constexpr int kLargeBlocks = 6;         // x {3 x 256 KiB, 1 x 4 MiB}
constexpr int kMeshNodes = 8;
constexpr int kMeshIters = 32;

core::OmxConfig config_for(Kind kind) {
  core::OmxConfig c;  // default Open-MX, no I/OAT
  if (kind == Kind::PingpongLargeIoat || kind == Kind::Imb2ppnIoat) {
    c.ioat_large = true;
    c.ioat_shm = true;
  }
  return c;
}

template <typename ClusterT>
void collect_components(ClusterT& cluster, obs::Registry& out) {
  for (std::size_t i = 0; i < cluster.num_nodes(); ++i) {
    core::Node& n = cluster.node(i);
    out.merge(n.driver().counters());
    out.merge(n.driver().regcache().counters());
    out.merge(n.nic().counters());
    out.merge(n.ioat().counters());
  }
}

/// Folds the per-process logs into the pass result.
void finish(PassResult& r, std::vector<ProcLog>& logs) {
  std::set<std::uint64_t> failed;
  for (ProcLog& l : logs) {
    failed.insert(l.failed.begin(), l.failed.end());
    r.op_us.insert(r.op_us.end(), l.op_us.begin(), l.op_us.end());
    r.post_ns.insert(r.post_ns.end(), l.post_ns.begin(), l.post_ns.end());
    r.wait_us.insert(r.wait_us.end(), l.wait_us.begin(), l.wait_us.end());
    r.handoffs += l.handoffs;
    if (l.trace) r.spans.push_back(std::move(l.spans));
  }
  r.failed_ops = r.completed ? failed.size() : r.planned_ops;
  r.digest = summary_digest(logs);
}

template <typename F>
void run_guarded(PassResult& r, F&& run) {
  const auto t0 = Clock::now();
  try {
    run();
  } catch (const std::exception& e) {
    r.completed = false;
    r.error = e.what();
  }
  r.run_s = seconds_since(t0);
}

// ---------------------------------------------------------------------------
// Ping-pong: node 0 sends a seeded payload, node 1 checks it and echoes it
// back, node 0 checks the echo.  One op = one round trip, timed on node 0.

PassResult pingpong_pass(const Plan& plan, const PassConfig& cfg) {
  PassResult r;
  r.planned_ops = plan.sizes.size();
  core::Cluster cluster;
  cluster.add_nodes(2, config_for(plan.kind));
  const std::size_t max_len = plan.payloads->max_len();
  mem::Buffer sbuf(max_len, 0), rbuf(max_len, 0), echo(max_len, 0);
  std::vector<ProcLog> logs{ProcLog(cfg.trace), ProcLog(cfg.trace)};
  const Payloads& pay = *plan.payloads;
  constexpr std::uint64_t kPing = 7, kPong = 8;

  cluster.spawn(cluster.node(0), 0, "ping", [&](core::Process& p) {
    ProcLog& L = logs[0];
    const std::uint64_t sw0 = thread_voluntary_switches();
    core::Endpoint ep(p, 0);
    for (std::uint32_t i = 0; i < plan.sizes.size(); ++i) {
      const std::size_t len = plan.sizes[i];
      pay.fill(sbuf.data(), i, 0, len);
      const auto h = L.begin_op(i);
      Request* rr = L.call("irecv", Call::Post, h, i,
                           [&] { return ep.irecv(rbuf.data(), len, kPong); });
      Request* sr = L.call("isend", Call::Post, h, i, [&] {
        return ep.isend(sbuf.data(), len, Addr{1, 1}, kPing);
      });
      const Request s = L.call("wait", Call::Wait, h, i, [&] { return ep.wait(sr); });
      const Request got = L.call("wait", Call::Wait, h, i, [&] { return ep.wait(rr); });
      L.end_op(h);
      if (cfg.corrupt_op == static_cast<long>(i)) rbuf[len / 2] ^= 0x5a;
      if (s.failed || got.failed || got.recv_len != len ||
          !pay.check(rbuf.data(), i, 0, len))
        L.failed.insert(i);
      L.sim.emplace_back(p.now(), got.recv_len);
    }
    L.end_vtime = p.now();
    L.handoffs = thread_voluntary_switches() - sw0;
  });
  cluster.spawn(cluster.node(1), 0, "pong", [&](core::Process& p) {
    ProcLog& L = logs[1];
    const std::uint64_t sw0 = thread_voluntary_switches();
    core::Endpoint ep(p, 1);
    for (std::uint32_t i = 0; i < plan.sizes.size(); ++i) {
      const std::size_t len = plan.sizes[i];
      const Request got = ep.wait(ep.irecv(echo.data(), len, kPing));
      if (got.failed || got.recv_len != len || !pay.check(echo.data(), i, 0, len))
        L.failed.insert(i);
      const Request s = ep.wait(ep.isend(echo.data(), len, Addr{0, 0}, kPong));
      if (s.failed) L.failed.insert(i);
      L.sim.emplace_back(p.now(), got.recv_len);
    }
    L.end_vtime = p.now();
    L.handoffs = thread_voluntary_switches() - sw0;
  });

  run_guarded(r, [&] { cluster.run(); });
  collect_components(cluster, r.counters);
  r.counters.merge(cluster.network().counters());
  r.events_scheduled = cluster.engine().events_scheduled();
  r.events_dispatched = cluster.engine().events_dispatched();
  finish(r, logs);
  return r;
}

// ---------------------------------------------------------------------------
// Ring mesh: every node sends 256 KiB (rendezvous) and 16 KiB (eager) to
// its ring successor each iteration.  One op = one iteration of one node.

struct MeshBufs {
  mem::Buffer s256k = mem::Buffer(256 * KiB, 0);
  mem::Buffer s16k = mem::Buffer(16 * KiB, 0);
  mem::Buffer r256k = mem::Buffer(256 * KiB, 0);
  mem::Buffer r16k = mem::Buffer(16 * KiB, 0);
};

template <typename ClusterT>
void spawn_mesh(ClusterT& cluster, const Plan& plan, const PassConfig& cfg,
                std::vector<MeshBufs>& bufs, std::vector<ProcLog>& logs) {
  const int n = plan.mesh_nodes;
  const int iters = plan.mesh_iters;
  const Payloads& pay = *plan.payloads;
  for (int i = 0; i < n; ++i) {
    const int next = (i + 1) % n;
    const int prev = (i + n - 1) % n;
    cluster.spawn(
        cluster.node(static_cast<std::size_t>(i)), 0, "ring" + std::to_string(i),
        [&, i, next, prev, iters](core::Process& p) {
          ProcLog& L = logs[static_cast<std::size_t>(i)];
          MeshBufs& b = bufs[static_cast<std::size_t>(i)];
          const std::uint64_t sw0 = thread_voluntary_switches();
          core::Endpoint ep(p, static_cast<std::uint16_t>(i));
          const Addr to{next, static_cast<std::uint16_t>(next)};
          for (int it = 0; it < iters; ++it) {
            const auto op = static_cast<std::uint32_t>(i * iters + it);
            const auto from_op = static_cast<std::uint32_t>(prev * iters + it);
            const std::uint64_t tag = static_cast<std::uint64_t>(it) * 4;
            pay.fill(b.s256k.data(), op, 0, b.s256k.size());
            pay.fill(b.s16k.data(), op, 1, b.s16k.size());
            const auto h = L.begin_op(op);
            Request* r1 = L.call("irecv", Call::Post, h, op, [&] {
              return ep.irecv(b.r256k.data(), b.r256k.size(), tag + 1);
            });
            Request* r2 = L.call("irecv", Call::Post, h, op, [&] {
              return ep.irecv(b.r16k.data(), b.r16k.size(), tag + 2);
            });
            Request* s1 = L.call("isend", Call::Post, h, op, [&] {
              return ep.isend(b.s256k.data(), b.s256k.size(), to, tag + 1);
            });
            Request* s2 = L.call("isend", Call::Post, h, op, [&] {
              return ep.isend(b.s16k.data(), b.s16k.size(), to, tag + 2);
            });
            const Request w1 = L.call("wait", Call::Wait, h, op, [&] { return ep.wait(s1); });
            const Request w2 = L.call("wait", Call::Wait, h, op, [&] { return ep.wait(s2); });
            const Request g1 = L.call("wait", Call::Wait, h, op, [&] { return ep.wait(r1); });
            const Request g2 = L.call("wait", Call::Wait, h, op, [&] { return ep.wait(r2); });
            L.end_op(h);
            if (cfg.corrupt_op == static_cast<long>(op)) b.r16k[0] ^= 0x5a;
            if (w1.failed || w2.failed || g1.failed || g2.failed ||
                g1.recv_len != b.r256k.size() || g2.recv_len != b.r16k.size() ||
                !pay.check(b.r256k.data(), from_op, 0, b.r256k.size()) ||
                !pay.check(b.r16k.data(), from_op, 1, b.r16k.size()))
              L.failed.insert(op);
            L.sim.emplace_back(p.now(), g1.recv_len + g2.recv_len);
          }
          L.end_vtime = p.now();
          L.handoffs = thread_voluntary_switches() - sw0;
        });
  }
}

PassResult mesh_pass(const Plan& plan, const PassConfig& cfg) {
  PassResult r;
  r.planned_ops = plan.ops_per_pass();
  const auto nodes = static_cast<std::size_t>(plan.mesh_nodes);
  std::vector<MeshBufs> bufs(nodes);
  std::vector<ProcLog> logs(nodes, ProcLog(cfg.trace));
  if (cfg.sequential) {
    core::Cluster cluster;
    cluster.add_nodes(plan.mesh_nodes, config_for(plan.kind));
    spawn_mesh(cluster, plan, cfg, bufs, logs);
      run_guarded(r, [&] { cluster.run(); });
    collect_components(cluster, r.counters);
    r.counters.merge(cluster.network().counters());
    r.events_scheduled = cluster.engine().events_scheduled();
    r.events_dispatched = cluster.engine().events_dispatched();
  } else {
    core::ParallelCluster cluster(plan.mesh_nodes);
    cluster.add_nodes(plan.mesh_nodes, config_for(plan.kind));
    spawn_mesh(cluster, plan, cfg, bufs, logs);
      r.workers = plan.workers;
    run_guarded(r, [&] { cluster.run(plan.workers); });
    cluster.collect_metrics(r.counters);
    cluster.collect_scheduler_metrics(r.sched);
    r.events_scheduled = cluster.events_scheduled();
    for (std::size_t i = 0; i < cluster.num_lps(); ++i)
      r.events_dispatched += cluster.lp(i).engine().events_dispatched();
  }
  finish(r, logs);
  return r;
}

// ---------------------------------------------------------------------------
// IMB: 2 nodes x 2 ranks.  One op = one run_test_local repetition, timed
// on rank 0.  After each op the two ranks of a node swap a seeded buffer
// of the op's size over the one-copy path and check it byte for byte.

PassResult imb_pass(const Plan& plan, const PassConfig& cfg) {
  PassResult r;
  r.planned_ops = plan.imb_ops.size();
  core::Cluster cluster;
  cluster.add_nodes(2, config_for(plan.kind));
  mpi::World world(cluster, mpi::placements(2, 2));
  const auto nranks = static_cast<std::size_t>(world.size());
  const std::size_t max_len = plan.payloads->max_len();
  std::vector<mem::Buffer> sbufs(nranks, mem::Buffer(max_len, 0));
  std::vector<mem::Buffer> rbufs(nranks, mem::Buffer(max_len, 0));
  std::vector<ProcLog> logs(nranks, ProcLog(cfg.trace));
  const Payloads& pay = *plan.payloads;

  run_guarded(r, [&] {
    world.run([&](mpi::Comm& comm) {
      const int rank = comm.rank();
      const int partner = rank ^ 2;  // the other rank on this node
      ProcLog& L = logs[static_cast<std::size_t>(rank)];
      mem::Buffer& sbuf = sbufs[static_cast<std::size_t>(rank)];
      mem::Buffer& rbuf = rbufs[static_cast<std::size_t>(rank)];
      const std::uint64_t sw0 = thread_voluntary_switches();
      for (std::uint32_t i = 0; i < plan.imb_ops.size(); ++i) {
        const imb::Test test = plan.imb_ops[i].first;
        const std::size_t len = plan.imb_ops[i].second;
        const auto h = L.begin_op(i, imb::test_name(test));
        const sim::Time per_rep = imb::run_test_local(comm, test, len, 1);
        if (rank == 0) {
          const double us = L.end_op(h);
          r.kernel_ms[imb::test_name(test)].push_back(us / 1e3);
        } else if (h.first >= 0) {
          L.spans[static_cast<std::size_t>(h.first)].t1 = host_ns();
        }
        pay.fill(sbuf.data(), i, static_cast<std::uint64_t>(rank), len);
        Request* rr = L.call("irecv", Call::Post, h, i, [&] {
          return comm.irecv(rbuf.data(), len, partner, 9);
        });
        Request* sr = L.call("isend", Call::Post, h, i, [&] {
          return comm.isend(sbuf.data(), len, partner, 9);
        });
        const Request s = L.call("wait", Call::Wait, h, i,
                                 [&] { return comm.endpoint().wait(sr); });
        const Request got = L.call("wait", Call::Wait, h, i,
                                   [&] { return comm.endpoint().wait(rr); });
        if (cfg.corrupt_op == static_cast<long>(i) && rank == 0) rbuf[0] ^= 0x5a;
        if (s.failed || got.failed || got.recv_len != len ||
            !pay.check(rbuf.data(), i, static_cast<std::uint64_t>(partner), len))
          L.failed.insert(i);
        L.sim.emplace_back(comm.now(), static_cast<std::uint64_t>(per_rep));
      }
      L.end_vtime = comm.now();
      L.handoffs = thread_voluntary_switches() - sw0;
    });
  });
  collect_components(cluster, r.counters);
  r.counters.merge(cluster.network().counters());
  r.events_scheduled = cluster.engine().events_scheduled();
  r.events_dispatched = cluster.engine().events_dispatched();
  finish(r, logs);
  return r;
}

}  // namespace

std::uint64_t Plan::ops_per_pass() const {
  switch (kind) {
    case Kind::PingpongSmall:
    case Kind::PingpongLargeIoat: return sizes.size();
    case Kind::RingMeshW4:
      return static_cast<std::uint64_t>(mesh_nodes) *
             static_cast<std::uint64_t>(mesh_iters);
    case Kind::Imb2ppnIoat: return imb_ops.size();
  }
  return 0;
}

const std::vector<imb::Test>& imb_kernels() {
  static const std::vector<imb::Test> k = {imb::Test::PingPong,
                                           imb::Test::SendRecv,
                                           imb::Test::Allreduce,
                                           imb::Test::Alltoall,
                                           imb::Test::Bcast};
  return k;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> k = {
      "pingpong_small", "pingpong_large_ioat", "ring_mesh_w4", "imb_2ppn_ioat"};
  return k;
}

Plan make_plan(const std::string& workload, std::uint64_t seed) {
  Plan p;
  p.name = workload;
  p.seed = seed;
  std::uint64_t name_hash = 0;
  for (char c : workload) name_hash = splitmix64(name_hash ^ static_cast<std::uint8_t>(c));
  Rng rng(splitmix64(seed) ^ name_hash);
  std::size_t max_len = 0;
  if (workload == "pingpong_small") {
    p.kind = Kind::PingpongSmall;
    for (std::size_t len : {std::size_t{16}, std::size_t{256}, 4 * KiB})
      p.sizes.insert(p.sizes.end(), kSmallOpsPerSize, len);
    rng.shuffle(p.sizes);
    max_len = 4 * KiB;
  } else if (workload == "pingpong_large_ioat") {
    p.kind = Kind::PingpongLargeIoat;
    for (int b = 0; b < kLargeBlocks; ++b)
      p.sizes.insert(p.sizes.end(), {256 * KiB, 256 * KiB, 256 * KiB, 4 * MiB});
    rng.shuffle(p.sizes);
    max_len = 4 * MiB;
  } else if (workload == "ring_mesh_w4") {
    p.kind = Kind::RingMeshW4;
    p.cpus = 4;
    p.workers = 4;
    p.mesh_nodes = kMeshNodes;
    p.mesh_iters = kMeshIters;
    max_len = 256 * KiB;
  } else if (workload == "imb_2ppn_ioat") {
    // The kernel order is fixed: it steers the cache and registration
    // models, so a seeded order would change the simulated work per seed.
    // The seed sets the payloads of the per-op one-copy check.
    p.kind = Kind::Imb2ppnIoat;
    for (std::size_t len : {128 * KiB, 4 * MiB, 128 * KiB})
      for (imb::Test t : imb_kernels()) p.imb_ops.emplace_back(t, len);
    max_len = 4 * MiB;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  p.payloads = std::make_shared<const Payloads>(seed, max_len);
  return p;
}

PassResult run_pass(const Plan& plan, const PassConfig& cfg) {
  switch (plan.kind) {
    case Kind::PingpongSmall:
    case Kind::PingpongLargeIoat: return pingpong_pass(plan, cfg);
    case Kind::RingMeshW4: return mesh_pass(plan, cfg);
    case Kind::Imb2ppnIoat: return imb_pass(plan, cfg);
  }
  throw std::logic_error("run_pass: bad workload kind");
}

std::uint64_t summary_digest(const std::vector<ProcLog>& logs) {
  Digest d;
  std::int64_t end = 0;
  for (const ProcLog& l : logs) {
    d.add(l.sim.size());
    for (const auto& [vtime, bytes] : l.sim) {
      d.add(static_cast<std::uint64_t>(vtime));
      d.add(bytes);
    }
    end = std::max(end, l.end_vtime);
  }
  d.add(static_cast<std::uint64_t>(end));
  return d.value();
}

}  // namespace perfbench
