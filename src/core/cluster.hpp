#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/node.hpp"
#include "core/params.hpp"
#include "core/process.hpp"
#include "net/network.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "sim/lp.hpp"

namespace openmx::core {

/// A whole experiment: the event engines, the Ethernet fabric, the nodes
/// and the simulated application processes.  Benchmarks and tests build
/// one Cluster per configuration, spawn processes, then run() to
/// completion.
///
/// The cluster is partitioned into `num_lps` logical processes, each
/// owning its own Engine and its own shard of the fabric.  add_node
/// places nodes round-robin across LPs by default (or explicitly via the
/// `lp` argument).  With one LP — the default, and every figure of the
/// paper — run() drives that LP's engine inline.  With more, the
/// conservative-window LpScheduler synchronizes them, with the wire
/// latency as lookahead, on run(workers) OS threads.  For any LP and
/// worker count the simulation produces bit-identical timing, counters
/// and event counts; the rx-claim arbitration in net::Network is what
/// makes that hold (see DESIGN.md "Multi-LP execution").
class Cluster {
 public:
  explicit Cluster(int num_lps = 1, NodeParams node_params = {},
                   net::NetParams net_params = {})
      : node_params_(node_params),
        lp0_(0),
        shard0_(lp0_.engine(), net_params),
        scheduler_(net_params.latency_ns) {
    if (num_lps <= 0) throw std::logic_error("Cluster: need at least one LP");
    for (int i = 1; i < num_lps; ++i) {
      more_lps_.push_back(std::make_unique<sim::Lp>(i));
      more_shards_.push_back(std::make_unique<net::Network>(
          more_lps_.back()->engine(), net_params));
    }
    if (num_lps > 1)
      for (int i = 0; i < num_lps; ++i)
        scheduler_.add(lp(static_cast<std::size_t>(i)));
  }

  [[nodiscard]] std::size_t num_lps() const { return 1 + more_lps_.size(); }
  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] Node& node(std::size_t i) { return *nodes_.at(i); }
  [[nodiscard]] sim::Lp& lp(std::size_t i) {
    return i == 0 ? lp0_ : *more_lps_.at(i - 1);
  }
  [[nodiscard]] net::Network& shard(std::size_t i) {
    return i == 0 ? shard0_ : *more_shards_.at(i - 1);
  }
  /// The LP scheduler; a one-LP cluster registers no LP with it.
  [[nodiscard]] sim::LpScheduler& scheduler() { return scheduler_; }

  /// The engine and fabric of a one-LP cluster; a partitioned cluster
  /// has one of each per LP (lp(i).engine(), shard(i)).
  [[nodiscard]] sim::Engine& engine() {
    require_one_lp();
    return lp0_.engine();
  }
  [[nodiscard]] net::Network& network() {
    require_one_lp();
    return shard0_;
  }

  /// Adds a node on LP `lp` (round-robin over LPs when negative).  The
  /// node lives entirely inside its LP: engine, machine, caches, I/OAT,
  /// NIC and driver all belong to that partition.
  Node& add_node(const OmxConfig& config, int lp = -1) {
    const int node_id = static_cast<int>(nodes_.size());
    const int lps = static_cast<int>(num_lps());
    if (lp < 0) lp = node_id % lps;
    if (lp >= lps) throw std::logic_error("Cluster: no such LP");
    const auto l = static_cast<std::size_t>(lp);
    nodes_.push_back(std::make_unique<Node>(this->lp(l).engine(), shard(l),
                                            node_id, node_params_, config));
    return *nodes_.back();
  }

  /// Adds `count` identically configured nodes, round-robin across LPs.
  void add_nodes(int count, const OmxConfig& config) {
    for (int i = 0; i < count; ++i) add_node(config);
  }

  Process& spawn(Node& node, int core, std::string name,
                 std::function<void(Process&)> body) {
    procs_.push_back(std::make_unique<Process>(node, core, std::move(name),
                                               std::move(body)));
    return *procs_.back();
  }

  /// Starts every process and runs all partitions to global quiescence.
  /// A partitioned run executes on `workers` OS threads (0 = auto-size
  /// from the shared pool); a one-LP run ignores `workers` and never
  /// touches the scheduler or the pool.  Throws if any process failed or
  /// is still blocked (deadlock) at the end.
  void run(unsigned workers = 0) {
    if (more_lps_.empty()) {
      for (auto& p : procs_) p->start();
      engine().run();
    } else {
      bind_shards();
      for (auto& p : procs_) p->start();
      scheduler_.run(workers);
    }
    for (auto& p : procs_) {
      p->thread().rethrow_if_failed();
      if (!p->thread().finished())
        throw std::runtime_error("Cluster: process '" + p->thread().name() +
                                 "' deadlocked (blocked with no pending "
                                 "events)");
    }
  }

  /// Latest virtual time over all partitions (they drift apart by less
  /// than one lookahead window, and agree again at quiescence).
  [[nodiscard]] sim::Time now() const {
    sim::Time t = lp0_.engine().now();
    for (const auto& lp : more_lps_) t = std::max(t, lp->engine().now());
    return t;
  }

  /// Total events scheduled across partitions, accumulated in LP-id
  /// order.  The sum must be identical for every worker count and equal
  /// to the one-LP count on the same workload.
  [[nodiscard]] std::uint64_t events_scheduled() const {
    std::uint64_t total = lp0_.engine().events_scheduled();
    for (const auto& lp : more_lps_) total += lp->engine().events_scheduled();
    return total;
  }

  /// Folds every per-component registry into `out` in a fixed global
  /// order — node index (driver, regcache, nic, ioat), then fabric
  /// shards in LP-id order — so the merged result never depends on the
  /// LP count, the worker count or which LP owned which node.
  void collect_metrics(obs::Registry& out) {
    for (auto& n : nodes_) {
      out.merge(n->driver().counters());
      out.merge(n->driver().regcache().counters());
      out.merge(n->nic().counters());
      out.merge(n->ioat().counters());
    }
    for (std::size_t i = 0; i < num_lps(); ++i)
      out.merge(shard(i).counters());
  }

  /// Scheduler-level telemetry (lp.<id>.*, lp.critical.*) exported in
  /// LP-id order.  Kept separate from collect_metrics so the component
  /// registry merge stays byte-identical to the one-LP run's — the
  /// scheduler metrics have no one-LP counterpart, but they are
  /// themselves worker-count invariant (asserted by test_determinism).
  void collect_scheduler_metrics(obs::Registry& out) const {
    scheduler_.export_metrics(out);
  }

 private:
  void require_one_lp() const {
    if (!more_lps_.empty())
      throw std::logic_error("Cluster: engine()/network() need one LP");
  }

  /// Wires each fabric shard to its LP and hands every shard the global
  /// node→LP map, read off the shard each node was built on; idempotent,
  /// called on the first partitioned run().
  void bind_shards() {
    if (bound_) return;
    bound_ = true;
    std::vector<net::Network*> shards;
    for (std::size_t i = 0; i < num_lps(); ++i) shards.push_back(&shard(i));
    std::vector<int> lp_of_node;
    for (auto& n : nodes_)
      lp_of_node.push_back(static_cast<int>(
          std::find(shards.begin(), shards.end(), &n->network()) -
          shards.begin()));
    for (std::size_t i = 0; i < num_lps(); ++i)
      shard(i).bind_partition(lp(i), lp_of_node, shards);
  }

  NodeParams node_params_;
  // A one-LP cluster makes exactly the heap allocations the
  // single-engine cluster did: LP 0 and its shard are members, and
  // nothing is registered with the scheduler.  glibc's heap layout is
  // that sensitive — a heap-allocated LP 0, or three pointer vectors,
  // raised the peak RSS of perfbench's pingpong_large_ioat workload from
  // 31 to 36 MiB on some seeds (glibc 2.36, x86-64 Linux, 4 vCPUs).
  sim::Lp lp0_;
  net::Network shard0_;
  std::vector<std::unique_ptr<sim::Lp>> more_lps_;  // LPs 1..n-1
  std::vector<std::unique_ptr<net::Network>> more_shards_;
  sim::LpScheduler scheduler_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<Process>> procs_;
  bool bound_ = false;
};

}  // namespace openmx::core
