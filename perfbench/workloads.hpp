#pragma once

// The four benchmark workloads.  A Plan holds a workload's seeded inputs;
// run_pass() builds a fresh cluster from it, runs every simulated process
// to quiescence and returns what the pass measured and checked.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "imb/imb.hpp"
#include "obs/registry.hpp"

namespace perfbench {

namespace core = openmx::core;
namespace imb = openmx::imb;
namespace mem = openmx::mem;
namespace mpi = openmx::mpi;
namespace obs = openmx::obs;
namespace sim = openmx::sim;

enum class Kind { PingpongSmall, PingpongLargeIoat, RingMeshW4, Imb2ppnIoat };

struct Plan {
  Kind kind{};
  std::string name;
  std::uint64_t seed = 0;
  int cpus = 1;                         // CPUs the run is confined to
  unsigned workers = 1;                 // LP workers (ring mesh only)
  std::vector<std::size_t> sizes;       // ping-pong: message size per op
  int mesh_nodes = 0, mesh_iters = 0;   // ring mesh
  std::vector<std::pair<imb::Test, std::size_t>> imb_ops;
  std::shared_ptr<const Payloads> payloads;

  [[nodiscard]] std::uint64_t ops_per_pass() const;
};

/// The IMB kernels of imb_2ppn_ioat, in metric-name order.
const std::vector<imb::Test>& imb_kernels();

const std::vector<std::string>& workload_names();

/// Seeded inputs of `workload`; throws std::invalid_argument if unknown.
Plan make_plan(const std::string& workload, std::uint64_t seed);

struct PassConfig {
  bool trace = false;       // record the benchmark's own spans
  bool sequential = false;  // ring mesh on the sequential Cluster
  long corrupt_op = -1;     // self-test: damage this op's receive buffer
};

struct PassResult {
  std::uint64_t planned_ops = 0;
  std::uint64_t failed_ops = 0;
  bool completed = true;  // false: the run threw or deadlocked
  std::string error;
  double run_s = 0;       // Cluster::run / ParallelCluster::run
  std::uint64_t digest = 0;
  std::vector<double> op_us;
  std::vector<double> post_ns, wait_us;
  std::map<std::string, std::vector<double>> kernel_ms;
  std::vector<std::vector<Span>> spans;  // per process, traced passes
  obs::Registry counters;                // merged component counters
  obs::Registry sched;                   // LP scheduler counters
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_dispatched = 0;
  std::uint64_t handoffs = 0;
  unsigned workers = 1;
};

PassResult run_pass(const Plan& plan, const PassConfig& cfg);

/// Digest of a pass summary: every process's (vtime, bytes) per op in
/// process order, then the final virtual time.
std::uint64_t summary_digest(const std::vector<ProcLog>& logs);

}  // namespace perfbench
