#pragma once

// Shared harness code for the figure-reproduction benchmarks: ping-pong
// and streaming workloads at the MX API level, table formatting, and the
// standard configurations (native MX, Open-MX, Open-MX + I/OAT, ...).

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/driver.hpp"
#include "core/endpoint.hpp"
#include "mem/aligned_buffer.hpp"
#include "obs/attrib.hpp"
#include "obs/perfetto.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "sim/sweep.hpp"

namespace openmx::bench {

using core::Addr;
using core::Cluster;
using core::Endpoint;
using core::OmxConfig;
using core::Process;
using core::Request;
using sim::Time;

/// Canonical message-size sweep of the paper's throughput figures
/// (16 B ... `max`, doubling).
inline std::vector<std::size_t> size_sweep(std::size_t min_size,
                                           std::size_t max_size) {
  std::vector<std::size_t> v;
  for (std::size_t s = min_size; s <= max_size; s *= 2) v.push_back(s);
  return v;
}

/// Runs `job(i)` for i in [0, n) across worker threads and returns the
/// results in index order.  Each job builds its own Cluster, so results
/// are bit-identical to a sequential run; OPENMX_SWEEP_THREADS overrides
/// the worker count (1 = sequential reference).
template <typename R, typename Fn>
std::vector<R> parallel_points(std::size_t n, Fn&& job) {
  sim::SweepRunner runner{sim::sweep_options_from_env()};
  return runner.map<R>(n, std::function<R(std::size_t)>(std::forward<Fn>(job)));
}

/// Pre-canned configurations matching the paper's curve labels.
inline OmxConfig cfg_mx() {
  OmxConfig c;
  c.native_mx = true;
  return c;
}
inline OmxConfig cfg_omx() { return OmxConfig{}; }
inline OmxConfig cfg_omx_ioat() {
  OmxConfig c;
  c.ioat_large = true;
  c.ioat_shm = true;
  return c;
}
inline OmxConfig cfg_omx_nocopy() {
  OmxConfig c;
  c.ignore_bh_copy = true;
  return c;
}

/// Where bench artifacts (BENCH_*.json metrics, traces) land: the
/// OMX_BENCH_OUT_DIR directory when set, else the current directory.
/// Every file a bench emits at runtime goes through this one helper, so
/// `OMX_BENCH_OUT_DIR=build ctest` keeps the source tree clean — the
/// committed reference data lives in bench/baselines/ only.
inline std::string out_path(const std::string& filename) {
  const char* dir = std::getenv("OMX_BENCH_OUT_DIR");
  // Absolute paths pass through untouched, so CLIs (trace_viewer,
  // omx_blame, omx_postmortem) can route user-supplied output names here
  // without breaking explicit destinations.
  if (!dir || !*dir || (!filename.empty() && filename.front() == '/'))
    return filename;
  std::string p(dir);
  if (p.back() != '/') p += '/';
  return p + filename;
}

/// Prints the metrics block to stdout and writes it to
/// out_path("BENCH_<name>_metrics.json") — every bench_fig* target calls
/// this so each run leaves a machine-readable record of its counters and
/// histograms.
inline void emit_metrics_json(const std::string& bench_name,
                              const obs::Registry& reg) {
  std::printf("\n--- metrics: %s ---\n", bench_name.c_str());
  reg.dump_json(stdout);
  const std::string path = out_path("BENCH_" + bench_name + "_metrics.json");
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    reg.dump_json(f);
    std::fclose(f);
    std::printf("metrics written to %s\n", path.c_str());
  }
}

/// The ping-pong loop itself, on a caller-prepared cluster (so callers can
/// enable telemetry on the engine first).  Returns one-way time.
inline Time run_pingpong(Cluster& cluster, std::size_t len, int iters,
                         int warmup) {
  mem::Buffer buf0(len ? len : 1, 1), buf1(len ? len : 1, 2);
  Time t0 = 0, t1 = 0;

  cluster.spawn(cluster.node(0), 0, "ping", [&](Process& p) {
    Endpoint ep(p, 0);
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = p.now();
      ep.wait(ep.isend(buf0.data(), len, Addr{1, 1}, 7));
      ep.wait(ep.irecv(buf0.data(), len, 7));
    }
    t1 = p.now();
  });
  cluster.spawn(cluster.node(1), 0, "pong", [&](Process& p) {
    Endpoint ep(p, 1);
    for (int i = 0; i < warmup + iters; ++i) {
      ep.wait(ep.irecv(buf1.data(), len, 7));
      ep.wait(ep.isend(buf1.data(), len, Addr{0, 0}, 7));
    }
  });
  cluster.run();
  return (t1 - t0) / (2 * iters);
}

/// One ping-pong timing at the MX API level between two nodes
/// (node 0 core 0 <-> node 1 core 0), as in Figures 3 and 8.
/// Returns the one-way time per message (RTT/2) after warm-up.  When
/// `metrics` is given, the cluster's counters/histograms are merged into
/// it after the run.
inline Time pingpong_oneway(const OmxConfig& cfg, std::size_t len, int iters,
                            int warmup = 2,
                            core::NodeParams np = {},
                            net::NetParams netp = {},
                            obs::Registry* metrics = nullptr) {
  Cluster cluster(1, np, netp);
  cluster.add_nodes(2, cfg);
  const Time t = run_pingpong(cluster, len, iters, warmup);
  if (metrics) cluster.collect_metrics(*metrics);
  return t;
}

inline double pingpong_mibs(const OmxConfig& cfg, std::size_t len, int iters,
                            core::NodeParams np = {},
                            net::NetParams netp = {},
                            obs::Registry* metrics = nullptr) {
  return sim::mib_per_second(
      len, pingpong_oneway(cfg, len, iters, 2, np, netp, metrics));
}

/// Result of a fully instrumented ping-pong (traced_pingpong below).
struct TracedResult {
  Time oneway = 0;
  std::size_t num_spans = 0;
  double avg_overlap_us = 0;  // mean Fig. 8 DMA/ingress overlap per message
  obs::AttribReport report;   // per-size-class latency attribution
};

/// Ping-pong with full telemetry: spans with their wait-state stamps and
/// the utilization timeline enabled, Perfetto JSON written to `json_path`,
/// per-message waterfalls and the blame breakdown printed.  This is how
/// Figure 8 benches visualize the I/OAT overlap window.
inline TracedResult traced_pingpong(const OmxConfig& cfg, std::size_t len,
                                    int iters, const std::string& json_path,
                                    obs::Registry* metrics = nullptr,
                                    bool print_waterfall = true) {
  Cluster cluster;
  cluster.add_nodes(2, cfg);
  auto& eng = cluster.engine();
  eng.timeline().enable();
  eng.spans().enable();
  // Dual-clock trace: capture host-time profiler slices alongside the
  // virtual-time timeline (rendered as extra "host-thread*" processes).
  obs::WallProfiler& prof = obs::WallProfiler::instance();
  prof.reset();
  prof.set_slice_capacity(1 << 16);

  TracedResult r;
  r.oneway = run_pingpong(cluster, len, iters, /*warmup=*/1);
  r.num_spans = eng.spans().size();
  double total_overlap = 0;
  for (const auto& [key, s] : eng.spans().all())
    total_overlap += sim::to_micros(s.overlap_ns());
  if (r.num_spans)
    r.avg_overlap_us = total_overlap / static_cast<double>(r.num_spans);
  r.report.build(eng.spans());

  if (print_waterfall) {
    obs::dump_waterfall(stdout, eng.spans());
    std::printf("\n--- latency attribution ---\n");
    r.report.print(stdout);
  }
  if (obs::write_dual_clock_trace_file(json_path, eng.timeline(), eng.spans(),
                                       static_cast<int>(cluster.num_nodes())))
    std::printf(
        "dual-clock perfetto trace written to %s (%zu spans, avg dma-overlap "
        "%.3f us, %zu host threads)\n",
        json_path.c_str(), r.num_spans, r.avg_overlap_us, prof.num_threads());
  prof.set_slice_capacity(0);
  if (metrics) {
    cluster.collect_metrics(*metrics);
    r.report.to_registry(*metrics);
    eng.spans().to_registry(*metrics);
  }
  return r;
}

/// Intra-node ping-pong between two processes of one node (Figure 10).
/// `core_a`/`core_b` select the placement: {0,1} shares an L2 subchip,
/// {0,4} crosses sockets.
inline Time local_pingpong_oneway(const OmxConfig& cfg, std::size_t len,
                                  int iters, int core_a, int core_b,
                                  int warmup = 2,
                                  obs::Registry* metrics = nullptr) {
  Cluster cluster;
  cluster.add_node(cfg);
  mem::Buffer buf0(len ? len : 1, 1), buf1(len ? len : 1, 2);
  Time t0 = 0, t1 = 0;

  cluster.spawn(cluster.node(0), core_a, "ping", [&](Process& p) {
    Endpoint ep(p, 0);
    for (int i = 0; i < warmup + iters; ++i) {
      if (i == warmup) t0 = p.now();
      ep.wait(ep.isend(buf0.data(), len, Addr{0, 1}, 7));
      ep.wait(ep.irecv(buf0.data(), len, 7));
    }
    t1 = p.now();
  });
  cluster.spawn(cluster.node(0), core_b, "pong", [&](Process& p) {
    Endpoint ep(p, 1);
    for (int i = 0; i < warmup + iters; ++i) {
      ep.wait(ep.irecv(buf1.data(), len, 7));
      ep.wait(ep.isend(buf1.data(), len, Addr{0, 0}, 7));
    }
  });
  cluster.run();
  if (metrics) cluster.collect_metrics(*metrics);
  return (t1 - t0) / (2 * iters);
}

/// CPU-usage measurement of Figure 9: a unidirectional stream of
/// synchronous large messages into node 1; returns the receiver's busy
/// fraction of one core, split by category, over the active window.
/// `dma` additionally reports the I/OAT channels' busy fraction over the
/// same window — the engine-side half of the CPU/DMA utilization picture.
struct CpuUsage {
  double user = 0, driver = 0, bh = 0;
  [[nodiscard]] double total() const { return user + driver + bh; }
  double dma = 0;
  double throughput_mibs = 0;
};

/// The breakdown is derived from the obs utilization timeline: each busy
/// slice of node 1's cores is clipped to the measurement window and summed
/// per category, replacing the bespoke busy-counter deltas this harness
/// used to keep (a regression test asserts both accountings agree).
inline CpuUsage stream_cpu_usage(const OmxConfig& cfg, std::size_t len,
                                 int msgs, obs::Registry* metrics = nullptr) {
  Cluster cluster;
  cluster.add_nodes(2, cfg);
  cluster.engine().timeline().enable();
  mem::Buffer sbuf(len, 1), rbuf(len, 0);
  Time t0 = 0, t1 = 0;

  cluster.spawn(cluster.node(0), 0, "src", [&](Process& p) {
    Endpoint ep(p, 0);
    // Warm-up message, then the measured synchronous stream.
    ep.wait(ep.isend(sbuf.data(), len, Addr{1, 1}, 7));
    for (int i = 0; i < msgs; ++i)
      ep.wait(ep.isend(sbuf.data(), len, Addr{1, 1}, 7));
  });
  cluster.spawn(cluster.node(1), 0, "sink", [&](Process& p) {
    Endpoint ep(p, 1);
    ep.wait(ep.irecv(rbuf.data(), len, 7));
    t0 = p.now();
    for (int i = 0; i < msgs; ++i)
      ep.wait(ep.irecv(rbuf.data(), len, 7));
    t1 = p.now();
  });
  cluster.run();

  const obs::Timeline& tl = cluster.engine().timeline();
  CpuUsage out;
  const double window = static_cast<double>(t1 - t0);
  out.user =
      static_cast<double>(tl.busy_in_window(1, obs::kCatUserLib, t0, t1)) /
      window;
  out.driver =
      static_cast<double>(tl.busy_in_window(1, obs::kCatDriver, t0, t1)) /
      window;
  out.bh =
      static_cast<double>(tl.busy_in_window(1, obs::kCatBottomHalf, t0, t1)) /
      window;
  out.dma =
      static_cast<double>(tl.dma_busy_in_window(1, t0, t1)) / window;
  out.throughput_mibs = sim::mib_per_second(len * static_cast<size_t>(msgs),
                                            t1 - t0);
  if (metrics) cluster.collect_metrics(*metrics);
  return out;
}

/// Human-readable size label (16B, 4kB, 1MB ... as the paper's axes).
inline std::string size_label(std::size_t s) {
  char buf[32];
  if (s >= sim::MiB)
    std::snprintf(buf, sizeof buf, "%zuMB", s / sim::MiB);
  else if (s >= sim::KiB)
    std::snprintf(buf, sizeof buf, "%zukB", s / sim::KiB);
  else
    std::snprintf(buf, sizeof buf, "%zuB", s);
  return buf;
}

/// Prints a figure table: first column sizes, then one column per series.
inline void print_table(const std::string& title,
                        const std::vector<std::string>& series,
                        const std::vector<std::size_t>& sizes,
                        const std::vector<std::vector<double>>& columns,
                        const std::string& unit) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-10s", "size");
  for (const auto& s : series) std::printf("%22s", s.c_str());
  std::printf("   [%s]\n", unit.c_str());
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    std::printf("%-10s", size_label(sizes[row]).c_str());
    for (const auto& col : columns) std::printf("%22.1f", col[row]);
    std::printf("\n");
  }
}

}  // namespace openmx::bench
