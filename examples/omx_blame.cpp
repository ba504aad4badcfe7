// omx_blame: causal latency attribution for large-message receives.
//
// Runs a ping-pong under one of the paper's bench configs with the span
// and wait-state layers enabled, then prints the Fig. 8/9-style blame
// breakdown: for every message and size class, how much of the
// end-to-end receive time is attributable to wire serialization,
// bottom-half queue wait vs. execution, DMA ring queue wait vs. actual
// transfer, memcpy execution vs. memory-bus contention stall, and the
// notify delay — plus the critical resource whose speedup would shorten
// latency.  Per-message blame sums are checked against the span totals.
//
// Usage: omx_blame [--config mx|omx|ioat|nocopy] [--size BYTES]
//                  [--iters N] [--json PATH]
// Defaults reproduce the Figure 8 configuration: Open-MX + I/OAT, 1 MB.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "obs/attrib.hpp"
#include "obs/perfetto.hpp"

using namespace openmx;

int main(int argc, char** argv) {
  std::string config_name = "ioat";
  std::size_t len = sim::MiB;
  int iters = 4;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--config") {
      config_name = next();
    } else if (arg == "--size") {
      len = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--iters") {
      iters = std::atoi(next());
    } else if (arg == "--json") {
      // Relative names land in $OMX_BENCH_OUT_DIR like every bench
      // artifact; absolute paths are used verbatim.
      json_path = bench::out_path(next());
    } else {
      std::fprintf(stderr,
                   "usage: omx_blame [--config mx|omx|ioat|nocopy] "
                   "[--size BYTES] [--iters N] [--json PATH]\n");
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  core::OmxConfig cfg;
  if (config_name == "mx")
    cfg = bench::cfg_mx();
  else if (config_name == "omx")
    cfg = bench::cfg_omx();
  else if (config_name == "ioat")
    cfg = bench::cfg_omx_ioat();
  else if (config_name == "nocopy")
    cfg = bench::cfg_omx_nocopy();
  else {
    std::fprintf(stderr, "unknown config '%s'\n", config_name.c_str());
    return 2;
  }

  core::Cluster cluster;
  cluster.add_nodes(2, cfg);
  auto& eng = cluster.engine();
  eng.spans().enable();
  if (!json_path.empty()) eng.timeline().enable();

  const sim::Time oneway = bench::run_pingpong(cluster, len, iters,
                                               /*warmup=*/1);
  std::printf("omx_blame: config=%s size=%s iters=%d  oneway %.3f us "
              "(%.1f MiB/s)\n\n",
              config_name.c_str(), bench::size_label(len).c_str(), iters,
              sim::to_micros(oneway), sim::mib_per_second(len, oneway));

  // Per-message breakdown, with the partition checked against the span
  // total: every nanosecond of each receive is blamed on exactly one
  // resource.
  std::printf("=== per-message blame ===\n");
  std::printf("%-16s %10s", "message", "total us");
  for (std::size_t b = 0; b < obs::kNumBlames; ++b)
    std::printf("%10s", obs::blame_name(static_cast<obs::Blame>(b)));
  std::printf("  %s\n", "critical");
  std::size_t checked = 0, bad = 0, shown = 0;
  for (const auto& [key, s] : eng.spans().all()) {
    const obs::BlameVec blame = obs::attribute_blame(s);
    ++checked;
    if (obs::blame_sum(blame) != s.total_ns()) ++bad;
    if (shown++ < 8) {
      char label[32];
      std::snprintf(label, sizeof label, "n%d #%u", s.node,
                    static_cast<unsigned>(key & 0xffffffffu));
      std::printf("%-16s %10.3f", label, sim::to_micros(s.total_ns()));
      for (std::size_t b = 0; b < obs::kNumBlames; ++b)
        std::printf("%10.3f", sim::to_micros(blame[b]));
      std::printf("  %s\n", obs::blame_name(obs::critical_blame(blame)));
    }
  }
  if (shown > 8) std::printf("  ... %zu more messages\n", shown - 8);

  std::printf("\n=== per-size-class attribution ===\n");
  obs::AttribReport report;
  report.build(eng.spans());
  report.print(stdout);

  if (!json_path.empty()) {
    if (obs::write_chrome_trace_file(json_path, eng.timeline(), eng.spans(),
                                     static_cast<int>(cluster.num_nodes())))
      std::printf("\nperfetto trace with blame slices written to %s\n",
                  json_path.c_str());
    else {
      std::fprintf(stderr, "failed to open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
  }

  if (bad || report.sum_mismatches()) {
    std::printf("\nsum-check FAILED: %zu/%zu messages do not partition\n", bad,
                checked);
    return 1;
  }
  std::printf("\nsum-check OK: all %zu blame partitions equal their span "
              "totals\n",
              checked);
  return 0;
}
