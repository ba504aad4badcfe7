// Trace viewer: run a small ping-pong with every telemetry layer on and
// write a Chrome trace-event / Perfetto file.  Open it at
// https://ui.perfetto.dev (or chrome://tracing): one process per node,
// one track per core and per DMA channel, plus a synthesized track per
// large message showing its phase waterfall (wire-arrival, bottom-half,
// ioat-submit, dma-complete, copy-out, notify) and the Fig. 8 overlap.
//
// Build & run:   ./build/examples/trace_viewer [output.json]
// The output name defaults to trace.json; relative names land in
// $OMX_BENCH_OUT_DIR when set (absolute paths are used verbatim), so a
// smoke run never litters the working tree.
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "mem/aligned_buffer.hpp"
#include "obs/perfetto.hpp"
#include "obs/span.hpp"

using namespace openmx;

int main(int argc, char** argv) {
  const std::string out_path =
      bench::out_path(argc > 1 ? argv[1] : "trace.json");
  core::OmxConfig config;
  config.ioat_large = true;  // so the waterfall shows real DMA overlap

  core::Cluster cluster;
  cluster.add_nodes(2, config);

  // All three telemetry layers on: typed event trace, message-lifecycle
  // spans (with their wait-state stamps), and the per-core/per-channel
  // utilization timeline.
  auto& engine = cluster.engine();
  engine.trace().enable();
  engine.spans().enable();
  engine.timeline().enable();

  const std::size_t len = 512 * sim::KiB;
  const int iters = 3;
  mem::Buffer buf0(len, 1), buf1(len, 2);

  cluster.spawn(cluster.node(0), 0, "ping", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    for (int i = 0; i < iters; ++i) {
      ep.wait(ep.isend(buf0.data(), len, core::Addr{1, 1}, 7));
      ep.wait(ep.irecv(buf0.data(), len, 7));
    }
  });
  cluster.spawn(cluster.node(1), 0, "pong", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    for (int i = 0; i < iters; ++i) {
      ep.wait(ep.irecv(buf1.data(), len, 7));
      ep.wait(ep.isend(buf1.data(), len, core::Addr{0, 0}, 7));
    }
  });
  cluster.run();

  // Per-message waterfalls on stdout...
  std::printf("=== message-lifecycle spans ===\n");
  obs::dump_waterfall(stdout, engine.spans());

  // ...the tail of the typed event trace...
  std::printf("\n=== event trace (%zu records, %llu dropped) ===\n",
              engine.trace().size(),
              static_cast<unsigned long long>(engine.trace().dropped()));
  engine.trace().dump(stdout, 24);

  // ...and the Perfetto file (with per-message blame slices).
  if (obs::write_chrome_trace_file(out_path, engine.timeline(),
                                   engine.spans(),
                                   static_cast<int>(cluster.num_nodes())))
    std::printf("\nwrote %s (%zu timeline slices, %zu spans) — load "
                "it at https://ui.perfetto.dev\n",
                out_path.c_str(), engine.timeline().size(),
                engine.spans().size());
  else {
    std::fprintf(stderr, "failed to open %s for writing\n", out_path.c_str());
    return 1;
  }
  return 0;
}
