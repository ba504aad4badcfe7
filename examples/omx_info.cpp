// omx_info: prints the simulated platform and stack configuration, the
// calibration table behind the cost models, and the auto-tuned offload
// thresholds — the moral equivalent of the real Open-MX's omx_info tool.
#include <cstdio>

#include "core/cluster.hpp"
#include "core/driver.hpp"
#include "obs/wallprof.hpp"

using namespace openmx;

int main() {
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.ioat_shm = true;
  cfg.autotune_thresholds = true;
  core::Cluster cluster;
  cluster.add_nodes(1, cfg);
  core::Node& n = cluster.node(0);
  const core::NodeParams& p = n.params();
  const auto& tuned = n.driver().config();

  std::printf("Open-MX (simulated) — I/OAT copy-offload build\n");
  std::printf("================================================\n\n");

  std::printf("platform\n");
  std::printf("  CPUs:            2 sockets x 2 subchips x 2 cores "
              "(Xeon E5345 'Clovertown' @2.33 GHz)\n");
  std::printf("  shared L2:       %zu MiB per dual-core subchip\n",
              p.l2_bytes / sim::MiB);
  std::printf("  chipset:         Intel 5000X with I/OAT DMA engine "
              "(%d channels)\n", n.ioat().num_channels());
  std::printf("  NIC:             10 GbE, line rate 1186 MiB/s, "
              "MTU %zu\n\n", n.network().params().mtu);

  std::printf("copy engines (calibrated to the paper, Section IV-A)\n");
  std::printf("  memcpy uncached: %.2f GiB/s\n",
              p.memcpy_model.uncached_bw / static_cast<double>(sim::GiB));
  std::printf("  memcpy cached:   %.1f GiB/s\n",
              p.memcpy_model.cached_bw / static_cast<double>(sim::GiB));
  std::printf("  memcpy contended:%.2f GiB/s (NIC DMA active)\n",
              p.memcpy_model.contended_bw / static_cast<double>(sim::GiB));
  std::printf("  I/OAT submit:    %ld ns/descriptor\n",
              static_cast<long>(p.ioat.submit_ns));
  std::printf("  I/OAT stream:    %.2f GiB/s per channel, %.2f GiB/s "
              "aggregate\n",
              p.ioat.engine_bw / static_cast<double>(sim::GiB),
              p.ioat.aggregate_bw / static_cast<double>(sim::GiB));
  std::printf("  pinning:         %ld ns + %ld ns/page\n\n",
              static_cast<long>(p.pin_model.base_ns),
              static_cast<long>(p.pin_model.per_page_ns));

  std::printf("protocol\n");
  std::printf("  fragment:        %zu B (page-based)\n", tuned.frag_payload);
  std::printf("  eager max:       %zu kB (rendezvous above)\n",
              tuned.eager_max / sim::KiB);
  std::printf("  pull window:     %d blocks x %d fragments\n",
              tuned.pull_blocks_outstanding, tuned.pull_block_frags);
  std::printf("  retransmit:      %.0f us base, exponential backoff, "
              "adaptive floor\n\n",
              sim::to_micros(tuned.retrans_timeout));

  std::printf("I/OAT offload\n");
  std::printf("  large receive:   %s\n",
              tuned.ioat_large ? "enabled (overlapped)" : "disabled");
  std::printf("  medium receive:  %s\n",
              tuned.ioat_medium ? "enabled (synchronous)" : "disabled");
  std::printf("  shared memory:   %s (>= %zu kB)\n",
              tuned.ioat_shm ? "enabled" : "disabled",
              tuned.ioat_shm_min_msg / sim::KiB);
  std::printf("  thresholds:      fragments >= %zu B, messages >= %zu kB "
              "(auto-tuned; paper: 1 kB / 64 kB)\n",
              tuned.ioat_min_frag, tuned.ioat_min_msg / sim::KiB);
  std::printf("  regcache:        %s\n",
              tuned.regcache ? "enabled" : "disabled");

  const obs::WallProfiler& prof = obs::WallProfiler::instance();
  std::printf("\nhost wall-clock profiler (obs::WallProfiler)\n");
  std::printf("  runtime:         %s (OMX_WALLPROF=0 disables)\n",
              prof.enabled() ? "enabled" : "disabled");
  std::printf("  clock source:    %s (%.4f ns/tick)\n", prof.clock_name(),
              prof.ns_per_tick());
  std::printf("  zones interned:  %zu across %zu registered threads\n",
              prof.num_zones(), prof.num_threads());
  return 0;
}
