// Postmortem viewer: pretty-print the blame and tail-of-trace from a
// trace-ring dump (postmortem_<seed>.json, written when a soak
// invariant trips, a fault plan exhausts a message's retries, or any
// Engine::on_panic hook fires).
//
//   omx_postmortem <dump.json>   parse and pretty-print an existing dump
//   omx_postmortem               self-contained demo: force a pull to
//                                fail under a kill-all-replies fault
//                                plan, dump the trace ring, re-parse the
//                                file and map the tail to the faulting
//                                message (exit != 0 if the mapping or
//                                the dump is missing — the tier-1 smoke)
//
// The dump is line-oriented Chrome-trace JSON: the "postmortem" header
// carries the reason (which names the faulting message, e.g.
// "pull retries exhausted handle=1 len=262144 node=0") and each trace
// event sits alone on its line in a fixed field order, so this tool
// parses with sscanf — the same trick bench_guard uses for baselines.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/cluster.hpp"
#include "core/endpoint.hpp"
#include "fault/fault.hpp"
#include "mem/aligned_buffer.hpp"

using namespace openmx;

namespace {

struct DumpEvent {
  char name[64] = {0};
  char cat[32] = {0};
  double ts_us = 0.0;
  int node = -1;
  unsigned long long a0 = 0;
  unsigned long long a1 = 0;
};

struct Dump {
  char reason[128] = {0};
  unsigned long long seed = 0;
  std::vector<DumpEvent> events;
};

bool parse_dump(const char* path, Dump& out) {
  std::FILE* f = std::fopen(path, "r");
  if (!f) {
    std::fprintf(stderr, "omx_postmortem: cannot open %s\n", path);
    return false;
  }
  char line[512];
  bool have_header = false;
  while (std::fgets(line, sizeof line, f)) {
    if (!have_header &&
        std::sscanf(line, "{\"postmortem\":{\"reason\":\"%127[^\"]\",\"seed\":%llu",
                    out.reason, &out.seed) == 2) {
      have_header = true;
      continue;
    }
    // pid and tid are skipped: the ring is one track (pid 0), and older
    // per-shard dumps parse the same way.
    DumpEvent e;
    if (std::sscanf(line,
                    "{\"name\":\"%63[^\"]\",\"cat\":\"%31[^\"]\",\"ph\":\"i\","
                    "\"s\":\"t\",\"pid\":%*u,\"tid\":%*d,\"ts\":%lf,"
                    "\"args\":{\"node\":%d,\"a0\":%llu,\"a1\":%llu",
                    e.name, e.cat, &e.ts_us, &e.node, &e.a0, &e.a1) == 6)
      out.events.push_back(e);
  }
  std::fclose(f);
  if (!have_header)
    std::fprintf(stderr, "omx_postmortem: %s has no postmortem header\n",
                 path);
  return have_header;
}

/// Pulls the faulting-message identifier out of the panic reason
/// ("... handle=N ..." or "... seq=N ...").  Returns false if the reason
/// names no message (e.g. a soak invariant string).
bool faulting_id(const char* reason, unsigned long long& id) {
  for (const char* key : {"handle=", "seq="}) {
    if (const char* p = std::strstr(reason, key)) {
      id = std::strtoull(p + std::strlen(key), nullptr, 10);
      return true;
    }
  }
  return false;
}

/// True when a tail event belongs to the faulting message: the pull
/// lifecycle events carry the handle in a0.
bool maps_to(const DumpEvent& e, unsigned long long id) {
  return std::strncmp(e.name, "pull.", 5) == 0 && e.a0 == id;
}

int print_dump(const Dump& d) {
  std::printf("=== postmortem (seed %llu) ===\nreason: %s\n\n", d.seed,
              d.reason);

  std::map<std::string, std::size_t> by_cat;
  for (const DumpEvent& e : d.events) ++by_cat[e.cat];
  std::printf("%zu events retained:", d.events.size());
  for (const auto& [cat, n] : by_cat) std::printf("  %s=%zu", cat.c_str(), n);
  std::printf("\n\n");

  unsigned long long id = 0;
  const bool have_id = faulting_id(d.reason, id);

  const std::size_t tail = d.events.size() > 32 ? d.events.size() - 32 : 0;
  std::printf("=== tail of trace ===\n");
  std::size_t mapped = 0;
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    const DumpEvent& e = d.events[i];
    const bool hit = have_id && maps_to(e, id);
    if (hit) ++mapped;
    if (i < tail && !hit) continue;  // always show faulting-message events
    std::printf("%12.3f us  n%-2d %-12s a0=%-10llu a1=%llu%s\n", e.ts_us,
                e.node, e.name, e.a0, e.a1,
                hit ? "   <-- faulting message" : "");
  }

  if (have_id) {
    std::printf("\nfaulting message: id %llu, %zu matching event%s in the "
                "recorded tail\n",
                id, mapped, mapped == 1 ? "" : "s");
    if (!mapped) {
      std::fprintf(stderr,
                   "omx_postmortem: reason names message %llu but no tail "
                   "event maps to it\n",
                   id);
      return 2;
    }
  }
  return 0;
}

/// Demo / smoke mode: force a pull failure and round-trip the dump.
int run_demo() {
  constexpr std::uint64_t kSeed = 42;
  core::OmxConfig cfg;
  cfg.ioat_large = true;
  cfg.retrans_timeout = 50 * sim::kMicrosecond;
  cfg.max_retries = 3;

  core::Cluster cluster;
  cluster.add_nodes(2, cfg);

  sim::Trace& trace = cluster.engine().trace();
  trace.enable(256);  // postmortem-sized ring

  const std::string dump_path =
      bench::out_path("postmortem_" + std::to_string(kSeed) + ".json");
  std::string reason_seen;
  cluster.engine().set_on_panic([&](const char* why) {
    reason_seen = why;
    trace.dump_json_file(dump_path, why, kSeed);
  });

  // Kill every pull reply: the receiver's pull can never progress, so
  // its retry budget burns down and the driver aborts the message —
  // firing the panic hook on the way.
  fault::Plan plan(kSeed);
  plan.drop_all(fault::Match::PullReply);
  cluster.network().set_fault_injector(&plan);

  const std::size_t len = 256 * sim::KiB;  // rendezvous-sized
  mem::Buffer src(len, 1), dst(len, 2);
  bool send_failed = false, recv_failed = false;
  cluster.spawn(cluster.node(0), 0, "sender", [&](core::Process& p) {
    core::Endpoint ep(p, 0);
    send_failed = ep.wait(ep.isend(src.data(), len, {1, 1}, 7)).failed;
  });
  cluster.spawn(cluster.node(1), 0, "receiver", [&](core::Process& p) {
    core::Endpoint ep(p, 1);
    recv_failed = ep.wait(ep.irecv(dst.data(), len, 7)).failed;
  });
  cluster.run();

  std::printf("demo run: send %s, recv %s, panic reason: %s\n\n",
              send_failed ? "FAILED (expected)" : "ok",
              recv_failed ? "FAILED (expected)" : "ok",
              reason_seen.empty() ? "<none>" : reason_seen.c_str());
  if (reason_seen.empty() || !recv_failed) {
    std::fprintf(stderr,
                 "omx_postmortem: demo did not trigger the panic path\n");
    return 1;
  }

  Dump d;
  if (!parse_dump(dump_path.c_str(), d)) return 1;
  const int rc = print_dump(d);
  std::printf("\ndump written to %s\n", dump_path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    Dump d;
    if (!parse_dump(argv[1], d)) return 1;
    return print_dump(d);
  }
  return run_demo();
}
