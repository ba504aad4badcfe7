#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/span.hpp"
#include "obs/timeline.hpp"
#include "obs/wallprof.hpp"
#include "sim/time.hpp"

namespace openmx::obs {

/// Chrome trace-event / Perfetto JSON exporter.
///
/// Layout: one Perfetto process per simulated node (pid = node id), one
/// thread per core (tid = core index), one per DMA channel (tid =
/// kDmaTrackOffset + channel), and one synthesized thread per message
/// span (tid from kSpanTrackOffset up) carrying the phase waterfall.
/// Timestamps are microseconds with nanosecond resolution ("%.3f"), the
/// native unit of the trace-event format.  Output is fully deterministic:
/// metadata in (pid, tid) order, slices in recording order, spans in key
/// order.  Load the file at https://ui.perfetto.dev or chrome://tracing.
/// Each span track ends with one "blame:<critical-resource>" slice over
/// the whole message whose args are the per-category latency attribution
/// (attribute_blame) in microseconds — the causal breakdown right next to
/// the waterfall.
inline void write_chrome_trace_events(std::FILE* out, bool& first,
                                      const Timeline& tl,
                                      const SpanTable& spans, int num_nodes) {
  auto sep = [&] {
    std::fputs(first ? "\n" : ",\n", out);
    first = false;
  };

  for (int n = 0; n < num_nodes; ++n) {
    sep();
    std::fprintf(
        out,
        "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
        "\"args\":{\"name\":\"node%d\"}}",
        n, n);
  }

  // Thread metadata for every track that actually recorded a slice.
  std::set<int> used;
  for (const Slice& s : tl.slices()) used.insert(s.track);
  for (int track : used) {
    const int node = track_node(track);
    const int local = track_local(track);
    char name[32];
    if (track_is_dma(track))
      std::snprintf(name, sizeof name, "dma ch%d", local - kDmaTrackOffset);
    else
      std::snprintf(name, sizeof name, "core %d", local);
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                 node, local, name);
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                 "\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
                 node, local, local);
  }

  // Span tracks: one synthesized thread per message, numbered upward from
  // kSpanTrackOffset within its node.
  std::map<int, int> next_span_tid;  // node -> next free tid
  std::map<std::uint64_t, int> span_tid;
  for (const auto& [key, s] : spans.all()) {
    auto [it, inserted] = next_span_tid.emplace(s.node, kSpanTrackOffset);
    const int tid = it->second++;
    span_tid[key] = tid;
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":\"msg #%u (%lluB)\"}}",
                 s.node, tid, static_cast<unsigned>(key & 0xffffffffu),
                 static_cast<unsigned long long>(s.bytes));
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":"
                 "\"thread_sort_index\",\"args\":{\"sort_index\":%d}}",
                 s.node, tid, tid);
  }

  // Core and DMA-channel busy slices.
  for (const Slice& s : tl.slices()) {
    sep();
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                 slice_cat_name(s.cat), track_is_dma(s.track) ? "dma" : "cpu",
                 track_node(s.track), track_local(s.track),
                 sim::to_micros(s.start), sim::to_micros(s.dur));
  }

  // Span waterfalls: one slice per phase, spanning first..last stamp.
  for (const auto& [key, s] : spans.all()) {
    const int tid = span_tid[key];
    for (std::size_t p = 0; p < kNumPhases; ++p) {
      if (s.first[p] < 0) continue;
      const sim::Time dur = std::max<sim::Time>(s.last[p] - s.first[p], 1);
      sep();
      std::fprintf(out,
                   "{\"name\":\"%s\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":%d,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"overlap_us\":%.3f}}",
                   phase_name(static_cast<Phase>(p)), s.node, tid,
                   sim::to_micros(s.first[p]), sim::to_micros(dur),
                   sim::to_micros(s.overlap_ns()));
    }
    sim::Time lo = -1;
    for (std::size_t p = 0; p < kNumPhases; ++p)
      if (s.first[p] >= 0 && (lo < 0 || s.first[p] < lo)) lo = s.first[p];
    if (lo < 0) continue;
    const BlameVec blame = attribute_blame(s);
    sep();
    std::fprintf(out,
                 "{\"name\":\"blame:%s\",\"cat\":\"attrib\",\"ph\":\"X\","
                 "\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{",
                 blame_name(critical_blame(blame)), s.node, tid,
                 sim::to_micros(lo),
                 sim::to_micros(std::max<sim::Time>(s.total_ns(), 1)));
    for (std::size_t b = 0; b < kNumBlames; ++b)
      std::fprintf(out, "%s\"%s_us\":%.3f", b ? "," : "",
                   blame_key(static_cast<Blame>(b)), sim::to_micros(blame[b]));
    std::fputs("}}", out);
  }
}

/// Complete single-clock trace document (the historical entry point):
/// the virtual-time event body wrapped in the traceEvents envelope.
inline void write_chrome_trace(std::FILE* out, const Timeline& tl,
                               const SpanTable& spans, int num_nodes) {
  bool first = true;
  std::fputs("{\"traceEvents\":[", out);
  write_chrome_trace_events(out, first, tl, spans, num_nodes);
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
}

/// Convenience wrapper writing straight to `path`; returns false if the
/// file could not be opened.
inline bool write_chrome_trace_file(const std::string& path,
                                    const Timeline& tl, const SpanTable& spans,
                                    int num_nodes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_chrome_trace(f, tl, spans, num_nodes);
  std::fclose(f);
  return true;
}

/// Dual-clock trace: the virtual-time node timeline plus one host-time
/// process per profiled thread (WallProfiler slices, pids from
/// WallProfiler::kWallTracePidBase), in a single document.  The two
/// clocks share the microsecond axis but not an origin — the host tracks
/// start at the profiler epoch — so the view reads as "what the
/// simulated cluster did" next to "what the simulator's threads paid for
/// it".  Requires slice capture (WallProfiler::set_slice_capacity) to
/// have been enabled before the run; with it off the host tracks are
/// simply absent and the document equals write_chrome_trace's.
inline void write_dual_clock_trace(std::FILE* out, const Timeline& tl,
                                   const SpanTable& spans, int num_nodes) {
  bool first = true;
  std::fputs("{\"traceEvents\":[", out);
  write_chrome_trace_events(out, first, tl, spans, num_nodes);
  WallProfiler::instance().write_trace_events(out, first);
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
}

/// Convenience wrapper writing the dual-clock trace straight to `path`.
inline bool write_dual_clock_trace_file(const std::string& path,
                                        const Timeline& tl,
                                        const SpanTable& spans, int num_nodes) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_dual_clock_trace(f, tl, spans, num_nodes);
  std::fclose(f);
  return true;
}

// ---------------------------------------------------------------------------
// Per-LP scheduler tracks
// ---------------------------------------------------------------------------

/// One LP's share of a synchronization window (filled by the worker that
/// executed the LP; the scheduler barrier orders the writes).
struct LpWindowStat {
  std::uint32_t events = 0;      // events dispatched this window
  std::uint32_t inbox = 0;       // cross-LP messages delivered at start
  sim::Time busy_until = 0;      // last dispatch time (start if idle)
};

/// One conservative synchronization window across all LPs.
struct LpWindow {
  sim::Time start = 0;
  sim::Time end = 0;             // exclusive: events ran in [start, end)
  std::int32_t critical_lp = -1; // the LP whose next action set `start`
  sim::Time slack_ns = 0;        // margin to the runner-up LP's next action
  std::vector<LpWindowStat> per_lp;
};

/// Bounded chronological ring of LpWindows — the raw material for the
/// per-LP Perfetto tracks and the critical-LP attribution.  Opt-in (the
/// scheduler only appends when a capacity was configured); when full the
/// oldest windows are overwritten so long runs keep their tail.
class LpWindowLog {
 public:
  void reset(std::size_t num_lps, std::size_t capacity) {
    num_lps_ = num_lps;
    cap_ = capacity ? capacity : 1;
    ring_.clear();
    head_ = 0;
    total_ = 0;
  }

  LpWindow& append(sim::Time start, sim::Time end, int critical_lp,
                   sim::Time slack_ns) {
    LpWindow* w;
    if (ring_.size() == cap_) {
      w = &ring_[head_];
      head_ = (head_ + 1) % cap_;
    } else {
      ring_.emplace_back();
      w = &ring_.back();
    }
    w->start = start;
    w->end = end;
    w->critical_lp = critical_lp;
    w->slack_ns = slack_ns;
    w->per_lp.assign(num_lps_, LpWindowStat{});
    ++total_;
    return *w;
  }

  [[nodiscard]] std::size_t num_lps() const { return num_lps_; }
  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// i-th retained window in chronological order.
  [[nodiscard]] const LpWindow& window(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

 private:
  std::size_t num_lps_ = 0;
  std::size_t cap_ = 1;
  std::vector<LpWindow> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

/// Perfetto pids for LP tracks sit far above node pids so a scheduler
/// trace can be concatenated with a node-level trace without collision.
inline constexpr int kLpTracePidBase = 1000;

/// Renders the window log as one Perfetto timeline per LP: a "busy"
/// slice over each window's dispatching prefix (args: events delivered /
/// inbox depth), a "stall" slice over the idle remainder — the
/// virtual-time barrier wait — and a "critical" instant on the LP that
/// bounded the window (args: slack to the runner-up).  Deterministic:
/// windows in chronological order, LPs in id order within each window.
inline void write_lp_trace(std::FILE* out, const LpWindowLog& log) {
  bool first = true;
  auto sep = [&] {
    std::fputs(first ? "\n" : ",\n", out);
    first = false;
  };

  std::fputs("{\"traceEvents\":[", out);
  for (std::size_t lp = 0; lp < log.num_lps(); ++lp) {
    sep();
    std::fprintf(out,
                 "{\"ph\":\"M\",\"pid\":%d,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"lp%zu\"}}",
                 kLpTracePidBase + static_cast<int>(lp), lp);
  }

  for (std::size_t i = 0; i < log.size(); ++i) {
    const LpWindow& w = log.window(i);
    for (std::size_t lp = 0; lp < w.per_lp.size(); ++lp) {
      const LpWindowStat& s = w.per_lp[lp];
      const int pid = kLpTracePidBase + static_cast<int>(lp);
      if (s.events) {
        const sim::Time busy =
            std::max<sim::Time>(s.busy_until - w.start, 1);
        sep();
        std::fprintf(out,
                     "{\"name\":\"busy\",\"cat\":\"lp\",\"ph\":\"X\","
                     "\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"events\":%u,\"inbox\":%u}}",
                     pid, sim::to_micros(w.start), sim::to_micros(busy),
                     s.events, s.inbox);
      }
      const sim::Time busy_end =
          std::max(w.start, s.busy_until);
      if (w.end - 1 > busy_end) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"stall\",\"cat\":\"lp\",\"ph\":\"X\","
                     "\"pid\":%d,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f}",
                     pid, sim::to_micros(busy_end),
                     sim::to_micros(w.end - 1 - busy_end));
      }
      if (w.critical_lp == static_cast<std::int32_t>(lp)) {
        sep();
        std::fprintf(out,
                     "{\"name\":\"critical\",\"cat\":\"lp\",\"ph\":\"i\","
                     "\"s\":\"t\",\"pid\":%d,\"tid\":0,\"ts\":%.3f,"
                     "\"args\":{\"slack_us\":%.3f}}",
                     pid, sim::to_micros(w.start),
                     sim::to_micros(w.slack_ns));
      }
    }
  }
  std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
}

/// Convenience wrapper writing the per-LP tracks straight to `path`.
inline bool write_lp_trace_file(const std::string& path,
                                const LpWindowLog& log) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  write_lp_trace(f, log);
  std::fclose(f);
  return true;
}

}  // namespace openmx::obs
