#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace openmx::sim {

/// The simulation's event ring: a bounded store of 32-byte POD
/// obs::TraceEvents (interned name id, node, two u64 arguments — no
/// strings and no allocation on the record path once the ring is full).
///
/// Its one setting is the capacity.  enable(capacity) (re)starts the ring
/// with room for that many events; 0, the default, turns it off, and a
/// disabled trace is one branch per call site.  When the ring is full the
/// oldest events are overwritten, so a long run keeps its tail.  Full
/// traces (trace_viewer, the telemetry tests) keep kFullCapacity events;
/// postmortem harnesses keep a few hundred, which is all dump_json() needs
/// to map a failure to the message it hit.
class Trace {
 public:
  static constexpr std::size_t kFullCapacity = std::size_t{1} << 16;

  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Empties the ring and gives it room for `capacity` events (0 = off).
  void enable(std::size_t capacity = kFullCapacity) {
    cap_ = capacity;
    clear();
  }
  [[nodiscard]] bool enabled() const { return cap_ != 0; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Pre-interns an event name; the returned id makes event() a pure POD
  /// store.  Call once per site (component constructors).  Interning is
  /// idempotent: the same name always yields the same id.
  [[nodiscard]] obs::EventId intern_event(std::string_view name) {
    const std::uint32_t id = names_.intern(name);
    return obs::EventId{static_cast<std::uint16_t>(id), obs::classify(name)};
  }

  /// Records one event; a0/a1 are free-form arguments (byte counts,
  /// handles, packed addresses).
  void event(Time when, int node, obs::EventId id, std::uint64_t a0 = 0,
             std::uint64_t a1 = 0) {
    if (cap_ == 0) return;
    obs::TraceEvent e;
    e.when = when;
    e.node = node;
    e.cat = id.cat;
    e.id = id.id;
    e.a0 = a0;
    e.a1 = a1;
    if (ring_.size() < cap_) {
      ring_.push_back(e);
      return;
    }
    ring_[head_] = e;
    if (++head_ == cap_) head_ = 0;
    ++dropped_;
  }

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  /// Events overwritten because the ring was full.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  void clear() {
    ring_.clear();
    head_ = 0;
    dropped_ = 0;
  }

  /// The retained events, oldest first.
  [[nodiscard]] std::vector<obs::TraceEvent> tail() const {
    std::vector<obs::TraceEvent> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) out.push_back(at(i));
    return out;
  }

  /// Human-readable dump of the last `max_lines` events.
  void dump(std::FILE* out = stdout, std::size_t max_lines = 200) const {
    const std::size_t start =
        ring_.size() > max_lines ? ring_.size() - max_lines : 0;
    for (std::size_t i = start; i < ring_.size(); ++i) {
      const obs::TraceEvent& e = at(i);
      std::fprintf(out, "%12.3f us  n%d  %-10s ", to_micros(e.when), e.node,
                   names_.name(e.id).c_str());
      if (e.a1)
        std::fprintf(out, "a0=%llu a1=%llu\n",
                     static_cast<unsigned long long>(e.a0),
                     static_cast<unsigned long long>(e.a1));
      else if (e.a0)
        std::fprintf(out, "a0=%llu\n", static_cast<unsigned long long>(e.a0));
      else
        std::fputc('\n', out);
    }
  }

  /// Postmortem dump in Chrome-trace form: a "postmortem" header line
  /// (failure reason, seed, ring capacity, events ever recorded), then
  /// the retained events oldest first, one instant event per line in a
  /// fixed field order so `omx_postmortem` can parse the file with
  /// sscanf.  Wired into soak invariant failures, the driver's
  /// retries-exhausted fatal paths and Engine::on_panic.
  void dump_json(std::FILE* out, const char* reason,
                 std::uint64_t seed) const {
    std::fprintf(out,
                 "{\"postmortem\":{\"reason\":\"%s\",\"seed\":%llu,"
                 "\"capacity\":%zu,\"recorded\":%llu},\n\"traceEvents\":["
                 "\n{\"ph\":\"M\",\"pid\":0,\"name\":\"process_name\","
                 "\"args\":{\"name\":\"trace\"}}",
                 escape(reason).c_str(), static_cast<unsigned long long>(seed),
                 cap_,
                 static_cast<unsigned long long>(ring_.size() + dropped_));
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const obs::TraceEvent& e = at(i);
      std::fprintf(
          out,
          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
          "\"pid\":0,\"tid\":%d,\"ts\":%.3f,"
          "\"args\":{\"node\":%d,\"a0\":%llu,\"a1\":%llu}}",
          escape(names_.name(e.id).c_str()).c_str(), obs::cat_name(e.cat),
          e.node >= 0 ? e.node : 0, to_micros(e.when), e.node,
          static_cast<unsigned long long>(e.a0),
          static_cast<unsigned long long>(e.a1));
    }
    std::fputs("\n],\"displayTimeUnit\":\"ns\"}\n", out);
  }

  /// Writes the dump to `path`; returns false if the file cannot be
  /// opened (the caller is already on a failure path — never throw).
  bool dump_json_file(const std::string& path, const char* reason,
                      std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    dump_json(f, reason, seed);
    std::fclose(f);
    return true;
  }

 private:
  /// i-th retained event, oldest first.
  [[nodiscard]] const obs::TraceEvent& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }

  /// Minimal JSON string sanitizer for reasons and event names (both come
  /// from our own code, so mapping the rare quote/backslash/control byte
  /// to a safe character beats dragging in real escaping).
  [[nodiscard]] static std::string escape(const char* s) {
    std::string out(s ? s : "");
    for (char& c : out)
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
        c = '\'';
    return out;
  }

  std::size_t cap_ = 0;
  std::vector<obs::TraceEvent> ring_;
  std::size_t head_ = 0;  // oldest event once the ring is full
  std::uint64_t dropped_ = 0;
  obs::Interner names_;  // event names (bounded, u16 ids)
};

}  // namespace openmx::sim
