#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <set>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "obs/timeline.hpp"
#include "obs/wallprof.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace openmx::dma {

/// Timing parameters of the chipset DMA engine, calibrated against the
/// paper's Section IV-A micro-benchmarks and Figure 7:
///  - ~350 ns CPU cost to build and ring a copy descriptor;
///  - completions are a plain in-order memory read (~negligible);
///  - per-descriptor engine start-up plus a ~2.7 GiB/s streaming rate,
///    which yields ~2.4 GiB/s with 4 KiB chunks, ~1.5 GiB/s with 1 kB
///    chunks, and <1 GiB/s with 256 B chunks — the Figure 7 curves.
struct IoatParams {
  int num_channels = 4;               // current Intel I/OAT hardware ([22])
  sim::Time submit_ns = 350;          // CPU cost per descriptor submission
  sim::Time poll_ns = 40;             // CPU cost of one completion check
  sim::Time desc_startup_ns = 250;    // engine-side per-descriptor latency
  double engine_bw = 2.7 * static_cast<double>(sim::GiB);  // bytes/s
  // The four channels share the chipset's memory ports: striping one copy
  // over several channels buys ~40 % ([22]), not 4x.  Aggregate ceiling
  // applied when more than one channel is busy.
  double aggregate_bw = 3.8 * static_cast<double>(sim::GiB);  // bytes/s
};

/// One injected anomaly of the chipset DMA hardware, decided at descriptor
/// submission time (deterministically — the channel is a FIFO, so both the
/// stall and the error status are fixed the moment the descriptor queues).
struct DmaFault {
  sim::Time stall_ns = 0;  // channel pauses this long before starting
  bool fail = false;       // descriptor completes with error; no bytes move
};

/// Injection point for scripted DMA faults, consulted once per submitted
/// descriptor.  Implemented by fault::Plan; the dma layer only knows this
/// interface.
class DmaFaultInjector {
 public:
  virtual ~DmaFaultInjector() = default;
  virtual DmaFault on_submit(int chan, std::size_t len) = 0;
};

/// The I/OAT DMA engine integrated in the memory chipset (Intel 5000X).
///
/// Each channel processes its descriptors strictly in order and reports
/// completion through an in-memory cookie that the CPU polls; the hardware
/// cannot raise an interrupt to wake a sleeping task (paper Section VI),
/// which is why synchronous offloaded copies must busy-poll.
///
/// Descriptors really move the bytes: the memcpy is performed at the
/// descriptor's virtual completion instant, so overlapped copies expose
/// genuine use-after-free / ordering bugs to the functional tests.
class IoatEngine {
 public:
  IoatEngine(sim::Engine& engine, IoatParams params = {})
      : engine_(engine), params_(params), channels_(params.num_channels) {
    if (params.num_channels <= 0)
      throw std::invalid_argument("IoatEngine: need at least one channel");
    // Counter handles are interned once; submit() then pays a plain add
    // per descriptor instead of a string-keyed map lookup.
    c_descriptors_ = &counters_.counter("ioat.descriptors");
    c_bytes_ = &counters_.counter("ioat.bytes");
    c_desc_failures_ = &counters_.counter("ioat.desc_failures");
    c_stalls_ = &counters_.counter("ioat.stalls");
    c_stall_ns_ = &counters_.counter("ioat.stall_ns");
    h_queue_wait_ = &counters_.histogram("ioat.queue_wait_ns");
    h_transfer_ = &counters_.histogram("ioat.transfer_ns");
  }

  IoatEngine(const IoatEngine&) = delete;
  IoatEngine& operator=(const IoatEngine&) = delete;

  [[nodiscard]] int num_channels() const { return params_.num_channels; }
  [[nodiscard]] const IoatParams& params() const { return params_; }

  /// Installs (or clears, with nullptr) the scripted DMA fault injector.
  /// No injector means submit() is byte-for-byte the pre-fault path.
  void set_fault_injector(DmaFaultInjector* f) { faults_ = f; }
  [[nodiscard]] DmaFaultInjector* fault_injector() const { return faults_; }

  /// CPU-side cost of submitting `ndesc` descriptors.  The caller charges
  /// this to whichever core performs the submission (normally the bottom
  /// half); the engine itself only models the asynchronous copy.
  [[nodiscard]] sim::Time submit_cost(std::size_t ndesc) const {
    return params_.submit_ns * static_cast<sim::Time>(ndesc);
  }

  /// CPU-side cost of one completion poll (an in-order memory read).
  [[nodiscard]] sim::Time poll_cost() const { return params_.poll_ns; }

  /// Queues one copy descriptor on `chan`; returns its cookie (cookies on a
  /// channel are consecutive and complete in order).  `src` and `dst` must
  /// stay valid until completion — exactly the pinning requirement the real
  /// hardware imposes.
  ///
  /// A non-zero `attrib_key` stamps the descriptor's queue wait (time it
  /// sits behind ring occupancy before the channel starts it) and its
  /// engine time as distinct obs::Wait categories for that message.
  std::uint64_t submit(int chan, const std::uint8_t* src, std::uint8_t* dst,
                       std::size_t len, std::uint64_t attrib_key = 0) {
    OMX_WALL_ZONE("dma.submit");
    Channel& c = channel(chan);
    const std::uint64_t cookie = c.next_cookie++;
    DmaFault fault;
    if (faults_) fault = faults_->on_submit(chan, len);
    if (fault.stall_ns > 0) {
      c_stalls_->add();
      c_stall_ns_->add(static_cast<std::uint64_t>(fault.stall_ns));
    }
    const sim::Time start =
        std::max(engine_.now(), c.free_at) + fault.stall_ns;
    const sim::Time queue_wait = start - engine_.now();
    // Channels contend for the chipset memory ports: with k busy channels
    // each one streams at min(engine_bw, aggregate_bw / k).
    int busy = 0;
    for (const Channel& ch : channels_)
      if (!ch.inflight.empty() || &ch == &c) ++busy;
    const double bw =
        std::min(params_.engine_bw,
                 params_.aggregate_bw / static_cast<double>(std::max(1, busy)));
    const sim::Time done =
        start + params_.desc_startup_ns + sim::duration_for_bytes(len, bw);
    c.free_at = done;
    c.inflight.push_back(Desc{src, dst, len, cookie, done, fault.fail});
    c_descriptors_->add();
    c_bytes_->add(len);
    if (fault.fail) c_desc_failures_->add();
    h_queue_wait_->add(static_cast<std::uint64_t>(queue_wait));
    h_transfer_->add(static_cast<std::uint64_t>(done - start));
    if (attrib_key) {
      engine_.spans().add(attrib_key, obs::Wait::DmaQueueWait, queue_wait);
      engine_.spans().add(attrib_key, obs::Wait::DmaTransfer, done - start);
    }
    engine_.timeline().record(track_base_ + chan, obs::kCatDma, start,
                              done - start);
    engine_.schedule_at(done, [this, chan] { complete_next(chan); });
    return cookie;
  }

  /// Splits [src, src+len) into `chunk`-sized descriptors (page-aligned
  /// chunking in the real driver); returns the last cookie.
  std::uint64_t submit_chunked(int chan, const std::uint8_t* src,
                               std::uint8_t* dst, std::size_t len,
                               std::size_t chunk, std::uint64_t attrib_key = 0) {
    if (len == 0) throw std::invalid_argument("submit_chunked: empty copy");
    if (chunk == 0 || chunk > len) chunk = len;
    std::uint64_t cookie = 0;
    for (std::size_t off = 0; off < len; off += chunk)
      cookie = submit(chan, src + off, dst + off, std::min(chunk, len - off),
                      attrib_key);
    return cookie;
  }

  /// Number of descriptors needed for a chunked submission.
  [[nodiscard]] static std::size_t chunk_count(std::size_t len,
                                               std::size_t chunk) {
    if (len == 0) return 0;
    if (chunk == 0 || chunk > len) chunk = len;
    return (len + chunk - 1) / chunk;
  }

  /// Highest completed cookie on `chan` (0 = nothing completed yet).
  /// Charging poll_cost() is the caller's responsibility.  A cookie that
  /// completed with an injected error still advances this watermark — the
  /// real hardware reports the error through the descriptor status word,
  /// modeled by range_failed() below.
  [[nodiscard]] std::uint64_t completed(int chan) const {
    return channel(chan).completed;
  }

  /// True if any descriptor with cookie in [first, last] on `chan` has
  /// failed or is destined to fail.  Deterministic before virtual
  /// completion: the error status is fixed at submission, exactly like
  /// the completion instant.  The caller (the driver) reacts by
  /// abandoning the handle and re-copying with the CPU.
  [[nodiscard]] bool range_failed(int chan, std::uint64_t first,
                                  std::uint64_t last) const {
    if (first == 0 || last < first) return false;
    const Channel& c = channel(chan);
    auto it = c.failed.lower_bound(first);
    if (it != c.failed.end() && *it <= last) return true;
    for (const Desc& d : c.inflight)
      if (d.failed && d.cookie >= first && d.cookie <= last) return true;
    return false;
  }

  /// Virtual time at which `cookie` will have completed.  Deterministic
  /// because the channel is a FIFO; used by the busy-poll loop and by the
  /// predicted-completion-sleep extension (paper Section VI).
  [[nodiscard]] sim::Time cookie_done_time(int chan, std::uint64_t cookie) const {
    const Channel& c = channel(chan);
    if (cookie <= c.completed) return engine_.now();
    for (const Desc& d : c.inflight)
      if (d.cookie == cookie) return d.done_at;
    throw std::logic_error("IoatEngine: unknown cookie");
  }

  /// Time at which the channel becomes idle.
  [[nodiscard]] sim::Time drain_time(int chan) const {
    const Channel& c = channel(chan);
    return std::max(engine_.now(), c.free_at);
  }

  [[nodiscard]] bool idle(int chan) const {
    return channel(chan).inflight.empty();
  }

  /// Round-robin channel selection; the paper assigns one channel per
  /// message and relies on concurrent messages to use all four.
  [[nodiscard]] int pick_channel() {
    const int c = rr_next_;
    rr_next_ = (rr_next_ + 1) % params_.num_channels;
    return c;
  }

  [[nodiscard]] const sim::Counters& counters() const { return counters_; }

  /// First timeline track of this engine's channels (obs::dma_track of
  /// the owning node); set by Node so multi-node timelines do not collide.
  void set_track_base(int base) { track_base_ = base; }
  [[nodiscard]] int track_base() const { return track_base_; }

 private:
  struct Desc {
    const std::uint8_t* src;
    std::uint8_t* dst;
    std::size_t len;
    std::uint64_t cookie;
    sim::Time done_at;
    bool failed = false;
  };

  struct Channel {
    std::deque<Desc> inflight;
    std::set<std::uint64_t> failed;  // cookies completed with error status
    sim::Time free_at = 0;
    std::uint64_t next_cookie = 1;
    std::uint64_t completed = 0;
  };

  Channel& channel(int chan) {
    if (chan < 0 || chan >= params_.num_channels)
      throw std::out_of_range("IoatEngine: bad channel");
    return channels_[static_cast<std::size_t>(chan)];
  }
  const Channel& channel(int chan) const {
    return const_cast<IoatEngine*>(this)->channel(chan);
  }

  void complete_next(int chan) {
    OMX_WALL_ZONE("dma.complete");
    Channel& c = channel(chan);
    if (c.inflight.empty())
      throw std::logic_error("IoatEngine: completion with empty queue");
    Desc d = c.inflight.front();
    c.inflight.pop_front();
    // A failed descriptor moves no bytes — the error is latched in the
    // status word (the `failed` set) for the driver's fallback path.
    if (d.failed)
      c.failed.insert(d.cookie);
    else if (d.len)
      std::memcpy(d.dst, d.src, d.len);
    c.completed = d.cookie;
  }

  sim::Engine& engine_;
  IoatParams params_;
  DmaFaultInjector* faults_ = nullptr;
  std::vector<Channel> channels_;
  int rr_next_ = 0;
  sim::Counters counters_;
  obs::Counter* c_descriptors_ = nullptr;
  obs::Counter* c_bytes_ = nullptr;
  obs::Counter* c_desc_failures_ = nullptr;
  obs::Counter* c_stalls_ = nullptr;
  obs::Counter* c_stall_ns_ = nullptr;
  obs::Histogram* h_queue_wait_ = nullptr;
  obs::Histogram* h_transfer_ = nullptr;
  int track_base_ = obs::dma_track(0, 0);
};

}  // namespace openmx::dma
