#include "core/driver.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>

#include "obs/wallprof.hpp"

namespace openmx::core {

namespace {
constexpr std::size_t kPage = 4096;

/// Retransmission backoff: double the timeout per consecutive fruitless
/// retry, capped at 64x.  Congestion, not loss, is the usual cause of a
/// quiet period, and under many concurrent multi-megabyte pulls the
/// service time of one block can legitimately reach milliseconds; an
/// aggressive fixed timer would melt the wire with duplicates.
openmx::sim::Time backoff(openmx::sim::Time base, int retries) {
  const int shift = retries < 6 ? retries : 6;
  return base << shift;
}

std::size_t frag_count_for(std::size_t len, std::size_t frag) {
  return len == 0 ? 1 : (len + frag - 1) / frag;
}
}  // namespace

/// Cost + deferred side effects of one bottom-half handler invocation.
/// Handlers mutate protocol state immediately (the core is serialized, so
/// nothing else can observe intermediate state), accumulate the CPU time
/// the work costs, and defer externally visible actions — data movement,
/// event-ring writes, frame transmissions — to the end of that time.
struct Driver::BhCtx {
  sim::Time cost = 0;
  std::vector<std::function<void()>> effects;

  void effect(std::function<void()> fn) { effects.push_back(std::move(fn)); }
};

Driver::Driver(Node& node, OmxConfig config)
    : node_(node), config_(config), regcache_(config.regcache) {
  node_.nic().set_rx_callback([this](net::Skbuff skb) { rx(std::move(skb)); });
  // Intern the hot trace-event names and counter keys once; the per-packet
  // and per-descriptor paths below then touch no string-keyed containers.
  auto& tr = node_.engine().trace();
  tid_wire_tx_ = tr.intern_event("wire.tx");
  tid_pull_start_ = tr.intern_event("pull.start");
  tid_pull_done_ = tr.intern_event("pull.done");
  c_pulls_started_ = &counters_.counter("driver.pulls_started");
  c_pulls_finished_ = &counters_.counter("driver.pulls_finished");
  c_pull_reqs_ = &counters_.counter("driver.pull_reqs");
  c_pull_replies_ = &counters_.counter("driver.pull_replies");
  c_large_ioat_bytes_ = &counters_.counter("driver.large_ioat_bytes");
  c_large_memcpy_bytes_ = &counters_.counter("driver.large_memcpy_bytes");
  c_medium_overlap_bytes_ = &counters_.counter("driver.medium_overlap_bytes");
  c_medium_ioat_bytes_ = &counters_.counter("driver.medium_ioat_bytes");
  c_eager_sent_ = &counters_.counter("driver.eager_sent");
  c_nacks_sent_ = &counters_.counter("driver.nacks_sent");
  c_cleanup_runs_ = &counters_.counter("driver.cleanup_runs");
  c_csum_drops_ = &counters_.counter("driver.csum_drops");
  c_dma_faults_ = &counters_.counter("driver.dma_faults");
  c_dma_fallback_bytes_ = &counters_.counter("driver.dma_fallback_bytes");
  h_pull_ns_ = &counters_.histogram("driver.pull_ns");
  if (config_.autotune_thresholds) autotune_thresholds();
}

DriverEndpoint& Driver::open_endpoint(std::uint16_t id) {
  auto& slot = endpoints_[id];
  if (!slot) slot = std::make_unique<DriverEndpoint>(node_.id(), id);
  return *slot;
}

DriverEndpoint* Driver::find_endpoint(std::uint16_t id) {
  auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void Driver::transmit(Addr src_ep_addr, Addr dst, std::shared_ptr<OmxPkt> pkt,
                      std::size_t data_bytes) {
  pkt->src_ep = src_ep_addr.endpoint;
  pkt->dst_ep = dst.endpoint;
  // Typed fast path: no string is built per frame; a0 packs the packet
  // type and destination address, a1 carries the payload size.
  node_.engine().trace().event(
      node_.engine().now(), node_.id(), tid_wire_tx_,
      (static_cast<std::uint64_t>(pkt->type) << 32) |
          (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst.node))
           << 16) |
          dst.endpoint,
      data_bytes);
  net::Frame f;
  f.src_node = node_.id();
  f.dst_node = dst.node;
  f.wire_bytes = wire_bytes_for(data_bytes);
  // Header checksum: injected corruption flips the frame's copy, and the
  // receiver's recompute in rx() catches it like real frame damage.
  f.csum = pkt_checksum(*pkt);
  f.payload = std::move(pkt);
  node_.network().transmit(std::move(f));
}

void Driver::push_event(DriverEndpoint& ep, Event ev) {
  ep.events_.push_back(std::move(ev));
  // Waking a sleeping library thread goes through the scheduler.
  ep.waitq_.wake_all(node_.params().costs.lib_wakeup_ns);
}

bool Driver::offload_large(std::size_t msg_len, std::size_t frag_len) const {
  return config_.ioat_large && !config_.ignore_bh_copy && !config_.native_mx &&
         msg_len >= config_.ioat_min_msg && frag_len >= config_.ioat_min_frag;
}

sim::Time Driver::bh_copy_cost(std::size_t len, std::size_t chunk) const {
  // Large-message destinations are cold application buffers; the copy runs
  // uncontended only when the NIC is not streaming further fragments in.
  const bool contended =
      node_.bus().nic_dma_active(node_.engine().now());
  return node_.params().memcpy_model.duration(len, std::min(chunk, kPage),
                                              0.0, contended);
}

sim::Time Driver::pin_cost_sync(const SegList& segs) {
  // Registration of a vectorial region: keyed on (first base, total), one
  // page walk per page regardless of the segment layout.
  return pin_cost_sync(segs.first_base(), segs.total());
}

sim::Time Driver::pin_cost_sync(const void* buf, std::size_t len) {
  // Native MX also pins, at a comparable cost, so both stacks share this
  // model.
  if (regcache_.lookup_or_insert(buf, len)) return 0;
  const sim::Time full = node_.params().pin_model.cost(len);
  if (!config_.overlap_registration || len <= 64 * sim::KiB) return full;
  // Overlap-registration extension (Section V): pin the first pull block's
  // worth synchronously; the rest proceeds while the rendezvous round-trip
  // and the first blocks are in flight (it occupies the same core, which
  // is idle while the thread sleeps in the wait loop).
  const sim::Time head = node_.params().pin_model.cost(64 * sim::KiB);
  const sim::Time rest = full - head;
  // Charged as driver time concurrent with the transfer.
  counters_.add("driver.overlap_pin_ns", static_cast<std::uint64_t>(rest));
  return head;
}

std::size_t Driver::pending_offload_skbuffs() const {
  std::size_t n = 0;
  for (const auto& [h, p] : pulls_) n += p->pending.size();
  return n;
}

void Driver::autotune_thresholds() {
  // Section VI: benchmark memcpy and I/OAT at startup and derive the
  // thresholds instead of hardcoding the empirical 1 kB / 64 kB.
  const auto& mm = node_.params().memcpy_model;
  const auto& io = node_.ioat().params();
  std::size_t min_frag = 256;
  for (std::size_t s = 256; s <= 16 * sim::KiB; s *= 2) {
    const sim::Time ioat_t = io.submit_ns + io.desc_startup_ns +
                             sim::duration_for_bytes(s, io.engine_bw);
    const sim::Time mem_t = mm.duration(s, s, 0.0, true);
    if (ioat_t < mem_t) {
      min_frag = s;
      break;
    }
    min_frag = s * 2;
  }
  config_.ioat_min_frag = min_frag;
  // A message must amortize at least one pull block of submissions plus
  // the final drain; twice the eager threshold is where overlap can win.
  config_.ioat_min_msg = std::max<std::size_t>(2 * config_.eager_max,
                                               8 * config_.frag_payload);
  counters_.add("driver.autotune_min_frag", min_frag);
  counters_.add("driver.autotune_min_msg", config_.ioat_min_msg);
}

// --------------------------------------------------------------------
// Send commands (library/syscall context)
// --------------------------------------------------------------------

void Driver::cmd_send_eager(DriverEndpoint& ep, const SegList& segs,
                            Addr dst, std::uint64_t match,
                            std::uint64_t request_id) {
  const std::uint32_t seq = next_eager_id_++;

  EagerTx tx;
  tx.ep = &ep;
  tx.segs = segs;
  tx.len = segs.total();
  tx.dst = dst;
  tx.match = match;
  tx.msg_seq = seq;
  tx.request_id = request_id;
  auto it = eager_tx_.emplace(seq, std::move(tx)).first;

  send_eager_frags(it->second);
  c_eager_sent_->add();
  arm_eager_timer(seq);
}

void Driver::send_eager_frags(const EagerTx& t) {
  const std::size_t frag = config_.frag_payload;
  const std::size_t nfrags = frag_count_for(t.len, frag);
  for (std::size_t i = 0; i < nfrags; ++i) {
    auto pkt = std::make_shared<EagerFragPkt>();
    const std::size_t off = i * frag;
    const std::size_t n = std::min(frag, t.len - off);
    pkt->match_info = t.match;
    pkt->msg_seq = t.msg_seq;
    pkt->msg_len = static_cast<std::uint32_t>(t.len);
    pkt->frag_idx = static_cast<std::uint16_t>(i);
    pkt->frag_count = static_cast<std::uint16_t>(nfrags);
    pkt->offset = static_cast<std::uint32_t>(off);
    pkt->data.resize(n);
    t.segs.read(off, pkt->data.data(), n);
    transmit(t.ep->addr(), t.dst, std::move(pkt), n);
  }
}

void Driver::arm_eager_timer(std::uint32_t seq) {
  auto it = eager_tx_.find(seq);
  if (it == eager_tx_.end()) return;
  it->second.timer = node_.engine().schedule_cancellable(
      backoff(config_.retrans_timeout, it->second.retries), [this, seq] {
        auto e = eager_tx_.find(seq);
        if (e == eager_tx_.end()) return;
        if (++e->second.retries > config_.max_retries) {
          // Peer unreachable: report a failed completion (as the real
          // stack's timeout handler eventually must).  This is a fatal
          // path for the message, so fire the postmortem hook — the
          // reason names the message so omx_postmortem can match it to
          // the trace ring's tail.
          char why[96];
          std::snprintf(why, sizeof why,
                        "eager send retries exhausted seq=%u len=%u node=%d",
                        seq, static_cast<unsigned>(e->second.len),
                        node_.id());
          node_.engine().panic(why);
          counters_.add("driver.aborted_sends");
          Event ev;
          ev.type = EvType::SendDone;
          ev.request_id = e->second.request_id;
          ev.failed = true;
          DriverEndpoint* ep2 = e->second.ep;
          eager_tx_.erase(e);
          push_event(*ep2, std::move(ev));
          return;
        }
        counters_.add("driver.eager_retransmits");
        const std::size_t nf =
            frag_count_for(e->second.len, config_.frag_payload);
        const sim::Time cost =
            config_.native_mx
                ? node_.params().costs.mx_bh_ns
                : static_cast<sim::Time>(nf) *
                      (node_.params().costs.skb_alloc_ns +
                       node_.params().costs.tx_doorbell_ns);
        node_.machine().submit_fixed(
            node_.nic().bh_core(), cpu::Cat::BottomHalf, cost, [this, seq] {
              auto e2 = eager_tx_.find(seq);
              if (e2 == eager_tx_.end()) return;
              send_eager_frags(e2->second);
              arm_eager_timer(seq);
            });
      });
}

void Driver::cmd_send_rndv(DriverEndpoint& ep, const SegList& segs,
                           Addr dst, std::uint64_t match,
                           std::uint64_t request_id) {
  const std::uint32_t handle = next_handle_++;
  const std::uint32_t seq = next_eager_id_++;
  SendRegion r;
  r.handle = handle;
  r.ep = &ep;
  r.segs = segs;
  r.len = segs.total();
  r.dst = dst;
  r.match = match;
  r.msg_seq = seq;
  r.request_id = request_id;
  send_regions_.emplace(handle, std::move(r));

  auto pkt = std::make_shared<RndvPkt>();
  pkt->match_info = match;
  pkt->msg_seq = seq;
  pkt->msg_len = static_cast<std::uint32_t>(segs.total());
  pkt->src_handle = handle;
  transmit(ep.addr(), dst, std::move(pkt), 0);
  counters_.add("driver.rndv_sent");

  // The rendezvous is re-announced until the receiver acknowledges the
  // full pull; the receiver dedups (and re-acks if it already finished).
  arm_rndv_timer(handle);
}

void Driver::cmd_send_local(DriverEndpoint& ep, const SegList& segs,
                            Addr dst, std::uint64_t match,
                            std::uint64_t request_id) {
  DriverEndpoint* dep = find_endpoint(dst.endpoint);
  if (!dep) throw std::logic_error("cmd_send_local: no such endpoint");
  const std::uint32_t handle = next_handle_++;
  const std::uint32_t seq = next_eager_id_++;
  LocalMsg m;
  m.handle = handle;
  m.src_ep = &ep;
  m.segs = segs;
  m.len = segs.total();
  m.request_id = request_id;
  local_msgs_.emplace(handle, m);
  counters_.add("driver.local_sent");

  Event ev;
  ev.type = EvType::LocalMsg;
  ev.src = ep.addr();
  ev.match_info = match;
  ev.msg_seq = seq;
  ev.msg_len = static_cast<std::uint32_t>(segs.total());
  ev.local_handle = handle;
  push_event(*dep, std::move(ev));
}

std::size_t Driver::cmd_local_copy(sim::SimThread& thread, int core,
                                   std::uint32_t local_handle,
                                   const SegList& dst) {
  auto it = local_msgs_.find(local_handle);
  if (it == local_msgs_.end())
    throw std::logic_error("cmd_local_copy: unknown handle");
  LocalMsg m = it->second;
  const std::size_t n = std::min(m.len, dst.total());
  const auto& costs = node_.params().costs;
  auto& machine = node_.machine();

  const bool use_ioat = config_.ioat_shm && !config_.native_mx &&
                        n >= config_.ioat_shm_min_msg &&
                        std::min(m.segs.min_piece(0, n),
                                 dst.min_piece(0, n)) >= config_.ioat_min_frag;
  if (use_ioat && n > 0) {
    auto& ioat = node_.ioat();
    // One channel per message by default; channels_per_msg > 1 stripes
    // the copy round-robin across channels ([22]: up to +40 %, bounded by
    // the chipset's aggregate memory bandwidth).
    const int nch =
        std::min(std::max(1, config_.channels_per_msg), ioat.num_channels());
    std::vector<int> chans;
    for (int i = 0; i < nch; ++i) chans.push_back(ioat.pick_channel());
    std::vector<std::uint64_t> cookies(static_cast<std::size_t>(nch), 0);
    std::vector<std::uint64_t> firsts(static_cast<std::size_t>(nch), 0);
    std::size_t nchunks = 0;
    int slot = 0;
    // The engine starts draining descriptors while the CPU is still
    // submitting the rest (per-descriptor engine time exceeds the 350 ns
    // submission cost, so the queue never starves).
    for_piece_pairs(
        m.segs, dst, n,
        [&](const std::uint8_t* sp, std::uint8_t* dp, std::size_t len) {
          for (std::size_t off = 0; off < len; off += kPage) {
            const std::size_t take = std::min(kPage, len - off);
            const auto i = static_cast<std::size_t>(slot);
            cookies[i] = ioat.submit(chans[i], sp + off, dp + off, take);
            if (!firsts[i]) firsts[i] = cookies[i];
            slot = (slot + 1) % nch;
            ++nchunks;
          }
        });
    machine.thread_advance(thread, core, ioat.submit_cost(nchunks),
                           cpu::Cat::DriverSyscall);
    sim::Time done = 0;
    for (std::size_t i = 0; i < cookies.size(); ++i)
      if (cookies[i])
        done = std::max(done, ioat.cookie_done_time(chans[i], cookies[i]));
    const sim::Time now = node_.engine().now();
    if (done > now) {
      if (config_.sleep_sync_copy) {
        // Section VI extension: predicted-completion sleep instead of
        // busy-polling (the hardware cannot interrupt).
        node_.engine().schedule_at(done, [&thread] { thread.wake(); });
        thread.pause();
      } else {
        machine.thread_advance(thread, core, done - now,
                               cpu::Cat::DriverSyscall);
      }
    }
    machine.thread_advance(thread, core,
                           ioat.poll_cost() * static_cast<sim::Time>(nch),
                           cpu::Cat::DriverSyscall);
    bool any_failed = false;
    for (std::size_t i = 0; i < cookies.size(); ++i)
      if (cookies[i] && ioat.range_failed(chans[i], firsts[i], cookies[i]))
        any_failed = true;
    if (any_failed) {
      // Some descriptors completed with error status and moved no bytes.
      // The chunks are interleaved across channels, so simply redo the
      // whole copy with the CPU — byte-for-byte idempotent over the
      // chunks that did land.
      c_dma_faults_->add();
      c_dma_fallback_bytes_->add(n);
      const sim::Time redo =
          node_.params().memcpy_model.duration(n, kPage, 0.0, false);
      machine.thread_advance(thread, core, redo, cpu::Cat::DriverSyscall);
      OMX_WALL_ZONE("driver.copy");
      for_piece_pairs(m.segs, dst, n,
                      [&](const std::uint8_t* sp, std::uint8_t* dp,
                          std::size_t len) { std::memcpy(dp, sp, len); });
    }
    counters_.add("driver.shm_ioat_bytes", n);
  } else if (n > 0) {
    // Single processor copy between the two address spaces.  Runs at
    // shared-L2 speed when the source data is resident in this core's
    // cache domain (producer on the same subchip), memory speed otherwise.
    auto& cache = node_.cache_for_core(core);
    double hf = cache.hit_fraction(m.segs.first_base(), n);
    // The copy itself streams source reads and destination write-allocates
    // through the same cache (2n bytes of footprint): beyond half the
    // cache size the resident source is evicted before it is read, which
    // is the Figure 10 cliff above ~1-2 MB messages.
    const double cap =
        static_cast<double>(cache.capacity_pages() * mem::CacheModel::kPageSize);
    const double usable =
        n == 0 ? 1.0
               : std::clamp((cap - static_cast<double>(n)) /
                                static_cast<double>(n),
                            0.0, 1.0);
    hf *= usable;
    const auto& c = costs;
    const double bw = hf * c.shm_cached_bw + (1.0 - hf) * c.shm_uncached_bw;
    const sim::Time dur = sim::duration_for_bytes(n, bw);
    machine.thread_advance(thread, core, dur, cpu::Cat::DriverSyscall);
    OMX_WALL_ZONE("driver.copy");
    for_piece_pairs(m.segs, dst, n,
                    [&](const std::uint8_t* sp, std::uint8_t* dp,
                        std::size_t len) {
                      std::memcpy(dp, sp, len);
                      cache.touch(sp, len);
                      cache.touch(dp, len);
                    });
    counters_.add("driver.shm_memcpy_bytes", n);
  }

  // Completion events: the sender learns its buffer is free.
  Event ev;
  ev.type = EvType::SendDone;
  ev.request_id = m.request_id;
  push_event(*m.src_ep, std::move(ev));
  local_msgs_.erase(local_handle);
  return n;
}

void Driver::cmd_pull(DriverEndpoint& ep, const SegList& segs, Addr src,
                      std::uint32_t src_handle, std::uint32_t msg_seq,
                      std::uint64_t request_id) {
  const std::uint32_t handle = next_handle_++;
  const std::size_t len = segs.total();
  auto ph = std::make_unique<PullHandle>();
  PullHandle& h = *ph;
  h.handle = handle;
  h.ep = &ep;
  h.segs = segs;
  h.len = len;
  h.src = src;
  h.src_handle = src_handle;
  h.msg_seq = msg_seq;
  h.request_id = request_id;
  h.frag_count = frag_count_for(len, config_.frag_payload);
  h.started_at = node_.engine().now();
  h.got.assign(h.frag_count, false);
  h.blocks_total = static_cast<std::uint32_t>(
      (h.frag_count + config_.pull_block_frags - 1) /
      static_cast<std::size_t>(config_.pull_block_frags));
  if (config_.ioat_large) {
    const int nch = std::max(1, config_.channels_per_msg);
    for (int i = 0; i < nch; ++i) h.channels.push_back(node_.ioat().pick_channel());
  }
  pulls_.emplace(handle, std::move(ph));
  c_pulls_started_->add();
  node_.engine().trace().event(node_.engine().now(), node_.id(),
                               tid_pull_start_, handle, len);
  // Open the message-lifecycle span: the pull command is the earliest
  // receive-side stamp a waterfall can anchor on.
  auto& spans = node_.engine().spans();
  if (spans.enabled())
    spans.begin(obs::span_key(node_.id(), handle), node_.id(), len);

  const int outstanding =
      std::min<int>(config_.pull_blocks_outstanding,
                    static_cast<int>(h.blocks_total));
  for (int b = 0; b < outstanding; ++b) send_pull_req(h, h.next_block++);
  arm_block_timer(h);
}

void Driver::send_pull_req(PullHandle& h, std::uint32_t block) {
  auto pkt = std::make_shared<PullReqPkt>();
  pkt->src_handle = h.src_handle;
  pkt->dst_handle = h.handle;
  pkt->frag_start = block * static_cast<std::uint32_t>(config_.pull_block_frags);
  pkt->frag_count = static_cast<std::uint32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(config_.pull_block_frags),
                            h.frag_count - pkt->frag_start));
  transmit(h.ep->addr(), h.src, std::move(pkt), 0);
  c_pull_reqs_->add();
}

void Driver::arm_rndv_timer(std::uint32_t handle) {
  auto it = send_regions_.find(handle);
  if (it == send_regions_.end()) return;
  it->second.rndv_timer = node_.engine().schedule_cancellable(
      backoff(config_.retrans_timeout, it->second.retries), [this, handle] {
        auto it2 = send_regions_.find(handle);
        if (it2 == send_regions_.end()) return;
        SendRegion& r = it2->second;
        if (node_.engine().now() - r.last_activity <
            config_.retrans_timeout && r.first_pull_seen) {
          // The receiver is actively pulling: nothing is lost, the
          // transfer is just long.  Re-arm quietly.
          r.retries = 0;
          arm_rndv_timer(handle);
          return;
        }
        ++r.retries;
        // An unmatched rendezvous is a legitimate long-lived state (the
        // peer may post its receive much later), so re-announce without a
        // retry cap; a Nack or a failed LargeAck terminates the send.
        // Re-announce until the receiver acknowledges the whole pull:
        // while the pull is in progress the receiver ignores duplicates;
        // once finished it re-sends the (possibly lost) LargeAck.  This
        // keeps the sender live under any loss pattern.
        counters_.add("driver.rndv_retransmits");
        auto pkt = std::make_shared<RndvPkt>();
        pkt->match_info = r.match;
        pkt->msg_seq = r.msg_seq;
        pkt->msg_len = static_cast<std::uint32_t>(r.len);
        pkt->src_handle = r.handle;
        transmit(r.ep->addr(), r.dst, std::move(pkt), 0);
        arm_rndv_timer(handle);
      });
}

void Driver::arm_block_timer(PullHandle& h) {
  const std::uint32_t handle = h.handle;
  // TCP-style adaptive timeout: never fire faster than twice the observed
  // block service time, or concurrent transfers sharing the wire would
  // mistake queueing for loss and melt the link with duplicates.
  const sim::Time base =
      std::max(config_.retrans_timeout, 2 * h.srtt);
  h.block_timer = node_.engine().schedule_cancellable(
      backoff(base, h.retries), [this, handle] {
        auto it = pulls_.find(handle);
        if (it == pulls_.end()) return;
        PullHandle& p = *it->second;
        if (p.received != p.last_progress) {
          // Fragments arrived since the last fire: the link is alive,
          // just congested — re-requesting now would only amplify the
          // backlog with duplicates.  Re-arm quietly.
          p.last_progress = p.received;
          p.retries = 0;
          arm_block_timer(p);
          return;
        }
        if (++p.retries > config_.max_retries) {
          // Fatal for the message: fire the postmortem hook before the
          // abort bookkeeping so the dumped tail still shows the stalled
          // pull's last activity.
          char why[96];
          std::snprintf(why, sizeof why,
                        "pull retries exhausted handle=%u len=%zu node=%d",
                        p.handle, p.len, node_.id());
          node_.engine().panic(why);
          counters_.add("driver.aborted_pulls");
          // Late fragments of the aborted pull are ignored from now on,
          // but descriptors already queued still run their copies when
          // they complete: they read the sender's pages and write the
          // receive buffer.  So the failure is reported only after the
          // last of them, when neither buffer is touched again.
          const sim::Time drain = drain_time(p);
          std::unique_ptr<PullHandle> dead = std::move(it->second);
          pulls_.erase(it);
          if (drain > node_.engine().now())
            node_.engine().schedule_at(
                drain, [this, dead = std::move(dead)] { fail_pull(*dead); });
          else
            fail_pull(*dead);
          return;
        }
        counters_.add("driver.pull_retransmits");
        // Re-request precisely the missing fragments of already-requested
        // blocks (whole-block re-requests amplify congestion into a
        // duplicate storm) and run the cleanup routine (Section III-B:
        // the routine is also invoked when the timeout expires).
        cleanup_pull(p);
        const std::size_t requested = std::min<std::size_t>(
            static_cast<std::size_t>(p.next_block) *
                static_cast<std::size_t>(config_.pull_block_frags),
            p.frag_count);
        std::size_t i = 0;
        while (i < requested) {
          if (p.got[i]) {
            ++i;
            continue;
          }
          // Coalesce a run of consecutive missing fragments into one
          // request.
          std::size_t j = i;
          while (j < requested && !p.got[j]) ++j;
          auto pkt = std::make_shared<PullReqPkt>();
          pkt->src_handle = p.src_handle;
          pkt->dst_handle = p.handle;
          pkt->frag_start = static_cast<std::uint32_t>(i);
          pkt->frag_count = static_cast<std::uint32_t>(j - i);
          transmit(p.ep->addr(), p.src, std::move(pkt), 0);
          counters_.add("driver.pull_rereqs");
          i = j;
        }
        arm_block_timer(p);
      });
}

void Driver::fail_pull(PullHandle& p) {
  for (PendingSkb& ps : p.pending) ps.skb.release();
  DriverEndpoint* ep = p.ep;
  auto& flow = ep->rx_flows_[flow_key(p.src)];
  flow.aborted.insert(p.msg_seq);
  flow.known_rndv.erase(p.msg_seq);
  // Best-effort notification; the sender's re-announcements pick up a
  // failed LargeAck from the aborted set if this one is lost.
  auto ack = std::make_shared<LargeAckPkt>();
  ack->src_handle = p.src_handle;
  ack->msg_seq = p.msg_seq;
  ack->failed = true;
  transmit(ep->addr(), p.src, std::move(ack), 0);
  Event ev;
  ev.type = EvType::LargeRecvDone;
  ev.request_id = p.request_id;
  ev.msg_len = static_cast<std::uint32_t>(p.len);
  ev.failed = true;
  push_event(*ep, std::move(ev));
}

sim::Time Driver::drain_time(const PullHandle& h) {
  sim::Time t = node_.engine().now();
  for (const PendingSkb& ps : h.pending)
    t = std::max(t, node_.ioat().cookie_done_time(ps.chan, ps.cookie));
  return t;
}

void Driver::cleanup_pull(PullHandle& h) {
  if (h.pending.empty()) return;
  c_cleanup_runs_->add();
  for (int chan : h.channels) {
    const std::uint64_t done = node_.ioat().completed(chan);
    auto it = h.pending.begin();
    while (it != h.pending.end()) {
      if (it->chan == chan && it->cookie <= done) {
        // A descriptor of this fragment completed with error status: the
        // bytes never moved, so redo the copy with the CPU from the reply's
        // bytes.  They are still readable: the pull is live, so the sender
        // has had no LargeAck and keeps its pages pinned, and a gathered
        // fragment lives in the skbuff released just below.
        if (it->first_cookie &&
            node_.ioat().range_failed(chan, it->first_cookie, it->cookie)) {
          const auto& rp = it->skb.as<PullReplyPkt>();
          h.segs.write(rp.offset, rp.bytes(), rp.length);
          c_dma_faults_->add();
          c_dma_fallback_bytes_->add(rp.length);
        }
        it->skb.release();
        it = h.pending.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// --------------------------------------------------------------------
// Receive path (bottom-half context)
// --------------------------------------------------------------------

void Driver::rx(net::Skbuff skb) {
  const int core = node_.nic().bh_core();
  if (skb.csum() != 0) {
    // Verify the wire checksum before dispatching; a mismatch means the
    // frame was damaged in flight.  Dropping it here turns corruption into
    // ordinary loss, handled by the retransmission machinery.  The skbuff
    // goes out of scope and returns its ring slot.
    const auto* pkt = dynamic_cast<const OmxPkt*>(skb.payload());
    if (pkt && pkt_checksum(*pkt) != skb.csum()) {
      c_csum_drops_->add();
      return;
    }
  }
  auto shared = std::make_shared<net::Skbuff>(std::move(skb));
  // Span stamp: the frame is in host memory now; everything after this is
  // host-side latency.  Only pull replies belong to a tracked message, and
  // the whole block is skipped unless spans were explicitly enabled.  The
  // span key rides the bottom-half work item so the Machine can stamp its
  // run-queue wait against the right message.
  auto& spans = node_.engine().spans();
  std::uint64_t akey = 0;
  if (spans.enabled()) {
    const auto* pkt = dynamic_cast<const OmxPkt*>(shared->payload());
    if (pkt && pkt->type == PktType::PullReply) {
      const auto& pr = static_cast<const PullReplyPkt&>(*pkt);
      if (pulls_.count(pr.dst_handle)) {
        akey = obs::span_key(node_.id(), pr.dst_handle);
        spans.mark(akey, obs::Phase::WireArrival, node_.engine().now());
      }
    }
  }
  node_.machine().submit_keyed(
      core, cpu::Cat::BottomHalf, akey, [this, shared]() -> cpu::TaskResult {
        OMX_WALL_ZONE("driver.bh");
        BhCtx ctx;
        const auto* pkt = dynamic_cast<const OmxPkt*>(shared->payload());
        if (pkt) {
          switch (pkt->type) {
            case PktType::EagerFrag: bh_eager(ctx, *shared); break;
            case PktType::Rndv: bh_rndv(ctx, *shared); break;
            case PktType::PullReq: bh_pull_req(ctx, *shared); break;
            case PktType::PullReply: bh_pull_reply(ctx, *shared); break;
            case PktType::MsgAck: bh_msg_ack(ctx, *shared); break;
            case PktType::LargeAck: bh_large_ack(ctx, *shared); break;
            case PktType::Nack: bh_nack(ctx, *shared); break;
          }
        }
        auto effects = std::move(ctx.effects);
        return cpu::TaskResult{
            ctx.cost, [effects = std::move(effects)] {
              for (const auto& fn : effects) fn();
            }};
      });
}

void Driver::bh_eager(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<EagerFragPkt>();
  const auto& costs = node_.params().costs;
  ctx.cost += config_.native_mx ? costs.mx_bh_ns : costs.bh_frag_ns;

  DriverEndpoint* ep = find_endpoint(pkt.dst_ep);
  const Addr src{skb.src_node(), pkt.src_ep};
  if (!ep) {
    // No such endpoint: fail the sender fast instead of letting it
    // retransmit into the void.
    auto nack = std::make_shared<NackPkt>();
    nack->msg_seq = pkt.msg_seq;
    const Addr self{node_.id(), pkt.dst_ep};
    c_nacks_sent_->add();
    ctx.effect([this, self, src, nack] { transmit(self, src, nack, 0); });
    return;
  }
  auto& flow = ep->rx_flows_[flow_key(src)];

  if (flow.completed.count(pkt.msg_seq)) {
    // Duplicate of an already-delivered message: just re-ack.
    ctx.cost += costs.bh_ack_ns;
    counters_.add("driver.eager_dup_reacks");
    auto ack = std::make_shared<MsgAckPkt>();
    ack->msg_seq = pkt.msg_seq;
    Addr ep_addr = ep->addr();
    ctx.effect([this, ep_addr, src, ack] { transmit(ep_addr, src, ack, 0); });
    return;
  }

  auto& rxs = flow.active[pkt.msg_seq];
  if (rxs.got.empty()) rxs.got.assign(pkt.frag_count, false);
  if (rxs.got[pkt.frag_idx]) {  // duplicate fragment
    counters_.add("driver.eager_dup_frags");
    return;
  }
  rxs.got[pkt.frag_idx] = true;
  ++rxs.received;

  const std::size_t n = pkt.data.size();
  Event ev;
  ev.type = EvType::EagerFrag;
  ev.src = src;
  ev.match_info = pkt.match_info;
  ev.msg_seq = pkt.msg_seq;
  ev.msg_len = pkt.msg_len;
  ev.frag_idx = pkt.frag_idx;
  ev.frag_count = pkt.frag_count;
  ev.offset = pkt.offset;

  const bool msg_complete = rxs.received == pkt.frag_count;

  // The Section VI extension: defer all events of a multi-fragment medium
  // message until the last fragment, which makes the per-fragment ring
  // copies asynchronous and overlappable, exactly like the large path.
  const bool overlap_medium =
      config_.ioat_medium_overlap && !config_.ignore_bh_copy &&
      !config_.native_mx && pkt.frag_count > 1 &&
      n >= config_.ioat_min_frag;

  // Copy into the statically pinned per-endpoint ring (Figure 2).  The
  // ring is small and constantly reused, so the copy runs warm; this is
  // exactly why *synchronous* I/OAT offload of these 4 KiB copies loses
  // (Section IV-C).
  if (overlap_medium && n > 0) {
    auto& ioat = node_.ioat();
    if (rxs.chan < 0) rxs.chan = ioat.pick_channel();
    ev.data.assign(n, 0);  // the ring slot the engine fills
    std::uint64_t cookie = 0;
    for (std::size_t off = 0; off < n; off += kPage)
      cookie = ioat.submit(rxs.chan, pkt.data.data() + off,
                           ev.data.data() + off, std::min(kPage, n - off));
    const std::size_t nchunks = dma::IoatEngine::chunk_count(n, kPage);
    ctx.cost += ioat.submit_cost(nchunks);
    rxs.pending.push_back(DriverEndpoint::EagerRx::PendingCopy{
        skb, cookie - nchunks + 1, cookie});
    rxs.held.push_back(std::move(ev));
    c_medium_overlap_bytes_->add(n);
  } else if (!config_.ignore_bh_copy && !config_.native_mx && n > 0) {
    if (config_.ioat_medium && n >= config_.ioat_min_frag) {
      auto& ioat = node_.ioat();
      const std::size_t nchunks = dma::IoatEngine::chunk_count(n, kPage);
      const sim::Time submit = ioat.submit_cost(nchunks);
      const sim::Time engine_time =
          static_cast<sim::Time>(nchunks) * ioat.params().desc_startup_ns +
          sim::duration_for_bytes(n, ioat.params().engine_bw);
      // Synchronous: submit, then busy-poll until the copy completed.
      ctx.cost += submit + engine_time + ioat.poll_cost();
      c_medium_ioat_bytes_->add(n);
      ev.data = pkt.data;
    } else {
      ctx.cost += sim::duration_for_bytes(n, costs.ring_copy_bw);
      ev.data = pkt.data;
    }
  } else {
    ev.data = pkt.data;
  }

  if (msg_complete) {
    // The overlapped-medium path waits here for every outstanding copy of
    // this message — the single-wait of Figure 6 applied to mediums.
    if (!rxs.pending.empty()) {
      auto& ioat = node_.ioat();
      const std::uint64_t last = rxs.pending.back().last;
      const sim::Time done = ioat.cookie_done_time(rxs.chan, last);
      const sim::Time busy_until = node_.engine().now() + ctx.cost;
      if (done > busy_until) ctx.cost += done - busy_until;
      ctx.cost += ioat.poll_cost();
      // An injected descriptor failure on any of this message's copies is
      // repaired here with a CPU copy of the affected fragment (the error
      // status is deterministic, so the cost can be charged now; the
      // bytes move in the deferred effect below).
      for (const auto& pc : rxs.pending) {
        if (pc.first &&
            ioat.range_failed(rxs.chan, pc.first, pc.last)) {
          const std::size_t flen = pc.skb.as<EagerFragPkt>().data.size();
          ctx.cost += sim::duration_for_bytes(flen, costs.ring_copy_bw);
          c_dma_faults_->add();
          c_dma_fallback_bytes_->add(flen);
        }
      }
    }
    ctx.cost += config_.native_mx ? 0 : costs.bh_ack_ns;
  }

  Addr ep_addr = ep->addr();
  const std::uint32_t seq = pkt.msg_seq;
  const bool deferred = overlap_medium;
  ctx.effect([this, ep, ev = std::move(ev), msg_complete, deferred, ep_addr,
              src, seq]() mutable {
    if (!deferred) push_event(*ep, std::move(ev));
    if (msg_complete) {
      auto& flow2 = ep->rx_flows_[flow_key(src)];
      auto it = flow2.active.find(seq);
      if (it != flow2.active.end()) {
        // Failed descriptors moved no bytes: redo those fragments' ring
        // copies with the CPU before the events become visible.
        auto& rxs2 = it->second;
        OMX_WALL_ZONE("driver.copy");
        for (std::size_t i = 0; i < rxs2.pending.size(); ++i) {
          const auto& pc = rxs2.pending[i];
          if (pc.first &&
              node_.ioat().range_failed(rxs2.chan, pc.first, pc.last)) {
            const auto& fp = pc.skb.as<EagerFragPkt>();
            std::memcpy(rxs2.held[i].data.data(), fp.data.data(),
                        fp.data.size());
          }
        }
        // Release the held events (in arrival order) and the skbuffs whose
        // copies have all completed by now.
        for (Event& held : rxs2.held) push_event(*ep, std::move(held));
        rxs2.pending.clear();
        flow2.active.erase(it);
      }
      flow2.completed.insert(seq);
      while (flow2.completed.size() > 4096)
        flow2.completed.erase(flow2.completed.begin());
      auto ack = std::make_shared<MsgAckPkt>();
      ack->msg_seq = seq;
      transmit(ep_addr, src, ack, 0);
    }
  });
}

void Driver::bh_rndv(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<RndvPkt>();
  const auto& costs = node_.params().costs;
  ctx.cost += config_.native_mx ? costs.mx_bh_ns : costs.bh_frag_ns;

  DriverEndpoint* ep = find_endpoint(pkt.dst_ep);
  const Addr src{skb.src_node(), pkt.src_ep};
  if (!ep) {
    auto nack = std::make_shared<NackPkt>();
    nack->msg_seq = pkt.msg_seq;
    nack->src_handle = pkt.src_handle;
    const Addr self{node_.id(), pkt.dst_ep};
    c_nacks_sent_->add();
    ctx.effect([this, self, src, nack] { transmit(self, src, nack, 0); });
    return;
  }
  auto& flow = ep->rx_flows_[flow_key(src)];

  if (flow.completed.count(pkt.msg_seq)) {
    // We already pulled everything; the LargeAck must have been lost.
    auto ack = std::make_shared<LargeAckPkt>();
    ack->src_handle = pkt.src_handle;
    ack->msg_seq = pkt.msg_seq;
    Addr ep_addr = ep->addr();
    ctx.effect([this, ep_addr, src, ack] { transmit(ep_addr, src, ack, 0); });
    return;
  }
  if (flow.aborted.count(pkt.msg_seq)) {
    // The pull was given up on (dead link at the time); tell the sender.
    auto ack = std::make_shared<LargeAckPkt>();
    ack->src_handle = pkt.src_handle;
    ack->msg_seq = pkt.msg_seq;
    ack->failed = true;
    Addr ep_addr = ep->addr();
    ctx.effect([this, ep_addr, src, ack] { transmit(ep_addr, src, ack, 0); });
    return;
  }
  if (flow.known_rndv.count(pkt.msg_seq)) return;  // pull in progress
  flow.known_rndv.insert(pkt.msg_seq);
  while (flow.known_rndv.size() > 4096)
    flow.known_rndv.erase(flow.known_rndv.begin());

  Event ev;
  ev.type = EvType::RndvArrived;
  ev.src = src;
  ev.match_info = pkt.match_info;
  ev.msg_seq = pkt.msg_seq;
  ev.msg_len = pkt.msg_len;
  ev.local_handle = pkt.src_handle;  // sender-side handle to pull from
  ctx.effect([this, ep, ev = std::move(ev)]() mutable {
    push_event(*ep, std::move(ev));
  });
}

void Driver::bh_pull_req(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<PullReqPkt>();
  const auto& costs = node_.params().costs;
  auto it = send_regions_.find(pkt.src_handle);
  if (it == send_regions_.end()) {
    ctx.cost += costs.bh_ack_ns;
    return;  // stale request for a finished send
  }
  SendRegion& r = it->second;
  r.first_pull_seen = true;
  r.retries = 0;  // receiver progress resets the give-up counter
  r.last_activity = node_.engine().now();

  // Servicing a block: attach the user pages to reply skbuffs and hand
  // them to the NIC — zero-copy on the send side (Section II-A).  A reply
  // carries a pointer into the pinned send region; only a fragment that
  // straddles an isendv segment boundary is gathered into its own bytes,
  // standing in for the NIC's gather DMA (the receive skbuff is
  // contiguous).  The pointer stays valid for as long as the receiver can
  // read it: the receiver reads a reply only while its pull is live (a
  // pulls_ lookup on a never-reused handle, then the got[] bit), and it
  // sends the LargeAck that releases this region only after the pull's
  // last copy effect or I/OAT drain — on an abort, after the last queued
  // descriptor completes.  A Nack comes only from a node without the
  // endpoint, which never pulls.
  const std::size_t frag = config_.frag_payload;
  ctx.cost += config_.native_mx
                  ? costs.mx_bh_ns
                  : costs.bh_pullreq_ns +
                        static_cast<sim::Time>(pkt.frag_count) *
                            (costs.skb_alloc_ns + costs.tx_doorbell_ns);

  const Addr dst{skb.src_node(), pkt.src_ep};
  Addr ep_addr = r.ep->addr();
  const std::uint32_t dst_handle = pkt.dst_handle;
  const std::uint32_t start = pkt.frag_start;
  const std::uint32_t count = pkt.frag_count;
  const SegList segs = r.segs;
  const std::size_t len = r.len;
  ctx.effect([this, ep_addr, dst, dst_handle, start, count, segs, len, frag] {
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::size_t off = static_cast<std::size_t>(start + i) * frag;
      if (off >= len) break;
      const std::size_t n = std::min(frag, len - off);
      auto rep = std::make_shared<PullReplyPkt>();
      rep->dst_handle = dst_handle;
      rep->frag_idx = start + i;
      rep->offset = static_cast<std::uint32_t>(off);
      rep->length = static_cast<std::uint32_t>(n);
      rep->pages = segs.contiguous(off, n);
      if (!rep->pages) {
        rep->data.resize(n);
        segs.read(off, rep->data.data(), n);
      }
      transmit(ep_addr, dst, std::move(rep), n);
      c_pull_replies_->add();
    }
  });
}

void Driver::bh_pull_reply(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<PullReplyPkt>();
  const auto& costs = node_.params().costs;
  const sim::Time cost0 = ctx.cost;
  ctx.cost += config_.native_mx ? costs.mx_bh_ns : costs.bh_frag_ns;

  auto it = pulls_.find(pkt.dst_handle);
  if (it == pulls_.end()) return;  // stale/duplicate after completion
  PullHandle& h = *it->second;
  const std::uint32_t handle = h.handle;
  if (pkt.frag_idx >= h.frag_count || h.got[pkt.frag_idx]) return;
  h.got[pkt.frag_idx] = true;
  ++h.received;

  auto& spans = node_.engine().spans();
  const std::uint64_t skey = obs::span_key(node_.id(), h.handle);
  const bool span_on = spans.enabled();
  const std::uint64_t akey = span_on ? skey : 0;
  if (span_on) {
    // Wait-state stamp: protocol execution charged so far is bottom-half
    // work; the copy paths below add their own categories.
    spans.add(skey, obs::Wait::BhExec, ctx.cost - cost0);
    // first=entry of the first fragment's handler, last=end of this one
    // (the deferred mark runs when the charged core time has elapsed).
    spans.mark(skey, obs::Phase::BottomHalf, node_.engine().now());
    ctx.effect([this, skey] {
      node_.engine().spans().mark(skey, obs::Phase::BottomHalf,
                                  node_.engine().now());
    });
  }

  const std::size_t n = pkt.length;
  const std::size_t dst_off = pkt.offset;
  const std::uint8_t* src_bytes = pkt.bytes();
  const int bh_core = node_.nic().bh_core();

  // Vectorial receive buffers split this fragment at segment boundaries;
  // the offload threshold applies to the smallest resulting chunk
  // (Section IV-A: do not submit sub-kilobyte descriptors).
  bool do_offload = offload_large(h.len, n) &&
                    h.segs.min_piece(dst_off, n) >= config_.ioat_min_frag;
  if (do_offload && config_.cache_warm_head &&
      h.head_copied < config_.eager_max) {
    // Section V extension: copy the head of the message with memcpy so the
    // target application finds it warm in the shared cache; offload the
    // rest.  Only sensible when the app shares this core's L2 — the caller
    // configures the placement; we apply it unconditionally when enabled.
    do_offload = false;
    h.head_copied += n;
  }

  if (!config_.ignore_bh_copy && !config_.native_mx && n > 0) {
    if (do_offload) {
      auto& ioat = node_.ioat();
      const int chan =
          h.channels[static_cast<std::size_t>(h.next_channel_slot)];
      h.next_channel_slot =
          (h.next_channel_slot + 1) % static_cast<int>(h.channels.size());
      std::size_t nchunks = 0;
      std::uint64_t cookie = 0;
      std::size_t src_off = 0;
      h.segs.for_pieces(dst_off, n, [&](std::uint8_t* dp, std::size_t len) {
        cookie = ioat.submit_chunked(chan, src_bytes + src_off, dp, len,
                                     kPage, akey);
        nchunks += dma::IoatEngine::chunk_count(len, kPage);
        src_off += len;
      });
      // Cookies on one channel are consecutive within a single BH, so the
      // fragment's descriptors span exactly [cookie-nchunks+1, cookie].
      const std::uint64_t first_cookie = cookie - nchunks + 1;
      ctx.cost += ioat.submit_cost(nchunks);
      if (span_on) {
        spans.add(skey, obs::Wait::BhExec, ioat.submit_cost(nchunks));
        spans.mark(skey, obs::Phase::IoatSubmit, node_.engine().now());
        // The channel is a FIFO, so this fragment's completion instant is
        // already known deterministically.
        spans.mark(skey, obs::Phase::DmaComplete,
                   ioat.cookie_done_time(chan, cookie));
      }
      if (config_.ioat_large_sync) {
        // Ablation: no overlap — busy-poll this fragment's completion
        // before releasing the core (what Figure 6 shows the paper's
        // design avoiding for all but the last fragment).
        const sim::Time done = ioat.cookie_done_time(chan, cookie);
        const sim::Time busy_until = node_.engine().now() + ctx.cost;
        if (done > busy_until) {
          ctx.cost += done - busy_until;
          spans.add(skey, obs::Wait::DmaDrainWait, done - busy_until);
        }
        ctx.cost += ioat.poll_cost();
        spans.add(skey, obs::Wait::BhExec, ioat.poll_cost());
      }
      h.pending.push_back(PendingSkb{skb, chan, cookie, first_cookie});
      c_large_ioat_bytes_->add(n);
    } else {
      const sim::Time copy_cost = bh_copy_cost(n, h.segs.min_piece(dst_off, n));
      ctx.cost += copy_cost;
      if (span_on) {
        // Separate the copy's execution time from the extra time lost to
        // memory-bus contention: the uncontended duration is what the
        // same copy would cost with the NIC quiescent.
        const sim::Time exec = node_.params().memcpy_model.duration(
            n, std::min(h.segs.min_piece(dst_off, n), kPage), 0.0, false);
        spans.add(skey, obs::Wait::MemcpyExec, std::min(exec, copy_cost));
        if (copy_cost > exec)
          spans.add(skey, obs::Wait::BusStall, copy_cost - exec);
      }
      net::Skbuff skb_copy = skb;
      ctx.effect([handle, dst_off, src_bytes, n, skb_copy, this, bh_core,
                  span_on, skey]() mutable {
        OMX_WALL_ZONE("driver.copy");
        // Copy only into a live pull: an abort may have fired while this
        // handler's time elapsed, and then neither buffer may be touched.
        auto live = pulls_.find(handle);
        if (live == pulls_.end()) return;
        const SegList& segs = live->second->segs;
        segs.write(dst_off, src_bytes, n);
        segs.for_pieces(dst_off, n, [&](std::uint8_t* dp, std::size_t len) {
          node_.cache_for_core(bh_core).touch(dp, len);
        });
        skb_copy.release();
        // CPU copy lands the data now; on the offload path CopyOut is the
        // library-side drain, stamped in finish_pull instead.
        if (span_on)
          node_.engine().spans().mark(skey, obs::Phase::CopyOut,
                                      node_.engine().now());
      });
      c_large_memcpy_bytes_->add(n);
    }
  } else if (n > 0) {
    // Prediction mode / native MX: the data is placed without CPU cost.
    net::Skbuff skb_copy = skb;
    ctx.effect([this, handle, dst_off, src_bytes, n, skb_copy]() mutable {
      auto live = pulls_.find(handle);
      if (live != pulls_.end()) live->second->segs.write(dst_off, src_bytes, n);
      skb_copy.release();
    });
  }

  // Block bookkeeping: request the next block as soon as this one is
  // complete, and use the occasion to run the cleanup routine
  // (Section III-B: resources are freed when a new request is sent).
  const std::uint32_t block =
      pkt.frag_idx / static_cast<std::uint32_t>(config_.pull_block_frags);
  const std::size_t bstart =
      block * static_cast<std::size_t>(config_.pull_block_frags);
  const std::size_t bend = std::min(
      bstart + static_cast<std::size_t>(config_.pull_block_frags),
      h.frag_count);
  bool block_complete = true;
  for (std::size_t i = bstart; i < bend; ++i)
    if (!h.got[i]) block_complete = false;

  if (block_complete && h.next_block < h.blocks_total) {
    const std::uint32_t next = h.next_block++;
    ctx.cost += costs.skb_alloc_ns + costs.tx_doorbell_ns;
    spans.add(skey, obs::Wait::BhExec,
              costs.skb_alloc_ns + costs.tx_doorbell_ns);
    ctx.effect([this, handle, next] {
      auto it2 = pulls_.find(handle);
      if (it2 == pulls_.end()) return;
      if (config_.cleanup_on_block) cleanup_pull(*it2->second);
      PullHandle& ph = *it2->second;
      ph.retries = 0;  // progress resets the give-up counter
      const sim::Time now2 = node_.engine().now();
      if (ph.last_block_done)
        ph.srtt = ph.srtt ? (3 * ph.srtt + (now2 - ph.last_block_done)) / 4
                          : now2 - ph.last_block_done;
      ph.last_block_done = now2;
      send_pull_req(ph, next);
      // Progress resets the retransmission timer, as in any ARQ protocol;
      // otherwise multi-block transfers longer than the timeout would
      // trigger spurious re-requests.
      it2->second->block_timer.cancel();
      arm_block_timer(*it2->second);
    });
    if (!h.pending.empty()) {
      ctx.cost += node_.ioat().poll_cost();
      spans.add(skey, obs::Wait::BhExec, node_.ioat().poll_cost());
    }
  }

  if (h.received == h.frag_count) finish_pull(ctx, h);
}

void Driver::finish_pull(BhCtx& ctx, PullHandle& h) {
  const auto& costs = node_.params().costs;
  // The last fragment's callback waits for the completion of every
  // outstanding asynchronous copy of this message (Section III-A), then
  // reports the single completion event to user-space.
  auto& spans = node_.engine().spans();
  const std::uint64_t skey = obs::span_key(node_.id(), h.handle);
  if (!h.pending.empty()) {
    auto& ioat = node_.ioat();
    const sim::Time drain = drain_time(h);
    const sim::Time busy_until = node_.engine().now() + ctx.cost;
    if (drain > busy_until) {
      ctx.cost += drain - busy_until;
      // The CPU blocks here until the slowest channel drains — this is
      // the serial DMA tail of the message, the one piece of DMA time
      // that cannot hide behind fragment ingress.
      spans.add(skey, obs::Wait::DmaDrainWait, drain - busy_until);
    }
    const sim::Time polls =
        ioat.poll_cost() * static_cast<sim::Time>(h.channels.size());
    ctx.cost += polls;
    spans.add(skey, obs::Wait::BhExec, polls);
    counters_.add("driver.drain_waits");
    // Descriptors that completed with error status moved no bytes; redo
    // those fragments with the CPU.  The error is latched at submission,
    // so the fallback cost is known now; the bytes move in the effect.
    for (const PendingSkb& p : h.pending) {
      if (p.first_cookie &&
          ioat.range_failed(p.chan, p.first_cookie, p.cookie)) {
        const std::size_t flen = p.skb.as<PullReplyPkt>().length;
        const sim::Time fb = bh_copy_cost(flen, flen);
        ctx.cost += fb;
        spans.add(skey, obs::Wait::MemcpyExec, fb);
        c_dma_faults_->add();
        c_dma_fallback_bytes_->add(flen);
      }
    }
    // Offload path: the message data is fully in place once the slowest
    // channel drained — that instant is the copy-out point.
    spans.mark(skey, obs::Phase::CopyOut, drain);
  }
  ctx.cost += config_.native_mx ? 0 : costs.bh_ack_ns;
  if (!config_.native_mx) spans.add(skey, obs::Wait::BhExec, costs.bh_ack_ns);

  const std::uint32_t handle = h.handle;
  ctx.effect([this, handle, skey] {
    auto it = pulls_.find(handle);
    if (it == pulls_.end()) return;
    PullHandle& p = *it->second;
    for (PendingSkb& ps : p.pending) {
      if (ps.first_cookie &&
          node_.ioat().range_failed(ps.chan, ps.first_cookie, ps.cookie)) {
        const auto& rp = ps.skb.as<PullReplyPkt>();
        p.segs.write(rp.offset, rp.bytes(), rp.length);
      }
      ps.skb.release();
    }
    p.pending.clear();
    p.block_timer.cancel();

    // Remember completion for rendezvous dedup / re-ack.
    auto& flow = p.ep->rx_flows_[flow_key(p.src)];
    flow.completed.insert(p.msg_seq);
    flow.known_rndv.erase(p.msg_seq);

    Event ev;
    ev.type = EvType::LargeRecvDone;
    ev.src = p.src;
    ev.msg_seq = p.msg_seq;
    ev.msg_len = static_cast<std::uint32_t>(p.len);
    ev.request_id = p.request_id;
    // Lets the library stamp the Notify phase when it dequeues the event.
    ev.local_handle = p.handle;
    push_event(*p.ep, std::move(ev));

    auto ack = std::make_shared<LargeAckPkt>();
    ack->src_handle = p.src_handle;
    ack->msg_seq = p.msg_seq;
    transmit(p.ep->addr(), p.src, std::move(ack), 0);
    c_pulls_finished_->add();
    node_.engine().trace().event(node_.engine().now(), node_.id(),
                                 tid_pull_done_, handle, p.len);
    h_pull_ns_->add(
        static_cast<std::uint64_t>(node_.engine().now() - p.started_at));
    auto& sp = node_.engine().spans();
    if (sp.enabled())
      // Driver-side notification; the library marks it again (later) when
      // the event ring is actually drained.
      sp.mark(skey, obs::Phase::Notify, node_.engine().now());
    pulls_.erase(it);
  });
}

void Driver::bh_msg_ack(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<MsgAckPkt>();
  const auto& costs = node_.params().costs;
  ctx.cost += config_.native_mx ? costs.mx_bh_ns : costs.bh_ack_ns;
  auto it = eager_tx_.find(pkt.msg_seq);
  if (it == eager_tx_.end()) return;  // duplicate ack
  EagerTx& t = it->second;
  t.timer.cancel();
  Event ev;
  ev.type = EvType::SendDone;
  ev.request_id = t.request_id;
  DriverEndpoint* ep = t.ep;
  eager_tx_.erase(it);
  ctx.effect([this, ep, ev]() mutable { push_event(*ep, std::move(ev)); });
}

void Driver::bh_large_ack(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<LargeAckPkt>();
  const auto& costs = node_.params().costs;
  ctx.cost += config_.native_mx ? costs.mx_bh_ns : costs.bh_ack_ns;
  auto it = send_regions_.find(pkt.src_handle);
  if (it == send_regions_.end()) return;  // duplicate ack
  SendRegion& r = it->second;
  r.rndv_timer.cancel();
  Event ev;
  ev.type = EvType::SendDone;
  ev.request_id = r.request_id;
  ev.failed = pkt.failed;
  if (pkt.failed) counters_.add("driver.aborted_sends");
  DriverEndpoint* ep = r.ep;
  send_regions_.erase(it);
  ctx.effect([this, ep, ev]() mutable { push_event(*ep, std::move(ev)); });
}

void Driver::bh_nack(BhCtx& ctx, net::Skbuff& skb) {
  const auto& pkt = skb.as<NackPkt>();
  ctx.cost += node_.params().costs.bh_ack_ns;
  if (pkt.src_handle) {
    auto it = send_regions_.find(pkt.src_handle);
    if (it == send_regions_.end()) return;
    it->second.rndv_timer.cancel();
    Event ev;
    ev.type = EvType::SendDone;
    ev.request_id = it->second.request_id;
    ev.failed = true;
    DriverEndpoint* ep = it->second.ep;
    send_regions_.erase(it);
    counters_.add("driver.aborted_sends");
    ctx.effect([this, ep, ev]() mutable { push_event(*ep, std::move(ev)); });
    return;
  }
  auto it = eager_tx_.find(pkt.msg_seq);
  if (it == eager_tx_.end()) return;
  it->second.timer.cancel();
  Event ev;
  ev.type = EvType::SendDone;
  ev.request_id = it->second.request_id;
  ev.failed = true;
  DriverEndpoint* ep = it->second.ep;
  eager_tx_.erase(it);
  counters_.add("driver.aborted_sends");
  ctx.effect([this, ep, ev]() mutable { push_event(*ep, std::move(ev)); });
}

}  // namespace openmx::core
