#pragma once

// Isolated per-layer microbenchmarks.  Each times one public entry point
// on its own, outside any workload, and reports the median of a few
// repetitions in ns per unit.

namespace perfbench::micro {

/// A self-rescheduling timer chain on a bare sim::Engine: ns per event.
double engine_ns_per_event();

/// One sim::SimThread::advance round trip (thread -> engine -> thread).
double thread_ns_per_handoff();

/// One arrive_and_wait of a 4-party sim::SpinBarrier, one party per thread.
double lp_ns_per_barrier();

/// core::pkt_checksum over an 8 KiB PullReplyPkt: ns per payload byte.
double wire_csum_ns_per_byte();

/// dma::IoatEngine::submit of 4 KiB descriptors plus draining them.
double ioat_ns_per_descriptor();

/// mem::CacheModel::touch streaming over 4x the cache size: ns per MiB.
double cache_ns_per_mib_touch();

}  // namespace perfbench::micro
