#include "imb/imb.hpp"

#include <algorithm>

namespace openmx::imb {

namespace {

/// A page-aligned kernel buffer left default-initialized.  IMB never
/// looks at the bytes it moves, so zero-filling them (as mem::Buffer's
/// value-initialization does) would only add memset traffic, and a send
/// buffer that is never written stays on the zero page.  It allocates
/// through mem::PageAlignedAllocator, so it gets the address a
/// mem::Buffer of the same size would, and the cache and registration
/// models see the same pages.
class KernelBuf {
 public:
  explicit KernelBuf(std::size_t n) : n_(n), p_(Alloc().allocate(n)) {}
  ~KernelBuf() { Alloc().deallocate(p_, n_); }
  KernelBuf(const KernelBuf&) = delete;
  KernelBuf& operator=(const KernelBuf&) = delete;

  [[nodiscard]] std::uint8_t* data() { return p_; }

 private:
  using Alloc = mem::PageAlignedAllocator<std::uint8_t>;
  std::size_t n_;
  std::uint8_t* p_;
};

/// Time a loop of `reps` calls to `op` in this rank's thread.
template <typename F>
sim::Time timed(mpi::Comm& comm, int reps, F&& op) {
  const sim::Time t0 = comm.now();
  for (int i = 0; i < reps; ++i) op(i);
  return (comm.now() - t0) / reps;
}

}  // namespace

sim::Time run_test_local(mpi::Comm& comm, Test test, std::size_t bytes,
                         int reps) {
  const int p = comm.size();
  const int r = comm.rank();
  const std::size_t n = std::max<std::size_t>(bytes, 1);

  switch (test) {
    case Test::PingPong: {
      // Ranks 0 and 1 (placed on different nodes by the round-robin rank
      // layout) bounce one message; everyone else idles.
      if (r > 1) return 0;
      KernelBuf buf(n);
      return timed(comm, reps, [&](int) {
        if (r == 0) {
          comm.send(buf.data(), bytes, 1, 1);
          comm.recv(buf.data(), bytes, 1, 2);
        } else {
          comm.recv(buf.data(), bytes, 0, 1);
          comm.send(buf.data(), bytes, 0, 2);
        }
      });
    }
    case Test::PingPing: {
      if (r > 1) return 0;
      const int peer = 1 - r;
      KernelBuf sbuf(n), rbuf(n);
      return timed(comm, reps, [&](int) {
        core::Request* rx = comm.irecv(rbuf.data(), bytes, peer, 3);
        core::Request* tx = comm.isend(sbuf.data(), bytes, peer, 3);
        comm.wait(rx);
        comm.wait(tx);
      });
    }
    case Test::SendRecv: {
      // Periodic chain: send right, receive from left.
      const int right = (r + 1) % p;
      const int left = (r - 1 + p) % p;
      KernelBuf sbuf(n), rbuf(n);
      return timed(comm, reps, [&](int) {
        comm.sendrecv(sbuf.data(), bytes, right, rbuf.data(), bytes, left, 4);
      });
    }
    case Test::Exchange: {
      const int right = (r + 1) % p;
      const int left = (r - 1 + p) % p;
      KernelBuf sbuf(n), r1(n), r2(n);
      return timed(comm, reps, [&](int) {
        core::Request* a = comm.irecv(r1.data(), bytes, left, 5);
        core::Request* b = comm.irecv(r2.data(), bytes, right, 6);
        core::Request* c = comm.isend(sbuf.data(), bytes, right, 5);
        core::Request* d = comm.isend(sbuf.data(), bytes, left, 6);
        comm.wait(a);
        comm.wait(b);
        comm.wait(c);
        comm.wait(d);
      });
    }
    case Test::Allreduce: {
      mem::AlignedVec<double> buf(std::max<std::size_t>(bytes / 8, 1), 1.0);
      return timed(comm, reps,
                   [&](int) { comm.allreduce(buf.data(), buf.size()); });
    }
    case Test::Reduce: {
      mem::AlignedVec<double> buf(std::max<std::size_t>(bytes / 8, 1), 1.0);
      return timed(comm, reps, [&](int i) {
        comm.reduce(buf.data(), buf.size(), i % p);  // IMB rotates the root
      });
    }
    case Test::ReduceScatter: {
      const std::size_t per =
          std::max<std::size_t>(bytes / 8 / static_cast<std::size_t>(p), 1);
      mem::AlignedVec<double> buf(per * static_cast<std::size_t>(p), 1.0);
      return timed(comm, reps,
                   [&](int) { comm.reduce_scatter(buf.data(), per); });
    }
    case Test::Allgather: {
      KernelBuf sbuf(n);
      KernelBuf rbuf(n * static_cast<std::size_t>(p));
      return timed(comm, reps, [&](int) {
        comm.allgather(sbuf.data(), bytes, rbuf.data());
      });
    }
    case Test::Allgatherv: {
      KernelBuf sbuf(n);
      KernelBuf rbuf(n * static_cast<std::size_t>(p));
      const std::vector<std::size_t> lens(static_cast<std::size_t>(p), bytes);
      return timed(comm, reps, [&](int) {
        comm.allgatherv(sbuf.data(), bytes, lens, rbuf.data());
      });
    }
    case Test::Alltoall: {
      KernelBuf sbuf(n * static_cast<std::size_t>(p));
      KernelBuf rbuf(n * static_cast<std::size_t>(p));
      return timed(comm, reps, [&](int) {
        comm.alltoall(sbuf.data(), bytes, rbuf.data());
      });
    }
    case Test::Bcast: {
      KernelBuf buf(n);
      return timed(comm, reps,
                   [&](int i) { comm.bcast(buf.data(), bytes, i % p); });
    }
  }
  return 0;
}

}  // namespace openmx::imb
