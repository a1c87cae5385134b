#pragma once
/// \file collectives.hpp
/// \brief Collective operations built on point-to-point messages, exposed
/// as a two-phase initiate/complete API.
///
/// Algorithms follow the classical implementations referenced by the paper
/// for its Tab. I cost model (Chan et al. 2007, Thakur et al. 2005):
///  - broadcast / reduce / gather-to-root: binomial trees (any P),
///  - all-gather / reduce-scatter: bandwidth-optimal rings (any P),
///  - all-reduce: reduce-scatter + all-gather (Rabenseifner) for large
///    payloads, reduce + broadcast for latency-bound payloads.
///
/// Each algorithm is compiled into a per-rank action script at initiation
/// (`ibroadcast` / `ireduce` / `iallreduce` / `iallgatherv` /
/// `ireduce_scatter`, returning a CollectiveHandle) and driven by
/// `wait()`/`test()` — see collective_handle.hpp. The blocking entry points
/// are thin istart+wait wrappers over the same scripts, so there is exactly
/// one implementation per algorithm and the nonblocking path is bitwise
/// identical to the blocking one by construction.
///
/// Per-rank injected words for the ring algorithms equal the paper's
/// (P-1)/P * W beta terms exactly; the cost-model tests assert this.
///
/// All functions are collective: every rank of the communicator must call
/// (for the i-forms: initiate) them in the same order. Reduction operators
/// must be commutative and associative (floating-point sums are reduced in
/// a deterministic order for a fixed communicator size, so repeated runs
/// are bitwise reproducible).

#include <cstring>
#include <span>
#include <vector>

#include "mps/collective_handle.hpp"
#include "mps/comm.hpp"
#include "util/blocks.hpp"
#include "util/bytes.hpp"

namespace ptucker::mps {

/// --- reduction operators ---------------------------------------------------

template <class T>
struct Sum {
  T operator()(const T& a, const T& b) const { return a + b; }
};

template <class T>
struct Max {
  T operator()(const T& a, const T& b) const { return a < b ? b : a; }
};

template <class T>
struct Min {
  T operator()(const T& a, const T& b) const { return b < a ? b : a; }
};

namespace detail {
// Reserved internal tag bases for the blocking rooted varied-size
// collectives (user tags must be >= 0). The five scripted collectives use
// the per-initiation async tag space instead (collective_handle.hpp).
constexpr int kTagGather = -6000;
constexpr int kTagScatter = -7000;

inline std::vector<std::size_t> offsets_from_counts(
    std::span<const std::size_t> counts) {
  std::vector<std::size_t> offsets(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    offsets[i + 1] = offsets[i] + counts[i];
  }
  return offsets;
}

template <class T>
[[nodiscard]] inline std::span<const std::byte> bytes_of(const T* data,
                                                         std::size_t n) {
  return std::as_bytes(std::span<const T>(data, n));
}

/// --- script builders -------------------------------------------------------
/// Each builder appends the exact send/recv sequence of the corresponding
/// blocking algorithm to \p op. Scratch buffers live in the op's RingState,
/// which the closures reference by raw pointer (the op owns the state).

/// Binomial-tree broadcast of \p buf from \p root.
template <class T>
void build_bcast(AsyncOp& op, const Comm& comm, std::span<T> buf, int root,
                 int tag) {
  const int p = comm.size();
  if (p == 1) return;
  const int vr = (comm.rank() - root + p) % p;
  auto actual = [&](int vrank) { return (vrank + root) % p; };

  int mask = 1;
  int recv_mask = 0;
  while (mask < p) {
    if ((vr & mask) != 0) {
      recv_mask = mask;
      break;
    }
    mask <<= 1;
  }
  if (recv_mask != 0) {
    AsyncAction a;
    a.kind = AsyncAction::Kind::Recv;
    a.peer = actual(vr - recv_mask);
    a.tag = tag;
    a.recv_bytes = buf.size_bytes();
    T* dst = buf.data();
    a.consume = [dst](std::span<const std::byte> payload) {
      util::copy_bytes(dst, payload.data(), payload.size());
    };
    op.actions.push_back(std::move(a));
    mask = recv_mask;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vr & (mask - 1)) == 0 && (vr | mask) != vr && vr + mask < p) {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Send;
      a.peer = actual(vr + mask);
      a.tag = tag;
      const T* src = buf.data();
      const std::size_t n = buf.size();
      a.produce = [src, n] { return bytes_of(src, n); };
      op.actions.push_back(std::move(a));
    }
    mask >>= 1;
  }
}

/// Binomial-tree reduction into st->acc (pre-filled with this rank's
/// input). Returns true iff this rank is the tree root (vr == 0), whose
/// acc holds the full reduction once the script completes.
template <class T, class Op>
bool build_reduce_tree(AsyncOp& op, const Comm& comm, RingState<T>* st,
                       int root, int tag, Op theop) {
  const int p = comm.size();
  const int vr = (comm.rank() - root + p) % p;
  auto actual = [&](int vrank) { return (vrank + root) % p; };

  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Send;
      a.peer = actual(vr - mask);
      a.tag = tag;
      RingState<T>* s = st;
      a.produce = [s] { return bytes_of(s->acc.data(), s->acc.size()); };
      op.actions.push_back(std::move(a));
      return false;  // leaf/subtree done; nothing more to contribute
    }
    const int partner = vr | mask;
    if (partner < p) {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Recv;
      a.peer = actual(partner);
      a.tag = tag;
      a.recv_bytes = st->acc.size() * sizeof(T);
      RingState<T>* s = st;
      a.consume = [s, theop](std::span<const std::byte> payload) {
        util::copy_bytes(s->tmp.data(), payload.data(), payload.size());
        for (std::size_t i = 0; i < s->acc.size(); ++i) {
          s->acc[i] = theop(s->acc[i], s->tmp[i]);
        }
      };
      op.actions.push_back(std::move(a));
    }
    mask <<= 1;
  }
  return true;  // only the root completes the tree
}

/// Ring all-gather over the blocks of \p all (counts/offsets fixed at build
/// time). The caller is responsible for placing its own contribution at
/// all + offsets[rank] before the script's first send executes.
template <class T>
void build_allgatherv_ring(AsyncOp& op, const Comm& comm, T* all,
                           const std::vector<std::size_t>& counts,
                           const std::vector<std::size_t>& offsets, int tag) {
  const int p = comm.size();
  if (p == 1) return;
  const int r = comm.rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  int cur = r;
  for (int step = 0; step < p - 1; ++step) {
    const std::size_t cu = static_cast<std::size_t>(cur);
    {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Send;
      a.peer = right;
      a.tag = tag;
      const T* src = all + offsets[cu];
      const std::size_t n = counts[cu];
      a.produce = [src, n] { return bytes_of(src, n); };
      op.actions.push_back(std::move(a));
    }
    const int prev = (cur - 1 + p) % p;
    const std::size_t pu = static_cast<std::size_t>(prev);
    {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Recv;
      a.peer = left;
      a.tag = tag;
      a.recv_bytes = counts[pu] * sizeof(T);
      T* dst = all + offsets[pu];
      a.consume = [dst](std::span<const std::byte> payload) {
        util::copy_bytes(dst, payload.data(), payload.size());
      };
      op.actions.push_back(std::move(a));
    }
    cur = prev;
  }
}

/// Ring reduce-scatter over st->work (pre-filled with this rank's full
/// input; st->counts / st->offsets pre-filled). After the script, block
/// rank of work holds this rank's reduced block.
template <class T, class Op>
void build_reduce_scatter_ring(AsyncOp& op, const Comm& comm,
                               RingState<T>* st, int tag, Op theop) {
  const int p = comm.size();
  if (p == 1) return;
  const int r = comm.rank();
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int step = 0; step < p - 1; ++step) {
    const int send_idx = ((r - step - 1) % p + p) % p;
    const int recv_idx = ((r - step - 2) % p + p) % p;
    const std::size_t su = static_cast<std::size_t>(send_idx);
    const std::size_t ru = static_cast<std::size_t>(recv_idx);
    {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Send;
      a.peer = right;
      a.tag = tag;
      RingState<T>* s = st;
      a.produce = [s, su] {
        return bytes_of(s->work.data() + s->offsets[su], s->counts[su]);
      };
      op.actions.push_back(std::move(a));
    }
    {
      AsyncAction a;
      a.kind = AsyncAction::Kind::Recv;
      a.peer = left;
      a.tag = tag;
      a.recv_bytes = st->counts[ru] * sizeof(T);
      RingState<T>* s = st;
      a.consume = [s, ru, theop](std::span<const std::byte> payload) {
        const T* incoming = reinterpret_cast<const T*>(payload.data());
        T* chunk = s->work.data() + s->offsets[ru];
        for (std::size_t i = 0; i < s->counts[ru]; ++i) {
          chunk[i] = theop(chunk[i], incoming[i]);
        }
      };
      op.actions.push_back(std::move(a));
    }
  }
}

[[nodiscard]] inline std::unique_ptr<AsyncOp> make_async_op(const Comm& comm,
                                                            OpKind kind) {
  auto op = std::make_unique<AsyncOp>();
  op->comm = comm;
  op->kind = kind;
  return op;
}

}  // namespace detail

/// --- nonblocking point-to-point ---------------------------------------------

/// Initiate a send. The transport is eager (the payload is copied into the
/// destination mailbox at initiation), so the returned handle is already
/// complete; it exists so call sites that pipeline sends and receives can
/// treat both uniformly.
template <class T>
[[nodiscard]] CollectiveHandle isend(const Comm& comm, std::span<const T> buf,
                                     int dest, int tag) {
  comm.send(buf, dest, tag);
  auto op = std::make_unique<detail::AsyncOp>();
  op->comm = comm;
  op->kind = OpKind::P2P;
  return detail::launch(std::move(op));
}

/// Initiate a receive into \p buf (which must outlive completion). The
/// matched payload size must equal buf.size_bytes().
template <class T>
[[nodiscard]] CollectiveHandle irecv(const Comm& comm, std::span<T> buf,
                                     int src, int tag) {
  PT_CHECK(src >= 0 && src < comm.size(),
           "irecv src " << src << " out of range");
  auto op = std::make_unique<detail::AsyncOp>();
  op->comm = comm;
  op->kind = OpKind::P2P;
  detail::AsyncAction a;
  a.kind = detail::AsyncAction::Kind::Recv;
  a.peer = src;
  a.tag = tag;
  a.recv_bytes = buf.size_bytes();
  T* dst = buf.data();
  a.consume = [dst](std::span<const std::byte> payload) {
    util::copy_bytes(dst, payload.data(), payload.size());
  };
  op->actions.push_back(std::move(a));
  return detail::launch(std::move(op));
}

/// --- broadcast ---------------------------------------------------------------

/// Initiate a binomial-tree broadcast of buf from root. \p buf must stay
/// valid (and at non-roots untouched) until the handle completes.
template <class T>
[[nodiscard]] CollectiveHandle ibroadcast(const Comm& comm, std::span<T> buf,
                                          int root) {
  comm.note_collective(OpKind::Broadcast, buf.size_bytes());
  auto op = detail::make_async_op(comm, OpKind::Broadcast);
  const int tag = detail::async_tag(comm.alloc_async_seq(), 0);
  detail::build_bcast(*op, comm, buf, root, tag);
  return detail::launch(std::move(op));
}

template <class T>
void broadcast(const Comm& comm, std::span<T> buf, int root) {
  ibroadcast(comm, buf, root).wait();
}

/// --- reduce ------------------------------------------------------------------

/// Initiate a binomial-tree reduction to root. \p out must have in.size()
/// elements at the root and may be empty elsewhere; in and out must not
/// alias. The input is captured (copied) at initiation.
template <class T, class Op = Sum<T>>
[[nodiscard]] CollectiveHandle ireduce(const Comm& comm, std::span<const T> in,
                                       std::span<T> out, int root, Op op = {}) {
  comm.note_collective(OpKind::Reduce, in.size_bytes());
  auto aop = detail::make_async_op(comm, OpKind::Reduce);
  const int tag = detail::async_tag(comm.alloc_async_seq(), 0);

  auto st = std::make_shared<detail::RingState<T>>();
  st->acc.assign(in.begin(), in.end());
  st->tmp.resize(in.size());
  aop->state = st;

  if (detail::build_reduce_tree(*aop, comm, st.get(), root, tag, op)) {
    PT_CHECK(out.size() == in.size(), "reduce: bad out size at root");
    detail::AsyncAction a;
    a.kind = detail::AsyncAction::Kind::Local;
    detail::RingState<T>* s = st.get();
    T* dst = out.data();
    a.run = [s, dst] {
      util::copy_bytes(dst, s->acc.data(), s->acc.size() * sizeof(T));
    };
    aop->actions.push_back(std::move(a));
  }
  return detail::launch(std::move(aop));
}

template <class T, class Op = Sum<T>>
void reduce(const Comm& comm, std::span<const T> in, std::span<T> out,
            int root, Op op = {}) {
  ireduce(comm, in, out, root, op).wait();
}

/// --- all-gather ----------------------------------------------------------------

/// Initiate a ring all-gather with per-rank counts. \p all receives rank
/// i's contribution at offset sum(counts[0..i)); this rank's own block is
/// placed at initiation, the rest as the ring progresses. \p all must stay
/// valid until completion.
template <class T>
[[nodiscard]] CollectiveHandle iallgatherv(const Comm& comm,
                                           std::span<const T> mine,
                                           std::span<T> all,
                                           std::span<const std::size_t> counts) {
  const int p = comm.size();
  comm.note_collective(OpKind::AllGather, all.size_bytes());
  PT_CHECK(static_cast<int>(counts.size()) == p, "allgatherv: counts size");
  auto op = detail::make_async_op(comm, OpKind::AllGather);
  const int tag = detail::async_tag(comm.alloc_async_seq(), 0);

  auto st = std::make_shared<detail::RingState<T>>();
  st->counts.assign(counts.begin(), counts.end());
  st->offsets = detail::offsets_from_counts(counts);
  op->state = st;

  PT_CHECK(all.size() == st->offsets[static_cast<std::size_t>(p)],
           "allgatherv: output buffer size mismatch");
  const int r = comm.rank();
  PT_CHECK(mine.size() == counts[static_cast<std::size_t>(r)],
           "allgatherv: my contribution size mismatch");
  util::copy_bytes(all.data() + st->offsets[static_cast<std::size_t>(r)],
                   mine.data(), mine.size() * sizeof(T));
  detail::build_allgatherv_ring(*op, comm, all.data(), st->counts,
                                st->offsets, tag);
  return detail::launch(std::move(op));
}

template <class T>
void allgatherv(const Comm& comm, std::span<const T> mine, std::span<T> all,
                std::span<const std::size_t> counts) {
  iallgatherv(comm, mine, all, counts).wait();
}

/// Equal-count all-gather: every rank contributes mine.size() elements.
template <class T>
void allgather(const Comm& comm, std::span<const T> mine, std::span<T> all) {
  const std::vector<std::size_t> counts(
      static_cast<std::size_t>(comm.size()), mine.size());
  allgatherv(comm, mine, all, std::span<const std::size_t>(counts));
}

/// --- reduce-scatter ---------------------------------------------------------

/// Initiate a ring reduce-scatter: element-wise reduction of each rank's
/// full \p in, with block i of the result (counts[i] elements) delivered to
/// rank i's \p out. Bandwidth-optimal: each rank injects W - counts[rank]
/// words. The input is captured (copied) at initiation; \p out is written
/// at completion.
template <class T, class Op = Sum<T>>
[[nodiscard]] CollectiveHandle ireduce_scatter(
    const Comm& comm, std::span<const T> in, std::span<T> out,
    std::span<const std::size_t> counts, Op op = {}) {
  const int p = comm.size();
  comm.note_collective(OpKind::ReduceScatter, in.size_bytes());
  PT_CHECK(static_cast<int>(counts.size()) == p, "reduce_scatter: counts");
  auto aop = detail::make_async_op(comm, OpKind::ReduceScatter);
  const int tag = detail::async_tag(comm.alloc_async_seq(), 0);

  auto st = std::make_shared<detail::RingState<T>>();
  st->counts.assign(counts.begin(), counts.end());
  st->offsets = detail::offsets_from_counts(counts);
  aop->state = st;

  PT_CHECK(in.size() == st->offsets[static_cast<std::size_t>(p)],
           "reduce_scatter: input size mismatch");
  const int r = comm.rank();
  PT_CHECK(out.size() == counts[static_cast<std::size_t>(r)],
           "reduce_scatter: output size mismatch");
  st->work.assign(in.begin(), in.end());
  detail::build_reduce_scatter_ring(*aop, comm, st.get(), tag, op);
  {
    detail::AsyncAction a;
    a.kind = detail::AsyncAction::Kind::Local;
    detail::RingState<T>* s = st.get();
    T* dst = out.data();
    const std::size_t ru = static_cast<std::size_t>(r);
    a.run = [s, dst, ru] {
      util::copy_bytes(dst, s->work.data() + s->offsets[ru],
                       s->counts[ru] * sizeof(T));
    };
    aop->actions.push_back(std::move(a));
  }
  return detail::launch(std::move(aop));
}

template <class T, class Op = Sum<T>>
void reduce_scatter(const Comm& comm, std::span<const T> in, std::span<T> out,
                    std::span<const std::size_t> counts, Op op = {}) {
  ireduce_scatter(comm, in, out, counts, op).wait();
}

/// --- all-reduce ---------------------------------------------------------------

/// Initiate an in-place all-reduce. Uses reduce-scatter + all-gather
/// (Rabenseifner) when the payload is large enough to be bandwidth-bound,
/// otherwise a binomial reduce + broadcast. The input is captured at
/// initiation; \p inout must not be read or written until completion.
template <class T, class Op = Sum<T>>
[[nodiscard]] CollectiveHandle iallreduce(const Comm& comm, std::span<T> inout,
                                          Op op = {}) {
  const int p = comm.size();
  comm.note_collective(OpKind::AllReduce, inout.size_bytes());
  auto aop = detail::make_async_op(comm, OpKind::AllReduce);
  const std::uint64_t seq = comm.alloc_async_seq();
  if (p == 1 || inout.empty()) return detail::launch(std::move(aop));

  const std::size_t count = inout.size();
  auto st = std::make_shared<detail::RingState<T>>();
  aop->state = st;
  detail::RingState<T>* s = st.get();

  if (count >= static_cast<std::size_t>(2 * p)) {
    // Phase 0: ring reduce-scatter of a working copy; phase 1: ring
    // all-gather of the reduced blocks straight out of inout.
    st->counts =
        util::uniform_block_sizes(count, static_cast<std::size_t>(p));
    st->offsets = detail::offsets_from_counts(
        std::span<const std::size_t>(st->counts));
    st->work.assign(inout.begin(), inout.end());
    detail::build_reduce_scatter_ring(*aop, comm, s, detail::async_tag(seq, 0),
                                      op);
    {
      // Transition: my reduced block moves into my slot of inout, exactly
      // the own-block placement the all-gather phase starts from.
      detail::AsyncAction a;
      a.kind = detail::AsyncAction::Kind::Local;
      T* dst = inout.data();
      const std::size_t ru = static_cast<std::size_t>(comm.rank());
      a.run = [s, dst, ru] {
        std::memcpy(dst + s->offsets[ru], s->work.data() + s->offsets[ru],
                    s->counts[ru] * sizeof(T));
      };
      aop->actions.push_back(std::move(a));
    }
    detail::build_allgatherv_ring(*aop, comm, inout.data(), st->counts,
                                  st->offsets, detail::async_tag(seq, 1));
  } else {
    st->acc.assign(inout.begin(), inout.end());
    st->tmp.resize(count);
    if (detail::build_reduce_tree(*aop, comm, s, 0, detail::async_tag(seq, 0),
                                  op)) {
      detail::AsyncAction a;
      a.kind = detail::AsyncAction::Kind::Local;
      T* dst = inout.data();
      a.run = [s, dst] {
        std::memcpy(dst, s->acc.data(), s->acc.size() * sizeof(T));
      };
      aop->actions.push_back(std::move(a));
    }
    detail::build_bcast(*aop, comm, inout, 0, detail::async_tag(seq, 1));
  }
  return detail::launch(std::move(aop));
}

template <class T, class Op = Sum<T>>
void allreduce(const Comm& comm, std::span<T> inout, Op op = {}) {
  iallreduce(comm, inout, op).wait();
}

/// Scalar all-reduce convenience.
template <class T, class Op = Sum<T>>
[[nodiscard]] T allreduce_scalar(const Comm& comm, T value, Op op = {}) {
  allreduce(comm, std::span<T>(&value, 1), op);
  return value;
}

/// --- gather / scatter to or from a root ----------------------------------------

namespace detail {
/// Packed subtree payloads travel as records: u64 vrank | u64 bytes | bytes.
inline void pack_record(std::vector<std::byte>& buf, std::uint64_t vrank,
                        std::span<const std::byte> payload) {
  const std::uint64_t header[2] = {vrank, payload.size()};
  const auto* h = reinterpret_cast<const std::byte*>(header);
  buf.insert(buf.end(), h, h + sizeof(header));
  buf.insert(buf.end(), payload.begin(), payload.end());
}

template <class OnRecord>
inline void unpack_records(std::span<const std::byte> buf, int p,
                           OnRecord on_record) {
  std::size_t pos = 0;
  while (pos < buf.size()) {
    std::uint64_t header[2];
    PT_CHECK(pos + sizeof(header) <= buf.size(), "collectives: short record");
    std::memcpy(header, buf.data() + pos, sizeof(header));
    pos += sizeof(header);
    PT_CHECK(header[0] < static_cast<std::uint64_t>(p) &&
                 pos + header[1] <= buf.size(),
             "collectives: corrupt record");
    on_record(static_cast<int>(header[0]),
              buf.subspan(pos, static_cast<std::size_t>(header[1])));
    pos += static_cast<std::size_t>(header[1]);
  }
}
}  // namespace detail

/// Gather variable-size contributions to the root. Returns per-rank
/// payloads at the root; empty vector elsewhere. This and scatter_varied
/// forward packed subtree payloads up/down a binomial tree: the root's
/// latency term is ceil(log2 P) alpha instead of a direct-send loop's
/// (P-1) alpha, at the price of relaying each word up to log2 P times.
template <class T>
[[nodiscard]] std::vector<std::vector<T>> gather_varied(
    const Comm& comm, std::span<const T> mine, int root) {
  const int p = comm.size();
  // Payload sizes legitimately differ per rank: fingerprint the op only.
  comm.note_collective(OpKind::Gather, 0);
  OpScope scope(OpKind::Gather);

  // Binomial tree: after the round with bit `mask`, vrank vr holds the
  // payloads of virtual ranks [vr, vr + mask) (clipped to p).
  const int vr = (comm.rank() - root + p) % p;
  auto actual = [&](int vrank) { return (vrank + root) % p; };
  std::vector<std::vector<std::byte>> sub(static_cast<std::size_t>(p));
  const auto mine_bytes = std::as_bytes(mine);
  sub[static_cast<std::size_t>(vr)].assign(mine_bytes.begin(),
                                           mine_bytes.end());
  int mask = 1;
  while (mask < p) {
    if ((vr & mask) != 0) {
      std::vector<std::byte> packed;
      for (int v = vr; v < std::min(vr + mask, p); ++v) {
        packed.reserve(packed.size() + 16 +
                       sub[static_cast<std::size_t>(v)].size());
        detail::pack_record(packed, static_cast<std::uint64_t>(v),
                            sub[static_cast<std::size_t>(v)]);
      }
      comm.send_bytes(packed, actual(vr - mask), detail::kTagGather);
      return {};
    }
    const int partner = vr | mask;
    if (partner < p) {
      const auto packed =
          comm.recv_bytes_any_size(actual(partner), detail::kTagGather);
      detail::unpack_records(
          std::span<const std::byte>(packed), p,
          [&](int v, std::span<const std::byte> payload) {
            sub[static_cast<std::size_t>(v)].assign(payload.begin(),
                                                    payload.end());
          });
    }
    mask <<= 1;
  }
  PT_CHECK(vr == 0, "gather_varied: non-root completed tree");
  std::vector<std::vector<T>> result(static_cast<std::size_t>(p));
  for (int v = 0; v < p; ++v) {
    const std::vector<std::byte>& bytes = sub[static_cast<std::size_t>(v)];
    PT_CHECK(bytes.size() % sizeof(T) == 0, "gather_varied: payload size");
    std::vector<T>& slot = result[static_cast<std::size_t>(actual(v))];
    slot.resize(bytes.size() / sizeof(T));
    util::copy_bytes(slot.data(), bytes.data(), bytes.size());
  }
  return result;
}

/// Scatter variable-size blocks from the root. \p blocks is only read at
/// the root and must have one entry per rank.
template <class T>
[[nodiscard]] std::vector<T> scatter_varied(
    const Comm& comm, const std::vector<std::vector<T>>& blocks, int root) {
  const int p = comm.size();
  // Blocks are only known at the root: fingerprint the op only.
  comm.note_collective(OpKind::Scatter, 0);
  OpScope scope(OpKind::Scatter);

  // Binomial tree (mirror of the gather): each node receives the packed
  // payloads of its whole subtree, then halves it downward.
  const int vr = (comm.rank() - root + p) % p;
  auto actual = [&](int vrank) { return (vrank + root) % p; };
  std::vector<std::vector<std::byte>> sub(static_cast<std::size_t>(p));
  int mask = 1;
  if (vr == 0) {
    PT_CHECK(static_cast<int>(blocks.size()) == p,
             "scatter_varied: need one block per rank");
    for (int v = 0; v < p; ++v) {
      const auto bytes = std::as_bytes(
          std::span<const T>(blocks[static_cast<std::size_t>(actual(v))]));
      sub[static_cast<std::size_t>(v)].assign(bytes.begin(), bytes.end());
    }
    while (mask < p) mask <<= 1;
  } else {
    while ((vr & mask) == 0) mask <<= 1;  // mask = lowest set bit of vr
    const auto packed =
        comm.recv_bytes_any_size(actual(vr - mask), detail::kTagScatter);
    detail::unpack_records(std::span<const std::byte>(packed), p,
                           [&](int v, std::span<const std::byte> payload) {
                             sub[static_cast<std::size_t>(v)].assign(
                                 payload.begin(), payload.end());
                           });
  }
  for (int m = mask >> 1; m > 0; m >>= 1) {
    if (vr + m >= p) continue;
    std::vector<std::byte> packed;
    for (int v = vr + m; v < std::min(vr + 2 * m, p); ++v) {
      detail::pack_record(packed, static_cast<std::uint64_t>(v),
                          sub[static_cast<std::size_t>(v)]);
      sub[static_cast<std::size_t>(v)].clear();
    }
    comm.send_bytes(packed, actual(vr + m), detail::kTagScatter);
  }
  const std::vector<std::byte>& bytes = sub[static_cast<std::size_t>(vr)];
  PT_CHECK(bytes.size() % sizeof(T) == 0, "scatter_varied: payload size");
  std::vector<T> mine(bytes.size() / sizeof(T));
  util::copy_bytes(mine.data(), bytes.data(), bytes.size());
  return mine;
}

}  // namespace ptucker::mps
