#include "mps/comm.hpp"

#include <algorithm>

#include "mps/collectives.hpp"
#include "obs/registry.hpp"
#include "util/bytes.hpp"

namespace ptucker::mps {

namespace {

/// Registry handles for per-op message/byte counters, resolved once. The
/// obs registry is additive to CommStats (which the cost-model tests read):
/// same numbers, exported under "mps.*" so one snapshot sees the whole
/// stack.
struct OpCounterPair {
  obs::Counter messages;
  obs::Counter bytes;
};

struct OpCounterTable {
  std::array<OpCounterPair, CommStats::kNumOps> per_op;
  obs::Counter messages;
  obs::Counter bytes;
};

OpCounterTable& op_counters() {
  static OpCounterTable* table = [] {
    auto* t = new OpCounterTable;
    for (int i = 0; i < CommStats::kNumOps; ++i) {
      const std::string base =
          std::string("mps.") + op_name(static_cast<OpKind>(i));
      t->per_op[static_cast<std::size_t>(i)].messages =
          obs::registry().counter(base + ".messages");
      t->per_op[static_cast<std::size_t>(i)].bytes =
          obs::registry().counter(base + ".bytes");
    }
    t->messages = obs::registry().counter("mps.messages");
    t->bytes = obs::registry().counter("mps.bytes");
    return t;
  }();
  return *table;
}

}  // namespace

Comm Comm::world(Universe* universe, int my_world_rank) {
  auto state = std::make_shared<State>();
  state->universe = universe;
  state->context = 0;
  state->group.resize(static_cast<std::size_t>(universe->world_size()));
  for (int r = 0; r < universe->world_size(); ++r) {
    state->group[static_cast<std::size_t>(r)] = r;
  }
  state->my_rank = my_world_rank;
  universe->fingerprint_seed(my_world_rank, state->context);
  return Comm(std::move(state));
}

void Comm::send_bytes(std::span<const std::byte> buf, int dest,
                      int tag) const {
  PT_CHECK(valid(), "send on null communicator");
  PT_CHECK(dest >= 0 && dest < size(), "send dest " << dest << " out of range");
  if (state_->universe->aborted()) {
    throw AbortError("send after abort: " + state_->universe->abort_reason());
  }
  Message msg;
  msg.context = state_->context;
  msg.src_world = my_world_rank();
  msg.tag = tag;
  msg.payload.assign(buf.begin(), buf.end());
  my_stats().record(current_op(), buf.size());
  OpCounterTable& oc = op_counters();
  oc.messages.inc();
  oc.bytes.add(buf.size());
  OpCounterPair& pair = oc.per_op[static_cast<std::size_t>(current_op())];
  pair.messages.inc();
  pair.bytes.add(buf.size());
  state_->universe->mailbox(world_rank(dest)).push(std::move(msg));
}

void Comm::recv_bytes(std::span<std::byte> buf, int src, int tag) const {
  PT_CHECK(valid(), "recv on null communicator");
  PT_CHECK(src >= 0 && src < size(), "recv src " << src << " out of range");
  Message msg = state_->universe->mailbox(my_world_rank())
                    .pop_matching(state_->context, world_rank(src), tag,
                                  state_->universe->recv_timeout());
  PT_CHECK(msg.payload.size() == buf.size(),
           "recv size mismatch: expected " << buf.size() << " bytes, got "
                                           << msg.payload.size()
                                           << " (src=" << src
                                           << " tag=" << tag << ")");
  util::copy_bytes(buf.data(), msg.payload.data(), buf.size());
}

std::vector<std::byte> Comm::recv_bytes_any_size(int src, int tag) const {
  PT_CHECK(valid(), "recv on null communicator");
  PT_CHECK(src >= 0 && src < size(), "recv src " << src << " out of range");
  Message msg = state_->universe->mailbox(my_world_rank())
                    .pop_matching(state_->context, world_rank(src), tag,
                                  state_->universe->recv_timeout());
  return std::move(msg.payload);
}

std::optional<std::vector<std::byte>> Comm::try_recv_bytes_any_size(
    int src, int tag) const {
  PT_CHECK(valid(), "recv on null communicator");
  PT_CHECK(src >= 0 && src < size(), "recv src " << src << " out of range");
  auto msg = state_->universe->mailbox(my_world_rank())
                 .try_pop_matching(state_->context, world_rank(src), tag);
  if (!msg) return std::nullopt;
  return std::move(msg->payload);
}

Comm Comm::split(int color, int key) const {
  PT_CHECK(valid(), "split on null communicator");
  // Gather (color, key) from everyone so each rank can compute its group.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  const Entry mine{color, key, rank()};
  std::vector<Entry> all(static_cast<std::size_t>(size()));
  allgather(*this, std::span<const Entry>(&mine, 1), std::span<Entry>(all));

  // The split sequence number makes repeated splits on the same communicator
  // produce distinct contexts. All members advance it together because split
  // is collective.
  const std::uint64_t seq =
      state_->next_split_seq.fetch_add(1, std::memory_order_relaxed);

  if (color < 0) return Comm();

  std::vector<Entry> members;
  for (const Entry& e : all) {
    if (e.color == color) members.push_back(e);
  }
  std::sort(members.begin(), members.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.key, a.rank) < std::tie(b.key, b.rank);
  });

  auto state = std::make_shared<State>();
  state->universe = state_->universe;
  state->context =
      state_->universe->register_context(state_->context, seq, color);
  state->group.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    state->group.push_back(world_rank(members[i].rank));
    if (members[i].rank == rank()) state->my_rank = static_cast<int>(i);
  }
  PT_CHECK(state->my_rank >= 0, "split: caller missing from its own group");
  state->universe->fingerprint_seed(
      state->group[static_cast<std::size_t>(state->my_rank)], state->context);
  return Comm(std::move(state));
}

void Comm::barrier() const {
  PT_CHECK(valid(), "barrier on null communicator");
  note_collective(OpKind::Barrier, 0);
  OpScope scope(OpKind::Barrier);
  const int p = size();
  const int r = rank();
  // Dissemination barrier: ceil(log2 P) rounds, each rank sends one empty
  // message per round.
  constexpr int kTagBase = -1000;  // reserved internal tags are negative
  std::byte token{0};
  int round = 0;
  for (int k = 1; k < p; k <<= 1, ++round) {
    const int dest = (r + k) % p;
    const int src = (r - k % p + p) % p;
    send_bytes(std::span<const std::byte>(&token, 1), dest, kTagBase - round);
    std::byte in{};
    recv_bytes(std::span<std::byte>(&in, 1), src, kTagBase - round);
  }
}

}  // namespace ptucker::mps
