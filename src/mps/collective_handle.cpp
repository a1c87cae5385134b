#include "mps/collective_handle.hpp"

#include <string>

#include "obs/registry.hpp"

namespace ptucker::mps {

namespace {

/// Registry handles for the async-collective metrics, resolved once.
struct AsyncObsTable {
  obs::Gauge inflight;       ///< ops initiated but not yet completed
  obs::Histogram overlap_us;  ///< in-flight microseconds per op: the window
                              ///< a caller had to hide compute in
};

AsyncObsTable& async_obs() {
  static AsyncObsTable* table = [] {
    auto* t = new AsyncObsTable;
    t->inflight = obs::registry().gauge("mps.inflight");
    t->overlap_us = obs::registry().histogram("mps.overlap_us");
    return t;
  }();
  return *table;
}

}  // namespace

namespace detail {

bool AsyncOp::progress(bool blocking) {
  // Attribute every send this pass injects to the initiating op, exactly as
  // the blocking implementation's OpScope does.
  OpScope scope(kind);
  while (next < actions.size()) {
    AsyncAction& a = actions[next];
    switch (a.kind) {
      case AsyncAction::Kind::Send:
        comm.send_bytes(a.produce(), a.peer, a.tag);
        break;
      case AsyncAction::Kind::Recv: {
        std::vector<std::byte> payload;
        if (blocking) {
          payload = comm.recv_bytes_any_size(a.peer, a.tag);
        } else {
          auto got = comm.try_recv_bytes_any_size(a.peer, a.tag);
          if (!got) return false;
          payload = std::move(*got);
        }
        PT_CHECK(payload.size() == a.recv_bytes,
                 op_name(kind) << " handle: recv size mismatch, expected "
                               << a.recv_bytes << " bytes, got "
                               << payload.size() << " (src=" << a.peer
                               << " tag=" << a.tag << ")");
        a.consume(payload);
        break;
      }
      case AsyncAction::Kind::Local:
        a.run();
        break;
    }
    ++next;
  }
  on_finish();
  return true;
}

void AsyncOp::on_start() {
  started = std::chrono::steady_clock::now();
  async_obs().inflight.add(1);
}

void AsyncOp::on_finish() {
  if (finish_recorded) return;
  finish_recorded = true;
  AsyncObsTable& t = async_obs();
  t.inflight.add(-1);
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  t.overlap_us.record(static_cast<std::uint64_t>(us.count()));
}

CollectiveHandle launch(std::unique_ptr<AsyncOp> op) {
  op->on_start();
  op->progress(/*blocking=*/false);
  return CollectiveHandle(std::move(op));
}

}  // namespace detail

void CollectiveHandle::wait() {
  if (!op_) return;
  op_->progress(/*blocking=*/true);
  op_.reset();
}

bool CollectiveHandle::test() {
  if (!op_) return true;
  if (!op_->progress(/*blocking=*/false)) return false;
  op_.reset();
  return true;
}

void CollectiveHandle::abandon() noexcept {
  if (!op_) return;
  if (!op_->done()) {
    try {
      op_->comm.universe().note_async_leak(
          std::string(op_name(op_->kind)) + " on rank " +
          std::to_string(op_->comm.rank()) + " with " +
          std::to_string(op_->actions.size() - op_->next) +
          " step(s) outstanding");
    } catch (...) {
      // Leak bookkeeping is best-effort; never throw from a destructor.
    }
  }
  op_.reset();
}

}  // namespace ptucker::mps
