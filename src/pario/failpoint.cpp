#include "pario/failpoint.hpp"

#ifndef PTUCKER_FAULTS_DISABLED

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>

namespace ptucker::pario::faults {

namespace {

/// All mutable state behind one atomic pointer: arm() installs a fresh
/// block so rank-threads mid-I/O never race a reconfiguration. Retired
/// blocks are never freed — plans are armed a handful of times per test
/// process and a stale pointer held by a concurrent reader stays valid —
/// but every block stays reachable through the g_armed list.
struct State {
  FaultPlan plan;
  std::atomic<std::uint64_t> decisions{0};  ///< rng stream position
  std::atomic<std::uint64_t> ops{0};        ///< write-class op counter
  std::atomic<std::uint64_t> injected{0};
  std::atomic<bool> crashed{false};
  State* older = nullptr;  ///< the block armed before this one
};

std::atomic<State*> g_state{nullptr};
std::atomic<State*> g_armed{nullptr};  ///< every block ever armed, newest first

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Next value of the seed-indexed decision stream (thread-safe: each call
/// consumes one distinct counter value).
std::uint64_t next_u64(State& s) {
  const std::uint64_t i = s.decisions.fetch_add(1, std::memory_order_relaxed);
  return splitmix64(s.plan.seed ^ splitmix64(i));
}

double next_unit(State& s) {
  return static_cast<double>(next_u64(s) >> 11) * 0x1.0p-53;
}

bool roll(State& s, double p) { return p > 0.0 && next_unit(s) < p; }

State* matching_state(const std::string& path) {
  State* s = g_state.load(std::memory_order_acquire);
  if (s == nullptr) return nullptr;
  if (!s->plan.path_substr.empty() &&
      path.find(s->plan.path_substr) == std::string::npos) {
    return nullptr;
  }
  return s;
}

}  // namespace

void arm(const FaultPlan& plan) {
  auto* s = new State;
  s->plan = plan;
  s->older = g_armed.exchange(s, std::memory_order_relaxed);
  g_state.store(s, std::memory_order_release);
}

void disarm() { g_state.store(nullptr, std::memory_order_release); }

bool armed() { return g_state.load(std::memory_order_acquire) != nullptr; }

std::uint64_t write_class_ops() {
  State* s = g_state.load(std::memory_order_acquire);
  return s != nullptr ? s->ops.load(std::memory_order_relaxed) : 0;
}

std::uint64_t injected() {
  State* s = g_state.load(std::memory_order_acquire);
  return s != nullptr ? s->injected.load(std::memory_order_relaxed) : 0;
}

bool crashed() {
  State* s = g_state.load(std::memory_order_acquire);
  return s != nullptr && s->crashed.load(std::memory_order_acquire);
}

ReadCallPlan plan_read_call(const std::string& path, std::size_t n) {
  ReadCallPlan p;
  State* s = matching_state(path);
  if (s == nullptr) return p;
  if (roll(*s, s->plan.p_read_eio)) {
    p.eio_left = s->plan.eio_streak;
    s->injected.fetch_add(1, std::memory_order_relaxed);
  }
  if (n >= s->plan.bitflip_min_bytes && n > 0 &&
      roll(*s, s->plan.p_read_bitflip)) {
    p.flip_bit = next_u64(*s) % (static_cast<std::uint64_t>(n) * 8);
    s->injected.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

SyscallFault read_syscall_fault(const std::string& path, std::size_t want) {
  SyscallFault f;
  State* s = matching_state(path);
  if (s == nullptr) return f;
  if (roll(*s, s->plan.p_read_eintr)) {
    f.err = EINTR;
    s->injected.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  if (want > 1 && roll(*s, s->plan.p_read_short)) {
    f.short_bytes = want / 2;
    s->injected.fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

void apply_read_call(const ReadCallPlan& plan, void* buf, std::size_t n) {
  if (plan.flip_bit == ReadCallPlan::kNoFlip || n == 0) return;
  auto* bytes = static_cast<unsigned char*>(buf);
  bytes[plan.flip_bit / 8] ^=
      static_cast<unsigned char>(1u << (plan.flip_bit % 8));
}

WriteCallPlan plan_write_call(const std::string& path) {
  WriteCallPlan p;
  State* s = matching_state(path);
  if (s == nullptr) return p;
  if (roll(*s, s->plan.p_write_eio)) {
    p.eio_left = s->plan.eio_streak;
    s->injected.fetch_add(1, std::memory_order_relaxed);
  }
  return p;
}

SyscallFault write_syscall_fault(const std::string& path, std::size_t want) {
  SyscallFault f;
  State* s = matching_state(path);
  if (s == nullptr) return f;
  if (roll(*s, s->plan.p_write_eintr)) {
    f.err = EINTR;
    s->injected.fetch_add(1, std::memory_order_relaxed);
    return f;
  }
  if (want > 1 && roll(*s, s->plan.p_write_short)) {
    f.short_bytes = want / 2;
    s->injected.fetch_add(1, std::memory_order_relaxed);
  }
  return f;
}

namespace {

/// Advance the write-class op counter and resolve the one-shot ops. Returns
/// the op's gate; used by write_op_gate and the sync/truncate wrappers.
OpGate gate_op(State& s, std::size_t write_bytes, bool is_write) {
  OpGate g;
  const auto op = static_cast<std::int64_t>(
      s.ops.fetch_add(1, std::memory_order_relaxed));
  if (s.crashed.load(std::memory_order_acquire)) {
    g.allowed = 0;  // post-crash: silently dropped
    return g;
  }
  if (is_write && s.plan.enospc_at_op >= 0 && op == s.plan.enospc_at_op) {
    s.injected.fetch_add(1, std::memory_order_relaxed);
    g.fail_errno = ENOSPC;
    return g;
  }
  if (s.plan.crash_at_op >= 0 && op == s.plan.crash_at_op) {
    s.injected.fetch_add(1, std::memory_order_relaxed);
    s.crashed.store(true, std::memory_order_release);
    g.allowed = is_write ? static_cast<std::size_t>(std::min<std::uint64_t>(
                               s.plan.crash_keep_bytes, write_bytes))
                         : 0;
    return g;
  }
  return g;
}

}  // namespace

OpGate write_op_gate(const std::string& path, std::size_t n) {
  State* s = matching_state(path);
  if (s == nullptr) return {};
  return gate_op(*s, n, /*is_write=*/true);
}

bool sync_op_allowed(const std::string& path) {
  State* s = matching_state(path);
  if (s == nullptr) return true;
  return gate_op(*s, 0, /*is_write=*/false).allowed != 0;
}

bool truncate_op_allowed(const std::string& path) {
  State* s = matching_state(path);
  if (s == nullptr) return true;
  return gate_op(*s, 0, /*is_write=*/false).allowed != 0;
}

}  // namespace ptucker::pario::faults

#endif  // PTUCKER_FAULTS_DISABLED
