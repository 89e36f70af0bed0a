// Pluggable admission/scheduling policies for serve::Engine, selected by
// name via Engine::Options::policy:
//
//  - "fifo" (default): submit order — PR 3's behaviour, the bit-identity
//    reference every other policy's token streams must match;
//  - "sjf" (ShortestJobFirst): admit the waiting request with the
//    smallest total work (prompt + completion budget); classic
//    mean-latency optimisation under mixed lengths;
//  - "prefix-aware": enable prompt-prefix page sharing in the paged KV
//    pool, admit requests whose prefix is already registered first
//    (longest hit wins), and hold back requests whose prefix a currently
//    prefilling leader is about to register — followers then attach the
//    leader's pages instead of recomputing and double-storing the prefix.
//
// A policy only chooses *admission order*; the per-tick step loop and all
// arithmetic are policy-independent, so any policy's per-request token
// streams are bit-identical to Fifo's (test_serve pins this).
//
// Determinism: pick() must be a pure function of its arguments (no RNG,
// no wall clock) so a serve run is reproducible at any thread count.
#pragma once

#include <cstddef>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "serve/paged_kv.hpp"
#include "serve/request.hpp"

namespace bbal::serve {

class SchedulerPolicy {
 public:
  /// pick() return meaning "admit nothing this tick, wait for state to
  /// advance". The engine overrides it when no request is active (an idle
  /// engine deferring forever would deadlock the run).
  static constexpr int kNone = -1;

  virtual ~SchedulerPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when the engine should create sequences with prompt-prefix
  /// sharing and register completed prefills in the pool.
  [[nodiscard]] virtual bool wants_prefix_sharing() const { return false; }

  /// Choose the next request to admit into a free slot: an index into
  /// `waiting` (which holds indices into `requests`, submit-ordered), or
  /// kNone to leave remaining slots empty this tick. `prefilling` lists
  /// the request indices of active flights still consuming their prompts;
  /// `pool` answers prefix probes. Called repeatedly while free slots and
  /// waiting requests remain.
  [[nodiscard]] virtual int pick(const std::vector<Request>& requests,
                                 const std::deque<std::size_t>& waiting,
                                 const std::vector<std::size_t>& prefilling,
                                 const PagedKVPool& pool) const = 0;

  /// Choose which *decoding* flight to suspend under KV-pool pressure:
  /// an index into `decoding` (which holds indices into `requests`, in
  /// admission order), or kNone to decline preemption. Only consulted
  /// when Engine::Options::preempt is on and admission or a reserve is
  /// blocked on pages. The victim's private pages are released (shared
  /// pages survive via refcounts) and the flight requeues; on resume its
  /// prompt + generated-so-far tokens re-prefill through the chunked
  /// prefill path, reproducing its stream bit-identically.
  ///
  /// Default: LIFO — suspend the most recently admitted flight, which
  /// has the least KV to recompute under FIFO-ish admission and
  /// preserves the oldest flights' latency. Same determinism contract as
  /// pick(): a pure function of its arguments.
  [[nodiscard]] virtual int pick_preempt(
      const std::vector<Request>& requests,
      const std::vector<std::size_t>& decoding) const {
    (void)requests;
    return decoding.empty() ? kNone : static_cast<int>(decoding.size()) - 1;
  }
};

/// Split one mixed tick's prefill-token budget across the active flights
/// (chunked prefill, Sarathi-style): flight i of the tick has
/// remaining[i] prompt tokens left to consume (0 for flights already
/// decoding) and is granted min(remaining, chunk) tokens, admission order
/// first-come-first-served, until `budget` prefill tokens are granted
/// (budget <= 0 means uncapped). The earliest still-prefilling flight is
/// always granted at least one token, so a tick of pure prefill traffic
/// can never stall even under a sub-chunk budget. Decode rows are not
/// budgeted — every decoding flight steps every tick, which is what keeps
/// inter-token latency flat while long prompts stream in.
///
/// Shared by every SchedulerPolicy: pacing must not change token streams
/// (policies only reorder admission; see the bit-identity contract), so
/// the plan is a pure deterministic function of (remaining, chunk,
/// budget). grants is resized to remaining.size(), reusing its storage.
void plan_prefill(std::span<const int> remaining, int chunk, int budget,
                  std::vector<int>& grants);

/// Resolve a policy by name ("fifo", "sjf", "prefix-aware"; case matters).
/// Unknown names are reportable errors, never aborts.
[[nodiscard]] Result<std::unique_ptr<SchedulerPolicy>> make_policy(
    std::string_view name);

/// Every name make_policy accepts, in documentation order.
[[nodiscard]] std::vector<std::string> policy_names();

}  // namespace bbal::serve
