// Request/response types of the serving engine (serve::Engine): what a
// client submits, what it gets back per request, and the aggregate report
// the benchmarks and the CI serving gate consume.
//
// Two clocks run through every metric:
//  - *Simulated* seconds come from replaying each engine step's GEMM
//    workload on the cycle-level accelerator model (accel::simulate_
//    workload), exactly like Session's cost half. They are deterministic —
//    bit-identical across hosts and thread counts — which is what lets
//    BENCH_serve.json gate TTFT/latency percentiles in CI.
//  - *Wall* seconds are host wall-clock, reported for operators but kept
//    out of the gated report rows (machine-dependent).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bbal::serve {

/// One generation request: a prompt, a completion budget and an
/// open-loop arrival time. Sampling is greedy (argmax, lowest index wins
/// ties), so a request's continuation is a pure function of
/// (model, strategy, prompt).
struct Request {
  std::vector<int> prompt;  ///< token ids in [0, vocab)
  int max_new_tokens = 16;  ///< completion budget (> 0)
  /// Engine tick (one fused decode step = one tick) at which the request
  /// becomes visible to the scheduler: the engine never admits it
  /// earlier, however idle. 0 — the default — is the closed-loop case
  /// (present at run start), which keeps every pre-open-loop workload
  /// byte-exact. Stamped by serve::load's arrival generators; negative
  /// values are reported as error results.
  std::int64_t arrival_tick = 0;
  /// Engine tick at which the request expires: once the clock reaches it,
  /// the request retires gracefully with whatever tokens it has (reason
  /// `timeout`). 0 — the default — means no deadline, which keeps every
  /// committed BENCH row byte-exact. Must be > arrival_tick when set.
  std::int64_t deadline_tick = 0;
};

/// Why a request stopped short of its completion budget. Every retirement
/// path is typed: a request either completes ok, fails validation before
/// the run (kInvalid), or ends on one of the graceful reasons below with
/// its partial output preserved. There is no untyped failure.
enum class FinishReason {
  kNone = 0,                  ///< completed normally (ok)
  kInvalid,                   ///< rejected before the run (bad input)
  kTimeout,                   ///< deadline_tick reached mid-run
  kCancelled,                 ///< FaultPlan client cancellation
  kPreemptedUnrecoverable,    ///< preempted more than max_preemptions times
  kOom,                       ///< KV pool exhausted and preemption off
};

/// Stable lowercase name ("timeout", "cancelled", ...) for report text.
[[nodiscard]] const char* finish_reason_name(FinishReason reason);

/// Per-request outcome. Timing fields are populated when the engine has an
/// accelerator attached (has_cost in the report); wall fields always.
struct RequestResult {
  std::uint64_t id = 0;  ///< submit() order, starting at 0
  bool ok = false;
  std::string error;  ///< set when !ok (bad prompt, bad budget)
  /// Typed retirement reason when !ok (kNone when ok). Always set
  /// alongside `error` — no request finishes with an untyped failure;
  /// `generated` keeps the partial stream for every mid-run reason.
  FinishReason reason = FinishReason::kNone;
  /// Times this flight was suspended (KV pages released) and requeued.
  /// Non-zero only when Engine::Options::preempt is on or a FaultPlan
  /// injected a transient reserve failure.
  int preemptions = 0;

  std::vector<int> generated;  ///< the greedy continuation
  int prompt_tokens = 0;
  /// Prompt positions attached from shared KV pages instead of being
  /// recomputed (non-zero only under a prefix-sharing policy).
  int shared_prompt_tokens = 0;
  int steps = 0;  ///< engine ticks this request was active for

  // Open-loop queueing (exact, clock-independent). For closed-loop
  // requests arrival_tick is 0 and queue_ticks counts slot contention
  // alone — admission waiting was always part of TTFT, it now has its
  // own name.
  std::int64_t arrival_tick = 0;  ///< as submitted
  std::int64_t admit_tick = 0;    ///< engine clock when a slot was granted
  std::int64_t queue_ticks = 0;   ///< admit_tick - arrival_tick
  /// Engine clock at the first generated token (-1 until it exists): the
  /// tick-domain TTFT — with chunked prefill a prompt of P tokens costs
  /// about ceil(P/chunk) ticks instead of P (bench_prefill's gate).
  /// Clock-exact and deterministic; not serialised in BENCH rows.
  std::int64_t first_token_tick = -1;
  /// Largest simulated gap between consecutive generated tokens — the
  /// stall a streaming client would notice (0 until the second token).
  double max_inter_token_seconds = 0.0;
  /// Completed within the run's SLO (always false unless an Slo was
  /// configured and the engine prices time, i.e. report.has_slo).
  bool slo_ok = false;

  /// Simulated time from arrival until the first generated token —
  /// queueing delay included, the client-visible TTFT. For an open-loop
  /// request the arrival instant is the simulated time at which its
  /// arrival_tick began.
  double ttft_seconds = 0.0;
  /// Simulated time from arrival until completion (or, for a request
  /// that stopped short, until it retired).
  double total_seconds = 0.0;
  /// generated / total_seconds (0 when no accelerator is attached).
  double tokens_per_second = 0.0;
  /// Host wall-clock from arrival until the first generated token.
  double ttft_wall_seconds = 0.0;
  /// Host wall-clock from arrival until completion (or retirement).
  double wall_seconds = 0.0;
};

/// Aggregate serving metrics over one Engine::run(). to_json() emits one
/// flat object — a BENCH_serve.json row — containing only deterministic
/// fields (token counts, stream hash, simulated rates); wall-clock stays
/// in the recorder's meta block.
struct Report {
  std::string model;
  std::string matmul;
  std::string nonlinear;
  std::string policy;  ///< scheduler policy name ("fifo", "sjf", ...)
  /// KV-cache page storage format ("FP32", "INT8", "BFP4", "BBFP(4,2)");
  /// quant::KvFormat::name() of the engine's pool. Part of the
  /// bench_compare row key, so frontier rows that differ only in KV
  /// format diff cleanly.
  std::string kv_format;
  /// Workload provenance descriptor (e.g. "poisson(rate=0.1,seed=2024)"),
  /// set by the recording tool — the engine does not know how its
  /// requests were generated. Emitted in to_json() when non-empty and
  /// part of the bench_compare row key, so every BENCH row names the
  /// traffic that produced it.
  std::string workload;
  int max_batch = 0;
  /// Chunked-prefill configuration of the run (Engine::Options). Emitted
  /// in to_json() only when chunking is on (prefill_chunk > 1 or a
  /// budget is set), so default-configured BENCH rows stay byte-exact
  /// with the pre-chunking engine.
  int prefill_chunk = 1;
  int prefill_budget = 0;
  /// Speculative-decoding configuration: the draft backend's matmul
  /// strategy ("" when off) and the per-cycle draft window. Part of the
  /// bench_compare row key, so speculative frontier rows never collide
  /// with their target-only siblings. Emitted in to_json() — with the
  /// whole speculative block below — only when speculation is on, so
  /// default rows stay byte-exact with the pre-speculative engine.
  std::string draft;
  int draft_k = 0;
  /// Robustness configuration: the run's fault plan (FaultPlan::
  /// describe(), "" when empty) and whether decode preemption was on.
  /// The fault block — these two plus the robustness counters below — is
  /// emitted in to_json() only when has_faults, so default-configured
  /// BENCH rows stay byte-exact with the pre-faults engine.
  std::string fault_plan;
  bool preempt = false;
  bool has_faults = false;  ///< faults/preempt/deadlines were configured
  bool has_cost = false;  ///< simulated timing fields are meaningful
  bool has_slo = false;   ///< an Slo was configured (and has_cost holds)

  std::vector<RequestResult> results;  ///< submit() order

  std::int64_t requests = 0;       ///< submitted
  std::int64_t completed = 0;      ///< finished with ok
  std::int64_t prompt_tokens = 0;  ///< across completed requests
  std::int64_t generated_tokens = 0;
  std::int64_t engine_steps = 0;  ///< ticks the batch loop executed
  /// Final engine clock: decode ticks plus idle jumps to the next
  /// arrival. engine_steps == clock_ticks on a closed-loop run; the gap
  /// between them is time the engine sat idle waiting for traffic.
  std::int64_t clock_ticks = 0;
  /// Ticks whose fused step carried both prefill rows and decode rows —
  /// the interleaving chunked-prefill scheduling exists to create.
  /// Deterministic; emitted in to_json() with the prefill block.
  std::int64_t mixed_ticks = 0;
  /// Mean number of active requests per tick (batching effectiveness).
  double mean_batch_occupancy = 0.0;

  // Speculative-decoding accounting (draft_k > 0 runs only; exact and
  // deterministic — acceptance is a pure function of the model, the two
  // strategies and the request mix, at any BBAL_THREADS).
  std::int64_t draft_cycles = 0;     ///< speculation cycles executed
  std::int64_t drafted_tokens = 0;   ///< proposals fed to verification
  std::int64_t accepted_tokens = 0;  ///< proposals that matched the target
  /// accepted_tokens / drafted_tokens (0 when nothing was drafted).
  /// Exact-gated by bench_compare: determinism is part of the contract.
  double acceptance_rate = 0.0;
  /// Simulated seconds a target-only engine would have spent on the same
  /// streams, over this run's simulated seconds (valid when has_cost;
  /// > 1.0 means speculation paid for its draft forwards). The
  /// counterfactual is priced exactly: one decode_step_gemms workload per
  /// emitted token at its context, on the same target accelerator —
  /// simulated cost is additive over GEMMs, so batching does not blur it.
  double speedup_vs_target = 0.0;

  // Robustness accounting (has_faults runs only; exact and deterministic
  // — every event is keyed by the simulated tick, at any BBAL_THREADS).
  std::int64_t preemptions = 0;  ///< flights suspended (KV pages released)
  std::int64_t resumes = 0;      ///< suspended flights re-admitted
  /// Mean ticks a suspended flight waited between suspension and
  /// re-admission (0 when nothing was preempted).
  double requeue_delay_mean_ticks = 0.0;
  /// KV rows re-prefilled on resume (prompt + generated-so-far minus the
  /// shared prefix) — the work preemption throws away.
  std::int64_t preempt_recompute_tokens = 0;
  /// Simulated seconds spent re-prefilling resumed flights on the
  /// accelerator model (valid when has_cost; included in total_seconds)
  /// — the recompute price a preemption pays for its freed pages.
  double preempt_recompute_seconds = 0.0;
  std::int64_t timeouts = 0;       ///< retired at deadline_tick
  std::int64_t cancellations = 0;  ///< FaultPlan client cancels honoured
  /// Typed oom + preempted_unrecoverable retirements (pool pressure the
  /// engine could not absorb).
  std::int64_t oom_failures = 0;

  // Open-loop queueing aggregates (completed requests; exact ticks).
  double queue_delay_mean_ticks = 0.0;
  double queue_delay_p99_ticks = 0.0;
  /// Offered load: completion tokens demanded per clock tick of the
  /// arrival span — what the clients asked for, independent of what the
  /// engine achieved. On a closed-loop run the span is one tick, so this
  /// degenerates to the total demand.
  double offered_tokens_per_tick = 0.0;
  /// Achieved service rate: generated tokens per elapsed clock tick.
  /// Tracks offered load until saturation, then plateaus at capacity —
  /// the knee bench_serve_slo charts.
  double throughput_tokens_per_tick = 0.0;
  /// FNV-1a over (id, generated tokens) of completed requests: one exact
  /// CI field that pins every token of every stream.
  std::uint32_t stream_hash = 0;
  /// Bytes of quantised weight storage held by the engine's one shared
  /// backend. Deterministic, and independent of max_batch — the fused
  /// datapath prepares weights exactly once per engine, not per slot.
  std::int64_t weights_bytes = 0;

  // Paged KV-cache metrics (serve::PagedKVPool). Deterministic: page
  // traffic is a pure function of the request mix and the policy.
  std::int64_t kv_pages_allocated = 0;  ///< cumulative fresh page allocs
  /// Peak pool payload in use, in *packed* (post-quantisation) bytes of
  /// the run's kv_format — the resident-cache metric a quantised format
  /// shrinks. Equals the FP32 float payload when kv_format is "FP32".
  std::int64_t kv_bytes_peak = 0;
  /// What PR 3's per-request monolithic FP32 caches would have held at the
  /// same peak tick: the format-independent yardstick both the paging and
  /// the quantisation savings are measured against.
  std::int64_t kv_bytes_peak_contiguous = 0;
  /// Prompt tokens served from shared pages / prompt tokens offered.
  double prefix_hit_rate = 0.0;
  /// Mean pages-in-use per tick over pool capacity.
  double kv_pool_occupancy = 0.0;

  // Simulated aggregates (valid when has_cost).
  std::int64_t simulated_macs = 0;
  double total_seconds = 0.0;  ///< sum of per-tick simulated latencies
  double throughput_tokens_per_second = 0.0;
  double ttft_mean_seconds = 0.0;
  double p50_step_seconds = 0.0;  ///< percentiles over per-token latencies
  double p95_step_seconds = 0.0;
  double p99_step_seconds = 0.0;
  /// TTFT tail over completed requests (ttft_mean_seconds's p99 sibling;
  /// queueing delay included — the SLO-facing latency).
  double p99_ttft_seconds = 0.0;
  /// Percentiles over gaps between consecutive generated tokens of the
  /// same request, measured on the global simulated clock. Today a
  /// request steps every tick once admitted, so gaps equal tick
  /// latencies — but these are defined per request and stay correct if a
  /// future engine pauses mid-decode (chunked prefill, preemption).
  double p50_inter_token_seconds = 0.0;
  double p95_inter_token_seconds = 0.0;
  double p99_inter_token_seconds = 0.0;

  // SLO accounting (valid when has_slo; see serve::Slo in load.hpp).
  double slo_ttft_seconds = 0.0;  ///< the configured thresholds
  double slo_inter_token_seconds = 0.0;
  std::int64_t slo_met = 0;  ///< completed requests within the SLO
  /// slo_met / requests *submitted* — errors and never-completed
  /// requests count against goodput, which is what makes overload
  /// visible.
  double goodput_under_slo = 0.0;
  double energy_j = 0.0;  ///< accelerator + KV buffer energy
  /// KV-cache SRAM access energy (hw::sram over the pool's footprint),
  /// already included in energy_j.
  double kv_energy_j = 0.0;

  double wall_seconds = 0.0;  ///< host wall-clock of run(); never gated

  /// Flat JSON row for tools/record_serve; deterministic fields only.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace bbal::serve
