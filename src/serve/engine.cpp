#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <sstream>
#include <string>
#include <utility>

#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "bbal/registry.hpp"
#include "common/stats.hpp"
#include "hw/sram.hpp"
#include "serve/workload.hpp"

namespace bbal::serve {
namespace {

/// FNV-1a over the 4 little-endian bytes of `value`.
void fnv32_mix(std::uint32_t& hash, std::uint32_t value) {
  for (int byte = 0; byte < 4; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffu;
    hash *= 16777619u;
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Why a submitted request cannot run, or "" when it is well-formed.
std::string invalid_reason(const Request& req, int vocab) {
  if (req.prompt.empty()) return "empty prompt";
  if (req.max_new_tokens <= 0)
    return "max_new_tokens must be > 0, got " +
           std::to_string(req.max_new_tokens);
  if (req.arrival_tick < 0)
    return "arrival_tick must be >= 0, got " +
           std::to_string(req.arrival_tick);
  if (req.deadline_tick < 0)
    return "deadline_tick must be >= 0, got " +
           std::to_string(req.deadline_tick);
  if (req.deadline_tick > 0 && req.deadline_tick <= req.arrival_tick)
    return "deadline_tick " + std::to_string(req.deadline_tick) +
           " must be > arrival_tick " + std::to_string(req.arrival_tick);
  for (const int t : req.prompt)
    if (t < 0 || t >= vocab)
      return "prompt token " + std::to_string(t) + " outside vocabulary [0, " +
             std::to_string(vocab) + ")";
  return "";
}

}  // namespace

// --- Construction ------------------------------------------------------------

Result<Engine> Engine::create(
    std::shared_ptr<const llm::PreparedModel> model,
    const quant::StrategySpec& matmul, const quant::StrategySpec& nonlinear,
    Options options) {
  using R = Result<Engine>;
  if (!model) return R::error("no model: pass a prepared model");

  // --- Validation: collect every problem, report them all at once ---
  // One table-driven pass instead of first-failure-only piecemeal checks:
  // a caller who got three knobs wrong fixes all three from one Status
  // message ("; "-joined, each clause unchanged from the old errors).
  std::vector<std::string> problems;
  const auto flag = [&problems](bool bad, std::string message) {
    if (bad) problems.push_back(std::move(message));
  };
  const struct {
    const char* label;
    int value;
    int min;
    const char* note;  ///< appended to the bound (e.g. " (0 = auto)")
  } int_rules[] = {
      {"max_batch", options.max_batch, 1, ""},
      {"kv_page_tokens", options.kv_page_tokens, 1, ""},
      {"kv_pool_pages", options.kv_pool_pages, 0, " (0 = auto)"},
      {"prefill_chunk", options.prefill_chunk, 1, ""},
      {"prefill_budget", options.prefill_budget, 0, " (0 = uncapped)"},
      {"draft_k", options.draft_k, 0, " (0 = no speculation)"},
      {"max_preemptions", options.max_preemptions, 0, ""},
  };
  for (const auto& rule : int_rules)
    flag(rule.value < rule.min,
         std::string(rule.label) + " must be >= " + std::to_string(rule.min) +
             rule.note + ", got " + std::to_string(rule.value));
  flag(options.draft_k > 0 && options.draft.empty(),
       "draft_k > 0 needs a draft strategy (Options::draft)");
  flag(options.draft_k == 0 && !options.draft.empty(),
       "draft: set draft_k >= 1 to enable speculation with " + options.draft);

  auto policy = make_policy(options.policy);
  if (!policy.is_ok()) problems.push_back(policy.message());
  auto kv_format = quant::KvFormat::parse(options.kv_format);
  if (!kv_format.is_ok())
    problems.push_back("kv_format: " + kv_format.message());

  const BackendRegistry& registry = BackendRegistry::instance();
  {
    const auto caps = registry.capabilities(matmul);
    if (!caps.is_ok()) {
      problems.push_back("matmul: " + caps.message());
    } else {
      flag(!caps.value().matmul, "matmul: " + matmul.to_string() +
                                     " is not a linear-layer strategy");
    }
    const auto nl_caps = registry.capabilities(nonlinear);
    if (!nl_caps.is_ok()) {
      problems.push_back("nonlinear: " + nl_caps.message());
    } else {
      flag(!nl_caps.value().nonlinear, "nonlinear: " + nonlinear.to_string() +
                                           " is not a nonlinear strategy");
    }
  }

  // Speculation's second backend resolves through the same registry and
  // capability gate as the target — the draft is a full matmul pipeline
  // over the same prepared weights.
  quant::StrategySpec draft_spec;
  if (options.draft_k > 0 && !options.draft.empty()) {
    auto parsed = quant::StrategySpec::parse(options.draft);
    if (!parsed.is_ok()) {
      problems.push_back("draft: " + parsed.message());
    } else {
      draft_spec = parsed.value();
      const auto caps = registry.capabilities(draft_spec);
      if (!caps.is_ok()) {
        problems.push_back("draft: " + caps.message());
      } else if (!caps.value().matmul) {
        problems.push_back("draft: " + draft_spec.to_string() +
                           " is not a linear-layer strategy");
      } else {
        flag(options.accelerator.has_value() &&
                 !registry.has_cost_model(draft_spec),
             "draft: " + draft_spec.to_string() +
                 " has no hardware cost model; drop the accelerator "
                 "or choose a cost-modelled draft strategy");
      }
    }
  }

  // Accelerator: same binding rule as Session — the engine's matmul
  // strategy drives the cost model, which must therefore exist. An SLO is
  // judged on simulated time, so it additionally needs that accelerator.
  flag(options.accelerator.has_value() && !registry.has_cost_model(matmul),
       "accelerator: " + matmul.to_string() +
           " has no hardware cost model; drop the accelerator or "
           "choose a cost-modelled strategy");
  if (options.slo) {
    flag(!options.accelerator.has_value(),
         "slo: goodput needs priced time; attach an accelerator or drop "
         "the SLO");
    flag(options.slo->ttft_seconds <= 0.0 ||
             options.slo->inter_token_seconds <= 0.0,
         "slo: thresholds must be > 0");
  }

  if (!problems.empty()) {
    std::string joined = problems.front();
    for (std::size_t i = 1; i < problems.size(); ++i)
      joined += "; " + problems[i];
    return R::error(std::move(joined));
  }

  Engine engine;
  engine.prepared_ = std::move(model);
  engine.matmul_ = matmul;
  engine.nonlinear_ = nonlinear;
  engine.policy_ = std::move(policy).value();
  engine.kv_format_ = kv_format.value();
  engine.faults_ = std::move(options.faults);
  engine.preempt_ = options.preempt;
  engine.max_preemptions_ = options.max_preemptions;
  engine.kv_page_tokens_ = options.kv_page_tokens;
  engine.kv_pool_pages_ = options.kv_pool_pages;
  engine.prefill_chunk_ = options.prefill_chunk;
  engine.prefill_budget_ = options.prefill_budget;

  // Accelerator binding (cost-model existence validated above): the
  // engine's matmul strategy drives the cost model, Session's rule.
  if (options.accelerator) {
    engine.accel_ = std::move(*options.accelerator);
    engine.accel_->strategy = matmul.to_string();
  }

  // Speculation on a priced engine also prices the draft forwards — on an
  // iso-area re-provisioning of the target's PE budget (Fig. 8's
  // comparison rule), so the reported speedup is what swapping drafting
  // work onto cheaper PEs of the same silicon actually buys.
  if (options.draft_k > 0 && engine.accel_) {
    auto draft_accel = accel::make_iso_area_config(
        draft_spec, engine.accel_->pe_array_area_um2(),
        engine.accel_->dram_gbps);
    if (!draft_accel.is_ok())
      return R::error("draft: " + draft_accel.message());
    engine.draft_accel_ = std::move(draft_accel).value();
  }

  if (options.slo) engine.slo_ = *options.slo;

  // Build the one shared pipeline: the weights are prepared (quantised)
  // exactly once here, regardless of max_batch — every request's row runs
  // through this backend pair via the fused Decoder::step_groups.
  engine.max_batch_ = options.max_batch;
  auto pipeline = make_pipeline(*engine.prepared_, matmul, nonlinear);
  if (!pipeline.is_ok()) return R::error(pipeline.message());
  engine.pipeline_ = std::move(pipeline).value();

  // The draft pipeline: the SAME prepared weights quantised a second time
  // under the draft strategy, with its own decoder workspace. A
  // draft == target pair therefore runs identical arithmetic on both
  // sides, which is what makes its acceptance rate exactly 1.0.
  if (options.draft_k > 0) {
    engine.draft_ = draft_spec;
    engine.draft_k_ = options.draft_k;
    auto draft = make_pipeline(*engine.prepared_, draft_spec, nonlinear);
    if (!draft.is_ok()) return R::error("draft: " + draft.message());
    engine.draft_pipeline_ = std::move(draft).value();
  }
  return engine;
}

Result<Engine::Pipeline> Engine::make_pipeline(
    const llm::PreparedModel& prepared, const quant::StrategySpec& matmul,
    const quant::StrategySpec& nonlinear) {
  using R = Result<Pipeline>;
  const BackendRegistry& registry = BackendRegistry::instance();
  auto mm = registry.make_matmul(matmul);
  if (!mm.is_ok()) return R::error(mm.message());
  auto nl = registry.make_nonlinear(nonlinear);
  if (!nl.is_ok()) return R::error(nl.message());
  Pipeline pipeline;
  pipeline.matmul = std::move(mm).value();
  pipeline.nonlinear = std::move(nl).value();
  pipeline.model = std::make_unique<llm::Transformer>(
      prepared.config, prepared.weights, *pipeline.matmul,
      *pipeline.nonlinear);
  pipeline.model->set_logit_scale(prepared.logit_scale);
  pipeline.decoder = std::make_unique<llm::Decoder>(*pipeline.model);
  return pipeline;
}

Result<Engine> Engine::create(std::shared_ptr<const llm::PreparedModel> model,
                              std::string_view matmul,
                              std::string_view nonlinear, Options options) {
  using R = Result<Engine>;
  auto matmul_spec = quant::StrategySpec::parse(matmul);
  if (!matmul_spec.is_ok()) return R::error("matmul: " + matmul_spec.message());
  auto nonlinear_spec = quant::StrategySpec::parse(nonlinear);
  if (!nonlinear_spec.is_ok())
    return R::error("nonlinear: " + nonlinear_spec.message());
  return create(std::move(model), matmul_spec.value(), nonlinear_spec.value(),
                std::move(options));
}

Result<Engine> Engine::from_session(Session& session, int max_batch) {
  Options options;
  options.max_batch = max_batch;
  if (session.has_accelerator()) options.accelerator = session.accelerator();
  return create(session.prepare(), session.matmul_strategy(),
                session.nonlinear_strategy(), std::move(options));
}

// --- Scheduling --------------------------------------------------------------

std::uint64_t Engine::submit(Request request) {
  queue_.push_back(std::move(request));
  return queue_.size() - 1;
}

namespace {

/// An admitted request's batch slot: its pool sequence, prompt cursor and
/// this tick's plan. What must outlive a suspension lives in the request's
/// Progress record instead, so suspending a flight only releases its pages
/// and requeues its index.
struct InFlight {
  std::size_t request_index = 0;  ///< into the run's requests/results
  PagedKVPool::SeqId seq = -1;
  PagedKVView view;
  /// Next prompt position to prefill. Starts at the sequence's shared
  /// prefix length, so a prefix-hit request prefills only its unshared
  /// prompt tail.
  int prompt_pos = 0;
  int last_token = -1;  ///< most recent generated token (decode input)
  /// Rows this flight contributes to the current tick's fused step: 1
  /// for a decode step, the granted chunk size while prefilling, 0 when
  /// the tick's prefill budget passed it over (it sits the tick out).
  int tick_rows = 0;
  int tick_base = 0;     ///< KV length at tick start
  int tick_emitted = 0;  ///< tokens emitted by this tick (0..spec_k+1)
  /// Re-prefilling after a suspension: the flight's prefill rows are
  /// recompute work, attributed to Report::preempt_recompute_seconds.
  bool resuming = false;
  /// This tick's reserve failed transiently (injected fault, frozen
  /// window, or pool pressure with preemption on): suspend and requeue
  /// instead of retiring — the flight resumes bit-identically later.
  bool requeue = false;
  /// This tick's reserve failed for good: retire with this message.
  std::string reserve_error;
  /// Speculative per-cycle state (docs/SPECULATIVE.md). The draft
  /// sequence is an ephemeral fork of `seq` — it shares every verified
  /// page (copy-on-write isolates the draft's own appends) and is
  /// released at the end of the cycle.
  int spec_k = 0;  ///< tokens drafted this cycle (budget-capped)
  PagedKVPool::SeqId draft_seq = -1;
  PagedKVView draft_view;
  std::vector<int> proposals;  ///< this cycle's drafted tokens
};

/// A submitted request's progress across admissions. Clock fields hold
/// the global run clocks (simulated makespan / wall time since run start)
/// at the respective event, so TTFT and total latency include queueing
/// delay — the client-visible metric.
struct Progress {
  /// After a suspension: the original prompt plus every token generated
  /// so far (empty before). Re-admission re-prefills exactly the token
  /// prefix the KV held, so the resumed stream is bit-identical (KV rows
  /// are pure functions of the token prefix; see docs/ROBUSTNESS.md).
  std::vector<int> continuation;
  std::int64_t cancel_tick = -1;     ///< earliest planned cancellation
  std::int64_t suspended_tick = -1;  ///< clock at suspension; -1 = none
  double arrival_seconds = 0.0;      ///< run clocks at arrival
  double arrival_wall = 0.0;
  double ttft_seconds = 0.0;
  double ttft_wall_seconds = 0.0;
  double last_emit_seconds = 0.0;  ///< simulated clock at the last token
  double max_gap_seconds = 0.0;    ///< largest inter-token gap so far
  int steps = 0;                   ///< engine ticks active, all admissions
  bool registered = false;         ///< prompt prefix registered in the pool
};

}  // namespace

struct Engine::Run {
  Run(Engine& engine, std::deque<Request> queue)
      : engine(engine),
        cfg(engine.prepared_->config),
        requests(std::make_move_iterator(queue.begin()),
                 std::make_move_iterator(queue.end())),
        progress(requests.size()),
        arrivals(validate()),
        free_slots(engine.max_batch_),
        kv(cfg, pool_options()),
        sharing(engine.policy_->wants_prefix_sharing()),
        kv_sram(hw::make_sram(static_cast<std::size_t>(kv.max_pages()) *
                              static_cast<std::size_t>(kv.page_bytes()))),
        token_kv_bytes(static_cast<std::int64_t>(cfg.n_layers) * 2 *
                       kv.encoded_row_bytes()) {
    report.model = cfg.name;
    report.matmul = engine.matmul_.to_string();
    report.nonlinear = engine.nonlinear_.to_string();
    report.policy = std::string(engine.policy_->name());
    report.kv_format = engine.kv_format_.name();
    report.max_batch = engine.max_batch_;
    report.prefill_chunk = engine.prefill_chunk_;
    report.prefill_budget = engine.prefill_budget_;
    if (engine.speculative()) {
      report.draft = engine.draft_.to_string();
      report.draft_k = engine.draft_k_;
    }
    report.has_cost = engine.accel_.has_value();
    report.has_slo = engine.slo_.has_value();
    if (engine.slo_) {
      report.slo_ttft_seconds = engine.slo_->ttft_seconds;
      report.slo_inter_token_seconds = engine.slo_->inter_token_seconds;
    }
    report.weights_bytes = engine.weights_bytes();
    report.fault_plan = engine.faults_.describe();
    report.preempt = engine.preempt_;
    for (const FaultPlan::Cancellation& c : engine.faults_.cancellations) {
      if (c.request < 0 || c.request >= static_cast<int>(requests.size()))
        continue;
      auto& at = progress[static_cast<std::size_t>(c.request)].cancel_tick;
      at = at < 0 ? c.tick : std::min(at, c.tick);
    }
    active.reserve(static_cast<std::size_t>(engine.max_batch_));
    run_start = std::chrono::steady_clock::now();
  }

  // --- Tick phases, in order (docs/SERVING.md, "Tick anatomy") ---

  bool live() const {
    return next_arrival < arrivals.size() || !waiting.empty() ||
           !active.empty();
  }

  void deliver() {
    while (next_arrival < arrivals.size() &&
           requests[arrivals[next_arrival]].arrival_tick <= clock) {
      const std::size_t index = arrivals[next_arrival++];
      progress[index].arrival_seconds = sim_makespan;
      progress[index].arrival_wall = seconds_since(run_start);
      waiting.push_back(index);
    }
  }

  /// Client cancellations and expired deadlines retire gracefully — partial
  /// output plus a typed reason — from both queues.
  void expire() {
    if (!report.has_faults) return;
    for (auto it = waiting.begin(); it != waiting.end();) {
      if (expire_request(*it, nullptr))
        it = waiting.erase(it);
      else
        ++it;
    }
    keep_flights(&Run::keep_unexpired);
  }

  /// Nothing waiting and nothing active: jumps the clock to the next
  /// arrival (idle ticks run no step and cost no simulated time) and
  /// returns true.
  bool skip_idle() {
    if (!waiting.empty() || !active.empty()) return false;
    if (next_arrival < arrivals.size())
      clock = requests[arrivals[next_arrival]].arrival_tick;
    return true;
  }

  /// Admission: deadline-risk preemption, then the policy picks and the page
  /// budget gates. False when nothing is active, i.e. there is no tick to
  /// run (every admission failed, or the pool is frozen).
  [[nodiscard]] bool admit() {
    frozen = report.has_faults && engine.faults_.exhausted_at(clock);
    // Deadline-risk preemption: a queued request whose slack cannot cover
    // even its remaining token count claims a slot from a decoding flight
    // rather than waiting out a completion.
    if (engine.preempt_ && !frozen && free_slots == 0 && !waiting.empty()) {
      for (const std::size_t index : waiting) {
        const Request& req = requests[index];
        if (req.deadline_tick <= 0) continue;
        const std::int64_t slack = req.deadline_tick - clock;
        const std::int64_t need =
            static_cast<std::int64_t>(prompt_of(index).size()) +
            req.max_new_tokens;
        if (slack <= need) {
          (void)try_preempt();
          break;
        }
      }
    }
    while (!frozen && !waiting.empty() && free_slots > 0) {
      candidates.clear();
      for (const InFlight& flight : active)
        if (flight.prompt_pos <
            static_cast<int>(prompt_of(flight.request_index).size()))
          candidates.push_back(flight.request_index);
      int pick = engine.policy_->pick(requests, waiting, candidates, kv);
      if (pick == SchedulerPolicy::kNone) {
        // Deferral needs someone to wait for; an idle engine admits FIFO.
        if (!active.empty()) break;
        pick = 0;
      }
      const std::size_t index = waiting[static_cast<std::size_t>(pick)];
      if (!fits(index)) {
        // Under preemption, pool pressure is absorbed by suspending
        // decoding flights instead of waiting for retirements.
        if (engine.preempt_) {
          bool progressed = true;
          while (!fits(index) && progressed) progressed = try_preempt();
        }
        if (!fits(index)) {
          if (!active.empty()) break;  // retirements will free pages
          // Nothing running: reclaim shareable pages, then either the
          // request fits or it never will.
          kv.drop_registered_prefixes();
          if (!fits(index)) {
            waiting.erase(waiting.begin() + pick);
            retire(index, FinishReason::kOom,
                   "request needs " +
                       std::to_string(kv.pages_for(total_positions(index))) +
                       " KV pages, pool capacity is " +
                       std::to_string(kv.max_pages()));
            continue;
          }
        }
      }
      waiting.erase(waiting.begin() + pick);
      start(index);
    }
    // Every admission failed (undersized pool) or the pool is frozen: no
    // phantom empty tick — but when a frozen window is the only thing in
    // the way, the clock must advance to eventually exit it.
    if (active.empty()) {
      if (frozen && !waiting.empty()) ++clock;
      return false;
    }
    ++report.engine_steps;
    occupancy_sum += static_cast<std::int64_t>(active.size());
    return true;
  }

  /// Plans the tick's rows: every decoding flight steps one token;
  /// prefilling flights are granted up to prefill_chunk prompt tokens each
  /// under the tick-wide prefill_budget (serve::plan_prefill, FCFS in
  /// admission order — the SchedulerPolicy layer's pacing rule; see
  /// docs/PREFILL.md). A flight granted 0 sits the tick out. With the
  /// default chunk 1 / budget 0 every flight gets exactly one row — the
  /// legacy lockstep, byte-exact with the pre-chunking engine.
  void plan() {
    prefill_remaining.clear();
    for (const InFlight& flight : active)
      prefill_remaining.push_back(
          static_cast<int>(prompt_of(flight.request_index).size()) -
          flight.prompt_pos);
    plan_prefill(prefill_remaining, engine.prefill_chunk_,
                 engine.prefill_budget_, prefill_grants);
    bool tick_has_prefill = false;
    bool tick_has_decode = false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      InFlight& flight = active[i];
      if (prefill_remaining[i] > 0) {
        flight.tick_rows = prefill_grants[i];
        tick_has_prefill |= prefill_grants[i] > 0;
        continue;
      }
      tick_has_decode = true;
      if (!engine.speculative()) {
        flight.tick_rows = 1;
        continue;
      }
      // Speculation cycle setup. The draft window is capped so the cycle
      // never emits past the request's budget (accepted drafts plus the
      // correction/bonus token is at most spec_k + 1); with one token left
      // the cycle degenerates to a plain verified step. The draft sequence
      // forks the target BEFORE the target's own reserve: the fork pins the
      // shared tail, so the target's verify appends copy-on-write it
      // instead of two sequences writing one page. A draft that cannot
      // reserve (explicit undersized pool) degrades to spec_k = 0 —
      // speculation never fails a request.
      const RequestResult& out = report.results[flight.request_index];
      const int remaining = requests[flight.request_index].max_new_tokens -
                            static_cast<int>(out.generated.size());
      int k = std::min(engine.draft_k_, remaining - 1);
      if (k > 0) {
        flight.draft_seq = kv.fork(flight.seq);
        if (kv.reserve(flight.draft_seq, k).is_ok()) {
          flight.draft_view = PagedKVView(kv, flight.draft_seq);
        } else {
          kv.release(flight.draft_seq);
          flight.draft_seq = -1;
          k = 0;
        }
      }
      flight.spec_k = k;
      flight.tick_rows = 1 + k;
    }
    if (tick_has_prefill && tick_has_decode) ++report.mixed_ticks;
  }

  /// Reserves this tick's KV positions (serial; allocation and
  /// copy-on-write happen here, so the fused step only appends into
  /// pre-reserved, per-sequence slots). A reservation failure — real pool
  /// pressure (explicit undersized kv_pool_pages), an injected transient
  /// fault, or a frozen exhaustion window — either suspends the flight for
  /// a bit-identical resume (transient faults always; pool pressure when
  /// preemption is on) or retires it with a typed reason. Every flight
  /// reserves before any is suspended or retired, so pages a failure frees
  /// serve the next tick, not this one. False when no flight is left to
  /// step (the clock still advances, so a frozen window eventually passes).
  [[nodiscard]] bool reserve() {
    for (InFlight& flight : active) {
      flight.tick_base = kv.length(flight.seq);
      const bool injected =
          report.has_faults &&
          engine.faults_.reserve_fails(clock,
                                       static_cast<int>(flight.request_index));
      // A frozen window refuses fresh pages; within-page appends proceed
      // (that memory already exists).
      const bool frozen_block =
          frozen && kv.pages_for(flight.tick_base + flight.tick_rows) >
                        kv.pages_for(flight.tick_base);
      Status reserved =
          injected ? Status::error("injected transient reserve failure")
          : frozen_block
              ? Status::error("KV pool frozen by fault-plan window")
              : kv.reserve(flight.seq, flight.tick_rows);
      if (!reserved.is_ok() && flight.spec_k > 0) {
        // The verify window did not fit: give the draft fork back and retry
        // as a plain step — speculation must never retire a request the
        // target-only engine would have completed.
        kv.release(flight.draft_seq);
        flight.draft_seq = -1;
        flight.spec_k = 0;
        flight.tick_rows = 1;
        if (!injected && !frozen_block) reserved = kv.reserve(flight.seq, 1);
      }
      if (reserved.is_ok()) continue;
      if ((injected || engine.preempt_) &&
          report.results[flight.request_index].preemptions <
              engine.max_preemptions_)
        flight.requeue = true;
      else
        flight.reserve_error = reserved.message();
    }
    keep_flights(&Run::keep_reserved);
    if (active.empty()) {
      ++clock;
      return false;
    }
    kv_pages_sum += kv.stats().pages_in_use;
    return true;
  }

  /// Draft phase (speculative cycles only): the cheap backend proposes
  /// spec_k tokens per decoding flight, one fused draft step_batch per
  /// proposal depth across every still-drafting flight. Drafts attend over
  /// the verified prefix through the fork's shared pages and over their own
  /// proposals through the fork's private (copy-on-write) tail — the
  /// target's pages are never written. Each logits row is an independent
  /// serial accumulation, so proposals are deterministic at any
  /// BBAL_THREADS and any batch composition.
  void draft() {
    if (!engine.speculative()) return;
    for (InFlight& flight : active) flight.proposals.clear();
    for (int s = 0;; ++s) {
      draft_tokens.clear();
      draft_views.clear();
      for (InFlight& flight : active) {
        if (flight.spec_k <= s) continue;
        draft_tokens.push_back(s == 0 ? flight.last_token
                                      : flight.proposals.back());
        draft_views.push_back(&flight.draft_view);
      }
      if (draft_tokens.empty()) break;
      engine.draft_pipeline_.decoder->step_batch(draft_tokens, draft_views,
                                                 draft_logits);
      int row = 0;
      for (InFlight& flight : active) {
        if (flight.spec_k <= s) continue;
        flight.proposals.push_back(greedy_argmax(draft_logits.row(row)));
        ++row;
      }
    }
  }

  /// Prices the tick before stepping it. Every flight's rows bill the GEMMs
  /// of advancing its sequence from the tick's base context: a decode row
  /// attends over (cached positions + 1); a prefill chunk prices its fused
  /// M=chunk projections plus per-row causal attention — this is where
  /// chunking's simulated speedup physically comes from: weight streaming,
  /// the dominant memory-cycle term, is paid once per chunk. The batch
  /// shares the accelerator, so the tick costs the combined bill. Draft
  /// forwards bill spec_k sequential M=1 steps on the draft accelerator.
  /// KV-cache traffic (ctx reads + 1 write of K and V rows per layer, per
  /// row) is priced on the pool's SRAM macro.
  void price() {
    tick_seconds = 0.0;
    if (!engine.accel_) return;
    target_bill.clear();
    draft_bill.clear();
    std::int64_t kv_bytes = 0;
    for (const InFlight& flight : active) {
      if (flight.tick_rows == 0) continue;
      const int base = flight.tick_base;
      const std::size_t from = target_bill.size();
      accel::append_prefill_chunk_gemms(cfg, base, flight.tick_rows,
                                        target_bill);
      // A resumed flight's re-prefill is recompute work: attribute its
      // price (as if run alone on the same accelerator; simulated cost is
      // additive over GEMMs) before the rows join the fused tick.
      if (flight.resuming) {
        const auto rows = std::span(target_bill).subspan(from);
        report.preempt_recompute_seconds +=
            accel::simulate_workload(*engine.accel_, rows).seconds;
      }
      // ctx reads + 1 write of K and V rows per layer, in packed bytes — a
      // quantised format moves proportionally less KV traffic. Draft
      // forwards hit the same pool macro as everything else.
      for (int i = 0; i < flight.tick_rows; ++i)
        kv_bytes += token_kv_bytes * (base + i + 2);
      for (int s = 0; s < flight.spec_k; ++s) {
        accel::append_prefill_chunk_gemms(cfg, base + s, 1, draft_bill);
        kv_bytes += token_kv_bytes * (base + s + 2);
      }
    }
    tick_seconds = settle(*engine.accel_, target_bill);
    if (!draft_bill.empty())
      tick_seconds += settle(*engine.draft_accel_, draft_bill);
    sim_makespan += tick_seconds;
    // 64-bit words on the KV macro port: 8 packed bytes per access.
    kv_energy_j +=
        static_cast<double>(kv_bytes) / 8.0 * kv_sram.access_pj() * 1e-12;
  }

  /// Advances the tick's whole row mix in ONE fused forward
  /// (Decoder::step_groups) and emits its tokens. A decoding flight
  /// contributes one row, a prefilling flight its granted chunk of
  /// consecutive prompt tokens. Each projection is a single batched GEMM
  /// over every row (activations quantised once, rows tiled over the thread
  /// pool inside llm::matmul), attention runs per sequence — causal within
  /// a chunk — and each row's arithmetic is bit-identical to an isolated
  /// M=1 step (independent per-row accumulators), so streams match the
  /// serial unchunked reference at any BBAL_THREADS and any chunk size.
  void forward() {
    tick_tokens.clear();
    tick_views.clear();
    tick_counts.clear();
    for (InFlight& flight : active) {
      if (flight.tick_rows == 0) continue;  // budget passed it over
      const std::vector<int>& prompt = prompt_of(flight.request_index);
      if (flight.prompt_pos < static_cast<int>(prompt.size())) {
        for (int i = 0; i < flight.tick_rows; ++i)
          tick_tokens.push_back(
              prompt[static_cast<std::size_t>(flight.prompt_pos + i)]);
      } else {
        // A decode group is the verify window [x0, d1..d_spec_k]: the
        // target computes every window position's logits in this one fused
        // forward (kAllRows). With speculation off it is the single-row
        // legacy group.
        tick_tokens.push_back(flight.last_token);
        for (const int t : flight.proposals) tick_tokens.push_back(t);
      }
      tick_views.push_back(&flight.view);
      tick_counts.push_back(flight.tick_rows);
    }
    const bool all_rows = engine.speculative();
    engine.pipeline_.decoder->step_groups(
        tick_tokens, tick_views, tick_counts, tick_logits,
        all_rows ? llm::Decoder::LogitsMode::kAllRows
                 : llm::Decoder::LogitsMode::kLastPerGroup);
    // Emission. Default mode: one logits row per stepped flight (its
    // group's last row). Speculative mode: the row cursor walks every
    // window position; a decode flight accepts the longest drafted prefix
    // matching the target's greedy argmax, then emits the correction (first
    // mismatching row's argmax) or — all drafts accepted — the bonus token.
    // Rejected window rows are rolled back with PagedKVPool::truncate, so
    // the surviving KV state is exactly what a target-only engine would
    // hold after the same emissions.
    int row = 0;
    for (InFlight& flight : active) {
      flight.tick_emitted = 0;
      if (flight.tick_rows == 0) continue;
      RequestResult& out = report.results[flight.request_index];
      const int prompt_len =
          static_cast<int>(prompt_of(flight.request_index).size());
      if (flight.prompt_pos < prompt_len) {
        flight.prompt_pos += flight.tick_rows;
        // The tick that consumes the final prompt token emits the first
        // generated token — for a resumed flight that is the first *new*
        // token after the re-prefilled continuation, so the stream
        // continues exactly where the suspension cut it.
        if (flight.prompt_pos == prompt_len) {
          const int last = all_rows ? row + flight.tick_rows - 1 : row;
          flight.last_token = greedy_argmax(tick_logits.row(last));
          out.generated.push_back(flight.last_token);
          flight.tick_emitted = 1;
          flight.resuming = false;
          if (out.generated.size() == 1) out.first_token_tick = clock;
        }
      } else if (!all_rows) {
        flight.last_token = greedy_argmax(tick_logits.row(row));
        out.generated.push_back(flight.last_token);
        flight.tick_emitted = 1;
        if (out.generated.size() == 1) out.first_token_tick = clock;
      } else {
        int accepted = 0;
        int next = -1;
        for (;;) {
          // Row (row + accepted) holds the target's next-token logits after
          // x0, d1..d_accepted — what a target-only step at this point
          // would have produced, bit for bit.
          next = greedy_argmax(tick_logits.row(row + accepted));
          if (accepted == flight.spec_k ||
              next != flight.proposals[static_cast<std::size_t>(accepted)])
            break;
          out.generated.push_back(next);
          ++accepted;
        }
        out.generated.push_back(next);  // correction or bonus token
        flight.last_token = next;
        flight.tick_emitted = accepted + 1;
        if (flight.spec_k > 0) {
          ++report.draft_cycles;
          report.drafted_tokens += flight.spec_k;
          report.accepted_tokens += accepted;
        }
        if (accepted < flight.spec_k)
          kv.truncate(flight.seq, flight.tick_base + accepted + 1);
        if (flight.draft_seq >= 0) {
          kv.release(flight.draft_seq);
          flight.draft_seq = -1;
        }
        if (out.generated.size() ==
            static_cast<std::size_t>(flight.tick_emitted))
          out.first_token_tick = clock;
      }
      row += all_rows ? flight.tick_rows : 1;
    }
  }

  /// Serial bookkeeping in slot-admission order, then retirement of every
  /// completed flight; ends the tick. Latencies are read off the global run
  /// clocks (sim_makespan already includes this tick), so queueing delay
  /// counts toward TTFT and total latency.
  void bookkeep() {
    // Counterfactual pricing (speculative runs): what the same emissions
    // would have cost target-only — identical prefill work (judged against
    // the *original* prompt) plus one M=1 decode step per emitted token at
    // its context, on the target accelerator. Simulated cost is additive
    // over GEMMs, so per-tick summation is exact.
    if (engine.accel_ && engine.speculative()) {
      equiv_bill.clear();
      for (const InFlight& flight : active) {
        if (flight.tick_rows == 0) continue;
        const int prompt_len =
            static_cast<int>(requests[flight.request_index].prompt.size());
        if (flight.tick_base < prompt_len) {
          accel::append_prefill_chunk_gemms(cfg, flight.tick_base,
                                            flight.tick_rows, equiv_bill);
        } else {
          for (int i = 0; i < flight.tick_emitted; ++i)
            accel::append_prefill_chunk_gemms(cfg, flight.tick_base + i, 1,
                                              equiv_bill);
        }
      }
      target_equiv_seconds +=
          accel::simulate_workload(*engine.accel_, equiv_bill).seconds;
    }
    const double wall_now = seconds_since(run_start);

    // What PR 3's per-request contiguous caches would hold right now.
    std::int64_t contiguous_tokens = 0;
    for (const InFlight& flight : active)
      contiguous_tokens += kv.length(flight.seq);
    contiguous_peak_tokens =
        std::max(contiguous_peak_tokens, contiguous_tokens);

    for (InFlight& flight : active) {
      Progress& p = progress[flight.request_index];
      const RequestResult& out = report.results[flight.request_index];
      ++p.steps;
      // Per emitted token (a speculative cycle can emit several): the
      // first-ever token stamps TTFT, every later one an inter-token gap.
      // Tokens of one tick all land at the same simulated instant, so the
      // second and later of a cycle record a zero gap — the latency a
      // streaming client actually observes.
      const std::size_t emitted_before =
          out.generated.size() - static_cast<std::size_t>(flight.tick_emitted);
      for (int t = 0; t < flight.tick_emitted; ++t) {
        token_latencies.push_back(tick_seconds);
        if (emitted_before + static_cast<std::size_t>(t) == 0) {
          p.ttft_seconds = sim_makespan - p.arrival_seconds;
          p.ttft_wall_seconds = wall_now - p.arrival_wall;
        } else {
          const double gap = sim_makespan - p.last_emit_seconds;
          inter_token_gaps.push_back(gap);
          p.max_gap_seconds = std::max(p.max_gap_seconds, gap);
        }
        p.last_emit_seconds = sim_makespan;
      }
      // The prefill just completed: its full prompt pages become shareable
      // for every follower with the same prefix. Registration is always
      // over the *original* prompt (a resumed flight's pages cover it as a
      // prefix of the continuation) and happens once per request across
      // suspensions.
      if (flight.tick_emitted > 0 && sharing && !p.registered) {
        kv.register_prefix(flight.seq, requests[flight.request_index].prompt);
        p.registered = true;
      }
    }
    keep_flights(&Run::keep_unfinished);
    ++clock;
  }

  /// Run-level aggregates over the completed requests.
  Report finish() {
    report.wall_seconds = seconds_since(run_start);
    report.clock_ticks = clock;

    // --- Paged-KV aggregates ---
    // What PR 3's monolithic per-request caches stored per position —
    // always FP32 floats, so kv_bytes_peak_contiguous stays the
    // format-independent yardstick the packed pool is compared against.
    const std::int64_t token_bytes = static_cast<std::int64_t>(cfg.n_layers) *
                                     2 * cfg.d_model *
                                     static_cast<std::int64_t>(sizeof(float));
    report.kv_pages_allocated = kv.stats().pages_allocated;
    report.kv_bytes_peak = kv.bytes_peak();
    report.kv_bytes_peak_contiguous = contiguous_peak_tokens * token_bytes;
    report.prefix_hit_rate = kv.stats().prefix_hit_rate();
    if (report.engine_steps > 0)
      report.kv_pool_occupancy =
          static_cast<double>(kv_pages_sum) /
          (static_cast<double>(report.engine_steps) *
           static_cast<double>(kv.max_pages()));
    report.kv_energy_j = kv_energy_j;

    // --- Aggregates (completed requests only) ---
    double ttft_sum = 0.0;
    double queue_sum = 0.0;
    std::vector<double> queue_delays;
    std::vector<double> ttfts;
    std::uint32_t hash = 2166136261u;
    for (const RequestResult& out : report.results) {
      if (!out.ok) continue;
      ++report.completed;
      report.prompt_tokens += out.prompt_tokens;
      report.generated_tokens +=
          static_cast<std::int64_t>(out.generated.size());
      ttft_sum += out.ttft_seconds;
      ttfts.push_back(out.ttft_seconds);
      queue_sum += static_cast<double>(out.queue_ticks);
      queue_delays.push_back(static_cast<double>(out.queue_ticks));
      if (out.slo_ok) ++report.slo_met;
      fnv32_mix(hash, static_cast<std::uint32_t>(out.id));
      for (const int token : out.generated)
        fnv32_mix(hash, static_cast<std::uint32_t>(token));
    }
    report.stream_hash = hash;

    // --- Open-loop load metrics ---
    if (report.completed > 0)
      report.queue_delay_mean_ticks =
          queue_sum / static_cast<double>(report.completed);
    report.queue_delay_p99_ticks = percentile(queue_delays, 99.0);
    if (!arrivals.empty()) {
      std::int64_t demanded_tokens = 0;
      std::int64_t last_arrival = 0;
      for (const std::size_t i : arrivals) {
        demanded_tokens += requests[i].max_new_tokens;
        last_arrival = std::max(last_arrival, requests[i].arrival_tick);
      }
      report.offered_tokens_per_tick =
          static_cast<double>(demanded_tokens) /
          static_cast<double>(last_arrival + 1);
    }
    if (report.clock_ticks > 0)
      report.throughput_tokens_per_tick =
          static_cast<double>(report.generated_tokens) /
          static_cast<double>(report.clock_ticks);
    if (report.has_slo && report.requests > 0)
      report.goodput_under_slo = static_cast<double>(report.slo_met) /
                                 static_cast<double>(report.requests);
    if (report.engine_steps > 0)
      report.mean_batch_occupancy = static_cast<double>(occupancy_sum) /
                                    static_cast<double>(report.engine_steps);
    // --- Robustness aggregates ---
    if (report.resumes > 0)
      report.requeue_delay_mean_ticks =
          requeue_delay_sum / static_cast<double>(report.resumes);
    // --- Speculative aggregates ---
    if (report.drafted_tokens > 0)
      report.acceptance_rate = static_cast<double>(report.accepted_tokens) /
                               static_cast<double>(report.drafted_tokens);
    if (report.has_cost && engine.speculative() && sim_makespan > 0.0)
      report.speedup_vs_target = target_equiv_seconds / sim_makespan;
    // Ticks run sequentially on the shared accelerator, so the simulated
    // makespan of the run is the sum of per-tick latencies.
    report.total_seconds = sim_makespan;
    if (report.has_cost && sim_makespan > 0.0)
      report.throughput_tokens_per_second =
          static_cast<double>(report.generated_tokens) / sim_makespan;
    report.energy_j = energy.total_j() + report.kv_energy_j;
    if (report.completed > 0)
      report.ttft_mean_seconds =
          ttft_sum / static_cast<double>(report.completed);
    report.p50_step_seconds = percentile(token_latencies, 50.0);
    report.p95_step_seconds = percentile(token_latencies, 95.0);
    report.p99_step_seconds = percentile(token_latencies, 99.0);
    report.p99_ttft_seconds = percentile(ttfts, 99.0);
    report.p50_inter_token_seconds = percentile(inter_token_gaps, 50.0);
    report.p95_inter_token_seconds = percentile(inter_token_gaps, 95.0);
    report.p99_inter_token_seconds = percentile(inter_token_gaps, 99.0);
    return std::move(report);
  }

  // --- Helpers ---

  /// Applies the fault plan's arrival spikes, then validates every request:
  /// malformed ones become error results and are never admitted (the batch
  /// must survive a bad client). Returns the valid ones in arrival order.
  std::vector<std::size_t> validate() {
    // Arrival spikes rewrite the stamped workload before anything reads it:
    // the request set is unchanged, a window of arrivals just lands at once.
    for (const FaultPlan::ArrivalSpike& spike : engine.faults_.spikes)
      inject_arrival_spike(requests, spike.tick, spike.window);
    report.requests = static_cast<std::int64_t>(requests.size());
    report.results.resize(requests.size());
    std::vector<std::size_t> valid;
    bool any_deadline = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const Request& req = requests[i];
      RequestResult& out = report.results[i];
      out.id = i;
      out.prompt_tokens = static_cast<int>(req.prompt.size());
      out.arrival_tick = req.arrival_tick;
      out.error = invalid_reason(req, cfg.vocab);
      if (!out.error.empty()) {
        out.reason = FinishReason::kInvalid;
        continue;
      }
      any_deadline |= req.deadline_tick > 0;
      valid.push_back(i);
    }
    report.has_faults =
        engine.preempt_ || !engine.faults_.empty() || any_deadline;
    std::stable_sort(valid.begin(), valid.end(),
                     [&requests = requests](std::size_t a, std::size_t b) {
                       return requests[a].arrival_tick <
                              requests[b].arrival_tick;
                     });
    return valid;
  }

  /// The run-scoped KV pool, fresh per run (deterministic page ids).
  PagedKVPool::Options pool_options() const {
    PagedKVPool::Options options;
    options.page_tokens = engine.kv_page_tokens_;
    options.kv_format = engine.kv_format_;
    if (engine.kv_pool_pages_ > 0) {
      options.max_pages = engine.kv_pool_pages_;
      return options;
    }
    // Auto-size: every valid request resident at once (payloads allocate
    // lazily, so headroom costs page-table slots, not memory).
    const int page_tokens = engine.kv_page_tokens_;
    std::int64_t pages = 0;
    for (const std::size_t i : arrivals)
      pages += (total_positions(i) + page_tokens - 1) / page_tokens;
    if (engine.speculative() && !arrivals.empty()) {
      // Speculation headroom, per concurrently-decoding flight: the verify
      // window never reserves past total_positions, but each cycle
      // transiently holds a draft fork — up to one copy-on-write tail copy
      // plus the fork's own proposal pages.
      const std::int64_t per_flight =
          (engine.draft_k_ + page_tokens - 1) / page_tokens + 2;
      pages += per_flight * std::min<std::int64_t>(
                                engine.max_batch_,
                                static_cast<std::int64_t>(arrivals.size()));
    }
    options.max_pages = static_cast<int>(std::max<std::int64_t>(pages, 1));
    return options;
  }

  /// The tokens an admission prefills: the prompt, or a suspended
  /// request's continuation.
  const std::vector<int>& prompt_of(std::size_t index) const {
    return progress[index].continuation.empty()
               ? requests[index].prompt
               : progress[index].continuation;
  }

  /// Positions a request that runs to its budget appends (the final
  /// generated token is never fed back).
  int total_positions(std::size_t index) const {
    return static_cast<int>(requests[index].prompt.size()) +
           requests[index].max_new_tokens - 1;
  }

  /// Pages the active set is still going to allocate: the admission budget
  /// that keeps mid-run exhaustion impossible under an explicit pool cap.
  /// (A resumed request's budget is unchanged: its continuation prompt has
  /// P + j tokens but only max_new - j tokens left, so total_positions of
  /// the original request still bounds its pages.)
  std::int64_t pending_pages() const {
    std::int64_t pending = 0;
    for (const InFlight& flight : active)
      pending += kv.pages_for(total_positions(flight.request_index)) -
                 kv.pages_for(kv.length(flight.seq));
    return pending;
  }

  /// Whether admitting request `index` now stays within the page budget.
  bool fits(std::size_t index) const {
    const std::vector<int>& prompt = prompt_of(index);
    const int shared = sharing ? kv.probe_prefix_tokens(prompt) : 0;
    if (engine.preempt_) {
      // Optimistic gate: admit when the *prefill* fits (prompt + first
      // generated position). Decode growth past that may exhaust the pool
      // mid-run — exactly the pressure preemption absorbs by suspending a
      // flight instead of failing one.
      const std::int64_t needed =
          kv.pages_for(static_cast<int>(prompt.size()) + 1) -
          shared / kv.page_tokens();
      return kv.stats().pages_in_use + needed <= kv.max_pages();
    }
    std::int64_t needed =
        kv.pages_for(total_positions(index)) - shared / kv.page_tokens();
    // Keep the transient speculative fork affordable for every flight that
    // could be mid-cycle at once (a failed draft reservation only degrades
    // a cycle to a plain step, but admission shouldn't plan on degrading).
    if (engine.speculative())
      needed += static_cast<std::int64_t>(kv.pages_for(engine.draft_k_) + 2) *
                static_cast<std::int64_t>(active.size() + 1);
    return kv.stats().pages_in_use + pending_pages() + needed <= kv.max_pages();
  }

  /// Gives request `index` a batch slot and a pool sequence. A resumed
  /// request re-prefills its continuation prompt (minus any shared prefix):
  /// the recompute bill preemption pays for its freed pages. admit_tick,
  /// queue_ticks and shared_prompt_tokens keep their first admission's
  /// values.
  void start(std::size_t index) {
    --free_slots;
    const std::vector<int>& prompt = prompt_of(index);
    InFlight flight;
    flight.request_index = index;
    flight.seq = sharing ? kv.create(prompt) : kv.create();
    flight.view = PagedKVView(kv, flight.seq);
    flight.prompt_pos = kv.shared_length(flight.seq);
    Progress& p = progress[index];
    RequestResult& out = report.results[index];
    if (p.suspended_tick >= 0) {
      flight.resuming = true;
      requeue_delay_sum += static_cast<double>(clock - p.suspended_tick);
      p.suspended_tick = -1;
      ++report.resumes;
      report.preempt_recompute_tokens +=
          static_cast<int>(prompt.size()) - flight.prompt_pos;
    } else {
      out.shared_prompt_tokens = flight.prompt_pos;
      out.admit_tick = clock;
      out.queue_ticks = clock - requests[index].arrival_tick;
    }
    active.push_back(std::move(flight));
  }

  /// Preemption under pool pressure: the policy picks a decoding victim
  /// (still-prefilling flights hold no decode progress worth trading;
  /// flights at their preemption bound are exempt). False when nothing is
  /// preemptible.
  [[nodiscard]] bool try_preempt() {
    candidates.clear();
    for (const InFlight& flight : active)
      if (flight.prompt_pos >=
              static_cast<int>(prompt_of(flight.request_index).size()) &&
          report.results[flight.request_index].preemptions <
              engine.max_preemptions_)
        candidates.push_back(flight.request_index);
    const int victim = engine.policy_->pick_preempt(requests, candidates);
    if (victim == SchedulerPolicy::kNone) return false;
    const std::size_t target = candidates[static_cast<std::size_t>(victim)];
    for (auto it = active.begin(); it != active.end(); ++it) {
      if (it->request_index != target) continue;
      suspend(*it);
      active.erase(it);
      return true;
    }
    return false;
  }

  /// Suspends a flight: its pages go back to the pool (shared pages survive
  /// via their refcounts) and it requeues behind a continuation prompt of
  /// prompt + generated-so-far. Its clocks stay in its Progress record. The
  /// caller removes it from `active`.
  void suspend(InFlight& flight) {
    const std::size_t index = flight.request_index;
    RequestResult& out = report.results[index];
    Progress& p = progress[index];
    vacate(flight);
    p.suspended_tick = clock;
    const std::vector<int>& prompt = requests[index].prompt;
    p.continuation.assign(prompt.begin(), prompt.end());
    p.continuation.insert(p.continuation.end(), out.generated.begin(),
                          out.generated.end());
    ++out.preemptions;
    ++report.preemptions;
    waiting.push_back(index);
  }

  /// Returns a flight's pages and batch slot.
  void vacate(InFlight& flight) {
    if (flight.draft_seq >= 0) kv.release(flight.draft_seq);
    kv.release(flight.seq);
    ++free_slots;
  }

  /// The one retirement path: completion (reason kNone) and every typed
  /// failure. Fills the request's result from its Progress record — partial
  /// output stays in `generated` — and counts the reason.
  void retire(std::size_t index, FinishReason reason, std::string message) {
    const Progress& p = progress[index];
    RequestResult& out = report.results[index];
    out.ok = reason == FinishReason::kNone;
    out.reason = reason;
    out.error = std::move(message);
    out.steps = p.steps;
    out.ttft_seconds = p.ttft_seconds;
    out.ttft_wall_seconds = p.ttft_wall_seconds;
    out.max_inter_token_seconds = p.max_gap_seconds;
    out.total_seconds = sim_makespan - p.arrival_seconds;
    out.wall_seconds = seconds_since(run_start) - p.arrival_wall;
    switch (reason) {
      case FinishReason::kNone:
        if (engine.slo_)
          out.slo_ok = p.ttft_seconds <= engine.slo_->ttft_seconds &&
                       p.max_gap_seconds <= engine.slo_->inter_token_seconds;
        if (report.has_cost && out.total_seconds > 0.0)
          out.tokens_per_second =
              static_cast<double>(out.generated.size()) / out.total_seconds;
        break;
      case FinishReason::kCancelled:
        ++report.cancellations;
        break;
      case FinishReason::kTimeout:
        ++report.timeouts;
        break;
      case FinishReason::kOom:
      case FinishReason::kPreemptedUnrecoverable:
        ++report.oom_failures;
        break;
      case FinishReason::kInvalid:
        break;
    }
  }

  /// Retires request `index` — queued when `flight` is null — if its
  /// cancellation or deadline tick has come. True when it did.
  [[nodiscard]] bool expire_request(std::size_t index, InFlight* flight) {
    const Request& req = requests[index];
    const std::int64_t cancel_tick = progress[index].cancel_tick;
    FinishReason reason = FinishReason::kNone;
    std::string message;
    if (cancel_tick >= 0 && clock >= cancel_tick) {
      reason = FinishReason::kCancelled;
      message = "cancelled: fault-plan cancellation at tick " +
                std::to_string(cancel_tick);
    } else if (req.deadline_tick > 0 && clock >= req.deadline_tick) {
      reason = FinishReason::kTimeout;
      message = "timeout: deadline tick " + std::to_string(req.deadline_tick) +
                (flight ? " reached" : " reached while queued");
    } else {
      return false;
    }
    if (flight) {
      message += " with " +
                 std::to_string(report.results[index].generated.size()) +
                 " of " + std::to_string(req.max_new_tokens) + " tokens";
      vacate(*flight);
    }
    retire(index, reason, std::move(message));
    return true;
  }

  // keep_flights() callbacks: false when the flight left the batch.
  bool keep_unexpired(InFlight& flight) {
    return !expire_request(flight.request_index, &flight);
  }

  bool keep_reserved(InFlight& flight) {
    if (flight.requeue) {
      suspend(flight);
      return false;
    }
    if (flight.reserve_error.empty()) return true;
    const FinishReason reason =
        report.results[flight.request_index].preemptions > 0
            ? FinishReason::kPreemptedUnrecoverable
            : FinishReason::kOom;
    vacate(flight);
    retire(flight.request_index, reason,
           std::string(finish_reason_name(reason)) + ": " +
               flight.reserve_error + " at tick " + std::to_string(clock));
    return false;
  }

  bool keep_unfinished(InFlight& flight) {
    const std::size_t index = flight.request_index;
    if (static_cast<int>(report.results[index].generated.size()) <
        requests[index].max_new_tokens)
      return true;
    vacate(flight);
    retire(index, FinishReason::kNone, {});
    return false;
  }

  /// Calls `keep` on every active flight in admission order and drops the
  /// flights it returns false for (it suspended or retired them).
  void keep_flights(bool (Run::*keep)(InFlight&)) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (!(this->*keep)(active[i])) continue;
      if (kept != i) active[kept] = std::move(active[i]);
      ++kept;
    }
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(kept),
                 active.end());
  }

  /// Simulates a bill on `hw`, charges its MACs and energy to the run and
  /// returns its simulated seconds.
  double settle(const accel::AcceleratorConfig& hw,
                const std::vector<accel::GemmShape>& bill) {
    const accel::RunStats stats = accel::simulate_workload(hw, bill);
    report.simulated_macs += stats.gemm.macs;
    energy.core_j += stats.energy.core_j;
    energy.buffer_j += stats.energy.buffer_j;
    energy.dram_j += stats.energy.dram_j;
    energy.static_j += stats.energy.static_j;
    return stats.seconds;
  }

  // --- State ---

  Engine& engine;
  const llm::ModelConfig& cfg;
  Report report;
  std::vector<Request> requests;
  std::vector<Progress> progress;
  /// Valid request indices ordered by (arrival_tick, submit order), so
  /// closed-loop traffic reaches `waiting` in submit order.
  std::vector<std::size_t> arrivals;
  std::size_t next_arrival = 0;
  std::deque<std::size_t> waiting;
  std::vector<InFlight> active;
  /// With one shared pipeline a "slot" is just admission headroom: how
  /// many more requests this tick's fused batch may carry.
  int free_slots = 0;
  std::int64_t clock = 0;
  /// A fault-plan exhaustion window covers this tick: nothing is admitted
  /// and no reserve may take a fresh page.
  bool frozen = false;
  PagedKVPool kv;
  bool sharing = false;
  /// The KV buffer macro pricing each tick's cache traffic. Sized to the
  /// *packed* pool, so a quantised kv_format shrinks the macro and its
  /// per-access energy along with the resident bytes.
  hw::SramMacro kv_sram;
  /// One position's packed K+V bytes across all layers: the unit of KV
  /// traffic pricing.
  std::int64_t token_kv_bytes = 0;

  // Per-tick scratch, reused across ticks: once each vector has hit its
  // high-water mark it stops reallocating. The run as a whole is not
  // allocation-free (perfbench's allocs_per_token is about 1.1 on
  // decode-bbfp; see perfbench/METRICS.md).
  std::vector<std::size_t> candidates;  ///< policy input (pick/preempt)
  std::vector<int> prefill_remaining;   ///< prompt tokens left, per flight
  std::vector<int> prefill_grants;      ///< plan_prefill output, per flight
  std::vector<int> tick_tokens;
  std::vector<llm::KVCacheView*> tick_views;
  std::vector<int> tick_counts;  ///< rows per view (step_groups)
  llm::Matrix tick_logits;
  std::vector<int> draft_tokens;
  std::vector<llm::KVCacheView*> draft_views;
  llm::Matrix draft_logits;
  // GEMM bills: each tick's shapes per accelerator, appended by
  // accel::append_prefill_chunk_gemms into reused storage.
  std::vector<accel::GemmShape> target_bill;
  std::vector<accel::GemmShape> draft_bill;
  std::vector<accel::GemmShape> equiv_bill;  ///< target-only counterfactual

  // Run accumulators.
  double tick_seconds = 0.0;  ///< simulated latency of the current tick
  double sim_makespan = 0.0;  ///< sum of per-tick simulated latencies
  double target_equiv_seconds = 0.0;  ///< counterfactual (speculative runs)
  double requeue_delay_sum = 0.0;
  double kv_energy_j = 0.0;
  accel::EnergyBreakdown energy;
  std::vector<double> token_latencies;   ///< simulated, per emitted token
  std::vector<double> inter_token_gaps;  ///< gaps between a request's tokens
  std::int64_t occupancy_sum = 0;
  std::int64_t kv_pages_sum = 0;            ///< pages in use, summed per tick
  std::int64_t contiguous_peak_tokens = 0;  ///< monolithic-cache comparison
  std::chrono::steady_clock::time_point run_start;
};

Report Engine::run() {
  Run run(*this, std::exchange(queue_, {}));
  while (run.live()) {
    run.deliver();
    run.expire();
    if (run.skip_idle() || !run.admit()) continue;
    run.plan();
    if (!run.reserve()) continue;
    run.draft();
    run.price();
    run.forward();
    run.bookkeep();
  }
  return run.finish();
}

// --- Report ------------------------------------------------------------------

const char* finish_reason_name(FinishReason reason) {
  switch (reason) {
    case FinishReason::kNone:
      return "none";
    case FinishReason::kInvalid:
      return "invalid";
    case FinishReason::kTimeout:
      return "timeout";
    case FinishReason::kCancelled:
      return "cancelled";
    case FinishReason::kPreemptedUnrecoverable:
      return "preempted_unrecoverable";
    case FinishReason::kOom:
      return "oom";
  }
  return "unknown";
}

namespace {

void append_json(std::ostringstream& os, const char* key, double v) {
  os << ", \"" << key << "\": " << v;
}

/// Count fields (token totals, hashes) are exact-match in the CI gate, so
/// they must serialise at full precision, not the double default.
void append_json_int(std::ostringstream& os, const char* key,
                     std::int64_t v) {
  os << ", \"" << key << "\": " << v;
}

}  // namespace

std::string Report::to_json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"model\": \"" << model << "\", \"matmul\": \"" << matmul
     << "\", \"nonlinear\": \"" << nonlinear << "\", \"policy\": \""
     << policy << "\"";
  if (!kv_format.empty()) os << ", \"kv_format\": \"" << kv_format << "\"";
  if (!workload.empty()) os << ", \"workload\": \"" << workload << "\"";
  append_json_int(os, "requests", requests);
  append_json_int(os, "completed", completed);
  append_json_int(os, "max_batch", max_batch);
  // Prefill block only when chunking is on: default-configured rows stay
  // byte-exact with the pre-chunking engine (the correctness bar every
  // committed BENCH_serve.json / BENCH_slo.json row is held to).
  if (prefill_chunk != 1 || prefill_budget != 0) {
    append_json_int(os, "prefill_chunk", prefill_chunk);
    append_json_int(os, "prefill_budget", prefill_budget);
    append_json_int(os, "mixed_ticks", mixed_ticks);
  }
  // Speculative block only when a draft backend ran: default rows stay
  // byte-exact with the pre-speculative engine.
  if (draft_k > 0) {
    os << ", \"draft\": \"" << draft << "\"";
    append_json_int(os, "draft_k", draft_k);
    append_json_int(os, "draft_cycles", draft_cycles);
    append_json_int(os, "drafted_tokens", drafted_tokens);
    append_json_int(os, "accepted_tokens", accepted_tokens);
    append_json(os, "acceptance_rate", acceptance_rate);
    if (has_cost) append_json(os, "speedup_vs_target", speedup_vs_target);
  }
  // Fault/preemption block only when faults, deadlines or preemption were
  // configured: default rows stay byte-exact with the pre-faults engine.
  if (has_faults) {
    if (!fault_plan.empty())
      os << ", \"fault_plan\": \"" << fault_plan << "\"";
    append_json_int(os, "preempt", preempt ? 1 : 0);
    append_json_int(os, "preemptions", preemptions);
    append_json_int(os, "resumes", resumes);
    append_json(os, "requeue_delay_mean_ticks", requeue_delay_mean_ticks);
    append_json_int(os, "preempt_recompute_tokens", preempt_recompute_tokens);
    if (has_cost)
      append_json(os, "preempt_recompute_seconds", preempt_recompute_seconds);
    append_json_int(os, "timeouts", timeouts);
    append_json_int(os, "cancellations", cancellations);
    append_json_int(os, "oom_failures", oom_failures);
  }
  append_json_int(os, "prompt_tokens", prompt_tokens);
  append_json_int(os, "generated_tokens", generated_tokens);
  append_json_int(os, "engine_steps", engine_steps);
  append_json_int(os, "clock_ticks", clock_ticks);
  append_json(os, "mean_batch_occupancy", mean_batch_occupancy);
  append_json(os, "queue_delay_mean_ticks", queue_delay_mean_ticks);
  append_json(os, "queue_delay_p99_ticks", queue_delay_p99_ticks);
  append_json(os, "offered_tokens_per_tick", offered_tokens_per_tick);
  append_json(os, "throughput_tokens_per_tick", throughput_tokens_per_tick);
  append_json_int(os, "stream_hash", static_cast<std::int64_t>(stream_hash));
  append_json_int(os, "weights_bytes", weights_bytes);
  append_json_int(os, "kv_pages_allocated", kv_pages_allocated);
  append_json_int(os, "kv_bytes_peak", kv_bytes_peak);
  append_json_int(os, "kv_bytes_peak_contiguous", kv_bytes_peak_contiguous);
  append_json(os, "prefix_hit_rate", prefix_hit_rate);
  append_json(os, "kv_pool_occupancy", kv_pool_occupancy);
  if (has_cost) {
    append_json_int(os, "simulated_macs", simulated_macs);
    append_json(os, "total_seconds", total_seconds);
    append_json(os, "throughput_tokens_per_second",
                throughput_tokens_per_second);
    append_json(os, "ttft_mean_seconds", ttft_mean_seconds);
    append_json(os, "p50_step_seconds", p50_step_seconds);
    append_json(os, "p95_step_seconds", p95_step_seconds);
    append_json(os, "p99_step_seconds", p99_step_seconds);
    append_json(os, "p99_ttft_seconds", p99_ttft_seconds);
    append_json(os, "p50_inter_token_seconds", p50_inter_token_seconds);
    append_json(os, "p95_inter_token_seconds", p95_inter_token_seconds);
    append_json(os, "p99_inter_token_seconds", p99_inter_token_seconds);
    append_json(os, "energy_j", energy_j);
    append_json(os, "kv_energy_j", kv_energy_j);
  }
  if (has_slo) {
    append_json(os, "slo_ttft_seconds", slo_ttft_seconds);
    append_json(os, "slo_inter_token_seconds", slo_inter_token_seconds);
    append_json_int(os, "slo_met", slo_met);
    append_json(os, "goodput_under_slo", goodput_under_slo);
  }
  os << "}";
  return os.str();
}

}  // namespace bbal::serve
