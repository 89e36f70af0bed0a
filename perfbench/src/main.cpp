// Host-clock benchmark of the BBAL reproduction: how fast this code runs
// the paper's datapath (BBFP GEMMs, the LUT nonlinear unit, quantised KV
// pages) end to end and layer by layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--table2-baseline BENCH_table2.json] [--trace-out FILE]
//   perfbench --selftest
//
// Workloads (perfbench/METRICS.md gives the reasoning behind each):
//   decode-bbfp          the full BBAL stack serving a closed-loop,
//                        decode-heavy mix
//   prefill-shared-fp16  FP16 serving of long prompts that half-share a
//                        prefix, open loop, pool cap with preemption
//   sweep-table2         every Table II cell through SweepRunner
//
// Every run checks its outputs: each served stream against a reference
// decode of that request alone, each sweep cell against the exact-gated
// fields of its committed BENCH_table2.json row, and the traced run
// against the untraced one. The last stdout line is a JSON object with
// the keys correct, attempted, failed and metrics; the exit code is 1 when
// any check fails.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "accel/config.hpp"
#include "accel/simulator.hpp"
#include "accel/workload.hpp"
#include "bbal/registry.hpp"
#include "bbal/session.hpp"
#include "bbal/sweep.hpp"
#include "common/rng.hpp"
#include "common/threadpool.hpp"
#include "llm/backend.hpp"
#include "llm/decoder.hpp"
#include "llm/transformer.hpp"
#include "alloc.hpp"
#include "probe.hpp"
#include "quant/kv_codec.hpp"
#include "serve/engine.hpp"
#include "serve/load.hpp"
#include "serve/paged_kv.hpp"
#include "serve/workload.hpp"

namespace {

using namespace bbal;
using perfbench::Layer;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Statistics --------------------------------------------------------------

/// Nearest-rank percentile, p in permille (900 = p90).
double percentile(std::vector<double> values, int permille) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const std::size_t rank =
      std::max<std::size_t>(1, (static_cast<std::size_t>(permille) * n + 999) / 1000);
  return values[rank - 1];
}

/// Samples strictly above the nearest-rank percentile.
std::size_t samples_beyond(std::size_t n, int permille) {
  const std::size_t rank = (static_cast<std::size_t>(permille) * n + 999) / 1000;
  return n - std::min(n, rank);
}

/// Highest of p50/p90/p99/p99.9 (in permille) with at least ten samples
/// beyond it; 0 when not even the median has (fewer than 20 samples).
int supported_percentile(std::size_t n) {
  int best = 0;
  for (const int p : {500, 900, 990, 999})
    if (samples_beyond(n, p) >= 10) best = p;
  return best;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// --- Result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Output checks of one benchmark process.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> mismatches;

  void mismatch(std::string what) {
    if (mismatches.size() < 20) std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
    mismatches.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const { return mismatches.empty(); }
};

double ok_share(const Checks& checks) {
  return 1.0 - static_cast<double>(checks.failed) / static_cast<double>(checks.attempted);
}

int finish(const Checks& checks, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              checks.correct() ? "true" : "false",
              static_cast<long long>(checks.attempted),
              static_cast<long long>(checks.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return checks.correct() ? 0 : 1;
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string table2_baseline = "BENCH_table2.json";
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      a.selftest = true;
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      a.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--table2-baseline" && has_value) {
      a.table2_baseline = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      a.trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: bad argument \"%s\"\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (!a.selftest && a.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return std::nullopt;
  }
  return a;
}

// --- Shared constants ----------------------------------------------------------

constexpr char kModel[] = "Llama-7B";
constexpr int kServeEvalTokens = 128;  // tools/record_serve's default
constexpr int kSweepEvalTokens = 256;  // BENCH_table2.json's eval_tokens
constexpr double kIsoAreaUm2 = 150000.0;
/// Set-up is repeated and its median reported, so one slow set-up (page
/// faults, a neighbour's burst) does not move setup_s. The repeats run after
/// the measured runs: in a probe, a sweep after five prepare/free cycles ran
/// 20-30% slower than after one (likely glibc's dynamic mmap threshold,
/// which a free raises, putting the next model in reused heap).
constexpr int kSetupRepeats = 3;
/// Measured repetitions per phase, whatever --seconds says.
constexpr int kMinReps = 3;
constexpr int kMaxReps = 400;

/// Repeat `rep` until `budget_s` has passed (at least kMinReps times).
template <typename Fn>
int repeat_for(double budget_s, Fn&& rep) {
  const auto t0 = Clock::now();
  int reps = 0;
  while (reps < kMinReps || (seconds_since(t0) < budget_s && reps < kMaxReps)) {
    rep();
    ++reps;
  }
  return reps;
}

/// Fisher-Yates shuffle drawing from the library's seeded Rng.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(v[i - 1], v[static_cast<std::size_t>(j)]);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t i) {
  return (seed + 1) * 0x9e3779b97f4a7c15ull ^ (i + 1) * 0xbf58476d1ce4e5b9ull;
}

// --- Per-layer metrics -------------------------------------------------------

/// Per-layer metrics of the traced phase, per run (one Engine::run() or
/// one SweepRunner::run()). Every workload reports every name; a layer a
/// workload does not exercise reads 0.
struct LayerReport {
  std::vector<Metric> metrics;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

void add_span_metrics(LayerReport& out, int reps) {
  const double per = 1.0 / std::max(1, reps);
  const std::pair<const char*, Layer> kGemms[] = {
      {"wq", Layer::kWq},     {"wk", Layer::kWk},     {"wv", Layer::kWv},
      {"wo", Layer::kWo},     {"gate", Layer::kGate}, {"up", Layer::kUp},
      {"down", Layer::kDown}, {"lm_head", Layer::kLmHead}};
  std::int64_t llm_allocs = 0;
  for (const auto& [name, layer] : kGemms) {
    const perfbench::LayerTotals t = perfbench::layer_totals(layer);
    const std::string p = std::string("llm.gemm.") + name;
    out.add(p + ".s", t.seconds * per, "s");
    out.add(p + ".calls", static_cast<double>(t.calls) * per, "count");
    out.add(p + ".rows", static_cast<double>(t.work) * per, "rows");
    llm_allocs += t.allocs;
  }
  const perfbench::LayerTotals other = perfbench::layer_totals(Layer::kGemmOther);
  if (other.calls > 0)
    std::fprintf(stderr, "perfbench: %lld GEMM calls on untagged weights\n",
                 static_cast<long long>(other.calls));
  const perfbench::LayerTotals attn = perfbench::layer_totals(Layer::kAttnDynamic);
  out.add("llm.attn_dynamic.s", attn.seconds * per, "s");
  out.add("llm.attn_dynamic.calls", static_cast<double>(attn.calls) * per, "count");
  llm_allocs += attn.allocs + other.allocs;

  std::int64_t nl_allocs = 0;
  for (const auto& [name, layer] :
       {std::pair<const char*, Layer>{"softmax", Layer::kSoftmax},
        std::pair<const char*, Layer>{"silu", Layer::kSilu}}) {
    const perfbench::LayerTotals t = perfbench::layer_totals(layer);
    const std::string p = std::string("nl.") + name;
    out.add(p + ".s", t.seconds * per, "s");
    out.add(p + ".calls", static_cast<double>(t.calls) * per, "count");
    out.add(p + ".elements", static_cast<double>(t.work) * per, "elements");
    nl_allocs += t.allocs;
  }
  const perfbench::LayerTotals run = perfbench::layer_totals(Layer::kServeRun);
  const perfbench::LayerTotals eval = perfbench::layer_totals(Layer::kSessionEvaluate);
  out.add("serve.engine_self.s", run.self_seconds * per, "s");
  out.add("bbal.session_self.s", eval.self_seconds * per, "s");
  out.add("llm.allocs", static_cast<double>(llm_allocs) * per, "count");
  out.add("nl.allocs", static_cast<double>(nl_allocs) * per, "count");
  out.add("serve.allocs", static_cast<double>(run.allocs) * per, "count");
}

/// The engine's scheduling counters; all 0 without a serving report.
void add_serve_counters(LayerReport& out, const serve::Report* report) {
  const serve::Report none;
  const serve::Report& r = report != nullptr ? *report : none;
  out.add("serve.steps", static_cast<double>(r.engine_steps), "count");
  out.add("serve.mixed_ticks", static_cast<double>(r.mixed_ticks), "count");
  out.add("serve.batch_occupancy", r.mean_batch_occupancy, "requests");
  out.add("serve.queue_delay_p99_ticks", r.queue_delay_p99_ticks, "ticks");
  out.add("serve.preemptions", static_cast<double>(r.preemptions), "count");
  out.add("serve.preempt_recompute_tokens", static_cast<double>(r.preempt_recompute_tokens),
          "tokens");
  out.add("serve.kv_pages_allocated", static_cast<double>(r.kv_pages_allocated), "count");
  out.add("serve.prefix_hit_rate", r.prefix_hit_rate, "ratio");
  out.add("serve.kv_pool_occupancy", r.kv_pool_occupancy, "ratio");
}

/// Median host time of `calls` invocations of fn, in ns per `units`,
/// over several batches (standalone replays of modules with no seam).
template <typename Fn>
double replay_ns(int calls, double units, Fn&& fn) {
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    batches.push_back(seconds_since(t0) * 1e9 / (calls * units));
  }
  return median(batches);
}

llm::Matrix random_matrix(int rows, int cols, std::uint64_t seed) {
  llm::Matrix m(rows, cols);
  Rng rng(seed);
  for (float& x : m.flat()) x = static_cast<float>(rng.gaussian());
  return m;
}

/// quant.* replays at a workload's shapes; 0 for a module it never runs.
void add_quant_replays(LayerReport& out, std::optional<quant::BlockFormat> act,
                       int act_rows, std::optional<quant::KvFormat> kv,
                       const llm::ModelConfig& cfg, std::uint64_t seed) {
  double act_ns = 0.0;
  if (act) {
    const llm::BlockQuantMatmulBackend backend(*act, *act);
    const llm::Matrix acts = random_matrix(act_rows, cfg.d_model, seed);
    llm::Matrix q;
    act_ns = replay_ns(2000 / act_rows + 1, act_rows,
                       [&] { backend.quantise_activations_into(acts, q); });
  }
  double enc_ns = 0.0;
  double dec_ns = 0.0;
  if (kv) {
    const quant::KvPageCodec codec(*kv, cfg.d_model);
    constexpr int kRows = 64;
    const llm::Matrix rows = random_matrix(kRows, cfg.d_model, seed + 1);
    std::vector<std::uint8_t> packed(kRows * codec.encoded_row_bytes());
    std::vector<float> decoded(static_cast<std::size_t>(cfg.d_model));
    const std::size_t stride = codec.encoded_row_bytes();
    auto row_bytes = [&](int r) {
      return std::span<std::uint8_t>(packed.data() + r * stride, stride);
    };
    enc_ns = replay_ns(20, kRows, [&] {
      for (int r = 0; r < kRows; ++r) codec.encode_row(rows.row(r), row_bytes(r));
    });
    dec_ns = replay_ns(20, kRows, [&] {
      for (int r = 0; r < kRows; ++r) codec.decode_row(row_bytes(r), decoded);
    });
  }
  out.add("quant.act_quantise.ns_per_row", act_ns, "ns");
  out.add("quant.kv_encode.ns_per_row", enc_ns, "ns");
  out.add("quant.kv_decode.ns_per_row", dec_ns, "ns");
}

// --- Serving workloads ---------------------------------------------------------

struct ServeWorkload {
  quant::StrategySpec matmul;
  quant::StrategySpec nonlinear;
  serve::Engine::Options options;
  std::vector<serve::Request> requests;
  /// One priced tick at the workload's typical shape (accel.price replay).
  std::vector<accel::GemmShape> typical_tick;
};

constexpr int kDecodeRequests = 104;
constexpr int kDecodeBatch = 8;

/// decode-bbfp: the paper's full stack on short prompts with long outputs,
/// all present at t=0 (closed loop: the next request enters when a slot
/// frees). Prompt lengths cycle through 6-16 and output lengths through
/// 16-28, the same multiset for every seed; the seed draws the token
/// contents and shuffles the order, so every seed decodes the same tokens'
/// worth of work and only the batching differs.
ServeWorkload decode_bbfp(const llm::ModelConfig& cfg, std::uint64_t seed) {
  ServeWorkload w;
  w.matmul = quant::spec_of("BBFP(4,2)");
  w.nonlinear = quant::spec_of("BBFP-LUT(10,5)");
  w.options.max_batch = kDecodeBatch;
  w.options.policy = "fifo";
  w.options.kv_format = "BBFP(4,2)";
  w.options.accelerator =
      accel::make_iso_area_config(w.matmul, kIsoAreaUm2).expect("iso-area config");
  int context = 0;
  for (int i = 0; i < kDecodeRequests; ++i) {
    const int prompt = 6 + i % 11;
    const int out = 16 + i % 13;
    w.requests.push_back(
        serve::synthetic_requests(cfg, 1, prompt, out, mix_seed(seed, i)).front());
    context += prompt + out / 2;
  }
  context /= kDecodeRequests;
  Rng rng(seed);
  shuffle(w.requests, rng);
  for (int r = 0; r < kDecodeBatch; ++r) {
    const auto step = accel::decode_step_gemms(cfg, context);
    w.typical_tick.insert(w.typical_tick.end(), step.begin(), step.end());
  }
  return w;
}

constexpr int kPrefillGroups = 8;
constexpr int kPrefillPerGroup = 14;
/// Every prompt is a 48-token group prefix plus a 44-token suffix, so the
/// seed moves token contents, order and arrival times but not the amount
/// of prompt work: with random lengths the GEMM row count, and so the host
/// time, differs by up to 12% between seeds.
constexpr int kPrefillPrefix = 48;
constexpr int kPrefillSuffix = 44;
constexpr int kPrefillChunk = 16;
/// The pool cap and arrival rate keep preemption on every seed (a few to a
/// few dozen suspensions) but avoid preemption storms, whose recompute
/// adds up to 15% more GEMM rows on some seeds than on others (as with a
/// 64-page pool at 0.2 requests per tick).
constexpr int kPrefillPoolPages = 80;
constexpr double kPrefillRate = 0.12;

/// prefill-shared-fp16: long prompts, each about half a prefix shared
/// with earlier requests of its group, Poisson arrivals (open loop) into a
/// capped pool that preempts under pressure.
ServeWorkload prefill_shared_fp16(const llm::ModelConfig& cfg, std::uint64_t seed) {
  ServeWorkload w;
  w.matmul = quant::spec_of("FP16");
  w.nonlinear = quant::spec_of("FP32");
  w.options.max_batch = 8;
  w.options.policy = "prefix-aware";
  w.options.prefill_chunk = kPrefillChunk;
  w.options.prefill_budget = 2 * kPrefillChunk;
  w.options.kv_pool_pages = kPrefillPoolPages;
  w.options.preempt = true;
  w.options.accelerator =
      accel::make_iso_area_config(w.matmul, kIsoAreaUm2).expect("iso-area config");
  w.options.slo = serve::Slo{0.010, 0.004};
  Rng rng(seed);
  int prompt_sum = 0;
  for (int g = 0; g < kPrefillGroups; ++g) {
    auto group = serve::shared_prefix_requests(cfg, kPrefillPerGroup, kPrefillPrefix,
                                               kPrefillSuffix,
                                               /*max_new_tokens=*/12, mix_seed(seed, g));
    for (auto& r : group) {
      prompt_sum += static_cast<int>(r.prompt.size());
      w.requests.push_back(std::move(r));
    }
  }
  // Interleave the groups: a prefix is shared with *earlier* requests of
  // its group, which arrive mixed with the other groups' traffic.
  shuffle(w.requests, rng);
  // Poisson arrivals at kPrefillRate requests per tick, conditioned on all
  // of them landing in the window count/rate: the order statistics of
  // uniform draws over the window. The offered load is then the same for
  // every seed; only where the bursts fall changes.
  const double window = static_cast<double>(w.requests.size()) / kPrefillRate;
  std::vector<std::int64_t> ticks;
  for (std::size_t i = 0; i < w.requests.size(); ++i)
    ticks.push_back(static_cast<std::int64_t>(rng.uniform(0.0, window)));
  std::sort(ticks.begin(), ticks.end());
  serve::stamp_arrivals(w.requests, ticks);
  const int mean_prompt = prompt_sum / static_cast<int>(w.requests.size());
  for (int r = 0; r < 6; ++r) {
    const auto step = accel::decode_step_gemms(cfg, mean_prompt + 6);
    w.typical_tick.insert(w.typical_tick.end(), step.begin(), step.end());
  }
  for (int r = 0; r < 2; ++r) {
    const auto step = accel::prefill_chunk_gemms(cfg, mean_prompt / 2, kPrefillChunk);
    w.typical_tick.insert(w.typical_tick.end(), step.begin(), step.end());
  }
  return w;
}

/// A backend pair, the model wired over it, and a decoder: what one
/// reference decode runs on.
struct Pipeline {
  std::unique_ptr<llm::MatmulBackend> matmul;
  std::unique_ptr<llm::NonlinearBackend> nonlinear;
  std::unique_ptr<llm::Transformer> model;
  std::unique_ptr<llm::Decoder> decoder;
};

Pipeline make_pipeline(const llm::PreparedModel& prepared, const ServeWorkload& w) {
  const BackendRegistry& registry = BackendRegistry::instance();
  Pipeline p;
  p.matmul = registry.make_matmul(w.matmul).expect("reference matmul");
  p.nonlinear = registry.make_nonlinear(w.nonlinear).expect("reference nonlinear");
  p.model = std::make_unique<llm::Transformer>(prepared.config, prepared.weights,
                                               *p.matmul, *p.nonlinear);
  p.model->set_logit_scale(prepared.logit_scale);
  p.decoder = std::make_unique<llm::Decoder>(*p.model);
  return p;
}

/// The stream the engine must produce for `req`: serve::reference_decode
/// over the engine's backend pair. Quantised KV pages change the values
/// attention reads back, so for those the same decode protocol runs
/// through a one-sequence pool in the engine's KV format.
std::vector<int> reference_stream(llm::Decoder& decoder, const llm::ModelConfig& cfg,
                                  const quant::KvFormat& kv, const serve::Request& req) {
  if (kv.kind == quant::KvFormat::Kind::kFp32) return serve::reference_decode(decoder, req);
  serve::PagedKVPool::Options po;
  po.kv_format = kv;
  const int positions = static_cast<int>(req.prompt.size()) + req.max_new_tokens;
  po.max_pages = positions / po.page_tokens + 2;
  serve::PagedKVPool pool(cfg, po);
  const serve::PagedKVPool::SeqId seq = pool.create();
  serve::PagedKVView view(pool, seq);
  std::vector<float> logits;
  auto feed = [&](int token) {
    pool.reserve_next(seq).expect("reference KV page");
    logits = decoder.step(token, view);
  };
  for (const int token : req.prompt) feed(token);
  std::vector<int> generated;
  while (static_cast<int>(generated.size()) < req.max_new_tokens) {
    const int best = serve::greedy_argmax(logits);
    generated.push_back(best);
    if (static_cast<int>(generated.size()) == req.max_new_tokens) break;
    feed(best);
  }
  return generated;
}

/// Reference streams for every request, decoded alone, spread over the
/// thread pool with one pipeline per chunk of requests.
std::vector<std::vector<int>> reference_streams(const llm::PreparedModel& prepared,
                                                const ServeWorkload& w) {
  const quant::KvFormat kv = quant::KvFormat::parse(w.options.kv_format).expect("kv format");
  std::vector<std::vector<int>> refs(w.requests.size());
  common::ThreadPool& pool = common::ThreadPool::global();
  const auto n = static_cast<std::int64_t>(refs.size());
  const std::int64_t grain = (n + pool.thread_count() - 1) / pool.thread_count();
  pool.parallel_for_chunks(0, n, grain, [&](std::int64_t c0, std::int64_t c1) {
    Pipeline p = make_pipeline(prepared, w);
    for (std::int64_t i = c0; i < c1; ++i)
      refs[static_cast<std::size_t>(i)] = reference_stream(
          *p.decoder, prepared.config, kv, w.requests[static_cast<std::size_t>(i)]);
  });
  return refs;
}

struct ServeRep {
  double wall_s = 0.0;
  std::uint64_t allocs = 0;
  serve::Report report;
};

ServeRep serve_once(serve::Engine& engine, const std::vector<serve::Request>& requests) {
  for (const serve::Request& r : requests) engine.submit(r);
  ServeRep rep;
  const std::uint64_t a0 = perfbench::alloc::total();
  const auto t0 = Clock::now();
  {
    const perfbench::ScopedSpan span(Layer::kServeRun, 0);
    rep.report = engine.run();
  }
  rep.wall_s = seconds_since(t0);
  rep.allocs = perfbench::alloc::total() - a0;
  return rep;
}

/// Check one run's outputs against the references (and, from the second
/// run on, its deterministic report fields against the first run's).
void check_serve(const serve::Report& r, const std::vector<std::vector<int>>& refs,
                 const std::string& first_json, const char* phase, Checks& checks) {
  checks.attempted += static_cast<std::int64_t>(refs.size());
  if (r.results.size() != refs.size()) {
    checks.failed += static_cast<std::int64_t>(refs.size());
    checks.mismatch(std::string(phase) + ": result count differs from requests");
    return;
  }
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const serve::RequestResult& res = r.results[i];
    if (res.ok) {
      if (res.generated != refs[i]) {
        ++checks.failed;
        checks.mismatch(std::string(phase) + ": request " + std::to_string(i) +
                        " differs from its reference decode");
      }
      continue;
    }
    ++checks.failed;
    if (res.reason == serve::FinishReason::kNone)
      checks.mismatch(std::string(phase) + ": request " + std::to_string(i) +
                      " failed without a typed reason");
    const bool prefix = res.generated.size() <= refs[i].size() &&
                        std::equal(res.generated.begin(), res.generated.end(),
                                   refs[i].begin());
    if (!prefix)
      checks.mismatch(std::string(phase) + ": partial stream of request " +
                      std::to_string(i) + " is not a prefix of its reference");
  }
  if (!first_json.empty() && r.to_json() != first_json)
    checks.mismatch(std::string(phase) + ": deterministic report fields differ between runs");
}

int run_serve(const Args& args, ServeWorkload (*make)(const llm::ModelConfig&, std::uint64_t)) {
  const llm::ModelConfig cfg = llm::config_by_name(kModel);
  const ServeWorkload w = make(cfg, args.seed);

  // Set-up: model preparation (calibration) plus engine construction,
  // which quantises the weights.
  std::shared_ptr<const llm::PreparedModel> prepared;
  std::optional<serve::Engine> engine;
  auto set_up = [&] {
    engine.reset();
    prepared.reset();
    const auto t0 = Clock::now();
    prepared = prepare_shared(kModel, kServeEvalTokens);
    engine.emplace(serve::Engine::create(prepared, w.matmul, w.nonlinear, w.options)
                       .expect("engine"));
    return seconds_since(t0);
  };
  std::vector<double> setups = {set_up()};

  // The traced engine is built next to the untraced one, before any
  // measurement, so both quantise their weights into the same kind of
  // memory. The decorators only forward calls until tracing is switched on.
  std::optional<serve::Engine> traced_engine;
  if (args.trace) {
    for (const std::string& s : perfbench::install_traced_backends({w.matmul, w.nonlinear},
                                                                   /*session_spans=*/false))
      std::fprintf(stderr, "perfbench: %s left untraced (registry factory changed)\n",
                   s.c_str());
    traced_engine.emplace(serve::Engine::create(prepared, w.matmul, w.nonlinear, w.options)
                              .expect("traced engine"));
  }

  const auto ref_t0 = Clock::now();
  const std::vector<std::vector<int>> refs = reference_streams(*prepared, w);
  std::fprintf(stderr, "perfbench: %zu reference decodes in %.2fs\n", refs.size(),
               seconds_since(ref_t0));

  Checks checks;
  std::string first_json;
  serve::Report first;
  std::vector<double> rates, allocs_per_token, walls;
  const int reps = repeat_for(args.trace ? args.seconds / 2 : args.seconds, [&] {
    ServeRep rep = serve_once(*engine, w.requests);
    check_serve(rep.report, refs, first_json, "untraced", checks);
    const double tokens = static_cast<double>(rep.report.generated_tokens);
    rates.push_back(tokens / rep.wall_s);
    allocs_per_token.push_back(static_cast<double>(rep.allocs) / tokens);
    walls.push_back(rep.wall_s);
    if (first_json.empty()) {
      first_json = rep.report.to_json();
      first = std::move(rep.report);
    }
  });
  std::fprintf(stderr, "perfbench: %d untraced runs, median %.3fs (min %.3fs, max %.3fs)\n",
               reps, median(walls), *std::min_element(walls.begin(), walls.end()),
               *std::max_element(walls.begin(), walls.end()));

  // Simulated latencies: deterministic for the seed, so one run's report
  // holds them. Each percentile needs ten samples beyond it.
  std::vector<double> ttft;
  std::size_t gaps = 0;
  for (const serve::RequestResult& res : first.results) {
    if (!res.ok) continue;
    ttft.push_back(res.ttft_seconds * 1e3);
    gaps += res.generated.empty() ? 0 : res.generated.size() - 1;
  }
  if (supported_percentile(ttft.size()) < 900 || supported_percentile(gaps) < 990)
    checks.mismatch("too few samples for the p90 TTFT / p99 inter-token percentiles");

  if (!args.trace) {
    while (static_cast<int>(setups.size()) < kSetupRepeats) setups.push_back(set_up());
    return finish(checks, {{"tokens_per_s", median(rates), "tokens/s"},
                           {"setup_s", median(setups), "s"},
                           {"peak_rss_mb", peak_rss_mb(), "MB"},
                           {"allocs_per_token", median(allocs_per_token), "count"},
                           {"ok_share", ok_share(checks), "ratio"},
                           {"sim_tokens_per_s", first.throughput_tokens_per_second,
                            "tokens/s"}});
  }

  // Traced phase: spans recorded in memory.
  perfbench::reset_traces();
  perfbench::set_tracing(true);
  std::vector<double> traced_walls;
  const int traced = repeat_for(args.seconds / 2, [&] {
    ServeRep rep = serve_once(*traced_engine, w.requests);
    check_serve(rep.report, refs, first_json, "traced", checks);
    traced_walls.push_back(rep.wall_s);
  });
  perfbench::set_tracing(false);
  if (!args.trace_out.empty() && !perfbench::write_spans(args.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());

  LayerReport layers;
  add_span_metrics(layers, traced);
  add_serve_counters(layers, &first);
  layers.add("serve.sim_ttft_ms_p50", percentile(ttft, 500), "ms");
  layers.add("serve.sim_ttft_ms_p90", percentile(ttft, 900), "ms");
  layers.add("serve.sim_itl_ms_p99", first.p99_inter_token_seconds * 1e3, "ms");
  layers.add("serve.goodput", first.has_slo ? first.goodput_under_slo : 0.0, "ratio");
  const auto kv = quant::KvFormat::parse(w.options.kv_format).expect("kv format");
  std::optional<quant::BlockFormat> act;
  if (w.matmul.is_block_format()) act = w.matmul.block_format().expect("format");
  add_quant_replays(layers, act, w.options.max_batch,
                    kv.kind == quant::KvFormat::Kind::kBlock ? std::optional(kv) : std::nullopt,
                    cfg, args.seed);
  accel::AcceleratorConfig accel_cfg = *w.options.accelerator;
  accel_cfg.strategy = w.matmul.to_string();
  layers.add("accel.price.us_per_tick", replay_ns(20, 1e3, [&] {
               (void)accel::simulate_workload(accel_cfg, w.typical_tick);
             }),
             "us");
  layers.add("trace.overhead_share", median(traced_walls) / median(walls), "ratio");
  return finish(checks, layers.metrics);
}

// --- Table II sweep ------------------------------------------------------------

/// One flat JSON object ({"key": "string" | number, ...}) as raw tokens.
using FlatRow = std::map<std::string, std::string>;

FlatRow parse_flat(std::string_view s) {
  constexpr auto npos = std::string_view::npos;
  FlatRow row;
  std::size_t i = 0;
  while ((i = s.find('"', i)) != npos) {
    const std::size_t key_end = s.find('"', i + 1);
    const std::size_t colon = key_end == npos ? npos : s.find(':', key_end);
    const std::size_t v = colon == npos ? npos : s.find_first_not_of(' ', colon + 1);
    if (v == npos) break;
    std::size_t end = 0;
    if (s[v] == '"') {
      end = s.find('"', v + 1);
      if (end == npos) break;
      ++end;
    } else {
      end = std::min(s.find_first_of(",}", v), s.size());
    }
    row[std::string(s.substr(i + 1, key_end - i - 1))] = std::string(s.substr(v, end - v));
    i = end;
  }
  return row;
}

/// The committed rows, keyed by matmul strategy.
std::optional<std::map<std::string, FlatRow>> load_table2(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  std::size_t i = text.find("\"rows\"");
  if (i == std::string::npos) return std::nullopt;
  std::map<std::string, FlatRow> rows;
  while ((i = text.find('{', i)) != std::string::npos) {
    const std::size_t end = text.find('}', i);
    if (end == std::string::npos) break;
    FlatRow row = parse_flat(std::string_view(text).substr(i, end - i + 1));
    const std::string key = row["matmul"];
    rows[key] = std::move(row);
    i = end + 1;
  }
  return rows;
}

/// bench_compare's rule: these name fragments mark rate-like fields, which
/// get a ±10% tolerance; every other field must match exactly.
bool rate_like(const std::string& key) {
  for (const char* frag : {"seconds", "throughput", "rate", "occupancy", "latency",
                           "delay", "goodput", "offered"})
    if (key.find(frag) != std::string::npos) return true;
  return false;
}

/// Returns whether the cell passed.
bool check_cell(const Result<Session::Report>& cell, const std::string& strategy,
                const std::map<std::string, FlatRow>& baseline, const char* phase,
                Checks& checks) {
  ++checks.attempted;
  if (!cell.is_ok()) {
    ++checks.failed;
    checks.mismatch(std::string(phase) + ": " + strategy + " failed: " + cell.message());
    return false;
  }
  const FlatRow got = parse_flat(cell.value().to_json());
  const auto it = baseline.find(got.count("matmul") ? got.at("matmul") : "");
  if (it == baseline.end()) {
    ++checks.failed;
    checks.mismatch(std::string(phase) + ": no committed row for " + strategy);
    return false;
  }
  bool ok = true;
  for (const auto& [field, want] : it->second) {
    const auto g = got.find(field);
    if (g == got.end()) {
      ok = false;
      checks.mismatch(std::string(phase) + ": " + strategy + " lacks " + field);
    } else if (rate_like(field)) {
      const double a = std::atof(g->second.c_str());
      const double b = std::atof(want.c_str());
      if (std::fabs(a - b) > 0.1 * std::fabs(b)) {
        ok = false;
        checks.mismatch(std::string(phase) + ": " + strategy + " " + field + " " +
                        g->second + " vs committed " + want);
      }
    } else if (g->second != want) {
      ok = false;
      checks.mismatch(std::string(phase) + ": " + strategy + " " + field + " " + g->second +
                      " vs committed " + want);
    }
  }
  if (!ok) ++checks.failed;
  return ok;
}

int run_sweep(const Args& args) {
  auto baseline = load_table2(args.table2_baseline);
  if (!baseline || baseline->empty()) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", args.table2_baseline.c_str());
    return 2;
  }

  // The seed only orders the cells; each cell's inputs are Table II's.
  std::vector<std::string> strategies = table2_strategies();
  Rng rng(args.seed);
  shuffle(strategies, rng);

  std::shared_ptr<const llm::PreparedModel> prepared;
  auto set_up = [&] {
    prepared.reset();
    const auto t0 = Clock::now();
    prepared = prepare_shared(kModel, kSweepEvalTokens);
    return seconds_since(t0);
  };
  std::vector<double> setups = {set_up()};

  auto make_sweep = [&] {
    SweepRunner sweep;
    sweep.eval_tokens(kSweepEvalTokens);
    for (const std::string& s : strategies) {
      SweepRunner::Item item;
      item.prepared = prepared;
      item.matmul = s;
      // The paper's 16x16 array, for every strategy with a PE design.
      if (BackendRegistry::instance().has_cost_model(quant::spec_of(s))) {
        accel::AcceleratorConfig cfg;
        cfg.array_rows = cfg.array_cols = 16;
        item.accelerator = cfg;
      }
      sweep.add(std::move(item));
    }
    return sweep;
  };
  const double tokens = static_cast<double>(kSweepEvalTokens) *
                        static_cast<double>(strategies.size());
  // Evaluated tokens per simulated second, over the cells with a cost model.
  double sim_tokens_per_s = 0.0;
  // Each cell's report from the first sweep: every later sweep, traced or
  // not, must reproduce it exactly.
  std::map<std::string, std::string> first_cells;
  auto sweep_once = [&](const char* phase, Checks& checks, std::vector<double>& walls,
                        std::vector<double>* allocs) {
    SweepRunner sweep = make_sweep();
    const std::uint64_t a0 = perfbench::alloc::total();
    const auto t0 = Clock::now();
    const SweepRunner::SweepResult result = sweep.run();
    walls.push_back(seconds_since(t0));
    if (allocs != nullptr)
      allocs->push_back(static_cast<double>(perfbench::alloc::total() - a0) / tokens);
    double sim_seconds = 0.0;
    int priced = 0;
    for (std::size_t i = 0; i < strategies.size(); ++i) {
      if (!check_cell(result.reports[i], strategies[i], *baseline, phase, checks)) continue;
      const Session::Report& report = result.reports[i].value();
      const std::string json = report.to_json();
      const auto [first, inserted] = first_cells.emplace(strategies[i], json);
      if (!inserted && first->second != json) {
        ++checks.failed;
        checks.mismatch(std::string(phase) + ": " + strategies[i] +
                        " report differs from the first sweep's");
      }
      if (report.has_cost) {
        sim_seconds += report.run.seconds;
        ++priced;
      }
    }
    if (sim_seconds > 0.0) sim_tokens_per_s = kSweepEvalTokens * priced / sim_seconds;
  };

  Checks checks;
  std::vector<double> walls, allocs_per_token;
  const int reps = repeat_for(args.trace ? args.seconds / 2 : args.seconds,
                              [&] { sweep_once("untraced", checks, walls, &allocs_per_token); });
  std::fprintf(stderr, "perfbench: %d untraced sweeps, median %.3fs (min %.3fs, max %.3fs)\n",
               reps, median(walls), *std::min_element(walls.begin(), walls.end()),
               *std::max_element(walls.begin(), walls.end()));

  if (!args.trace) {
    while (static_cast<int>(setups.size()) < kSetupRepeats) setups.push_back(set_up());
    std::vector<double> rates;
    for (const double wall : walls) rates.push_back(tokens / wall);
    return finish(checks, {{"tokens_per_s", median(rates), "tokens/s"},
                           {"setup_s", median(setups), "s"},
                           {"peak_rss_mb", peak_rss_mb(), "MB"},
                           {"allocs_per_token", median(allocs_per_token), "count"},
                           {"ok_share", ok_share(checks), "ratio"},
                           {"sim_tokens_per_s", sim_tokens_per_s, "tokens/s"}});
  }

  std::vector<quant::StrategySpec> specs = {quant::StrategySpec::fp32()};
  for (const std::string& s : strategies) specs.push_back(quant::spec_of(s));
  for (const std::string& s : perfbench::install_traced_backends(specs, /*session_spans=*/true))
    std::fprintf(stderr, "perfbench: %s left untraced (registry factory changed)\n", s.c_str());
  perfbench::reset_traces();
  perfbench::set_tracing(true);
  std::vector<double> traced_walls;
  const int traced = repeat_for(args.seconds / 2, [&] {
    sweep_once("traced", checks, traced_walls, nullptr);
  });
  perfbench::set_tracing(false);
  if (!args.trace_out.empty() && !perfbench::write_spans(args.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());

  LayerReport layers;
  add_span_metrics(layers, traced);
  add_serve_counters(layers, nullptr);
  for (const char* name : {"serve.sim_ttft_ms_p50", "serve.sim_ttft_ms_p90",
                           "serve.sim_itl_ms_p99"})
    layers.add(name, 0.0, "ms");
  layers.add("serve.goodput", 0.0, "ratio");
  add_quant_replays(layers, quant::spec_of("BBFP(4,2)").block_format().expect("format"),
                    kSweepEvalTokens, std::nullopt, prepared->config, args.seed);
  layers.add("accel.price.us_per_tick", 0.0, "us");
  layers.add("trace.overhead_share", median(traced_walls) / median(walls), "ratio");
  return finish(checks, layers.metrics);
}

// --- Self-tests ----------------------------------------------------------------

int selftest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "%s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Percentile helper: a percentile is reported only with >= 10 samples
  // beyond it.
  expect(supported_percentile(19) == 0, "19 samples support no percentile");
  expect(supported_percentile(20) == 500, "20 samples support the median");
  expect(supported_percentile(99) == 500, "99 samples do not support p90");
  expect(supported_percentile(100) == 900, "100 samples support p90");
  expect(supported_percentile(1000) == 990, "1000 samples support p99");
  expect(supported_percentile(10000) == 999, "10000 samples support p99.9");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  expect(percentile(ramp, 900) == 90.0 && samples_beyond(ramp.size(), 900) == 10,
         "p90 of 1..100 is 90 with 10 samples beyond");

  // Allocation counter: a known allocation is counted once, and inside a
  // span it is charged to that span's layer.
  {
    const std::uint64_t a0 = perfbench::alloc::total();
    void* p = ::operator new(64);
    const std::uint64_t a1 = perfbench::alloc::total();
    ::operator delete(p);
    expect(a1 - a0 == 1, "one operator new is counted once");
    perfbench::reset_traces();
    perfbench::set_tracing(true);
    {
      const perfbench::ScopedSpan span(Layer::kSilu, 1);
      void* q = ::operator new(32);
      ::operator delete(q);
    }
    perfbench::set_tracing(false);
    expect(perfbench::layer_totals(Layer::kSilu).allocs == 1,
           "an allocation inside a span is charged to its layer");
    perfbench::reset_traces();
  }

  // Decorators forward bit-identically: the same stream hash with and
  // without them, on a small model through the full BBAL stack.
  {
    llm::ModelConfig cfg = llm::config_by_name(kModel);
    cfg.name = "selftest";
    cfg.d_model = 32;
    cfg.n_layers = 2;
    cfg.n_heads = 2;
    cfg.d_ff = 96;
    const auto prepared = prepare_shared(cfg, /*eval_tokens=*/64);
    serve::Engine::Options options;
    options.max_batch = 3;
    options.kv_format = "BBFP(4,2)";
    const auto requests = serve::synthetic_requests(cfg, 6, 5, 8, 7);
    auto hash = [&] {
      auto engine = serve::Engine::create(prepared, "BBFP(4,2)", "BBFP-LUT(10,5)", options)
                        .expect("engine");
      for (const auto& r : requests) engine.submit(r);
      return engine.run().stream_hash;
    };
    const std::uint32_t plain = hash();
    const auto skipped = perfbench::install_traced_backends(
        {quant::spec_of("BBFP(4,2)"), quant::spec_of("BBFP-LUT(10,5)")}, false);
    expect(skipped.empty(), "decorators install on the BBAL stack");
    perfbench::reset_traces();
    perfbench::set_tracing(true);
    const std::uint32_t traced = hash();
    perfbench::set_tracing(false);
    expect(plain == traced, "stream hash is identical with and without decorators");
    expect(perfbench::layer_totals(Layer::kWq).calls > 0 &&
               perfbench::layer_totals(Layer::kSoftmax).calls > 0,
           "decorators see projection and softmax calls");
  }
  std::fprintf(stderr, "%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) return 2;
  if (args->selftest) return selftest();
  if (args->workload == "decode-bbfp") return run_serve(*args, decode_bbfp);
  if (args->workload == "prefill-shared-fp16") return run_serve(*args, prefill_shared_fp16);
  if (args->workload == "sweep-table2") return run_sweep(*args);
  std::fprintf(stderr, "perfbench: unknown workload \"%s\"\n", args->workload.c_str());
  return 2;
}
