#include "probe.hpp"

#include "alloc.hpp"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <typeinfo>
#include <utility>

#include "baselines/quant_baselines.hpp"
#include "bbal/registry.hpp"
#include "llm/backend.hpp"
#include "nl/backends.hpp"

namespace perfbench {
namespace {

constexpr int kLayers = static_cast<int>(Layer::kCount);
/// Spans kept for write_spans(); later spans still feed the totals.
constexpr std::int64_t kMaxStoredSpans = 100000;
constexpr int kMaxDepth = 16;

std::array<std::atomic<std::int64_t>, kLayers> g_total_ns{};
std::array<std::atomic<std::int64_t>, kLayers> g_self_ns{};
std::array<std::atomic<std::int64_t>, kLayers> g_calls{};
std::array<std::atomic<std::int64_t>, kLayers> g_work{};
std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_stored{0};
std::atomic<std::int64_t> g_dropped{0};

struct SpanRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t work = 0;
  std::int32_t parent = -1;
  std::int32_t layer = 0;
};

struct OpenSpan {
  Layer layer = Layer::kGemmOther;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::int32_t index = -1;  ///< record slot, -1 when not stored
  int prev_layer = -1;
};

struct ThreadLog {
  int thread = 0;
  std::vector<SpanRecord> spans;
  std::array<OpenSpan, kMaxDepth> stack{};
  int depth = 0;
};

std::mutex g_logs_mutex;  ///< guards g_logs
std::vector<std::unique_ptr<ThreadLog>> g_logs;
thread_local ThreadLog* t_log = nullptr;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadLog& thread_log() {
  if (t_log == nullptr) {
    alloc::t_quiet = true;
    auto log = std::make_unique<ThreadLog>();
    std::lock_guard<std::mutex> lk(g_logs_mutex);
    log->thread = static_cast<int>(g_logs.size());
    t_log = log.get();
    g_logs.push_back(std::move(log));
    alloc::t_quiet = false;
  }
  return *t_log;
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kWq: return "wq";
    case Layer::kWk: return "wk";
    case Layer::kWv: return "wv";
    case Layer::kWo: return "wo";
    case Layer::kGate: return "gate";
    case Layer::kUp: return "up";
    case Layer::kDown: return "down";
    case Layer::kLmHead: return "lm_head";
    case Layer::kGemmOther: return "gemm_other";
    case Layer::kAttnDynamic: return "attn_dynamic";
    case Layer::kSoftmax: return "softmax";
    case Layer::kSilu: return "silu";
    case Layer::kServeRun: return "serve_run";
    case Layer::kSessionEvaluate: return "session_evaluate";
    case Layer::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on); }

LayerTotals layer_totals(Layer layer) {
  const auto i = static_cast<std::size_t>(layer);
  LayerTotals t;
  t.seconds = static_cast<double>(g_total_ns[i].load()) * 1e-9;
  t.self_seconds = static_cast<double>(g_self_ns[i].load()) * 1e-9;
  t.calls = g_calls[i].load();
  t.work = g_work[i].load();
  t.allocs = alloc::layer_allocs(static_cast<int>(i));
  return t;
}

void reset_traces() {
  for (int i = 0; i < kLayers; ++i) {
    g_total_ns[static_cast<std::size_t>(i)] = 0;
    g_self_ns[static_cast<std::size_t>(i)] = 0;
    g_calls[static_cast<std::size_t>(i)] = 0;
    g_work[static_cast<std::size_t>(i)] = 0;
  }
  alloc::reset_layer_allocs();
  std::lock_guard<std::mutex> lk(g_logs_mutex);
  for (auto& log : g_logs) log->spans.clear();
  g_stored = 0;
  g_dropped = 0;
}

bool write_spans(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "# thread\tindex\tparent\tlayer\tstart_ns\tend_ns\twork"
                    "\t(dropped spans: %lld)\n",
               static_cast<long long>(g_dropped.load()));
  std::lock_guard<std::mutex> lk(g_logs_mutex);
  for (const auto& log : g_logs) {
    for (std::size_t i = 0; i < log->spans.size(); ++i) {
      const SpanRecord& s = log->spans[i];
      std::fprintf(out, "%d\t%zu\t%d\t%s\t%lld\t%lld\t%lld\n", log->thread, i,
                   s.parent, layer_name(static_cast<Layer>(s.layer)),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.work));
    }
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Layer layer, std::int64_t work) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  ThreadLog& log = thread_log();
  if (log.depth >= kMaxDepth) return;
  OpenSpan& open = log.stack[static_cast<std::size_t>(log.depth)];
  open.layer = layer;
  open.child_ns = 0;
  open.prev_layer = alloc::t_layer;
  open.index = -1;
  if (g_stored.fetch_add(1, std::memory_order_relaxed) < kMaxStoredSpans) {
    SpanRecord rec;
    rec.work = work;
    rec.layer = static_cast<std::int32_t>(layer);
    rec.parent = log.depth > 0
                     ? log.stack[static_cast<std::size_t>(log.depth - 1)].index
                     : -1;
    alloc::t_quiet = true;
    log.spans.push_back(rec);
    alloc::t_quiet = false;
    open.index = static_cast<std::int32_t>(log.spans.size() - 1);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  ++log.depth;
  alloc::t_layer = static_cast<int>(layer);
  const auto li = static_cast<std::size_t>(layer);
  g_calls[li].fetch_add(1, std::memory_order_relaxed);
  g_work[li].fetch_add(work, std::memory_order_relaxed);
  open_ = true;
  open.start_ns = now_ns();  // last, so the bookkeeping above is excluded
}

ScopedSpan::~ScopedSpan() {
  if (!open_) return;
  const std::int64_t end = now_ns();
  ThreadLog& log = *t_log;
  --log.depth;
  const OpenSpan& open = log.stack[static_cast<std::size_t>(log.depth)];
  const std::int64_t duration = end - open.start_ns;
  if (log.depth > 0)
    log.stack[static_cast<std::size_t>(log.depth - 1)].child_ns += duration;
  alloc::t_layer = open.prev_layer;
  const auto li = static_cast<std::size_t>(open.layer);
  g_total_ns[li].fetch_add(duration, std::memory_order_relaxed);
  g_self_ns[li].fetch_add(duration - open.child_ns, std::memory_order_relaxed);
  if (open.index >= 0) {
    SpanRecord& rec = log.spans[static_cast<std::size_t>(open.index)];
    rec.start_ns = open.start_ns;
    rec.end_ns = end;
  }
}

// --- Decorators ---------------------------------------------------------------

namespace {

using bbal::quant::StrategyFamily;
using bbal::quant::StrategySpec;
using MatmulPtr = std::unique_ptr<bbal::llm::MatmulBackend>;
using NonlinearPtr = std::unique_ptr<bbal::llm::NonlinearBackend>;
using MatmulR = bbal::Result<MatmulPtr>;
using NonlinearR = bbal::Result<NonlinearPtr>;

Layer layer_of_tag(const std::string& tag) {
  static const std::pair<std::string, Layer> kTags[] = {
      {"wq", Layer::kWq},     {"wk", Layer::kWk},     {"wv", Layer::kWv},
      {"wo", Layer::kWo},     {"gate", Layer::kGate}, {"up", Layer::kUp},
      {"down", Layer::kDown}, {"lm_head", Layer::kLmHead}};
  for (const auto& [name, layer] : kTags) {
    if (tag == name) return layer;
    const std::string suffix = "." + name;
    if (tag.size() > suffix.size() &&
        tag.compare(tag.size() - suffix.size(), suffix.size(), suffix) == 0)
      return layer;
  }
  return Layer::kGemmOther;
}

class TracedMatmul final : public bbal::llm::MatmulBackend {
 public:
  TracedMatmul(MatmulPtr inner, bool session_span) : inner_(std::move(inner)) {
    if (session_span) session_.emplace(Layer::kSessionEvaluate, 0);
  }

  int prepare_weights(const bbal::llm::Matrix& w,
                      const std::string& tag) override {
    const int handle = inner_->prepare_weights(w, tag);
    if (handle >= static_cast<int>(layers_.size()))
      layers_.resize(static_cast<std::size_t>(handle) + 1, Layer::kGemmOther);
    layers_[static_cast<std::size_t>(handle)] = layer_of_tag(tag);
    return handle;
  }
  void matmul(const bbal::llm::Matrix& acts, int weight_handle,
              bbal::llm::Matrix& out) override {
    const ScopedSpan span(layers_[static_cast<std::size_t>(weight_handle)],
                          acts.rows());
    inner_->matmul(acts, weight_handle, out);
  }
  void matmul_dynamic(const bbal::llm::Matrix& a, const bbal::llm::Matrix& b,
                      bbal::llm::Matrix& out) override {
    const ScopedSpan span(Layer::kAttnDynamic, a.rows());
    inner_->matmul_dynamic(a, b, out);
  }
  [[nodiscard]] std::int64_t weights_bytes() const override {
    return inner_->weights_bytes();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  // Declared first so the lifetime span also covers the inner backend's
  // destruction.
  std::optional<ScopedSpan> session_;
  MatmulPtr inner_;
  std::vector<Layer> layers_;  ///< per weight handle
};

class TracedNonlinear final : public bbal::llm::NonlinearBackend {
 public:
  explicit TracedNonlinear(NonlinearPtr inner) : inner_(std::move(inner)) {}

  void softmax(std::span<float> xs) override {
    const ScopedSpan span(Layer::kSoftmax, static_cast<std::int64_t>(xs.size()));
    inner_->softmax(xs);
  }
  void silu(std::span<float> xs) override {
    const ScopedSpan span(Layer::kSilu, static_cast<std::int64_t>(xs.size()));
    inner_->silu(xs);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  NonlinearPtr inner_;
};

// The built-in registrations (bbal/registry.cpp), rebuilt from the same
// public constructors for the families the workloads use.
MatmulR rebuild_matmul(const StrategySpec& spec) {
  switch (spec.family) {
    case StrategyFamily::kFp32:
    case StrategyFamily::kFp16:
      return MatmulPtr(std::make_unique<bbal::llm::Fp32MatmulBackend>());
    case StrategyFamily::kInt:
      return MatmulPtr(std::make_unique<bbal::baselines::IntQuantBackend>(
          spec.bits, spec.bits));
    case StrategyFamily::kBfp:
    case StrategyFamily::kBbfp: {
      auto fmt = spec.block_format();
      if (!fmt.is_ok()) return MatmulR::error(fmt.message());
      return MatmulPtr(bbal::llm::make_block_backend(fmt.value()));
    }
    case StrategyFamily::kOltron:
      return MatmulPtr(std::make_unique<bbal::baselines::OltronBackend>());
    case StrategyFamily::kOlive:
      return MatmulPtr(std::make_unique<bbal::baselines::OliveBackend>());
    case StrategyFamily::kOmniquant:
      return MatmulPtr(std::make_unique<bbal::baselines::OmniquantBackend>());
    default:
      return MatmulR::error("no traced matmul for " + spec.to_string());
  }
}

NonlinearR rebuild_nonlinear(const StrategySpec& spec) {
  switch (spec.family) {
    case StrategyFamily::kFp32:
      return NonlinearPtr(std::make_unique<bbal::llm::Fp32NonlinearBackend>());
    case StrategyFamily::kLutBbfp:
    case StrategyFamily::kLutBfp: {
      auto fmt = spec.block_format();
      if (!fmt.is_ok()) return NonlinearR::error(fmt.message());
      return NonlinearPtr(std::make_unique<bbal::nl::LutNonlinearBackend>(
          fmt.value(), spec.nl_scope != bbal::quant::NlScope::kSiluOnly,
          spec.nl_scope != bbal::quant::NlScope::kSoftmaxOnly));
    }
    default:
      return NonlinearR::error("no traced nonlinear for " + spec.to_string());
  }
}

template <typename Ptr>
bool same_backend(const bbal::Result<Ptr>& registry, const bbal::Result<Ptr>& rebuilt) {
  if (!registry.is_ok() || !rebuilt.is_ok()) return false;
  const auto& a = *registry.value();
  const auto& b = *rebuilt.value();
  return typeid(a) == typeid(b) && a.name() == b.name();
}

}  // namespace

std::vector<std::string> install_traced_backends(
    const std::vector<StrategySpec>& specs, bool session_spans) {
  bbal::BackendRegistry& registry = bbal::BackendRegistry::instance();
  std::vector<std::string> skipped;
  std::vector<StrategyFamily> done;
  for (const StrategySpec& spec : specs) {
    bool seen = false;
    for (const StrategyFamily f : done) seen = seen || f == spec.family;
    if (seen) continue;
    done.push_back(spec.family);

    const auto caps = registry.capabilities(spec);
    if (!caps.is_ok()) {
      skipped.push_back(spec.to_string() + " (" + caps.message() + ")");
      continue;
    }
    // A family's entry holds both factory kinds; both are replaced, so
    // both must be rebuilt faithfully.
    const bool mm_ok = !caps.value().matmul ||
                       same_backend(registry.make_matmul(spec),
                                    rebuild_matmul(spec));
    const bool nl_ok = !caps.value().nonlinear ||
                       same_backend(registry.make_nonlinear(spec),
                                    rebuild_nonlinear(spec));
    if (!mm_ok || !nl_ok) {
      skipped.push_back(spec.to_string());
      continue;
    }
    bbal::BackendRegistry::MatmulFactory matmul;
    if (caps.value().matmul)
      matmul = [session_spans](const StrategySpec& s) -> MatmulR {
        auto inner = rebuild_matmul(s);
        if (!inner.is_ok()) return inner;
        return MatmulPtr(std::make_unique<TracedMatmul>(
            std::move(inner).value(), session_spans));
      };
    bbal::BackendRegistry::NonlinearFactory nonlinear;
    if (caps.value().nonlinear)
      nonlinear = [](const StrategySpec& s) -> NonlinearR {
        auto inner = rebuild_nonlinear(s);
        if (!inner.is_ok()) return inner;
        return NonlinearPtr(
            std::make_unique<TracedNonlinear>(std::move(inner).value()));
      };
    registry.register_family(spec.family, caps.value(), std::move(matmul),
                             std::move(nonlinear));
  }
  return skipped;
}

}  // namespace perfbench

