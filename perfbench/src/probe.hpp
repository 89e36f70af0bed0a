// Host-side instrumentation for the benchmark: layer spans kept in memory
// (with the allocations charged to them, see alloc.hpp), and timing
// decorators around llm::MatmulBackend / llm::NonlinearBackend that the
// benchmark installs through BackendRegistry::register_family. Everything
// here lives in the benchmark binary; the library is measured, never
// modified.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "quant/strategy.hpp"

namespace perfbench {

/// The layers a span can belong to. Projection GEMMs are keyed by the tag
/// the Transformer gives each weight in prepare_weights().
enum class Layer : int {
  kWq,
  kWk,
  kWv,
  kWo,
  kGate,
  kUp,
  kDown,
  kLmHead,
  kGemmOther,    ///< a prepared weight whose tag matches no projection
  kAttnDynamic,  ///< matmul_dynamic (full-sequence attention)
  kSoftmax,
  kSilu,
  kServeRun,         ///< one serve::Engine::run() call
  kSessionEvaluate,  ///< one Session::evaluate() accuracy pass
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

/// Per-layer totals accumulated from closed spans.
struct LayerTotals {
  double seconds = 0.0;       ///< summed span durations
  double self_seconds = 0.0;  ///< durations minus time covered by children
  std::int64_t calls = 0;
  std::int64_t work = 0;    ///< rows (GEMMs) or elements (nonlinear)
  std::int64_t allocs = 0;  ///< allocations while the layer was innermost
};

/// Span recording switch. Off by default; the decorators and ScopedSpan
/// record nothing while it is off.
void set_tracing(bool on);

/// Totals per layer since the last reset_traces().
[[nodiscard]] LayerTotals layer_totals(Layer layer);
/// Drop recorded spans and totals.
void reset_traces();
/// Write every recorded span, one per line:
/// thread, index, parent index (-1 for a root), layer, start ns, end ns,
/// work. Returns false when the file cannot be written.
bool write_spans(const std::string& path);

/// One span on the calling thread, from construction to destruction.
/// Spans nest: the innermost open span on a thread is the parent of the
/// next one opened there, and allocations on that thread are attributed
/// to it.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, std::int64_t work);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool open_ = false;
};

/// Wrap the registry factories of every family named in `specs` with the
/// timing decorators. The built-in factories cannot be read back from the
/// registry, so the inner backend is rebuilt with the same public
/// constructor the registry uses; a family whose rebuilt backend does not
/// match the registry's (dynamic type and name) is left unwrapped and
/// named in the returned list. With `session_spans`, each matmul backend
/// also opens a kSessionEvaluate span for its lifetime: Session::evaluate
/// builds and drops its backends around the accuracy pass.
/// Irreversible for the process: run every untraced measurement first.
[[nodiscard]] std::vector<std::string> install_traced_backends(
    const std::vector<bbal::quant::StrategySpec>& specs, bool session_spans);

}  // namespace perfbench
