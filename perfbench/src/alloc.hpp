// The benchmark binary's replacement of the global allocation functions:
// a process-wide count of heap allocations, plus a per-layer count charged
// to the innermost span open on the allocating thread (see probe.hpp).
#pragma once

#include <cstdint>

namespace perfbench::alloc {

/// Layer index of the innermost open span on this thread, -1 for none.
/// Trivially initialised, so the allocation hooks may read it at any time.
extern thread_local int t_layer;
/// Set while the tracer allocates for itself, so its bookkeeping is not
/// charged to the layer being measured.
extern thread_local bool t_quiet;

/// Allocations made by this process so far, on every thread.
[[nodiscard]] std::uint64_t total();
/// Allocations charged to `layer` since the last reset_layer_allocs().
[[nodiscard]] std::int64_t layer_allocs(int layer);
void reset_layer_allocs();

}  // namespace perfbench::alloc
