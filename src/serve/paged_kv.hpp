// serve::PagedKVPool — block-paged KV-cache storage for the serving
// engine, replacing PR 3's per-request contiguous llm::KVCache.
//
// Motivation (ROADMAP "heavy traffic" north star): with monolithic
// per-request caches, KV memory scales linearly with concurrency and N
// requests sharing a prompt prefix store (and recompute) that prefix N
// times. The pool instead carves KV storage into fixed-size token pages:
//
//  - a page holds `page_tokens` positions of K and V rows for every layer
//    (one physical allocation, laid out [layer][slot][row]);
//  - rows are stored *packed* in the pool's quant::KvFormat — FP32 raw
//    floats by default, or INT8 / BFP / BBFP shared-exponent groups via
//    quant::KvPageCodec, quantised on append and dequantised on read
//    (see docs/KV_QUANT.md). page_bytes() and every byte metric derived
//    from it count these packed bytes;
//  - a sequence is a page table (vector of page ids) plus a length;
//  - pages are refcounted: fork() shares every page of a sequence, and
//    create(prompt) attaches the full pages of a registered prompt prefix
//    (copy-on-write: appending into a shared tail page copies it first).
//    Sharing and CoW operate on the encoded bytes — the codec never runs
//    twice over a shared prefix;
//  - allocation is free-list based, capacity-bounded (max_pages), and
//    exhaustion is a Status error after deterministic LRU eviction of
//    registered prefixes — never an abort;
//  - every allocation / copy / eviction / prefix hit is counted in Stats,
//    which the engine surfaces as kv_pages_allocated, kv_bytes_peak,
//    prefix_hit_rate and pool occupancy, and prices via hw::sram.
//
// Prefix sharing is bit-safe by construction: encoded K/V rows are a
// deterministic function of (model weights, strategy, kv format, token
// prefix), and every request runs on the engine's one shared quantised
// backend, so a shared page holds exactly the bytes every sharer would
// have computed (test_paged_kv pins decoder-through-pool against
// decoder-through-KVCache, float for float, in the FP32 format).
//
// Threading contract: all *structural* mutation — create / fork /
// release / reserve_next / register_prefix / probe — is serial-only (the
// engine does it between ticks). During a tick, the fused batch step
// appends and reads through each sequence's PagedKVView from the calling
// thread only (parallelism lives inside the batched GEMMs, which never
// touch the pool); a view append only writes that sequence's reserved
// tail slot, its own length counter and its own decode cache — disjoint
// state, no locks needed, and safe even if a caller steps distinct
// sequences from distinct threads (shared pages are only ever *read*
// concurrently; a page with refcount > 1 is copied before any append).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "llm/decoder.hpp"
#include "llm/model.hpp"
#include "quant/kv_codec.hpp"

namespace bbal::serve {

class PagedKVPool {
 public:
  /// Handle to one sequence's page table. Never reused within a pool.
  using SeqId = int;

  struct Options {
    /// Positions per page. Smaller pages share prefixes at a finer grain
    /// but pay more page-table walks; 16 matches one decode-tile.
    int page_tokens = 16;
    /// Pool capacity. Page payloads are allocated lazily, so a generous
    /// bound costs page-table slots, not memory.
    int max_pages = 256;
    /// Storage format of every K/V row in the pool (FP32, INT8, BFP<m>,
    /// BBFP(<m>,<o>)). FP32 — the default — is the identity codec and
    /// keeps the pool byte-for-byte compatible with the unquantised path.
    quant::KvFormat kv_format{};
  };

  struct Stats {
    std::int64_t pages_allocated = 0;  ///< cumulative fresh allocations
    std::int64_t page_copies = 0;      ///< copy-on-write tail copies
    std::int64_t pages_evicted = 0;    ///< freed by prefix-entry eviction
    int pages_in_use = 0;              ///< pages with refcount > 0, now
    int pages_in_use_peak = 0;
    /// Prompt tokens offered to / served by prefix matching in create().
    std::int64_t prefix_lookup_tokens = 0;
    std::int64_t prefix_hit_tokens = 0;
    [[nodiscard]] double prefix_hit_rate() const {
      return prefix_lookup_tokens > 0
                 ? static_cast<double>(prefix_hit_tokens) /
                       static_cast<double>(prefix_lookup_tokens)
                 : 0.0;
    }
  };

  PagedKVPool(const llm::ModelConfig& config, Options options);

  // --- Sequence lifecycle (serial-only) -------------------------------------

  /// A fresh, empty sequence. Allocates no pages until reserve_next().
  [[nodiscard]] SeqId create();

  /// A sequence for `prompt`, sharing the longest registered prompt-prefix
  /// match in whole pages (capped below prompt.size() so the caller always
  /// recomputes at least the final prompt position — decode needs its
  /// logits). shared_length() reports the positions pre-populated; the
  /// caller resumes prefill there. Counts the lookup in Stats.
  [[nodiscard]] SeqId create(std::span<const int> prompt);

  /// Share every page of `source` (refcounts bumped). Both sequences
  /// copy-on-write their common tail page on the next append.
  [[nodiscard]] SeqId fork(SeqId source);

  /// Drop the sequence's page references; pages whose refcount reaches 0
  /// return to the free list (registered prefixes keep their own refs).
  void release(SeqId id);

  /// Guarantee capacity for `count` appended positions: copies a shared
  /// tail page first (copy-on-write — only when the sequence will append
  /// into it), then allocates one fresh page per page boundary the new
  /// positions cross. Exhaustion first evicts registered prefix entries
  /// (oldest use first) and then — if the pool is still full — returns an
  /// error, rolling back this call's fresh allocations so the sequence's
  /// page table and length are unchanged (a completed tail copy stands:
  /// same bytes, now private). Must precede the append(s) of each step;
  /// the engine calls it serially before a tick.
  [[nodiscard]] Status reserve(SeqId id, int count);

  /// reserve() of a single position — the decode-step case.
  [[nodiscard]] Status reserve_next(SeqId id) { return reserve(id, 1); }

  /// Roll the sequence back to `n` committed positions (speculative
  /// decoding's rejection path). Pages past the new tail are unreffed —
  /// freed when theirs was the last reference, kept alive when a fork or
  /// registered prefix still holds them — and a partially-filled tail
  /// page is kept (its slots above `n` are dead bytes every future
  /// append overwrites before any read, per the KVCacheView protocol).
  /// `n > length` is a no-op; reserve()-grown but unfilled tail pages are
  /// dropped too. Serial-only, like all structural mutation.
  void truncate(SeqId id, int n);

  // --- Prompt-prefix sharing (serial-only) ----------------------------------

  /// Register `id`'s leading full pages of `prompt` as shareable (the
  /// engine calls this when a request finishes prefill). The entry holds
  /// its own page references, so the prefix outlives release(id) until
  /// evicted. Re-registering an identical prompt refreshes its use time.
  void register_prefix(SeqId id, std::span<const int> prompt);

  /// Tokens of `prompt` a create(prompt) would currently share (whole
  /// pages, capped below prompt.size()). Read-only; does not touch Stats.
  [[nodiscard]] int probe_prefix_tokens(std::span<const int> prompt) const;

  /// Drop every registered prefix entry (deterministic mass eviction; the
  /// engine's last resort before failing an admission).
  void drop_registered_prefixes();

  // --- Introspection ---------------------------------------------------------

  [[nodiscard]] int length(SeqId id) const;
  /// Positions create(prompt) pre-populated from shared pages.
  [[nodiscard]] int shared_length(SeqId id) const;
  /// Refcount of the page holding position `pos` of `id` (tests).
  [[nodiscard]] int page_refcount(SeqId id, int pos) const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] int page_tokens() const { return options_.page_tokens; }
  [[nodiscard]] int max_pages() const { return options_.max_pages; }
  /// The row codec every page stores through.
  [[nodiscard]] const quant::KvPageCodec& codec() const { return codec_; }
  /// Packed bytes one K or V row occupies (d_model floats encoded).
  [[nodiscard]] std::int64_t encoded_row_bytes() const {
    return static_cast<std::int64_t>(codec_.encoded_row_bytes());
  }
  /// *Packed* bytes of K+V payload one page holds
  /// (layers * slots * 2 * encoded_row_bytes).
  [[nodiscard]] std::int64_t page_bytes() const;
  [[nodiscard]] std::int64_t bytes_peak() const {
    return static_cast<std::int64_t>(stats_.pages_in_use_peak) * page_bytes();
  }
  /// Pages a sequence of `total_positions` needs in the worst case (no
  /// sharing): the engine's admission budget.
  [[nodiscard]] int pages_for(int total_positions) const;

 private:
  friend class PagedKVView;

  struct Page {
    std::vector<std::uint8_t> k;  ///< [layer][slot][encoded row], lazy
    std::vector<std::uint8_t> v;
    int refs = 0;
  };

  struct Sequence {
    std::vector<int> pages;
    int length = 0;
    int shared = 0;  ///< positions attached from a registered prefix
    bool alive = false;
  };

  /// One shareable prompt prefix: the tokens of its full pages and the
  /// pages themselves (referenced). `last_use` orders LRU eviction.
  struct PrefixEntry {
    std::vector<int> tokens;
    std::vector<int> pages;
    std::int64_t last_use = 0;
  };

  [[nodiscard]] Result<int> allocate_page();
  void ref_page(int page);
  void unref_page(int page);
  /// Evict the least-recently-used prefix entry; false when none remain.
  bool evict_one_prefix();
  /// Index into prefixes_ of the longest whole-page match (-1: none).
  [[nodiscard]] int best_prefix_match(std::span<const int> prompt,
                                      int* match_pages) const;

  // Packed-payload addressing within a page (byte offset of a row).
  [[nodiscard]] std::size_t row_offset(int layer, int slot) const;

  llm::ModelConfig config_;
  Options options_;
  quant::KvPageCodec codec_;
  Stats stats_;
  std::vector<Page> pages_;
  std::vector<int> free_pages_;  ///< stack; deterministic push/pop order
  std::vector<Sequence> sequences_;
  std::vector<PrefixEntry> prefixes_;
  std::int64_t use_clock_ = 0;  ///< logical time for prefix LRU
};

/// llm::KVCacheView over one pool sequence: what Decoder::step reads and
/// writes in the paged serving path. Append assumes reserve() covered the
/// step's positions (the engine's tick protocol); the appended positions
/// commit to the sequence length as the last layer's rows land, in
/// position order — so a chunked step's n positions become readable
/// history exactly when the KVCacheView protocol says they must.
///
/// Because pages hold packed bytes, the view owns a per-page decode cache:
/// k_at/v_at return spans into page-sized float buffers filled lazily from
/// the encoded storage (and directly by append, which round-trips the row
/// through the codec so a same-step read sees exactly the values every
/// later step will). Buffers are per-view and allocated once per page, so
/// spans satisfy the KVCacheView protocol — valid for the rest of the
/// step, no reallocation mid-step — and a page shared by many sequences
/// is decoded independently by each reader, never mutated. In the FP32
/// format the codec is the identity, so the decode cache reproduces the
/// storage bytes exactly and streams stay bit-identical to the
/// float-paged engine.
class PagedKVView final : public llm::KVCacheView {
 public:
  PagedKVView() = default;
  PagedKVView(PagedKVPool& pool, PagedKVPool::SeqId id)
      : pool_(&pool), id_(id) {}

  [[nodiscard]] int length() const override;
  void append(int layer, int pos, std::span<const float> k_row,
              std::span<const float> v_row) override;
  [[nodiscard]] std::span<const float> k_at(int layer,
                                            int pos) const override;
  [[nodiscard]] std::span<const float> v_at(int layer,
                                            int pos) const override;

  [[nodiscard]] PagedKVPool::SeqId sequence() const { return id_; }

 private:
  /// Decoded floats of one page, [layer][slot][d_model] per side. `slots`
  /// counts the leading positions decoded for every layer; the slot a
  /// step is appending sits above it until the last layer's row lands.
  struct DecodedPage {
    std::vector<float> k;
    std::vector<float> v;
    int slots = 0;
  };

  /// The page's decode cache, with every filled slot (per the sequence
  /// length) decoded. Allocates the buffers on first touch of the page.
  [[nodiscard]] DecodedPage& decoded_page(int page_index) const;
  /// Float offset of (layer, slot) within a DecodedPage buffer.
  [[nodiscard]] std::size_t float_offset(int layer, int slot) const;

  PagedKVPool* pool_ = nullptr;
  PagedKVPool::SeqId id_ = -1;
  /// Indexed by page position in the sequence's page table. Entries move
  /// but their float buffers never reallocate once sized, so spans handed
  /// out stay valid for the rest of a step.
  mutable std::vector<DecodedPage> decoded_;
};

}  // namespace bbal::serve
