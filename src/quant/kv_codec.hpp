// quant::KvFormat / quant::KvPageCodec — byte-level storage formats for
// KV-cache rows (serve::PagedKVPool pages).
//
// The paper quantises weights and activations into BBFP but leaves the KV
// cache in FP32; PR 4/6 showed kv_bytes_peak — not weights — is what caps
// serving concurrency. The codec applies the repo's existing block
// machinery (quant::encode_block, the same numerics every matmul backend
// uses) to KV rows, so a pool page stores packed bytes instead of floats:
//
//   FP32        raw little-endian floats (the identity codec; byte-exact
//               round trip, keeps quantised-KV serving opt-in)
//   INT8        per-group symmetric scale: 4-byte float scale = max|x|/127
//               followed by one int8 per element
//   BFP<m>      per-group 2-byte shared exponent (int16) followed by
//               MSB-first packed sign+mantissa fields, byte-padded
//   BBFP(<m>,<o>) as BFP plus the paper's per-element high/low flag bit
//
// A "group" is BlockFormat::block_size consecutive elements of one K or V
// row (32, the paper's choice; the last group of a row may be short).
// Rows never share groups, so every row encodes and decodes independently
// — which is what lets copy-on-write and prefix sharing operate on opaque
// bytes, and keeps decode deterministic regardless of batch composition.
//
// Numerics contract: decode(encode(row)) for the block formats equals
// quant::quantise(row, fmt) element for element — the codec adds a byte
// layout, never a second rounding rule.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/result.hpp"
#include "quant/block.hpp"
#include "quant/format.hpp"

namespace bbal::quant {

/// One KV-cache storage format. Parse accepts the matmul-strategy
/// vocabulary restricted to the storable families: FP32, INT8, BFP<m>,
/// BBFP(<m>,<o>) (case-insensitive, same grammar as StrategySpec::parse).
struct KvFormat {
  enum class Kind { kFp32, kInt8, kBlock };

  Kind kind = Kind::kFp32;
  /// Valid when kind == kBlock; drives encode_block / decode.
  BlockFormat block{};

  [[nodiscard]] static KvFormat fp32() { return KvFormat{}; }
  [[nodiscard]] static KvFormat int8() {
    KvFormat f;
    f.kind = Kind::kInt8;
    return f;
  }
  [[nodiscard]] static KvFormat block_format(const BlockFormat& fmt) {
    KvFormat f;
    f.kind = Kind::kBlock;
    f.block = fmt;
    return f;
  }

  /// Parse a KV-format name. Errors name the offending input and list the
  /// accepted families — never an abort.
  [[nodiscard]] static Result<KvFormat> parse(std::string_view text);

  /// Canonical name ("FP32", "INT8", "BFP4", "BBFP(4,2)"); parse(name())
  /// round-trips.
  [[nodiscard]] std::string name() const;

  bool operator==(const KvFormat& other) const {
    if (kind != other.kind) return false;
    if (kind != Kind::kBlock) return true;
    return block.kind == other.block.kind &&
           block.mantissa_bits == other.block.mantissa_bits &&
           block.overlap_bits == other.block.overlap_bits &&
           block.block_size == other.block.block_size;
  }
};

/// Row codec for one (format, row length) pair. A "row" is one K or V
/// vector of d_model floats; the codec fixes its packed size so page
/// payloads are flat arrays of encoded_row_bytes()-sized rows. Encoding
/// reuses one scratch block, so it allocates nothing once warm — and one
/// codec must not encode from two threads at once.
class KvPageCodec {
 public:
  KvPageCodec() : KvPageCodec(KvFormat::fp32(), 1) {}
  KvPageCodec(const KvFormat& format, int row_elems);

  [[nodiscard]] const KvFormat& format() const { return format_; }
  [[nodiscard]] int row_elems() const { return row_elems_; }
  /// Packed bytes one encoded row occupies (constant per codec).
  [[nodiscard]] std::size_t encoded_row_bytes() const { return row_bytes_; }

  /// Encode `row` (size row_elems) into `out` (size encoded_row_bytes).
  void encode_row(std::span<const float> row, std::span<std::uint8_t> out)
      const;
  /// Decode an encoded row back into floats. For FP32 this reproduces the
  /// input bytes exactly; block formats reproduce quant::quantise.
  void decode_row(std::span<const std::uint8_t> in,
                  std::span<float> out) const;

 private:
  /// Elements per shared-exponent group (last group of a row may be short).
  [[nodiscard]] int group_size() const;
  /// Packed bytes of a group of `n` elements.
  [[nodiscard]] std::size_t group_bytes(int n) const;

  KvFormat format_;
  int row_elems_ = 0;
  std::size_t row_bytes_ = 0;
  mutable EncodedBlock block_;  ///< encode_row's working block
};

}  // namespace bbal::quant
