#include "quant/kv_codec.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "quant/block.hpp"
#include "quant/strategy.hpp"

namespace bbal::quant {
namespace {

/// MSB-first bit packer over a byte span, a 64-bit word at a time: fields
/// shift into the word's low end and whole bytes leave from its top.
/// Groups are byte-padded, so one writer/reader per group keeps rows
/// independently addressable.
class BitWriter {
 public:
  explicit BitWriter(std::span<std::uint8_t> out) : out_(out) {}

  /// Append the low `bits` (<= 32) bits of `value`.
  void put(std::uint32_t value, int bits) {
    word_ = (word_ << bits) | value;
    pending_ += bits;
    while (pending_ >= 8) {
      pending_ -= 8;
      out_[pos_++] = static_cast<std::uint8_t>(word_ >> pending_);
    }
  }

  /// Write the last partial byte, zero-padded.
  void flush() {
    if (pending_ > 0)
      out_[pos_++] = static_cast<std::uint8_t>(word_ << (8 - pending_));
    pending_ = 0;
  }

 private:
  std::span<std::uint8_t> out_;
  std::uint64_t word_ = 0;
  int pending_ = 0;  ///< bits in word_ not yet written
  std::size_t pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> in) : in_(in) {}

  /// Read the next `bits` (<= 32) bits.
  [[nodiscard]] std::uint32_t get(int bits) {
    while (avail_ < bits) {
      word_ = (word_ << 8) | in_[pos_++];
      avail_ += 8;
    }
    avail_ -= bits;
    return static_cast<std::uint32_t>((word_ >> avail_) &
                                      ((std::uint64_t{1} << bits) - 1));
  }

 private:
  std::span<const std::uint8_t> in_;
  std::uint64_t word_ = 0;
  int avail_ = 0;  ///< unread bits at the low end of word_
  std::size_t pos_ = 0;
};

constexpr int kInt8GroupSize = 32;  ///< matches the block families' grain
constexpr float kInt8Max = 127.0f;

}  // namespace

// --- KvFormat ----------------------------------------------------------------

Result<KvFormat> KvFormat::parse(std::string_view text) {
  const auto fail = [&text]() {
    return Result<KvFormat>::error(
        "KV format \"" + std::string(text) +
        "\" not storable: expected FP32, INT8, BFP<m> or BBFP(<m>,<o>)");
  };
  auto spec = StrategySpec::parse(text);
  if (!spec.is_ok()) return fail();
  switch (spec.value().family) {
    case StrategyFamily::kFp32:
      return KvFormat::fp32();
    case StrategyFamily::kInt:
      // Page bytes are the point of the knob; only the byte-aligned width
      // has a packed layout here.
      if (spec.value().bits != 8) return fail();
      return KvFormat::int8();
    case StrategyFamily::kBfp:
    case StrategyFamily::kBbfp: {
      auto fmt = spec.value().block_format();
      if (!fmt.is_ok()) return fail();
      return KvFormat::block_format(fmt.value());
    }
    default:
      return fail();
  }
}

std::string KvFormat::name() const {
  switch (kind) {
    case Kind::kFp32:
      return "FP32";
    case Kind::kInt8:
      return "INT8";
    case Kind::kBlock:
      return block.name();
  }
  return "FP32";
}

// --- KvPageCodec -------------------------------------------------------------

KvPageCodec::KvPageCodec(const KvFormat& format, int row_elems)
    : format_(format), row_elems_(row_elems) {
  assert(row_elems_ > 0);
  if (format_.kind == KvFormat::Kind::kBlock)
    format_.block.validate().expect("KvPageCodec");
  std::size_t bytes = 0;
  const int gs = group_size();
  for (int start = 0; start < row_elems_; start += gs)
    bytes += group_bytes(std::min(gs, row_elems_ - start));
  row_bytes_ = bytes;
}

int KvPageCodec::group_size() const {
  return format_.kind == KvFormat::Kind::kBlock ? format_.block.block_size
                                                : kInt8GroupSize;
}

std::size_t KvPageCodec::group_bytes(int n) const {
  switch (format_.kind) {
    case KvFormat::Kind::kFp32:
      return static_cast<std::size_t>(n) * sizeof(float);
    case KvFormat::Kind::kInt8:
      // 4-byte scale + one int8 per element.
      return sizeof(float) + static_cast<std::size_t>(n);
    case KvFormat::Kind::kBlock: {
      // 2-byte shared exponent + packed sign/flag/mantissa fields.
      const int elem_bits =
          1 + (format_.block.is_bbfp() ? 1 : 0) + format_.block.mantissa_bits;
      const std::size_t bits =
          static_cast<std::size_t>(n) * static_cast<std::size_t>(elem_bits);
      return sizeof(std::int16_t) + (bits + 7) / 8;
    }
  }
  return 0;
}

void KvPageCodec::encode_row(std::span<const float> row,
                             std::span<std::uint8_t> out) const {
  assert(static_cast<int>(row.size()) == row_elems_);
  assert(out.size() == row_bytes_);
  if (format_.kind == KvFormat::Kind::kFp32) {
    std::memcpy(out.data(), row.data(), row.size() * sizeof(float));
    return;
  }
  const int gs = group_size();
  std::size_t off = 0;
  for (int start = 0; start < row_elems_; start += gs) {
    const int n = std::min(gs, row_elems_ - start);
    const std::size_t gb = group_bytes(n);
    std::span<std::uint8_t> dst = out.subspan(off, gb);
    if (format_.kind == KvFormat::Kind::kInt8) {
      std::fill(dst.begin(), dst.end(), std::uint8_t{0});
      float max_abs = 0.0f;
      for (int i = 0; i < n; ++i) {
        const float v = row[static_cast<std::size_t>(start + i)];
        max_abs = std::max(max_abs, std::fabs(v));
      }
      const float scale = max_abs > 0.0f ? max_abs / kInt8Max : 0.0f;
      std::memcpy(dst.data(), &scale, sizeof(float));
      for (int i = 0; i < n; ++i) {
        double q = 0.0;
        if (scale > 0.0f)
          q = std::round(
              static_cast<double>(row[static_cast<std::size_t>(start + i)]) /
              static_cast<double>(scale));
        q = std::clamp(q, -127.0, 127.0);
        dst[sizeof(float) + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(static_cast<std::int8_t>(q));
      }
    } else {
      const auto group = row.subspan(static_cast<std::size_t>(start),
                                     static_cast<std::size_t>(n));
      encode_block_into(group, format_.block, block_);
      const std::int16_t es = static_cast<std::int16_t>(block_.shared_exponent);
      std::memcpy(dst.data(), &es, sizeof(std::int16_t));
      BitWriter bits(dst.subspan(sizeof(std::int16_t)));
      const int m = format_.block.mantissa_bits;
      const bool bbfp = format_.block.is_bbfp();
      for (const BlockElement& e : block_.elems) {
        // One field per element: sign, [flag,] mantissa.
        std::uint32_t field = e.negative ? 1u : 0u;
        if (bbfp) field = (field << 1) | (e.flag ? 1u : 0u);
        bits.put((field << m) | e.mantissa, 1 + (bbfp ? 1 : 0) + m);
      }
      bits.flush();
    }
    off += gb;
  }
}

void KvPageCodec::decode_row(std::span<const std::uint8_t> in,
                             std::span<float> out) const {
  assert(in.size() == row_bytes_);
  assert(static_cast<int>(out.size()) == row_elems_);
  if (format_.kind == KvFormat::Kind::kFp32) {
    std::memcpy(out.data(), in.data(), out.size() * sizeof(float));
    return;
  }
  const int gs = group_size();
  std::size_t off = 0;
  for (int start = 0; start < row_elems_; start += gs) {
    const int n = std::min(gs, row_elems_ - start);
    const std::size_t gb = group_bytes(n);
    std::span<const std::uint8_t> src = in.subspan(off, gb);
    if (format_.kind == KvFormat::Kind::kInt8) {
      float scale = 0.0f;
      std::memcpy(&scale, src.data(), sizeof(float));
      for (int i = 0; i < n; ++i) {
        const std::int8_t q = static_cast<std::int8_t>(
            src[sizeof(float) + static_cast<std::size_t>(i)]);
        out[static_cast<std::size_t>(start + i)] =
            static_cast<float>(q) * scale;
      }
    } else {
      std::int16_t es = 0;
      std::memcpy(&es, src.data(), sizeof(std::int16_t));
      BitReader bits(src.subspan(sizeof(std::int16_t)));
      const int m = format_.block.mantissa_bits;
      const bool bbfp = format_.block.is_bbfp();
      const int width = 1 + (bbfp ? 1 : 0) + m;
      for (int i = 0; i < n; ++i) {
        const std::uint32_t field = bits.get(width);
        BlockElement e;
        e.mantissa = field & ((std::uint32_t{1} << m) - 1);
        e.flag = bbfp && ((field >> m) & 1u) != 0;
        e.negative = (field >> (width - 1)) != 0;
        out[static_cast<std::size_t>(start + i)] =
            static_cast<float>(decode_element(format_.block, es, e));
      }
    }
    off += gb;
  }
}

}  // namespace bbal::quant
