// 64-bit word helpers behind jtora::Assignment's per-server free-slot words.
#pragma once

#include <bit>
#include <cstdint>

namespace tsajs {

/// Number of set bits of `word`. Spelled out in SWAR form rather than
/// std::popcount, which compiles to a call into libgcc's __popcountdi2 on
/// the default x86-64 target (no POPCNT instruction); this stays inline.
constexpr unsigned bit_count(std::uint64_t word) noexcept {
  word -= (word >> 1) & 0x5555555555555555ULL;
  word = (word & 0x3333333333333333ULL) + ((word >> 2) & 0x3333333333333333ULL);
  word = (word + (word >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return static_cast<unsigned>((word * 0x0101010101010101ULL) >> 56);
}

/// Index of the k-th set bit of `word`, counting from the lowest (k = 0).
/// Requires k < bit_count(word).
constexpr unsigned nth_set_bit(std::uint64_t word, std::uint64_t k) noexcept {
  for (; k > 0; --k) word &= word - 1;  // drop the k lowest set bits
  return static_cast<unsigned>(std::countr_zero(word));
}

}  // namespace tsajs
