#include "util/crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define PTUCKER_CRC32C_SSE42 1
#endif

namespace ptucker::util {

namespace {

/// Reflected Castagnoli polynomial (the iSCSI/ext4 CRC32C).
constexpr std::uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (c >> 1) ^ kPoly : c >> 1;
    }
    t[i] = c;
  }
  return t;
}

constexpr std::array<std::uint32_t, 256> kTable = make_table();

#ifdef PTUCKER_CRC32C_SSE42
/// The SSE4.2 crc32 instruction computes exactly this polynomial: fold 8
/// bytes per crc32q (memcpy loads, so any start alignment is fine), then the
/// tail a byte at a time.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    std::uint32_t crc, const unsigned char* p, std::size_t n) {
  std::uint64_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; n != 0; --n) c32 = _mm_crc32_u8(c32, *p++);
  return ~c32;
}

bool have_sse42() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return has;
}
#endif

}  // namespace

namespace detail {

std::uint32_t crc32c_portable(std::uint32_t crc, const void* data,
                              std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n-- != 0) {
    crc = kTable[(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace detail

std::uint32_t crc32c(std::uint32_t crc, const void* data, std::size_t n) {
#ifdef PTUCKER_CRC32C_SSE42
  if (have_sse42()) {
    return crc32c_sse42(crc, static_cast<const unsigned char*>(data), n);
  }
#endif
  return detail::crc32c_portable(crc, data, n);
}

}  // namespace ptucker::util
