#pragma once
/// \file crc32c.hpp
/// \brief CRC32C (Castagnoli) checksum used by the pario containers to
/// detect silent bit rot and torn writes in block payloads.
///
/// The incremental form composes: crc32c(crc32c(0, a), b) equals
/// crc32c(0, a || b), which is what lets the blocked readers accumulate a
/// block's checksum across the chunks they pread it in.
///
/// On x86-64 CPUs with SSE4.2 (checked once, at the first call) the
/// checksum runs on the crc32 instruction, 8 bytes per step; everywhere
/// else it is the bytewise table loop. Both give identical results.

#include <cstddef>
#include <cstdint>

namespace ptucker::util {

/// Extend \p crc over \p n bytes of \p data. Seed with 0 for a fresh
/// checksum; feed the previous result to continue one.
[[nodiscard]] std::uint32_t crc32c(std::uint32_t crc, const void* data,
                                   std::size_t n);

namespace detail {

/// The bytewise table-driven CRC32C: the fallback on CPUs without SSE4.2
/// and on other architectures, and the reference the hardware path is
/// tested against. Same contract as crc32c().
[[nodiscard]] std::uint32_t crc32c_portable(std::uint32_t crc,
                                            const void* data, std::size_t n);

}  // namespace detail

}  // namespace ptucker::util
