#pragma once
/// \file bytes.hpp
/// \brief A memcpy that is defined for empty buffers.

#include <cstddef>
#include <cstring>

namespace ptucker::util {

/// std::memcpy of \p n bytes, skipped when n == 0. memcpy requires valid
/// pointers even when it copies nothing, and an empty vector's or span's
/// data() may be null — the case of every empty block and zero-size
/// message in the collectives.
inline void copy_bytes(void* dst, const void* src, std::size_t n) {
  if (n > 0) std::memcpy(dst, src, n);
}

}  // namespace ptucker::util
