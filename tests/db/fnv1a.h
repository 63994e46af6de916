#ifndef XSSD_TESTS_DB_FNV1A_H_
#define XSSD_TESTS_DB_FNV1A_H_

// 64-bit FNV-1a, the hash the db pins record their bytes with.

#include <cstddef>
#include <cstdint>

namespace xssd::db {

constexpr uint64_t kFnv1aBasis = 0xCBF29CE484222325ull;

/// Fold `len` bytes into the running hash `fnv` (start at kFnv1aBasis).
inline uint64_t Fnv1a(uint64_t fnv, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) fnv = (fnv ^ data[i]) * 0x100000001B3ull;
  return fnv;
}

}  // namespace xssd::db

#endif  // XSSD_TESTS_DB_FNV1A_H_
