#include "common/crc32.h"

#include <array>
#include <cstring>

#include "common/crc32_paths.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace xssd {

namespace crc32c_paths {

namespace {

// CRC-32C (Castagnoli) polynomial, reflected form.
constexpr uint32_t kPoly = 0x82F63B78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

}  // namespace

uint32_t Table(const void* data, size_t len, uint32_t seed) {
  const auto& table = CrcTable();
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)

bool HardwareAvailable() { return __builtin_cpu_supports("sse4.2"); }

// Compiles this one function for SSE4.2; the rest of the build stays
// portable, and Crc32c calls it only after the CPU check.
#define XSSD_SSE42 __attribute__((target("sse4.2")))

// The instruction computes the same reflected CRC-32C as the table loop, so
// the two paths agree on every input, seed included.
XSSD_SSE42 uint32_t Hardware(const void* data, size_t len, uint32_t seed) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t crc = static_cast<uint32_t>(~seed);
  for (; len >= 8; len -= 8, bytes += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; --len, ++bytes) crc32 = _mm_crc32_u8(crc32, *bytes);
  return ~crc32;
}

#else

bool HardwareAvailable() { return false; }

uint32_t Hardware(const void* data, size_t len, uint32_t seed) {
  return Table(data, len, seed);
}

#endif

}  // namespace crc32c_paths

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  static const bool hardware = crc32c_paths::HardwareAvailable();
  return hardware ? crc32c_paths::Hardware(data, len, seed)
                  : crc32c_paths::Table(data, len, seed);
}

}  // namespace xssd
