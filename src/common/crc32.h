#ifndef XSSD_COMMON_CRC32_H_
#define XSSD_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace xssd {

/// CRC-32C (Castagnoli) over a byte range. Used to protect destage-page
/// headers and database log records; seed allows incremental computation.
/// Runs on the SSE4.2 crc32 instruction when the CPU has it (checked once),
/// else on a bytewise table loop; the two give the same value.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

}  // namespace xssd

#endif  // XSSD_COMMON_CRC32_H_
