#ifndef XSSD_COMMON_CRC32_PATHS_H_
#define XSSD_COMMON_CRC32_PATHS_H_

// Private to src/common/ and its tests: the two implementations behind
// Crc32c(), so a test can check each one against the other and against
// known vectors. Everything else calls Crc32c().

#include <cstddef>
#include <cstdint>

namespace xssd::crc32c_paths {

/// Bytewise table loop: the portable path and the reference.
uint32_t Table(const void* data, size_t len, uint32_t seed);

/// Whether this CPU has the SSE4.2 crc32 instruction.
bool HardwareAvailable();

/// The SSE4.2 crc32 instruction, eight bytes at a time. Call only when
/// HardwareAvailable() holds.
uint32_t Hardware(const void* data, size_t len, uint32_t seed);

}  // namespace xssd::crc32c_paths

#endif  // XSSD_COMMON_CRC32_PATHS_H_
