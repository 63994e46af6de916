#include "ftl/oob.h"

#include "common/crc32.h"

namespace xssd::ftl {

namespace {

void PutU64(uint8_t* out, size_t at, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[at + i] = static_cast<uint8_t>(value >> (8 * i));
  }
}

uint64_t GetU64(const flash::Oob& in, size_t at) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(in[at + i]) << (8 * i);
  }
  return value;
}

}  // namespace

flash::Oob EncodeOob(const OobMeta& meta) {
  uint8_t raw[kOobRecordBytes];
  PutU64(raw, 0, meta.lpn);
  PutU64(raw, 8, meta.seq);
  PutU64(raw, 16, meta.stamp);
  uint32_t crc = Crc32c(raw, 24);
  for (int i = 0; i < 4; ++i) {
    raw[24 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return flash::Oob(raw, kOobRecordBytes);
}

bool DecodeOob(const flash::Oob& raw, OobMeta* out) {
  if (raw.size() < kOobRecordBytes) return false;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(raw[24 + i]) << (8 * i);
  }
  if (Crc32c(raw.data(), 24) != stored) return false;
  out->lpn = GetU64(raw, 0);
  out->seq = GetU64(raw, 8);
  out->stamp = GetU64(raw, 16);
  return true;
}

}  // namespace xssd::ftl
