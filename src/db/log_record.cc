#include "db/log_record.h"

#include <cstring>

#include "common/crc32.h"

namespace xssd::db {

// Wire layout: [0..7] txn_id, [8..11] table_id, [12] op, [13..20] key,
// [21..24] payload_len, [25..28] crc, then the payload. The CRC covers the
// header with its crc field zero, then the payload.
constexpr size_t kCrcAt = 25;

uint8_t* EncodeLogRecord(uint64_t txn_id, uint32_t table_id, LogOp op,
                         uint64_t key, const uint8_t* payload, size_t len,
                         uint8_t* out) {
  std::memcpy(out + 0, &txn_id, 8);
  std::memcpy(out + 8, &table_id, 4);
  out[12] = static_cast<uint8_t>(op);
  std::memcpy(out + 13, &key, 8);
  uint32_t len32 = static_cast<uint32_t>(len);
  std::memcpy(out + 21, &len32, 4);
  std::memset(out + kCrcAt, 0, 4);
  if (len > 0) std::memcpy(out + LogRecord::kHeaderBytes, payload, len);
  uint32_t crc = Crc32c(out, LogRecord::kHeaderBytes + len);
  std::memcpy(out + kCrcAt, &crc, 4);
  return out + LogRecord::kHeaderBytes + len;
}

void SerializeLogRecord(const LogRecord& record, std::vector<uint8_t>* out) {
  size_t at = out->size();
  out->resize(at + record.SerializedSize());
  EncodeLogRecord(record.txn_id, record.table_id, record.op, record.key,
                  record.payload.data(), record.payload.size(),
                  out->data() + at);
}

Result<LogRecord> ParseLogRecord(const std::vector<uint8_t>& data,
                                 size_t* offset) {
  size_t at = *offset;
  if (at + LogRecord::kHeaderBytes > data.size()) {
    return Status::OutOfRange("truncated header");
  }
  const uint8_t* p = data.data() + at;
  LogRecord record;
  std::memcpy(&record.txn_id, p + 0, 8);
  std::memcpy(&record.table_id, p + 8, 4);
  record.op = static_cast<LogOp>(p[12]);
  std::memcpy(&record.key, p + 13, 8);
  uint32_t len = 0;
  std::memcpy(&len, p + 21, 4);
  if (at + LogRecord::kHeaderBytes + len > data.size()) {
    return Status::OutOfRange("truncated payload");
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, p + kCrcAt, 4);

  // Recompute with the CRC field read as zero, chaining the pieces.
  static constexpr uint8_t kZeroCrc[4] = {};
  const uint8_t* payload = p + LogRecord::kHeaderBytes;
  uint32_t crc = Crc32c(p, kCrcAt);
  crc = Crc32c(kZeroCrc, sizeof(kZeroCrc), crc);
  crc = Crc32c(payload, len, crc);
  if (crc != stored_crc) {
    return Status::Corruption("log record CRC mismatch");
  }
  record.payload.assign(payload, payload + len);
  *offset = at + LogRecord::kHeaderBytes + len;
  return record;
}

std::vector<LogRecord> ParseLogStream(const std::vector<uint8_t>& data,
                                      bool* torn) {
  std::vector<LogRecord> records;
  if (torn) *torn = false;
  size_t offset = 0;
  while (offset < data.size()) {
    Result<LogRecord> record = ParseLogRecord(data, &offset);
    if (!record.ok()) {
      if (torn) *torn = record.status().IsOutOfRange();
      break;
    }
    records.push_back(std::move(*record));
  }
  return records;
}

}  // namespace xssd::db
