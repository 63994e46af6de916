#ifndef XSSD_DB_LOG_RECORD_H_
#define XSSD_DB_LOG_RECORD_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace xssd::db {

/// Redo-record kinds.
enum class LogOp : uint8_t {
  kInsert = 0,
  kUpdate = 1,   ///< delta: changed column bytes only
  kDelete = 2,
  kCommit = 3,   ///< transaction commit marker
};

/// \brief One redo log record (after-image / delta logging, the ERMIA
/// style). Serialized with a fixed header + payload + CRC so a recovered
/// log stream can be replayed and validated.
struct LogRecord {
  uint64_t txn_id = 0;
  uint32_t table_id = 0;
  LogOp op = LogOp::kInsert;
  uint64_t key = 0;
  std::vector<uint8_t> payload;  ///< row image or delta bytes

  /// Serialized size (header + payload).
  size_t SerializedSize() const { return kHeaderBytes + payload.size(); }

  static constexpr size_t kHeaderBytes = 29;
};

/// Append the wire image of `record` to `out`.
void SerializeLogRecord(const LogRecord& record, std::vector<uint8_t>* out);

/// Write one record's wire image (header, `len` payload bytes, CRC) at
/// `out`, which has room for LogRecord::kHeaderBytes + `len` bytes; returns
/// the byte after it. The encoder behind SerializeLogRecord, for callers
/// that build records in place in a log buffer.
uint8_t* EncodeLogRecord(uint64_t txn_id, uint32_t table_id, LogOp op,
                         uint64_t key, const uint8_t* payload, size_t len,
                         uint8_t* out);

/// Parse one record starting at `data[offset]`; advances `*offset`.
/// kOutOfRange when the buffer ends mid-record (torn tail after a crash),
/// kCorruption on CRC mismatch.
Result<LogRecord> ParseLogRecord(const std::vector<uint8_t>& data,
                                 size_t* offset);

/// Parse a whole stream, stopping cleanly at a torn tail. `torn` (optional)
/// reports whether the stream ended mid-record.
std::vector<LogRecord> ParseLogStream(const std::vector<uint8_t>& data,
                                      bool* torn = nullptr);

}  // namespace xssd::db

#endif  // XSSD_DB_LOG_RECORD_H_
