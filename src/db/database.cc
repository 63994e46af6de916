#include "db/database.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"

namespace xssd::db {

Table::Table(uint32_t id, std::string name, size_t row_bytes)
    : id_(id),
      name_(std::move(name)),
      index_(size_t{1} << kInitialIndexBits, IndexEntry{0, kFree}),
      index_bits_(kInitialIndexBits) {
  if (row_bytes > 0) FixRowSize(row_bytes);
}

void Table::FixRowSize(size_t row_bytes) {
  row_bytes_ = row_bytes;
  // As many rows per chunk as fit in kChunkBytes, rounded down to a power of
  // two so a slot splits into chunk and row with a shift and a mask.
  chunk_shift_ = static_cast<uint32_t>(
      std::bit_width(std::max<size_t>(1, kChunkBytes / row_bytes)) - 1);
}

Status Table::Put(uint64_t key, std::span<const uint8_t> row) {
  if (row_bytes_ == 0 && !row.empty()) FixRowSize(row.size());
  if (row.size() != row_bytes_ || row.empty()) {
    return Status::InvalidArgument("wrong row size for table " + name_);
  }
  std::memcpy(Emplace(key), row.data(), row_bytes_);
  return Status::OK();
}

uint8_t* Table::Emplace(uint64_t key) {
  XSSD_CHECK(row_bytes_ > 0);
  size_t at = Probe(key);
  if (index_[at].row != kFree) return RowAt(index_[at].row);
  if (2 * (row_count_ + 1) > index_.size()) {
    GrowIndex();
    at = Probe(key);
  }
  index_[at] = IndexEntry{key, AllocateRow()};
  ++row_count_;
  return RowAt(index_[at].row);
}

void Table::GrowIndex() {
  std::vector<IndexEntry> old = std::move(index_);
  ++index_bits_;
  index_.assign(size_t{1} << index_bits_, IndexEntry{0, kFree});
  for (const IndexEntry& entry : old) {
    if (entry.row != kFree) index_[Probe(entry.key)] = entry;
  }
}

uint32_t Table::AllocateRow() {
  if (!free_rows_.empty()) {
    uint32_t row = free_rows_.back();
    free_rows_.pop_back();
    return row;
  }
  XSSD_CHECK(next_row_ < kFree);
  if ((next_row_ >> chunk_shift_) == chunks_.size()) {
    chunks_.push_back(
        std::make_unique_for_overwrite<uint8_t[]>(row_bytes_ << chunk_shift_));
  }
  return next_row_++;
}

Status Table::ApplyDelta(uint64_t key, size_t offset, const uint8_t* delta,
                         size_t len) {
  const IndexEntry& entry = index_[Probe(key)];
  if (entry.row == kFree) return Status::NotFound("no row for delta");
  if (offset > row_bytes_ || len > row_bytes_ - offset) {
    return Status::OutOfRange("delta past end of row");
  }
  if (len > 0) std::memcpy(RowAt(entry.row) + offset, delta, len);
  return Status::OK();
}

bool Table::Erase(uint64_t key) {
  size_t hole = Probe(key);
  if (index_[hole].row == kFree) return false;
  free_rows_.push_back(index_[hole].row);
  --row_count_;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would put one before its home position.
  const size_t mask = index_.size() - 1;
  for (size_t at = (hole + 1) & mask; index_[at].row != kFree;
       at = (at + 1) & mask) {
    size_t home = Home(index_[at].key);
    if (((at - home) & mask) >= ((at - hole) & mask)) {
      index_[hole] = index_[at];
      hole = at;
    }
  }
  index_[hole].row = kFree;
  return true;
}

Table* Database::CreateTable(const std::string& name, size_t row_bytes) {
  uint32_t id = static_cast<uint32_t>(tables_.size());
  tables_.push_back(std::make_unique<Table>(id, name, row_bytes));
  return tables_.back().get();
}

Table* Database::GetTable(uint32_t id) {
  return id < tables_.size() ? tables_[id].get() : nullptr;
}

Table* Database::GetTableByName(const std::string& name) {
  for (auto& table : tables_) {
    if (table->name() == name) return table.get();
  }
  return nullptr;
}

void Transaction::Begin() {
  txn_id_ = db_->NextTxnId();
  writes_.clear();
  payloads_.clear();
}

uint8_t* Transaction::Buffer(Table* table, uint64_t key, LogOp op,
                             size_t len) {
  size_t at = payloads_.size();
  payloads_.resize(at + len);
  writes_.push_back(PendingWrite{table, key, op, at, len});
  return payloads_.data() + at;
}

uint8_t* Transaction::InsertInPlace(Table* table, uint64_t key) {
  XSSD_CHECK(table->row_bytes() > 0);
  return Buffer(table, key, LogOp::kInsert, table->row_bytes());
}

uint8_t* Transaction::UpdateDeltaInPlace(Table* table, uint64_t key,
                                         size_t offset, size_t len) {
  // Delta payload: 4-byte offset prefix + changed bytes, so the record is
  // self-describing for replay.
  XSSD_CHECK(offset <= UINT32_MAX);
  uint8_t* payload = Buffer(table, key, LogOp::kUpdate, 4 + len);
  uint32_t off32 = static_cast<uint32_t>(offset);
  std::memcpy(payload, &off32, 4);
  return payload + 4;
}

void Transaction::Insert(Table* table, uint64_t key,
                         const std::vector<uint8_t>& row) {
  uint8_t* out = Buffer(table, key, LogOp::kInsert, row.size());
  if (!row.empty()) std::memcpy(out, row.data(), row.size());
}

void Transaction::UpdateDelta(Table* table, uint64_t key, size_t offset,
                              const std::vector<uint8_t>& delta) {
  uint8_t* out = UpdateDeltaInPlace(table, key, offset, delta.size());
  if (!delta.empty()) std::memcpy(out, delta.data(), delta.size());
}

void Transaction::Erase(Table* table, uint64_t key) {
  Buffer(table, key, LogOp::kDelete, 0);
}

void Transaction::Apply(const PendingWrite& write, const uint8_t* payload) {
  switch (write.op) {
    case LogOp::kInsert: {
      Status status = write.table->Put(write.key, {payload, write.len});
      if (!status.ok()) {
        XSSD_LOG(kWarning) << "insert failed: " << status.ToString();
      }
      break;
    }
    case LogOp::kUpdate: {
      uint32_t offset = 0;
      std::memcpy(&offset, payload, 4);
      Status status = write.table->ApplyDelta(write.key, offset, payload + 4,
                                              write.len - 4);
      if (!status.ok()) {
        XSSD_LOG(kWarning) << "delta apply failed: " << status.ToString();
      }
      break;
    }
    case LogOp::kDelete:
      write.table->Erase(write.key);
      break;
    case LogOp::kCommit:
      break;
  }
}

uint64_t Transaction::Commit(std::function<void(Status)> on_durable) {
  // Apply each write to its table and write its redo record, then the
  // commit marker, straight into the group-commit buffer.
  LogManager* log = db_->log();
  uint64_t lsn = log->AppendInPlace(LogBytes(), [this](uint8_t* out) {
    for (const PendingWrite& write : writes_) {
      const uint8_t* payload = payloads_.data() + write.at;
      Apply(write, payload);
      out = EncodeLogRecord(txn_id_, write.table->id(), write.op, write.key,
                            payload, write.len, out);
    }
    EncodeLogRecord(txn_id_, 0, LogOp::kCommit, 0, nullptr, 0, out);
  });
  log->WaitDurable(lsn, std::move(on_durable));
  return lsn;
}

}  // namespace xssd::db
