#ifndef XSSD_COMMON_STATUS_H_
#define XSSD_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace xssd {

/// Error taxonomy used across the library. Mirrors the usual storage-engine
/// set (RocksDB-style): every fallible call returns a Status (or a Result<T>)
/// instead of throwing. Exceptions are never used on data paths.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kUnavailable,
  kCorruption,
  kIoError,
  kAborted,
  kInternal,
};

/// \brief Lightweight status object carrying an error code and message.
///
/// The OK status carries no allocation. Statuses are cheap to copy and move
/// and are the only error-reporting channel in the library.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsResourceExhausted() const {
    return code_ == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsOutOfRange() const { return code_ == StatusCode::kOutOfRange; }
  bool IsIoError() const { return code_ == StatusCode::kIoError; }

  /// Human-readable rendering, e.g. "Corruption: bad page crc".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// \brief A value-or-status pair, analogous to absl::StatusOr.
///
/// Result<T> either holds a T (status is OK) or a non-OK Status. Accessing
/// the value of an errored Result aborts in debug builds.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or an error status keeps call sites
  /// terse (`return value;` / `return Status::NotFound(...);`).
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}
  Result(Status status) : status_(std::move(status)) {
    assert(!status_.ok() && "OK Result must carry a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace xssd

/// Propagate a non-OK status to the caller (function must return Status).
#define XSSD_RETURN_IF_ERROR(expr)            \
  do {                                        \
    ::xssd::Status _st = (expr);              \
    if (!_st.ok()) return _st;                \
  } while (0)

#endif  // XSSD_COMMON_STATUS_H_
