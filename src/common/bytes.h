#ifndef XSSD_COMMON_BYTES_H_
#define XSSD_COMMON_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

namespace xssd {

/// \brief An immutable, reference-counted byte buffer: a shared slab plus
/// an offset and a length.
///
/// A payload gets one Bytes where it first exists (a host append, a DMA
/// read of host memory, a destage page build, or the vector a caller hands
/// the FTL). The handle then travels through pcie, ntb, core, nvme, the FTL
/// and the flash array; bytes are copied only where the modelled hardware
/// moves them into memory the model keeps (host DRAM, the CMB ring, a
/// destage page). Copying a handle bumps a plain, non-atomic count: the
/// simulator runs on one thread.
class Bytes {
 public:
  Bytes() = default;
  /// Adopt `vec`'s buffer: no byte is copied, data() is vec.data().
  Bytes(std::vector<uint8_t>&& vec);  // NOLINT(google-explicit-constructor)

  /// A new slab holding a copy of [data, data + len).
  static Bytes Copy(const uint8_t* data, size_t len);

  /// A new slab of `len` bytes that `fill(uint8_t* out)` writes. The slab
  /// is not zeroed first: `fill` must write every byte.
  template <typename Fill>
  static Bytes Build(size_t len, Fill&& fill) {
    if (len == 0) return Bytes();
    Bytes out = Allocate(len);
    fill(out.slab_->bytes);
    return out;
  }

  Bytes(const Bytes& other) noexcept
      : slab_(other.slab_), offset_(other.offset_), size_(other.size_) {
    if (slab_ != nullptr) ++slab_->refs;
  }
  Bytes(Bytes&& other) noexcept
      : slab_(std::exchange(other.slab_, nullptr)),
        offset_(std::exchange(other.offset_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Bytes& operator=(const Bytes& other) noexcept {
    Bytes copy(other);
    Swap(copy);
    return *this;
  }
  Bytes& operator=(Bytes&& other) noexcept {
    Bytes moved(std::move(other));
    Swap(moved);
    return *this;
  }
  ~Bytes() {
    if (slab_ != nullptr && --slab_->refs == 0) Free(slab_);
  }

  /// Bytes [offset, offset + len) of this buffer, sharing its slab.
  Bytes Slice(size_t offset, size_t len) const;

  /// Exactly `len` bytes: this buffer when it has that size, a slice of it
  /// when longer, else a copy zero-padded at the end.
  Bytes Fit(size_t len) const;

  const uint8_t* data() const {
    return slab_ != nullptr ? slab_->bytes + offset_ : nullptr;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size_; }
  uint8_t operator[](size_t i) const { return data()[i]; }

  std::vector<uint8_t> ToVector() const {
    return std::vector<uint8_t>(begin(), end());
  }

  /// Slabs alive in this process. Tests use it to see that a slab is freed
  /// with its last handle.
  static uint64_t live_slabs();

  /// Equal contents.
  friend bool operator==(const Bytes& a, const Bytes& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.data(), b.data(), a.size_) == 0);
  }

 private:
  /// Header of one allocation. A built slab's bytes follow the header in
  /// the same allocation; an adopted vector keeps its own buffer.
  struct Slab {
    uint32_t refs;
    uint8_t* bytes;
    std::vector<uint8_t> adopted;
  };

  /// One allocation: a header with one reference, then `inline_len`
  /// uninitialized bytes that `bytes` points at.
  static Slab* NewSlab(size_t inline_len);
  static void Free(Slab* slab);
  /// A handle on a new slab of `len` uninitialized bytes.
  static Bytes Allocate(size_t len);

  void Swap(Bytes& other) noexcept {
    std::swap(slab_, other.slab_);
    std::swap(offset_, other.offset_);
    std::swap(size_, other.size_);
  }

  Slab* slab_ = nullptr;
  uint32_t offset_ = 0;
  uint32_t size_ = 0;
};

// Every flash page-table entry holds one Bytes beside the page's spare
// bytes.
static_assert(sizeof(Bytes) <= 16, "Bytes must stay a 16-byte handle");

}  // namespace xssd

#endif  // XSSD_COMMON_BYTES_H_
