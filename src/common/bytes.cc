#include "common/bytes.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <limits>
#include <new>

#include "common/logging.h"

namespace xssd {

namespace {
uint64_t g_live_slabs = 0;

#if defined(__GLIBC__)
// Slabs, page images above all, are most of a model's memory, and a
// process that builds one model after another (a bench's runs, perfbench's
// episodes, a test binary) frees hundreds of MiB of them at each teardown
// and allocates them again in the next model's run. glibc hands the free
// top of the heap back to the kernel once it passes a trim threshold that
// starts at 128 KiB and rises only when a large mmapped block is freed, so
// the next model faults every page back in: ~31 k minor faults in each
// destage_mixed_io episode's timed phase, against ~700 with the heap kept.
// Keep freed heap in the process; the peak stays what one model needs.
[[maybe_unused]] const bool g_heap_kept =
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max()) == 1;
#endif
}  // namespace

Bytes::Slab* Bytes::NewSlab(size_t inline_len) {
  XSSD_CHECK(inline_len <= std::numeric_limits<uint32_t>::max());
  void* raw = ::operator new(sizeof(Slab) + inline_len);
  ++g_live_slabs;
  return new (raw) Slab{1, static_cast<uint8_t*>(raw) + sizeof(Slab), {}};
}

void Bytes::Free(Slab* slab) {
  --g_live_slabs;
  slab->~Slab();
  ::operator delete(slab);
}

Bytes::Bytes(std::vector<uint8_t>&& vec) {
  if (vec.empty()) return;
  XSSD_CHECK(vec.size() <= std::numeric_limits<uint32_t>::max());
  slab_ = NewSlab(0);
  slab_->adopted = std::move(vec);
  slab_->bytes = slab_->adopted.data();
  size_ = static_cast<uint32_t>(slab_->adopted.size());
}

Bytes Bytes::Allocate(size_t len) {
  Bytes out;
  out.slab_ = NewSlab(len);
  out.size_ = static_cast<uint32_t>(len);
  return out;
}

Bytes Bytes::Copy(const uint8_t* data, size_t len) {
  return Build(len, [&](uint8_t* out) { std::memcpy(out, data, len); });
}

Bytes Bytes::Slice(size_t offset, size_t len) const {
  XSSD_CHECK(offset <= size_ && len <= size_ - offset);
  Bytes out(*this);
  out.offset_ = static_cast<uint32_t>(offset_ + offset);
  out.size_ = static_cast<uint32_t>(len);
  return out;
}

Bytes Bytes::Fit(size_t len) const {
  if (len <= size_) return len == size_ ? *this : Slice(0, len);
  return Build(len, [&](uint8_t* out) {
    if (size_ > 0) std::memcpy(out, data(), size_);
    std::memset(out + size_, 0, len - size_);
  });
}

uint64_t Bytes::live_slabs() { return g_live_slabs; }

}  // namespace xssd
