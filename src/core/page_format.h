#ifndef XSSD_CORE_PAGE_FORMAT_H_
#define XSSD_CORE_PAGE_FORMAT_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/logging.h"
#include "common/status.h"

namespace xssd::core {

/// \brief On-flash layout of one destaged page.
///
/// The Destage module bundles a run of the append stream into a flash page
/// with this self-describing header (paper §4.3: partial pages carry filler
/// to "complete a page's worth of data"). After a crash, recovery scans the
/// destage ring, validates CRCs, and reassembles the stream from
/// (stream_offset, data_len) runs — stopping at the first hole.
struct DestagePageHeader {
  static constexpr uint32_t kMagic = 0x58535344;  // "XSSD"
  static constexpr uint32_t kSize = 32;

  uint32_t magic = kMagic;
  uint32_t crc = 0;           ///< CRC-32C over header (crc=0) + data
  uint64_t sequence = 0;      ///< destage ring sequence number
  uint64_t stream_offset = 0; ///< first stream byte stored in this page
  uint32_t data_len = 0;      ///< valid bytes after the header
  uint32_t epoch = 0;         ///< device epoch that wrote the page
};

/// Stream payload bytes a page of `page_bytes` can carry.
constexpr uint32_t DestagePayloadCapacity(uint32_t page_bytes) {
  return page_bytes - DestagePageHeader::kSize;
}

/// Finish a page image whose header.data_len payload bytes already sit in
/// their slot: write the header with its CRC and zero the filler after the
/// payload. BuildDestagePage's second pass; call that instead.
void SealDestagePage(const DestagePageHeader& header, uint8_t* page,
                     uint32_t page_bytes);

/// Assemble a full page image in one pass: `fill_payload(uint8_t* out)`
/// writes the header.data_len payload bytes straight into their slot, then
/// the header (with the CRC, computed once) and zero filler go around them.
template <typename FillPayload>
Bytes BuildDestagePage(const DestagePageHeader& header, uint32_t page_bytes,
                       FillPayload&& fill_payload) {
  XSSD_CHECK(page_bytes >= DestagePageHeader::kSize &&
             header.data_len <= DestagePayloadCapacity(page_bytes));
  return Bytes::Build(page_bytes, [&](uint8_t* page) {
    fill_payload(page + DestagePageHeader::kSize);
    SealDestagePage(header, page, page_bytes);
  });
}

/// Parsed view of a destaged page.
struct ParsedDestagePage {
  DestagePageHeader header;
  std::vector<uint8_t> data;
};

/// Validate magic + CRC and extract the payload. kNotFound for a page that
/// was never destaged (no magic); kCorruption for a bad CRC.
Result<ParsedDestagePage> ParseDestagePage(const std::vector<uint8_t>& page);

}  // namespace xssd::core

#endif  // XSSD_CORE_PAGE_FORMAT_H_
