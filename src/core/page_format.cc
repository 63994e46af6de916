#include "core/page_format.h"

#include <cstring>

#include "common/crc32.h"
#include "common/logging.h"

namespace xssd::core {

namespace {

void EncodeHeader(const DestagePageHeader& header, uint8_t* out) {
  std::memcpy(out + 0, &header.magic, 4);
  std::memcpy(out + 4, &header.crc, 4);
  std::memcpy(out + 8, &header.sequence, 8);
  std::memcpy(out + 16, &header.stream_offset, 8);
  std::memcpy(out + 24, &header.data_len, 4);
  std::memcpy(out + 28, &header.epoch, 4);
}

DestagePageHeader DecodeHeader(const uint8_t* in) {
  DestagePageHeader header;
  std::memcpy(&header.magic, in + 0, 4);
  std::memcpy(&header.crc, in + 4, 4);
  std::memcpy(&header.sequence, in + 8, 8);
  std::memcpy(&header.stream_offset, in + 16, 8);
  std::memcpy(&header.data_len, in + 24, 4);
  std::memcpy(&header.epoch, in + 28, 4);
  return header;
}

uint32_t PageCrc(const DestagePageHeader& header, const uint8_t* data,
                 size_t len) {
  DestagePageHeader crc_view = header;
  crc_view.crc = 0;
  uint8_t image[DestagePageHeader::kSize];
  EncodeHeader(crc_view, image);
  uint32_t crc = Crc32c(image, sizeof(image));
  return Crc32c(data, len, crc);
}

}  // namespace

void SealDestagePage(const DestagePageHeader& header, uint8_t* page,
                     uint32_t page_bytes) {
  uint8_t* payload = page + DestagePageHeader::kSize;
  DestagePageHeader out = header;
  out.crc = PageCrc(header, payload, header.data_len);
  EncodeHeader(out, page);
  std::memset(payload + header.data_len, 0,
              DestagePayloadCapacity(page_bytes) - header.data_len);
}

Result<ParsedDestagePage> ParseDestagePage(const std::vector<uint8_t>& page) {
  if (page.size() < DestagePageHeader::kSize) {
    return Status::InvalidArgument("page smaller than header");
  }
  DestagePageHeader header = DecodeHeader(page.data());
  if (header.magic != DestagePageHeader::kMagic) {
    return Status::NotFound("no destage header (unwritten page)");
  }
  if (header.data_len > page.size() - DestagePageHeader::kSize) {
    return Status::Corruption("data length exceeds page");
  }
  uint32_t expect = PageCrc(header, page.data() + DestagePageHeader::kSize,
                            header.data_len);
  if (expect != header.crc) {
    return Status::Corruption("destage page CRC mismatch");
  }
  ParsedDestagePage parsed;
  parsed.header = header;
  parsed.data.assign(
      page.begin() + DestagePageHeader::kSize,
      page.begin() + DestagePageHeader::kSize + header.data_len);
  return parsed;
}

}  // namespace xssd::core
