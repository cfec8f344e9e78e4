// Self-verifying page payloads. Every page the benchmark writes encodes where it belongs
// (file, page), who wrote it (writer, sequence) and a CRC over all of it, so any read can
// check that the bytes it got back are a whole, correctly placed page image.
//
// Layout (little endian): magic u32 | file u32 | page u32 | writer u32 | seq u64 |
// filler derived from the header | crc32c u32 over everything before it.

#ifndef PERFBENCH_LIB_PAYLOAD_H_
#define PERFBENCH_LIB_PAYLOAD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr size_t kMinPayloadBytes = 32;

struct PageStamp {
  uint32_t file = 0;
  uint32_t page = 0;
  uint32_t writer = 0;
  uint64_t seq = 0;

  bool operator==(const PageStamp&) const = default;
};

std::vector<uint8_t> EncodePayload(const PageStamp& stamp, size_t bytes);

// Decodes and verifies `data` (length, magic, CRC, and that it names `file`/`page`).
// Returns false with a reason in *error on any mismatch.
bool DecodePayload(std::span<const uint8_t> data, uint32_t file, uint32_t page,
                   PageStamp* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_LIB_PAYLOAD_H_
