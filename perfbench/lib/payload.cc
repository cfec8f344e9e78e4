#include "lib/payload.h"

#include <cstring>

#include "src/base/crc32.h"

namespace perfbench {
namespace {

constexpr uint32_t kMagic = 0x50425047;  // "PBPG"
constexpr size_t kHeaderBytes = 24;

void Put32(uint8_t* p, uint32_t v) { std::memcpy(p, &v, 4); }
void Put64(uint8_t* p, uint64_t v) { std::memcpy(p, &v, 8); }
uint32_t Get32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t Get64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

}  // namespace

std::vector<uint8_t> EncodePayload(const PageStamp& stamp, size_t bytes) {
  std::vector<uint8_t> out(bytes < kMinPayloadBytes ? kMinPayloadBytes : bytes);
  Put32(&out[0], kMagic);
  Put32(&out[4], stamp.file);
  Put32(&out[8], stamp.page);
  Put32(&out[12], stamp.writer);
  Put64(&out[16], stamp.seq);
  // Filler from a xorshift stream keyed by the header, so two stamps never share bytes.
  uint64_t x = (static_cast<uint64_t>(stamp.file) << 40) ^ (uint64_t{stamp.page} << 20) ^
               (uint64_t{stamp.writer} << 52) ^ stamp.seq ^ 0x9e3779b97f4a7c15ull;
  for (size_t i = kHeaderBytes; i + 4 < out.size(); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<uint8_t>(x);
  }
  const size_t body = out.size() - 4;
  Put32(&out[body], afs::Crc32c(out.data(), body));
  return out;
}

bool DecodePayload(std::span<const uint8_t> data, uint32_t file, uint32_t page,
                   PageStamp* out, std::string* error) {
  if (data.size() < kMinPayloadBytes) {
    *error = "payload too short (" + std::to_string(data.size()) + " bytes)";
    return false;
  }
  const size_t body = data.size() - 4;
  if (Get32(data.data()) != kMagic) {
    *error = "bad payload magic";
    return false;
  }
  if (afs::Crc32c(data.data(), body) != Get32(data.data() + body)) {
    *error = "payload CRC mismatch";
    return false;
  }
  PageStamp s;
  s.file = Get32(data.data() + 4);
  s.page = Get32(data.data() + 8);
  s.writer = Get32(data.data() + 12);
  s.seq = Get64(data.data() + 16);
  if (s.file != file || s.page != page) {
    *error = "misplaced page: got file " + std::to_string(s.file) + " page " +
             std::to_string(s.page) + ", wanted file " + std::to_string(file) + " page " +
             std::to_string(page);
    return false;
  }
  *out = s;
  return true;
}

}  // namespace perfbench
