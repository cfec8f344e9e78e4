#include "src/base/crc32.h"

#include <array>

namespace afs {
namespace {

// Table-driven CRC-32C, reflected polynomial 0x82f63b78, sliced by 8: kTables[0] is the
// classic byte table, and kTables[k][i] advances kTables[k-1][i] by one more zero byte, so
// one step folds eight input bytes with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xff] ^
          kTables[2][(hi >> 8) & 0xff] ^ kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xff];
  }
  return ~crc;
}

}  // namespace afs
