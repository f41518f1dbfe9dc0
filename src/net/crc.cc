#include "src/net/crc.h"

#include <array>

namespace tcplat {
namespace {

// Slicing-by-8 (Kounavis & Berry): table k maps a byte to the register it
// leaves behind after that byte and k zero bytes, so eight bytes fold into
// the register with eight independent lookups instead of a chain of eight.
constexpr size_t kSlices = 8;
template <typename T>
using SliceTables = std::array<std::array<T, 256>, kSlices>;

// CRC-10 generator x^10 + x^9 + x^5 + x^4 + x + 1; as a 10-bit mask (the
// implicit x^10 term dropped): bits 9, 5, 4, 1, 0 -> 0x233.
constexpr uint16_t kCrc10Poly = 0x233;

// One byte step of the MSB-first 10-bit register: the byte enters at the
// top (bits 9..2) and eight bits shift out.
constexpr uint16_t Crc10Byte(const std::array<uint16_t, 256>& table, uint16_t crc, uint8_t b) {
  return static_cast<uint16_t>(((crc << 8) ^ table[((crc >> 2) ^ b) & 0xFF]) & 0x3FF);
}

constexpr SliceTables<uint16_t> MakeCrc10Tables() {
  SliceTables<uint16_t> t{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint16_t crc = static_cast<uint16_t>(byte << 2);  // align byte to bit 9
    for (int bit = 0; bit < 8; ++bit) {
      if (crc & 0x200) {
        crc = static_cast<uint16_t>(((crc << 1) ^ kCrc10Poly) & 0x3FF);
      } else {
        crc = static_cast<uint16_t>((crc << 1) & 0x3FF);
      }
    }
    t[0][byte] = crc;
  }
  for (size_t k = 1; k < kSlices; ++k) {
    for (size_t byte = 0; byte < 256; ++byte) {
      t[k][byte] = Crc10Byte(t[0], t[k - 1][byte], 0);
    }
  }
  return t;
}

// Reflected IEEE 802.3 polynomial.
constexpr uint32_t kCrc32Poly = 0xEDB88320u;

constexpr SliceTables<uint32_t> MakeCrc32Tables() {
  SliceTables<uint32_t> t{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32Poly : crc >> 1;
    }
    t[0][byte] = crc;
  }
  for (size_t k = 1; k < kSlices; ++k) {
    for (size_t byte = 0; byte < 256; ++byte) {
      const uint32_t prev = t[k - 1][byte];
      t[k][byte] = (prev >> 8) ^ t[0][prev & 0xFF];
    }
  }
  return t;
}

constexpr SliceTables<uint16_t> kCrc10Tables = MakeCrc10Tables();  // 4 KB
constexpr SliceTables<uint32_t> kCrc32Tables = MakeCrc32Tables();  // 8 KB

// Byte-assembled loads: no alignment requirement on `p`, and compilers
// turn each into a single (byte-swapped where needed) load.
inline uint32_t LoadBe32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) | (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | p[3];
}
inline uint32_t LoadLe32(const uint8_t* p) {
  return p[0] | (static_cast<uint32_t>(p[1]) << 8) | (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint16_t Crc10(std::span<const uint8_t> data) {
  const auto& t = kCrc10Tables;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint16_t crc = 0;
  for (; n >= kSlices; n -= kSlices, p += kSlices) {
    // The 10-bit register overlaps the first bytes of the block: align it
    // to the top of a 32-bit word and fold it into them.
    const uint32_t hi = (static_cast<uint32_t>(crc) << 22) ^ LoadBe32(p);
    const uint32_t lo = LoadBe32(p + 4);
    crc = static_cast<uint16_t>(t[7][hi >> 24] ^ t[6][(hi >> 16) & 0xFF] ^
                                t[5][(hi >> 8) & 0xFF] ^ t[4][hi & 0xFF] ^ t[3][lo >> 24] ^
                                t[2][(lo >> 16) & 0xFF] ^ t[1][(lo >> 8) & 0xFF] ^
                                t[0][lo & 0xFF]);
  }
  for (; n > 0; --n, ++p) {
    crc = Crc10Byte(t[0], crc, *p);
  }
  return crc;
}

uint16_t Crc10Reference(std::span<const uint8_t> data) {
  // Bit-serial: shift each message bit (MSB first) into a 10-bit register.
  uint16_t crc = 0;
  for (uint8_t byte : data) {
    for (int bit = 7; bit >= 0; --bit) {
      const uint16_t in = static_cast<uint16_t>((byte >> bit) & 1);
      const uint16_t top = static_cast<uint16_t>((crc >> 9) & 1);
      crc = static_cast<uint16_t>((crc << 1) & 0x3FF);
      if (top ^ in) {
        crc = static_cast<uint16_t>(crc ^ kCrc10Poly);
      }
    }
  }
  return crc;
}

uint32_t Crc32(std::span<const uint8_t> data) {
  const auto& t = kCrc32Tables;
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= kSlices; n -= kSlices, p += kSlices) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return crc ^ 0xFFFFFFFFu;
}

uint32_t Crc32Reference(std::span<const uint8_t> data) {
  uint32_t crc = 0xFFFFFFFFu;
  for (uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32Poly : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace tcplat
