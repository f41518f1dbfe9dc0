// Tests for the CRC-10 (AAL3/4) and CRC-32 (Ethernet FCS) implementations:
// slicing-by-8 vs bit-serial agreement (lengths around the 8-byte step,
// unaligned starts), known vectors, and the detection properties §4.2.1
// leans on.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomBuffer(Rng& rng, size_t n) {
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  const std::vector<uint8_t> data = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) {
  EXPECT_EQ(Crc32({}), 0u);
  EXPECT_EQ(Crc32Reference({}), 0u);
}

class CrcLengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CrcLengthTest, TableMatchesBitSerialCrc10) {
  Rng rng(GetParam() + 1);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, GetParam());
    EXPECT_EQ(Crc10(buf), Crc10Reference(buf));
  }
}

TEST_P(CrcLengthTest, TableMatchesBitSerialCrc32) {
  Rng rng(GetParam() + 1000);
  for (int trial = 0; trial < 20; ++trial) {
    const auto buf = RandomBuffer(rng, GetParam());
    EXPECT_EQ(Crc32(buf), Crc32Reference(buf));
  }
}

// Lengths straddle the 8-byte slicing step (tails of 0-7 bytes), the SAR
// payload (44), SAR-PDU (48) and cell (53) sizes, the Ethernet MTU and
// maximum frame (1500, 1518), and the 9188-byte ATM MTU.
INSTANTIATE_TEST_SUITE_P(Lengths, CrcLengthTest,
                         ::testing::Values(0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 44, 47, 48, 49, 53,
                                           64, 100, 1500, 1518, 9188),
                         [](const auto& inst) { return "n" + std::to_string(inst.param); });

// The 8-byte kernel reads its input with byte-assembled loads, so any start
// address works: spans into a larger buffer at offsets 1-7 must match the
// bit-serial oracles over the same bytes.
TEST(Crc, UnalignedStartsMatchBitSerial) {
  Rng rng(11);
  const auto backing = RandomBuffer(rng, 9188 + 8);
  for (size_t offset = 1; offset <= 7; ++offset) {
    for (size_t len : {size_t{9}, size_t{17}, size_t{48}, size_t{1518}, size_t{9188}}) {
      const std::span<const uint8_t> view(backing.data() + offset, len);
      EXPECT_EQ(Crc10(view), Crc10Reference(view)) << "offset " << offset << " len " << len;
      EXPECT_EQ(Crc32(view), Crc32Reference(view)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc10, TenBitRange) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto buf = RandomBuffer(rng, 48);
    EXPECT_LE(Crc10(buf), 0x3FFu);
  }
}

TEST(Crc10, DetectsEverySingleBitFlipInACell) {
  Rng rng(6);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
      EXPECT_NE(Crc10(buf), want) << "byte " << byte << " bit " << bit;
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << bit));
    }
  }
}

TEST(Crc10, DetectsBurstsUpToTenBits) {
  // A CRC of degree 10 detects every burst of length <= 10.
  Rng rng(7);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (int burst_len = 2; burst_len <= 10; ++burst_len) {
    for (int start_bit = 0; start_bit + burst_len <= 48 * 8; start_bit += 37) {
      auto corrupted = buf;
      // A burst starts and ends with flipped bits.
      for (int i : {0, burst_len - 1}) {
        const int bit = start_bit + i;
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
      EXPECT_NE(Crc10(corrupted), want) << "burst " << burst_len << " at " << start_bit;
    }
  }
}

TEST(Crc10, MissesGeneratorMultiple) {
  // XORing the generator polynomial's bit pattern into the message adds a
  // multiple of g(x), which the CRC cannot detect — the §4.2.1 source-(4)
  // error our fault injector synthesizes.
  constexpr uint32_t kGeneratorBits = 0x633;
  Rng rng(8);
  auto buf = RandomBuffer(rng, 48);
  const uint16_t want = Crc10(buf);
  for (size_t bit_off = 0; bit_off + 11 <= 48 * 8 - 10; bit_off += 53) {
    auto corrupted = buf;
    for (int i = 0; i < 11; ++i) {
      if ((kGeneratorBits >> (10 - i)) & 1) {
        const size_t bit = bit_off + static_cast<size_t>(i);
        corrupted[bit / 8] = static_cast<uint8_t>(corrupted[bit / 8] ^ (0x80u >> (bit % 8)));
      }
    }
    EXPECT_NE(corrupted, buf);
    EXPECT_EQ(Crc10(corrupted), want) << "offset " << bit_off;
  }
}

TEST(Crc32, DetectsRandomMultiBitDamage) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    auto buf = RandomBuffer(rng, 200);
    const uint32_t want = Crc32(buf);
    const int flips = 1 + static_cast<int>(rng.NextBelow(6));
    for (int i = 0; i < flips; ++i) {
      const size_t byte = rng.NextBelow(buf.size());
      buf[byte] = static_cast<uint8_t>(buf[byte] ^ (1u << rng.NextBelow(8)));
    }
    if (Crc32(buf) == want) {
      // Only acceptable if the flips happened to cancel out exactly.
      EXPECT_EQ(Crc32Reference(buf), want);
    }
  }
}

}  // namespace
}  // namespace tcplat
