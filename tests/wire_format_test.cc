// Tests for the wire formats: IPv4/TCP/Ethernet header serialization and
// parsing, TCP options, and the link-layer Wire timing model.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/link/wire.h"
#include "src/net/byte_order.h"
#include "src/net/wire.h"
#include "tests/drop_if.h"

namespace tcplat {
namespace {

TEST(ByteOrder, RoundTrips) {
  uint8_t buf[4];
  StoreBe16(buf, 0xBEEF);
  EXPECT_EQ(buf[0], 0xBE);
  EXPECT_EQ(buf[1], 0xEF);
  EXPECT_EQ(LoadBe16(buf), 0xBEEF);
  StoreBe32(buf, 0xDEADBEEF);
  EXPECT_EQ(LoadBe32(buf), 0xDEADBEEFu);
  EXPECT_EQ(buf[0], 0xDE);
}

TEST(Addr, Formatting) {
  EXPECT_EQ(AddrToString(MakeAddr(10, 0, 0, 1)), "10.0.0.1");
  EXPECT_EQ((SockAddr{MakeAddr(192, 168, 1, 2), 80}).ToString(), "192.168.1.2:80");
}

TEST(Ipv4Header, SerializeParseRoundTrip) {
  Ipv4Header h;
  h.tos = 0x10;
  h.total_length = 1234;
  h.id = 77;
  h.dont_fragment = true;
  h.frag_offset = 0;
  h.ttl = 31;
  h.protocol = kIpProtoTcp;
  h.src = MakeAddr(10, 0, 0, 1);
  h.dst = MakeAddr(10, 0, 0, 2);
  h.FillChecksum();

  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  auto parsed = Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tos, h.tos);
  EXPECT_EQ(parsed->total_length, h.total_length);
  EXPECT_EQ(parsed->id, h.id);
  EXPECT_EQ(parsed->dont_fragment, true);
  EXPECT_EQ(parsed->more_fragments, false);
  EXPECT_EQ(parsed->ttl, h.ttl);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_TRUE(Ipv4Header::VerifyChecksum(std::span<const uint8_t>(buf, sizeof(buf))));
}

TEST(Ipv4Header, ChecksumCatchesCorruption) {
  Ipv4Header h;
  h.total_length = 40;
  h.src = MakeAddr(1, 2, 3, 4);
  h.dst = MakeAddr(5, 6, 7, 8);
  h.FillChecksum();
  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  for (size_t i = 0; i < sizeof(buf); ++i) {
    buf[i] ^= 0x01;
    EXPECT_FALSE(Ipv4Header::VerifyChecksum(std::span<const uint8_t>(buf, sizeof(buf))))
        << "byte " << i;
    buf[i] ^= 0x01;
  }
}

TEST(Ipv4Header, FragmentFieldsRoundTrip) {
  Ipv4Header h;
  h.total_length = 60;
  h.more_fragments = true;
  h.frag_offset = 185;  // in 8-byte units
  h.FillChecksum();
  uint8_t buf[kIpv4HeaderBytes];
  h.Serialize(buf);
  auto parsed = Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->more_fragments);
  EXPECT_EQ(parsed->frag_offset, 185);
}

TEST(Ipv4Header, RejectsTruncatedAndBadVersion) {
  uint8_t buf[kIpv4HeaderBytes] = {0x45};
  EXPECT_FALSE(Ipv4Header::Parse(std::span<const uint8_t>(buf, 10)).has_value());
  buf[0] = 0x55;
  EXPECT_FALSE(Ipv4Header::Parse(std::span<const uint8_t>(buf, sizeof(buf))).has_value());
}

TEST(TcpFlags, PackUnpackAllCombinations) {
  for (int bits = 0; bits < 64; ++bits) {
    const TcpFlags f = TcpFlags::Unpack(static_cast<uint8_t>(bits));
    EXPECT_EQ(f.Pack(), bits);
  }
}

TEST(TcpHeader, PlainHeaderRoundTrip) {
  TcpHeader h;
  h.src_port = 20000;
  h.dst_port = 5001;
  h.seq = 0xDEADBEEF;
  h.ack = 0x01020304;
  h.flags.ack = true;
  h.flags.psh = true;
  h.window = 8192;
  h.checksum = 0xABCD;
  h.urgent = 0;
  ASSERT_EQ(h.HeaderLength(), kTcpMinHeaderBytes);

  std::vector<uint8_t> buf(h.HeaderLength());
  h.Serialize(buf);
  auto parsed = TcpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src_port, h.src_port);
  EXPECT_EQ(parsed->dst_port, h.dst_port);
  EXPECT_EQ(parsed->seq, h.seq);
  EXPECT_EQ(parsed->ack, h.ack);
  EXPECT_EQ(parsed->flags, h.flags);
  EXPECT_EQ(parsed->window, h.window);
  EXPECT_EQ(parsed->checksum, h.checksum);
}

TEST(TcpHeader, SynOptionsRoundTrip) {
  TcpHeader h;
  h.flags.syn = true;
  h.options.mss = 9148;
  h.options.alt_checksum = kTcpAltChecksumNone;
  EXPECT_EQ(h.options.WireLength() % 4, 0u);
  EXPECT_EQ(h.HeaderLength(), kTcpMinHeaderBytes + 8);

  std::vector<uint8_t> buf(h.HeaderLength());
  h.Serialize(buf);
  auto parsed = TcpHeader::Parse(buf);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->options.mss.has_value());
  EXPECT_EQ(*parsed->options.mss, 9148);
  ASSERT_TRUE(parsed->options.alt_checksum.has_value());
  EXPECT_EQ(*parsed->options.alt_checksum, kTcpAltChecksumNone);
}

TEST(TcpOptions, ParseToleratesNopAndTruncation) {
  // NOP NOP MSS(4) then a truncated option.
  const std::vector<uint8_t> raw = {kTcpOptNop, kTcpOptNop, kTcpOptMss, 4, 0x23, 0xBC,
                                    kTcpOptAltChecksumRequest};
  const TcpOptions opts = TcpOptions::Parse(raw);
  ASSERT_TRUE(opts.mss.has_value());
  EXPECT_EQ(*opts.mss, 0x23BC);
  EXPECT_FALSE(opts.alt_checksum.has_value());
}

TEST(TcpPseudoHeader, Layout) {
  TcpPseudoHeader ph;
  ph.src = MakeAddr(1, 2, 3, 4);
  ph.dst = MakeAddr(9, 8, 7, 6);
  ph.tcp_length = 100;
  const auto b = ph.Serialize();
  EXPECT_EQ(LoadBe32(&b[0]), ph.src);
  EXPECT_EQ(LoadBe32(&b[4]), ph.dst);
  EXPECT_EQ(b[8], 0);
  EXPECT_EQ(b[9], kIpProtoTcp);
  EXPECT_EQ(LoadBe16(&b[10]), 100);
}

TEST(EtherHeader, RoundTrip) {
  EtherHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {7, 8, 9, 10, 11, 12};
  h.ethertype = kEtherTypeIpv4;
  uint8_t buf[kEtherHeaderBytes];
  h.Serialize(buf);
  auto parsed = EtherHeader::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->ethertype, kEtherTypeIpv4);
}

// --- link-layer Wire timing ---

TEST(Wire, SerializationAndPropagationTiming) {
  Wire wire(100e6, SimDuration::FromNanos(300));  // 100 Mbit/s
  std::vector<uint8_t> unit(1250, 0);
  const WireFate fate = wire.Transmit(SimTime(), unit);
  // 1250 bytes at 100 Mbit/s = 100 us on the wire.
  EXPECT_EQ(fate.departure, SimTime::FromMicros(100));
  ASSERT_EQ(fate.arrivals().size(), 1u);
  EXPECT_EQ(fate.arrivals()[0], SimTime::FromMicros(100) + SimDuration::FromNanos(300));
}

TEST(Wire, BackToBackUnitsQueue) {
  Wire wire(8e6, SimDuration());  // 1 byte per microsecond
  std::vector<uint8_t> first_unit(10, 0);
  std::vector<uint8_t> second_unit(5, 0);
  const SimTime first = wire.Transmit(SimTime(), first_unit).departure;
  EXPECT_EQ(first, SimTime::FromMicros(10));
  // Requested at t=0 but the wire is busy until t=10.
  const SimTime second = wire.Transmit(SimTime(), second_unit).departure;
  EXPECT_EQ(second, SimTime::FromMicros(15));
  EXPECT_EQ(wire.free_at(), SimTime::FromMicros(15));
}

TEST(Wire, GapBytesAddTimeButNotData) {
  Wire wire(8e6, SimDuration(), /*gap_bytes=*/20);
  std::vector<uint8_t> unit(10, 0);
  const WireFate fate = wire.Transmit(SimTime(), unit);
  EXPECT_EQ(fate.departure, SimTime::FromMicros(30));  // 10 + 20 gap bytes of time
  EXPECT_EQ(wire.bytes_sent(), 10u);                   // but only 10 bytes of data
}

TEST(Wire, DeliversExactBytesAndCorruptHookApplies) {
  Wire wire(1e9, SimDuration());
  Rng rng(3);
  std::vector<uint8_t> payload(64);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> got = payload;
  EXPECT_EQ(wire.Transmit(SimTime(), got).copies, 1);
  EXPECT_EQ(got, payload);

  wire.set_corrupt_hook([](std::span<uint8_t> d) { d[0] ^= 0xFF; });
  got = payload;
  EXPECT_EQ(wire.Transmit(wire.free_at(), got).copies, 1);
  EXPECT_NE(got, payload);
  EXPECT_EQ(got[0], static_cast<uint8_t>(payload[0] ^ 0xFF));
  EXPECT_EQ(wire.units_sent(), 2u);
}

TEST(Wire, DroppedUnitIsLostInFlight) {
  Wire wire(8e6, SimDuration::FromNanos(300));
  DropIf drop_all([](std::span<const uint8_t>) { return true; });
  wire.set_impairment(&drop_all);
  std::vector<uint8_t> unit(10, 0);
  const WireFate fate = wire.Transmit(SimTime(), unit);
  // The sender still paid serialization; nothing arrives.
  EXPECT_EQ(fate.departure, SimTime::FromMicros(10));
  EXPECT_TRUE(fate.arrivals().empty());
  EXPECT_EQ(wire.units_dropped(), 1u);
}

}  // namespace
}  // namespace tcplat
