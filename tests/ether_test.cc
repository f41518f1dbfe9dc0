// Tests for the Ethernet baseline: frame construction with FCS, hardware
// CRC filtering, destination-MAC filtering with a third station on the bus,
// minimum-frame padding, and half-duplex serialization timing.

#include <gtest/gtest.h>

#include <span>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/net/crc.h"

namespace tcplat {
namespace {

TEST(Ether, FramesCarryValidFcs) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  // Capture raw frames off the bus.
  std::vector<std::vector<uint8_t>> frames;
  tb.ether_segment()->set_corrupt_hook(
      [&frames](std::span<uint8_t> frame) { frames.emplace_back(frame.begin(), frame.end()); });
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 5;
  opt.warmup = 0;
  RunRpcBenchmark(tb, opt);
  ASSERT_GT(frames.size(), 8u);
  for (const auto& f : frames) {
    ASSERT_GE(f.size(), kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes);
    const size_t fcs_off = f.size() - kEtherCrcBytes;
    EXPECT_EQ(Crc32({f.data(), fcs_off}),
              (static_cast<uint32_t>(f[fcs_off]) << 24) |
                  (static_cast<uint32_t>(f[fcs_off + 1]) << 16) |
                  (static_cast<uint32_t>(f[fcs_off + 2]) << 8) | f[fcs_off + 3]);
    auto hdr = EtherHeader::Parse(f);
    ASSERT_TRUE(hdr.has_value());
    EXPECT_EQ(hdr->ethertype, kEtherTypeIpv4);
  }
}

TEST(Ether, MinimumFramePaddingForTinySegments) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  size_t min_frame = SIZE_MAX;
  tb.ether_segment()->set_corrupt_hook([&min_frame](std::span<uint8_t> frame) {
    min_frame = std::min(min_frame, frame.size());
  });
  RpcOptions opt;
  opt.size = 4;  // IP(20)+TCP(20)+4 = 44 < the 46-byte minimum payload
  opt.iterations = 5;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u) << "padding must be trimmed by total_length";
  EXPECT_EQ(min_frame, kEtherHeaderBytes + kEtherMinPayload + kEtherCrcBytes);
}

TEST(Ether, CorruptedFrameDroppedByHardwareCrc) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  int countdown = 12;
  tb.ether_segment()->set_corrupt_hook([&countdown](std::span<uint8_t> frame) {
    if (--countdown == 0) {
      frame[frame.size() / 2] ^= 0x08;
    }
  });
  RpcOptions opt;
  opt.size = 500;
  opt.iterations = 30;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(tb.client_ether()->stats().crc_errors + tb.server_ether()->stats().crc_errors, 1u);
  EXPECT_GE(r.client_tcp.rexmt_timeouts + r.server_tcp.rexmt_timeouts, 1u)
      << "the lost frame must be recovered by retransmission";
}

TEST(Ether, ThirdStationFiltersForeignTraffic) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  // A bystander NIC on the same segment with its own host and IP stack.
  Host snooper_host(&tb.sim(), "snooper", CostProfile::Decstation5000_200());
  IpStack snooper_ip(&snooper_host, MakeAddr(10, 0, 0, 3));
  EtherNetIf snooper(&snooper_ip, &snooper_host, tb.ether_segment(),
                     MacAddr{0x02, 0, 0, 0, 0, 3});
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 20;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(snooper.stats().not_for_us, 0u) << "the bystander saw the frames";
  EXPECT_EQ(snooper.stats().frames_received, 0u) << "...but accepted none";
  EXPECT_EQ(snooper_ip.stats().packets_received, 0u);
}

TEST(Ether, HalfDuplexSerializesTheBus) {
  // Both directions share one 10 Mbit/s medium: a frame requested while
  // another is on the wire waits its turn (plus preamble + IFG).
  Simulator sim;
  EtherSegment segment(&sim, SimDuration::FromNanos(300));
  const SimTime first = segment.Transmit(SimTime(), std::vector<uint8_t>(1000, 0));
  const SimTime second = segment.Transmit(SimTime(), std::vector<uint8_t>(1000, 0));
  // 1000 + 20 gap bytes at 10 Mbit/s = 816 us each.
  EXPECT_NEAR(first.micros(), 816.0, 1.0);
  EXPECT_NEAR(second.micros(), 1632.0, 1.0);
  sim.RunToCompletion();
}

TEST(Ether, MtuEnforced) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  EXPECT_EQ(tb.client_ether()->mtu(), kEtherMtu);
  // MSS negotiation already clamps TCP segments; verify the driver agrees
  // with the interface contract.
  RpcOptions opt;
  opt.size = 8000;
  opt.iterations = 5;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
}

}  // namespace
}  // namespace tcplat
