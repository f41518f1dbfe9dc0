// Tests for the extension features and configuration cross-products: the
// DMA adapter, mismatched checksum negotiation, the combined copy+checksum
// kernel on Ethernet (chunk/segment mismatch), and duplicate-delivery
// handling.

#include <gtest/gtest.h>

#include <span>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

RpcResult RunEcho(Testbed& tb, size_t size, int iterations = 60) {
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  opt.warmup = 8;
  return RunRpcBenchmark(tb, opt);
}

TEST(DmaAdapter, PreservesDataAndCutsLatency) {
  TestbedConfig cfg;
  Testbed pio(cfg);
  const RpcResult pio_r = RunEcho(pio, 4000);

  Testbed dma(cfg);
  dma.client_atm()->set_dma(true);
  dma.server_atm()->set_dma(true);
  const RpcResult dma_r = RunEcho(dma, 4000);

  EXPECT_EQ(dma_r.data_mismatches, 0u);
  // DMA removes the per-cell driver copies on both sides: a 4000-byte
  // round trip sheds over a millisecond.
  EXPECT_LT(dma_r.MeanRtt().micros(), pio_r.MeanRtt().micros() - 1000.0);
}

TEST(DmaAdapter, DriverSpansCollapse) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  tb.client_atm()->set_dma(true);
  tb.server_atm()->set_dma(true);
  const RpcResult r = RunEcho(tb, 4000);
  // The Table 2/3 driver rows (hundreds of microseconds under programmed
  // I/O at this size) drop to interrupt + descriptor bookkeeping.
  EXPECT_LT(r.SpanMean(SpanId::kTxDriver).micros(), 40.0);
  EXPECT_LT(r.SpanMean(SpanId::kRxDriver).micros(), 60.0);
}

TEST(DmaAdapter, ComposesWithChecksumElimination) {
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kNone;
  Testbed tb(cfg);
  tb.client_atm()->set_dma(true);
  tb.server_atm()->set_dma(true);
  const RpcResult r = RunEcho(tb, 8000);
  EXPECT_EQ(r.data_mismatches, 0u);
  // §4.2's projection: with both copies and the checksum gone, the large-
  // transfer round trip approaches wire + protocol costs.
  EXPECT_LT(r.MeanRtt().micros(), 5200.0);
}

TEST(ChecksumNegotiation, MismatchFallsBackToStandard) {
  // Client asks for no-checksum; the server stack does not permit it. The
  // connection must come up with checksums on and work.
  TestbedConfig cfg;
  Testbed tb(cfg);
  tb.client_tcp().config().checksum = ChecksumMode::kNone;
  // server stays kStandard
  const RpcResult r = RunEcho(tb, 1400);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(r.client_tcp.checksum_errors, 0u);
  EXPECT_EQ(r.server_tcp.checksum_errors, 0u);

  // And the segments really carry checksums: corrupt one CRC-invisibly and
  // TCP must catch it.
  int countdown = 30;
  tb.atm_link()->dir(0).set_corrupt_hook([&countdown](std::span<uint8_t> cell) {
    if (--countdown == 0) {
      constexpr uint32_t kGen = 0x633;
      for (int i = 0; i < 11; ++i) {
        if ((kGen >> (10 - i)) & 1) {
          const size_t bit = 160 + static_cast<size_t>(i);
          cell[5 + bit / 8] ^= static_cast<uint8_t>(0x80u >> (bit % 8));
        }
      }
    }
  });
  const RpcResult r2 = RunEcho(tb, 1400);
  EXPECT_EQ(r2.data_mismatches, 0u);
  EXPECT_EQ(r2.client_tcp.checksum_errors + r2.server_tcp.checksum_errors, 1u);
}

TEST(CombinedChecksum, EthernetChunkSegmentMismatchFallsBack) {
  // §4.1.1: the socket layer checksums per mbuf "independent of the current
  // TCP segment size". On Ethernet the MSS (1460) never matches the 4 KB
  // cluster chunks, so TCP output must recompute every time — the combined
  // kernel degenerates to standard-plus-overhead, but stays correct.
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  cfg.tcp.checksum = ChecksumMode::kCombined;
  Testbed tb(cfg);
  const RpcResult r = RunEcho(tb, 4000);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(r.client_tcp.checksum_fallbacks, r.iterations)
      << "every multi-segment chunk forces a full recompute on tx";

  TestbedConfig std_cfg;
  std_cfg.network = NetworkKind::kEthernet;
  Testbed std_tb(std_cfg);
  const RpcResult std_r = RunEcho(std_tb, 4000);
  EXPECT_GE(r.MeanRtt().micros(), std_r.MeanRtt().micros())
      << "no benefit without chunk/segment alignment";
}

TEST(DuplicateDelivery, ReAckedWithoutCorruption) {
  // Black-hole the ACK direction briefly so the server's reply is acked
  // late and the client's retransmitted request arrives as a duplicate.
  TestbedConfig cfg;
  Testbed tb(cfg);
  int kill_from = 40;
  int kill_count = 3;
  tb.atm_link()->dir(1).set_corrupt_hook(
      [&kill_from, &kill_count](std::span<uint8_t> cell) {
        if (--kill_from <= 0 && kill_count > 0) {
          cell[20] ^= 0xFF;  // CRC-visible: the cell (and its PDU) dies
          --kill_count;
        }
      });
  const RpcResult r = RunEcho(tb, 500, 40);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(r.client_tcp.retransmits + r.server_tcp.retransmits, 0u);
}

TEST(Determinism, IdenticalConfigsProduceIdenticalRuns) {
  TestbedConfig cfg;
  cfg.seed = 1234;
  Testbed a(cfg);
  Testbed b(cfg);
  const RpcResult ra = RunEcho(a, 1400);
  const RpcResult rb = RunEcho(b, 1400);
  EXPECT_EQ(ra.MeanRtt().nanos(), rb.MeanRtt().nanos());
  EXPECT_EQ(ra.client_tcp.segs_sent, rb.client_tcp.segs_sent);
  EXPECT_EQ(a.sim().events_dispatched(), b.sim().events_dispatched());
}

}  // namespace
}  // namespace tcplat
