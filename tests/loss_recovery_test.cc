// Recovery-mechanics tests: pin down *how* the stack repairs specific,
// surgically injected losses on the Ethernet testbed. A DropIf impairment
// parses raw frames off the bus, so each test removes exactly the unit it
// means to (first data segment, Nth retransmission, first pure ACK) and then
// asserts the recovery path the BSD code is supposed to take — rexmt timer
// with exponential backoff, cumulative-ACK repair, duplicate/reorder
// immunity.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/fault/impairment.h"
#include "src/fault/scenario.h"
#include "src/tcp/segment_tap.h"
#include "tests/drop_if.h"

namespace tcplat {
namespace {

// Fields of one Ethernet frame as seen by the bus drop predicate.
struct FrameView {
  bool is_tcp = false;
  bool from_client = false;
  uint8_t tcp_flags = 0;
  uint32_t seq = 0;
  size_t payload = 0;  // TCP payload bytes
};

constexpr uint8_t kFlagFin = 0x01;
constexpr uint8_t kFlagSyn = 0x02;
constexpr uint8_t kFlagAck = 0x10;

FrameView ParseFrame(std::span<const uint8_t> f) {
  FrameView v;
  if (f.size() < 14 + 20) {
    return v;
  }
  const uint16_t ethertype = static_cast<uint16_t>((f[12] << 8) | f[13]);
  if (ethertype != 0x0800) {
    return v;  // ARP and friends pass untouched
  }
  const size_t ip_off = 14;
  const size_t ihl = static_cast<size_t>(f[ip_off] & 0x0F) * 4;
  const uint16_t ip_total = static_cast<uint16_t>((f[ip_off + 2] << 8) | f[ip_off + 3]);
  if (f[ip_off + 9] != 6 || f.size() < ip_off + ihl + 20) {
    return v;  // not TCP
  }
  const size_t tcp_off = ip_off + ihl;
  v.is_tcp = true;
  // Testbed MACs are 02:00:00:00:00:01 (client) / :02 (server).
  v.from_client = f[11] == 0x01;
  v.seq = (static_cast<uint32_t>(f[tcp_off + 4]) << 24) |
          (static_cast<uint32_t>(f[tcp_off + 5]) << 16) |
          (static_cast<uint32_t>(f[tcp_off + 6]) << 8) | f[tcp_off + 7];
  v.tcp_flags = f[tcp_off + 13];
  const size_t tcp_hdr = static_cast<size_t>(f[tcp_off + 12] >> 4) * 4;
  v.payload = ip_total - ihl - tcp_hdr;
  return v;
}

TestbedConfig EtherConfig() {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  return cfg;
}

RpcOptions EchoOptions(size_t size, int iterations) {
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  opt.warmup = 0;  // losses land in the measured region
  opt.verify_data = true;
  return opt;
}

TEST(LossRecovery, SingleDataSegmentLossRecoversByRexmtTimer) {
  Testbed tb(EtherConfig());
  int dropped = 0;
  DropIf drop([&](std::span<const uint8_t> f) {
    const FrameView v = ParseFrame(f);
    if (v.is_tcp && v.from_client && v.payload > 0 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  tb.ether_segment()->set_impairment(&drop);

  const RpcResult r = RunRpcBenchmark(tb, EchoOptions(512, 3));
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(r.rtt.count(), 3u);
  EXPECT_EQ(r.data_mismatches, 0u);
  // The lost segment is repaired by the retransmission timer: exactly one
  // timeout, and the first echo pays at least rexmt_min (300 ms) against a
  // clean-link RTT of a few milliseconds.
  EXPECT_EQ(r.client_tcp.rexmt_timeouts, 1u);
  EXPECT_GE(r.client_tcp.retransmits, 1u);
  EXPECT_GT(r.rtt.Max().millis(), 300.0);
  EXPECT_LT(r.rtt.Min().millis(), 50.0);
}

TEST(LossRecovery, RepeatedLossBacksOffExponentially) {
  Testbed tb(EtherConfig());
  SegmentTap tap;
  tb.client_tcp().set_tap(&tap);
  // Swallow the first three transmissions of the first data segment; the
  // fourth attempt goes through.
  int dropped = 0;
  DropIf drop([&](std::span<const uint8_t> f) {
    const FrameView v = ParseFrame(f);
    if (v.is_tcp && v.from_client && v.payload > 0 && dropped < 3) {
      ++dropped;
      return true;
    }
    return false;
  });
  tb.ether_segment()->set_impairment(&drop);

  const RpcResult r = RunRpcBenchmark(tb, EchoOptions(512, 2));
  EXPECT_EQ(dropped, 3);
  EXPECT_EQ(r.rtt.count(), 2u);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GE(r.client_tcp.rexmt_timeouts, 3u);

  // Every transmission of the first data segment, original included, is in
  // the tap; successive gaps are the backed-off RTO and must double.
  std::vector<SimTime> sends;
  bool have_seq = false;
  uint32_t first_seq = 0;
  for (const SegmentTap::Record& rec : tap.records()) {
    if (!rec.outbound || rec.payload_len == 0) {
      continue;
    }
    if (!have_seq) {
      have_seq = true;
      first_seq = rec.header.seq;
    }
    if (rec.header.seq == first_seq) {
      sends.push_back(rec.time);
    }
  }
  ASSERT_GE(sends.size(), 4u);
  const double g1 = (sends[1] - sends[0]).micros();
  const double g2 = (sends[2] - sends[1]).micros();
  const double g3 = (sends[3] - sends[2]).micros();
  EXPECT_GE(g1, 300e3 * 0.9);  // first RTO ~ rexmt_min
  EXPECT_NEAR(g2 / g1, 2.0, 0.5);
  EXPECT_NEAR(g3 / g2, 2.0, 0.5);
}

TEST(LossRecovery, LostAckRepairedByNextCumulativeAck) {
  // The 8000-byte echo return is a multi-segment burst, so the client emits
  // several pure ACKs back to back — each triggered by arriving data, not by
  // its predecessor. Dropping one of those (the third client pure ACK; the
  // first is the handshake ACK) is repaired by the next cumulative ACK: no
  // timer, no retransmission, and the transfer pays essentially nothing.
  // (Dropping a *solitary* ACK — e.g. the very first window ACK — stalls the
  // strictly ACK-clocked sender until RTO; SingleDataSegmentLoss covers the
  // timer path.)
  auto run = [](int drop_index) {
    Testbed tb(EtherConfig());
    int seen = 0;
    int dropped = 0;
    DropIf drop([&](std::span<const uint8_t> f) {
      const FrameView v = ParseFrame(f);
      if (v.is_tcp && v.from_client && v.payload == 0 && v.tcp_flags == kFlagAck) {
        if (seen++ == drop_index) {
          ++dropped;
          return true;
        }
      }
      return false;
    });
    tb.ether_segment()->set_impairment(&drop);
    RpcResult r = RunRpcBenchmark(tb, EchoOptions(8000, 3));
    EXPECT_EQ(dropped, drop_index >= 0 ? 1 : 0);
    return r;
  };

  const RpcResult clean = run(-1);
  const RpcResult r = run(2);
  EXPECT_EQ(r.rtt.count(), 3u);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(r.client_tcp.retransmits + r.server_tcp.retransmits, 0u);
  EXPECT_EQ(r.client_tcp.rexmt_timeouts + r.server_tcp.rexmt_timeouts, 0u);
  // Cumulative repair costs at most a couple of milliseconds, not an RTO.
  EXPECT_LT(r.rtt.sum().millis() - clean.rtt.sum().millis(), 10.0);
}

TEST(LossRecovery, SynLossRecoversAndConnects) {
  Testbed tb(EtherConfig());
  int dropped = 0;
  DropIf drop([&](std::span<const uint8_t> f) {
    const FrameView v = ParseFrame(f);
    if (v.is_tcp && v.from_client && (v.tcp_flags & kFlagSyn) != 0 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  });
  tb.ether_segment()->set_impairment(&drop);

  const RpcResult r = RunRpcBenchmark(tb, EchoOptions(512, 2));
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(r.rtt.count(), 2u);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GE(r.client_tcp.rexmt_timeouts, 1u);
}

TEST(LossRecovery, DuplicatedFramesNeverCorruptTheStream) {
  Testbed tb(EtherConfig());
  ImpairmentConfig imp;
  imp.duplicate_prob = 1.0;  // every frame arrives twice
  imp.duplicate_lag = SimDuration::FromMicros(50);
  ImpairmentPolicy policy(imp);
  tb.ether_segment()->set_impairment(&policy);

  const RpcResult r = RunRpcBenchmark(tb, EchoOptions(1024, 10));
  tb.ether_segment()->set_impairment(nullptr);

  EXPECT_EQ(r.rtt.count(), 10u);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(policy.stats().duplicated, 0u);
  EXPECT_EQ(policy.stats().duplicated, policy.stats().offered);
  EXPECT_EQ(policy.stats().delivered + policy.stats().dropped, policy.stats().offered);
  // Duplicates below rcv_nxt provoke immediate ACKs but never bad data, and
  // nothing is lost, so the timer stays quiet.
  EXPECT_EQ(r.client_tcp.rexmt_timeouts, 0u);
  EXPECT_EQ(r.server_tcp.rexmt_timeouts, 0u);
}

TEST(LossRecovery, ReorderedFramesNeverCorruptTheStream) {
  Testbed tb(EtherConfig());
  ImpairmentConfig imp;
  // A 3 ms hold against ~1.2 ms frame serialization lets back-to-back
  // segments of the 8000-byte burst overtake each other on the bus.
  imp.reorder_prob = 0.5;
  imp.reorder_hold = SimDuration::FromMillis(3);
  imp.seed = 5;
  ImpairmentPolicy policy(imp);
  tb.ether_segment()->set_impairment(&policy);

  const RpcResult r = RunRpcBenchmark(tb, EchoOptions(8000, 10));
  tb.ether_segment()->set_impairment(nullptr);

  EXPECT_EQ(r.rtt.count(), 10u);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(policy.stats().reordered, 0u);
  EXPECT_EQ(policy.stats().dropped, 0u);
  EXPECT_GT(r.client_tcp.out_of_order_segs + r.server_tcp.out_of_order_segs, 0u);
}

// Loss and duplication on a switched testbed's host fibers: the switch's
// cell books must still balance at quiescence. RunRpcBenchmark drains
// through Testbed::RunToCompletion, whose conservation CHECK counts the
// cells each fiber lost or duplicated in flight.
TEST(LossRecovery, SwitchedFiberLossAndDuplicationConserveCells) {
  LossScenarioConfig cfg;
  cfg.switched = true;
  cfg.impairment.drop_prob = 2e-3;
  cfg.impairment.duplicate_prob = 2e-3;
  cfg.size = 1024;
  cfg.iterations = 60;
  const LossScenarioResult r = RunLossScenario(cfg);
  EXPECT_GT(r.link.dropped, 0u);
  EXPECT_GT(r.link.duplicated, 0u);
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace tcplat
