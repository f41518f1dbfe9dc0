// Tests for the UDP substrate: framing, checksum (and its optionality),
// demux, fragmentation of large datagrams, and the echo path over the ATM
// testbed.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/os/task.h"
#include "src/udp/udp.h"

namespace tcplat {
namespace {

std::vector<uint8_t> RandomData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(UdpHeader, RoundTrip) {
  UdpHeader h;
  h.src_port = 111;
  h.dst_port = 2049;  // NFS, naturally
  h.length = 108;
  h.checksum = 0xBEEF;
  uint8_t buf[kUdpHeaderBytes];
  h.Serialize(buf);
  auto p = UdpHeader::Parse(std::span<const uint8_t>(buf, sizeof(buf)));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->src_port, 111);
  EXPECT_EQ(p->dst_port, 2049);
  EXPECT_EQ(p->length, 108);
  EXPECT_EQ(p->checksum, 0xBEEF);
}

struct UdpEndpoint {
  UdpSocket* sock = nullptr;
  std::vector<uint8_t> received;
  SockAddr peer;
  bool done = false;
};

SimTask UdpEchoServer(Testbed* tb, UdpEndpoint* ep, uint16_t port, int count, bool checksum) {
  UdpSocket* s = tb->server_udp().CreateSocket(port);
  s->set_checksum_enabled(checksum);
  ep->sock = s;
  std::vector<uint8_t> buf(65536);
  for (int i = 0; i < count; ++i) {
    size_t n = 0;
    SockAddr from;
    while ((n = s->RecvFrom(buf, &from)) == 0) {
      co_await s->WaitReadable();
    }
    s->SendTo({buf.data(), n}, from);
  }
  ep->done = true;
}

SimTask UdpClient(Testbed* tb, UdpEndpoint* ep, SockAddr server,
                  std::vector<std::vector<uint8_t>> messages, bool checksum) {
  UdpSocket* s = tb->client_udp().CreateSocket();
  s->set_checksum_enabled(checksum);
  ep->sock = s;
  std::vector<uint8_t> buf(65536);
  for (const auto& msg : messages) {
    EXPECT_TRUE(s->SendTo(msg, server));
    size_t n = 0;
    while ((n = s->RecvFrom(buf, &ep->peer)) == 0) {
      co_await s->WaitReadable();
    }
    ep->received.insert(ep->received.end(), buf.begin(), buf.begin() + n);
  }
  ep->done = true;
}

class UdpTest : public ::testing::TestWithParam<bool> {
 protected:
  void RunEcho(Testbed& tb, const std::vector<size_t>& sizes, bool checksum) {
    std::vector<std::vector<uint8_t>> messages;
    std::vector<uint8_t> all;
    for (size_t i = 0; i < sizes.size(); ++i) {
      messages.push_back(RandomData(sizes[i], i + 1));
      all.insert(all.end(), messages.back().begin(), messages.back().end());
    }
    server_ = {};
    client_ = {};
    tb.server_host().Spawn(
        "udp-server",
        UdpEchoServer(&tb, &server_, 2049, static_cast<int>(sizes.size()), checksum));
    tb.client_host().Spawn(
        "udp-client",
        UdpClient(&tb, &client_, SockAddr{kServerAddr, 2049}, messages, checksum));
    tb.sim().RunToCompletion();
    ASSERT_TRUE(client_.done);
    ASSERT_TRUE(server_.done);
    EXPECT_EQ(client_.received, all);
  }

  UdpEndpoint client_;
  UdpEndpoint server_;
};

TEST_P(UdpTest, EchoAcrossSizes) {
  Testbed tb{TestbedConfig{}};
  RunEcho(tb, {1, 4, 100, 500, 1400, 4000, 8000}, GetParam());
  EXPECT_EQ(tb.client_udp().stats().checksum_errors, 0u);
  EXPECT_EQ(tb.server_udp().stats().checksum_errors, 0u);
}

TEST_P(UdpTest, EchoOverEthernetFragments) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  // 4000-byte datagrams exceed the 1500-byte MTU: IP must fragment.
  RunEcho(tb, {4000, 2000}, GetParam());
  EXPECT_GT(tb.client_ip().stats().fragments_sent, 0u);
  EXPECT_GT(tb.server_ip().stats().reassembled, 0u);
}

INSTANTIATE_TEST_SUITE_P(Checksum, UdpTest, ::testing::Bool(),
                         [](const auto& inst) { return inst.param ? "on" : "off"; });

TEST(UdpBasics, PeerAddressReported) {
  Testbed tb{TestbedConfig{}};
  UdpEndpoint server;
  UdpEndpoint client;
  tb.server_host().Spawn("s", UdpEchoServer(&tb, &server, 53, 1, true));
  tb.client_host().Spawn(
      "c", UdpClient(&tb, &client, SockAddr{kServerAddr, 53}, {RandomData(32, 1)}, true));
  tb.sim().RunToCompletion();
  EXPECT_EQ(client.peer.addr, kServerAddr);
  EXPECT_EQ(client.peer.port, 53);
}

TEST(UdpBasics, UnboundPortCounted) {
  Testbed tb{TestbedConfig{}};
  UdpEndpoint client;
  tb.client_host().Spawn(
      "c", [](Testbed* t, UdpEndpoint* ep) -> SimTask {
        UdpSocket* s = t->client_udp().CreateSocket();
        ep->sock = s;
        s->SendTo(std::vector<uint8_t>(10, 1), SockAddr{kServerAddr, 9});
        ep->done = true;
        co_return;
      }(&tb, &client));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(client.done);
  EXPECT_EQ(tb.server_udp().stats().no_port, 1u);
}

TEST(UdpBasics, ChecksumOffIsZeroOnWireAndAccepted) {
  // With the toggle off the datagram carries checksum 0 and the receiver
  // skips verification — the NFS-era practice §4.2 cites.
  Testbed tb{TestbedConfig{}};
  UdpEndpoint server;
  UdpEndpoint client;
  tb.server_host().Spawn("s", UdpEchoServer(&tb, &server, 2049, 1, false));
  tb.client_host().Spawn(
      "c",
      UdpClient(&tb, &client, SockAddr{kServerAddr, 2049}, {RandomData(512, 2)}, false));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(client.done);
  EXPECT_EQ(tb.server_udp().stats().datagrams_received, 1u);
}

TEST(UdpBasics, CorruptedDatagramDroppedWhenChecksummed) {
  Testbed tb{TestbedConfig{}};
  // Defeat the cell CRC so only the UDP checksum can catch the damage.
  auto rng = std::make_shared<Rng>(5);
  int countdown = 2;
  tb.fiber(0).set_corrupt_hook([&](std::span<uint8_t> cell) {
    if (--countdown == 0) {
      // Flip an 11-bit generator pattern inside the payload (CRC-invisible).
      for (int i : {0, 1, 5, 6, 9, 10}) {  // bit pattern of the CRC-10 generator
        const size_t bit = 200 + i;
        cell[5 + bit / 8] ^= static_cast<uint8_t>(0x80u >> (bit % 8));
      }
    }
  });
  UdpEndpoint client;
  bool sent = false;
  tb.client_host().Spawn(
      "c", [](Testbed* t, UdpEndpoint* ep, bool* sent_flag) -> SimTask {
        UdpSocket* s = t->client_udp().CreateSocket();
        ep->sock = s;
        s->SendTo(std::vector<uint8_t>(400, 0xAB), SockAddr{kServerAddr, 77});
        s->SendTo(std::vector<uint8_t>(400, 0xCD), SockAddr{kServerAddr, 77});
        *sent_flag = true;
        co_return;
      }(&tb, &client, &sent));
  UdpSocket* server_sock = tb.server_udp().CreateSocket(77);
  tb.sim().RunToCompletion();
  ASSERT_TRUE(sent);
  // One of the two datagrams was corrupted in flight and dropped by the
  // UDP checksum; unlike TCP there is no retransmission.
  EXPECT_EQ(tb.server_udp().stats().checksum_errors, 1u);
  EXPECT_EQ(server_sock->pending(), 1u);
}

TEST(UdpBasics, OversizedDatagramRejected) {
  Testbed tb{TestbedConfig{}};
  bool result = true;
  tb.client_host().Spawn(
      "c", [](Testbed* t, bool* out) -> SimTask {
        UdpSocket* s = t->client_udp().CreateSocket();
        *out = s->SendTo(std::vector<uint8_t>(70000, 0), SockAddr{kServerAddr, 1});
        co_return;
      }(&tb, &result));
  tb.sim().RunToCompletion();
  EXPECT_FALSE(result);
}

}  // namespace
}  // namespace tcplat
