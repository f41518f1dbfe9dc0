// Tests for IP forwarding: a three-host topology (client — gateway —
// server) across two Ethernet segments, exercising route lookup, TTL
// handling, and the §4.2.1 source-(3) argument — errors introduced inside
// a gateway are invisible to every link-level CRC, so traffic that crosses
// a router must keep the TCP checksum ("eliminate ... only for local-area
// traffic").

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/core/routed_testbed.h"
#include "src/ether/ether_netif.h"
#include "src/os/task.h"
#include "src/tcp/tcp_stack.h"

namespace tcplat {
namespace {

constexpr Ipv4Addr kClientIp = kRoutedClientAddr;
constexpr Ipv4Addr kServerIp = kRoutedServerAddr;
constexpr uint16_t kPort = 5001;

using RoutedNet = RoutedTestbed;

struct EchoResult {
  std::vector<uint8_t> received;
  bool client_done = false;
  bool server_done = false;
  bool client_error = false;
};

SimTask EchoServer(RoutedNet* net, EchoResult* out, size_t bytes) {
  Socket* listener = net->server_tcp().Listen(kPort);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(8192);
  size_t got = 0;
  while (got < bytes) {
    const size_t n = s->Read(buf);
    if (n > 0) {
      size_t sent = 0;
      while (sent < n) {
        const size_t w = s->Write({buf.data() + sent, n - sent});
        sent += w;
        if (w == 0) {
          co_await s->WaitWritable();
        }
      }
      got += n;
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  out->server_done = got == bytes;
}

SimTask EchoClient(RoutedNet* net, EchoResult* out, std::vector<uint8_t> data) {
  Socket* s = net->client_tcp().Connect(SockAddr{kServerIp, kPort});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  if (s->has_error()) {
    out->client_error = true;
    out->client_done = true;
    co_return;
  }
  size_t sent = 0;
  while (sent < data.size()) {
    const size_t n = s->Write({data.data() + sent, data.size() - sent});
    sent += n;
    if (n == 0) {
      co_await s->WaitWritable();
    }
  }
  std::vector<uint8_t> buf(8192);
  while (out->received.size() < data.size()) {
    const size_t n = s->Read(buf);
    if (n > 0) {
      out->received.insert(out->received.end(), buf.begin(), buf.begin() + n);
    } else {
      if (s->eof() || s->has_error()) {
        out->client_error = true;
        break;
      }
      co_await s->WaitReadable();
    }
  }
  s->Close();
  out->client_done = true;
}

std::vector<uint8_t> Payload(size_t n, uint64_t seed = 5) {
  Rng rng(seed);
  std::vector<uint8_t> buf(n);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

TEST(Routing, TcpEchoAcrossGateway) {
  RoutedNet net;
  EchoResult result;
  const auto data = Payload(2000);
  net.server_host().Spawn("server", EchoServer(&net, &result, data.size()));
  net.client_host().Spawn("client", EchoClient(&net, &result, data));
  net.sim().RunToCompletion();
  ASSERT_TRUE(result.client_done);
  EXPECT_FALSE(result.client_error);
  EXPECT_EQ(result.received, data);
  EXPECT_GT(net.gateway_ip().stats().forwarded, 4u);
  EXPECT_EQ(net.gateway_ip().stats().no_route, 0u);
}

TEST(Routing, TtlDecrementedByGateway) {
  RoutedNet net;
  // Capture a frame on the right segment and inspect its TTL.
  uint8_t seen_ttl = 0;
  net.right_segment().set_corrupt_hook([&seen_ttl](std::span<uint8_t> frame) {
    if (seen_ttl == 0) {
      seen_ttl = frame[kEtherHeaderBytes + 8];
    }
  });
  EchoResult result;
  const auto data = Payload(100);
  net.server_host().Spawn("server", EchoServer(&net, &result, data.size()));
  net.client_host().Spawn("client", EchoClient(&net, &result, data));
  net.sim().RunToCompletion();
  EXPECT_EQ(result.received, data);
  EXPECT_EQ(seen_ttl, 63) << "TCP sends TTL 64; one hop must cost one";
}

TEST(Routing, TtlExpiryDropsAtGateway) {
  RoutedNet net;
  Host& h = net.client_host();
  bool done = false;
  // Hand-build a TTL-1 packet and push it out the client interface.
  h.Spawn("raw", [](RoutedNet* n, bool* flag) -> SimTask {
    MbufPtr m = n->client_host().pool().GetHeader(40);
    std::memset(m->Append(30).data(), 0xEE, 30);
    n->client_ip().Output(std::move(m), kClientIp, kServerIp, 250, /*ttl=*/1);
    *flag = true;
    co_return;
  }(&net, &done));
  net.sim().RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(net.gateway_ip().stats().ttl_expired, 1u);
  EXPECT_EQ(net.server_ip().stats().packets_received, 0u);
}

TEST(Routing, GatewayMemoryCorruptionNeedsTheTcpChecksum) {
  // §4.2.1 source (3): damage inside the gateway is re-CRCed by the
  // outbound link, so only an end-to-end check can see it. With the TCP
  // checksum on, the stream survives via retransmission...
  RoutedNet with_cksum;
  auto rng = std::make_shared<Rng>(17);
  int corruptions = 0;
  with_cksum.gateway_ip().set_forward_corrupt_hook(
      [rng, &corruptions](std::vector<uint8_t>& pkt) {
        if (pkt.size() > 60 && rng->NextBool(0.4)) {
          pkt[45] ^= 0x20;  // payload byte, past IP+TCP headers
          ++corruptions;
        }
      });
  EchoResult result;
  const auto data = Payload(16000);
  with_cksum.server_host().Spawn("server", EchoServer(&with_cksum, &result, data.size()));
  with_cksum.client_host().Spawn("client", EchoClient(&with_cksum, &result, data));
  with_cksum.sim().RunToCompletion();
  EXPECT_GT(corruptions, 0);
  EXPECT_EQ(result.received, data) << "TCP checksum + retransmission must mask the gateway";
  EXPECT_GT(with_cksum.client_tcp().stats().checksum_errors +
                with_cksum.server_tcp().stats().checksum_errors,
            0u);

  // ...with it negotiated off, the corruption lands in the application:
  // the paper's rule is precisely that the no-checksum option is for
  // traffic that crosses no IP routers.
  TcpConfig no_cksum;
  no_cksum.checksum = ChecksumMode::kNone;
  RoutedTestbedConfig no_cksum_cfg;
  no_cksum_cfg.tcp = no_cksum;
  RoutedNet without(no_cksum_cfg);
  auto rng2 = std::make_shared<Rng>(17);
  without.gateway_ip().set_forward_corrupt_hook([rng2](std::vector<uint8_t>& pkt) {
    if (pkt.size() > 60 && rng2->NextBool(0.4)) {
      pkt[45] ^= 0x20;
    }
  });
  EchoResult result2;
  without.server_host().Spawn("server", EchoServer(&without, &result2, data.size()));
  without.client_host().Spawn("client", EchoClient(&without, &result2, data));
  without.sim().RunToCompletion();
  ASSERT_TRUE(result2.client_done);
  EXPECT_EQ(result2.received.size(), data.size());
  EXPECT_NE(result2.received, data) << "without the checksum the damage goes through";
}

TEST(Routing, GatewayDropsUnroutableDestinations) {
  RoutedNet net;
  bool done = false;
  net.client_host().Spawn("raw", [](RoutedNet* n, bool* flag) -> SimTask {
    MbufPtr m = n->client_host().pool().GetHeader(40);
    std::memset(m->Append(30).data(), 0xEE, 30);
    // 10.0.9.9 matches no gateway route.
    n->client_ip().Output(std::move(m), kClientIp, MakeAddr(10, 0, 9, 9), 250);
    *flag = true;
    co_return;
  }(&net, &done));
  net.sim().RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(net.gateway_ip().stats().no_route, 1u);
}

}  // namespace
}  // namespace tcplat
