// Tests for ICMP: message framing and checksum, ping over the ATM testbed,
// and the forwarding path's error generation (time exceeded, destination
// unreachable) on the routed topology.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/core/testbed.h"
#include "src/icmp/icmp.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

// Client — gateway — server across two Ethernet segments.
TestbedConfig RoutedConfig() {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  cfg.routed = true;
  return cfg;
}

TEST(IcmpMessage, SerializeParseRoundTrip) {
  IcmpMessage msg;
  msg.type = IcmpType::kEchoRequest;
  msg.id = 0x1234;
  msg.seq = 7;
  msg.payload = {1, 2, 3, 4, 5};
  const auto wire = msg.Serialize();
  ASSERT_EQ(wire.size(), kIcmpHeaderBytes + 5);

  bool checksum_ok = false;
  auto parsed = IcmpMessage::Parse(wire, &checksum_ok);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(checksum_ok);
  EXPECT_EQ(parsed->type, IcmpType::kEchoRequest);
  EXPECT_EQ(parsed->id, 0x1234);
  EXPECT_EQ(parsed->seq, 7);
  EXPECT_EQ(parsed->payload, msg.payload);
}

TEST(IcmpMessage, ChecksumCatchesDamage) {
  IcmpMessage msg;
  msg.payload = {9, 9, 9, 9};
  auto wire = msg.Serialize();
  wire[9] ^= 0x01;
  bool checksum_ok = true;
  IcmpMessage::Parse(wire, &checksum_ok);
  EXPECT_FALSE(checksum_ok);
}

struct PingResult {
  std::vector<IcmpStack::Event> events;
  std::vector<double> rtts_us;
  bool done = false;
};

SimTask Pinger(Host* host, IcmpStack* icmp, Ipv4Addr dst, int count, uint8_t ttl,
               PingResult* out) {
  std::vector<uint8_t> payload(56, 0xA5);  // the classic default ping size
  for (int i = 0; i < count; ++i) {
    const SimTime t0 = host->CurrentTime();
    icmp->SendEcho(dst, /*id=*/1, payload, ttl);
    IcmpStack::Event ev;
    while (!icmp->PollEvent(&ev)) {
      co_await icmp->WaitReadable();
    }
    out->rtts_us.push_back((host->CurrentTime() - t0).micros());
    out->events.push_back(std::move(ev));
  }
  out->done = true;
}

TEST(Icmp, PingOverAtm) {
  Testbed tb{TestbedConfig{}};
  IcmpStack client_icmp(&tb.client_ip());
  IcmpStack server_icmp(&tb.server_ip());

  PingResult result;
  tb.client_host().Spawn("ping",
                         Pinger(&tb.client_host(), &client_icmp, kServerAddr, 4, 64, &result));
  tb.sim().RunToCompletion();
  ASSERT_TRUE(result.done);
  ASSERT_EQ(result.events.size(), 4u);
  for (const auto& ev : result.events) {
    EXPECT_EQ(ev.message.type, IcmpType::kEchoReply);
    EXPECT_EQ(ev.from, kServerAddr);
    EXPECT_EQ(ev.message.payload.size(), 56u);
  }
  EXPECT_EQ(server_icmp.stats().echo_requests_received, 4u);
  // Ping skips the transport layer entirely: it should beat the TCP echo
  // RTT for a similar size (paper Table 1: ~1100 us at this scale).
  EXPECT_LT(result.rtts_us.back(), 1100.0);
  EXPECT_GT(result.rtts_us.back(), 300.0);
}

TEST(Icmp, PingThroughGateway) {
  Testbed net(RoutedConfig());
  IcmpStack client_icmp(&net.client_ip());
  IcmpStack gw_icmp(&net.gateway_ip());
  IcmpStack server_icmp(&net.server_ip());

  PingResult result;
  net.client_host().Spawn(
      "ping", Pinger(&net.client_host(), &client_icmp, kServerAddr, 3, 64, &result));
  net.sim().RunToCompletion();
  ASSERT_TRUE(result.done);
  ASSERT_EQ(result.events.size(), 3u);
  EXPECT_EQ(result.events[0].message.type, IcmpType::kEchoReply);
  EXPECT_EQ(result.events[0].from, kServerAddr);
  EXPECT_GE(net.gateway_ip().stats().forwarded, 6u);  // both directions
}

TEST(Icmp, TtlExpiryYieldsTimeExceededFromGateway) {
  Testbed net(RoutedConfig());
  IcmpStack client_icmp(&net.client_ip());
  IcmpStack gw_icmp(&net.gateway_ip());
  IcmpStack server_icmp(&net.server_ip());

  PingResult result;
  net.client_host().Spawn(
      "ping-ttl1",
      Pinger(&net.client_host(), &client_icmp, kServerAddr, 1, /*ttl=*/1, &result));
  net.sim().RunToCompletion();
  ASSERT_TRUE(result.done);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].message.type, IcmpType::kTimeExceeded);
  EXPECT_EQ(result.events[0].from, kGatewayClientAddr) << "the gateway must identify itself";
  // The error quotes the offending packet's header.
  ASSERT_GE(result.events[0].message.payload.size(), kIpv4HeaderBytes);
  auto quoted = Ipv4Header::Parse(result.events[0].message.payload);
  ASSERT_TRUE(quoted.has_value());
  EXPECT_EQ(quoted->dst, kServerAddr);
  EXPECT_EQ(quoted->ttl, 1);
}

TEST(Icmp, UnroutableYieldsDestinationUnreachable) {
  Testbed net(RoutedConfig());
  IcmpStack client_icmp(&net.client_ip());
  IcmpStack gw_icmp(&net.gateway_ip());

  PingResult result;
  net.client_host().Spawn(
      "ping-nowhere",
      Pinger(&net.client_host(), &client_icmp, MakeAddr(10, 0, 9, 9), 1, 64, &result));
  net.sim().RunToCompletion();
  ASSERT_TRUE(result.done);
  ASSERT_EQ(result.events.size(), 1u);
  EXPECT_EQ(result.events[0].message.type, IcmpType::kDestUnreachable);
  EXPECT_EQ(net.gateway_ip().stats().no_route, 1u);
}

TEST(Icmp, NoErrorsAboutIcmpErrorMessages) {
  // RFC 1122 discipline: when an ICMP *error* message dies in transit (here
  // a destination-unreachable with TTL 1), the gateway must not generate a
  // time-exceeded about it. Echo requests, by contrast, do elicit errors —
  // that is how traceroute works (covered above).
  Testbed net(RoutedConfig());
  IcmpStack client_icmp(&net.client_ip());
  IcmpStack gw_icmp(&net.gateway_ip());

  bool sent = false;
  net.client_host().Spawn("raw", [](Testbed* n, bool* flag) -> SimTask {
    // Hand-built ICMP destination-unreachable, TTL 1.
    IcmpMessage err;
    err.type = IcmpType::kDestUnreachable;
    err.payload.assign(28, 0);
    const auto wire = err.Serialize();
    MbufPtr m = n->client_host().pool().GetHeader(40);
    std::memcpy(m->Append(wire.size()).data(), wire.data(), wire.size());
    n->client_ip().Output(std::move(m), kClientAddr, kServerAddr, kIpProtoIcmp,
                          /*ttl=*/1);
    *flag = true;
    co_return;
  }(&net, &sent));
  net.sim().RunToCompletion();
  ASSERT_TRUE(sent);
  EXPECT_EQ(net.gateway_ip().stats().ttl_expired, 1u);
  EXPECT_EQ(gw_icmp.stats().errors_sent, 0u)
      << "no time-exceeded about a dying error message";
  EXPECT_EQ(client_icmp.stats().errors_received, 0u);
}

}  // namespace
}  // namespace tcplat
