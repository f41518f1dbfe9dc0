// Tests for ARP: packet framing, cold-start resolution (broadcast who-has,
// unicast reply, pending-queue flush), learning from requests, timeouts for
// silent addresses, and TCP running over a completely cold cache.

#include <gtest/gtest.h>

#include <cstring>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/ether/arp.h"
#include "src/ether/ether_netif.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

TEST(ArpPacket, SerializeParseRoundTrip) {
  ArpPacket p;
  p.op = ArpOp::kRequest;
  p.sender_mac = {1, 2, 3, 4, 5, 6};
  p.sender_ip = MakeAddr(10, 0, 0, 1);
  p.target_mac = {};
  p.target_ip = MakeAddr(10, 0, 0, 2);
  const auto wire = p.Serialize();
  ASSERT_EQ(wire.size(), kArpPacketBytes);
  auto q = ArpPacket::Parse(wire);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->op, ArpOp::kRequest);
  EXPECT_EQ(q->sender_mac, p.sender_mac);
  EXPECT_EQ(q->sender_ip, p.sender_ip);
  EXPECT_EQ(q->target_ip, p.target_ip);
}

TEST(ArpPacket, RejectsNonEthernetIpv4) {
  ArpPacket p;
  auto wire = p.Serialize();
  wire[1] = 9;  // htype
  EXPECT_FALSE(ArpPacket::Parse(wire).has_value());
  EXPECT_FALSE(ArpPacket::Parse(std::vector<uint8_t>(10, 0)).has_value());
}

TEST(ArpCache, PendingQueueBoundsAndFlush) {
  ArpCache cache;
  const Ipv4Addr ip = MakeAddr(1, 1, 1, 1);
  for (size_t i = 0; i < ArpCache::kMaxPendingPerAddr; ++i) {
    EXPECT_TRUE(cache.Enqueue(ip, std::vector<uint8_t>{static_cast<uint8_t>(i)}));
  }
  EXPECT_FALSE(cache.Enqueue(ip, {0xFF})) << "queue is bounded";
  EXPECT_EQ(cache.PendingCount(ip), ArpCache::kMaxPendingPerAddr);
  const auto flushed = cache.TakePending(ip);
  EXPECT_EQ(flushed.size(), ArpCache::kMaxPendingPerAddr);
  EXPECT_EQ(flushed[0][0], 0);
  EXPECT_FALSE(cache.HasPending(ip));
}

// A two-host Ethernet segment with *no* static bindings.
struct ColdEthernet {
  ColdEthernet()
      : sim(1),
        a_host(&sim, "a", CostProfile::Decstation5000_200()),
        b_host(&sim, "b", CostProfile::Decstation5000_200()),
        a_ip(&a_host, MakeAddr(10, 0, 0, 1)),
        b_ip(&b_host, MakeAddr(10, 0, 0, 2)),
        segment(&sim, SimDuration::FromNanos(300)),
        a_if(&a_ip, &a_host, &segment, MacAddr{2, 0, 0, 0, 0, 1}),
        b_if(&b_ip, &b_host, &segment, MacAddr{2, 0, 0, 0, 0, 2}),
        a_tcp(&a_ip, TcpConfig{}),
        b_tcp(&b_ip, TcpConfig{}) {}

  Simulator sim;
  Host a_host;
  Host b_host;
  IpStack a_ip;
  IpStack b_ip;
  EtherSegment segment;
  EtherNetIf a_if;
  EtherNetIf b_if;
  TcpStack a_tcp;
  TcpStack b_tcp;
};

SimTask ColdEcho(ColdEthernet* net, std::vector<uint8_t>* got, bool* done) {
  Socket* s = net->a_tcp.Connect(SockAddr{MakeAddr(10, 0, 0, 2), 5001});
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  if (s->has_error()) {
    *done = true;
    co_return;
  }
  std::vector<uint8_t> msg(300, 0x6B);
  size_t sent = 0;
  while (sent < msg.size()) {
    sent += s->Write({msg.data() + sent, msg.size() - sent});
  }
  std::vector<uint8_t> buf(1024);
  while (got->size() < msg.size()) {
    const size_t n = s->Read(buf);
    if (n > 0) {
      got->insert(got->end(), buf.begin(), buf.begin() + n);
    } else {
      if (s->eof() || s->has_error()) {
        break;
      }
      co_await s->WaitReadable();
    }
  }
  *done = true;
}

SimTask ColdEchoServer(ColdEthernet* net) {
  Socket* listener = net->b_tcp.Listen(5001);
  Socket* s = nullptr;
  while (s == nullptr) {
    s = listener->Accept();
    if (s == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
  std::vector<uint8_t> buf(1024);
  size_t echoed = 0;
  while (echoed < 300) {
    const size_t n = s->Read(buf);
    if (n > 0) {
      size_t sent = 0;
      while (sent < n) {
        sent += s->Write({buf.data() + sent, n - sent});
      }
      echoed += n;
    } else {
      co_await s->WaitReadable();
    }
  }
}

TEST(Arp, ColdStartResolutionThenTcpWorks) {
  ColdEthernet net;
  std::vector<uint8_t> got;
  bool done = false;
  net.b_host.Spawn("server", ColdEchoServer(&net));
  net.a_host.Spawn("client", ColdEcho(&net, &got, &done));
  net.sim.RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(got.size(), 300u);

  // The SYN triggered exactly one who-has broadcast from A; B answered and
  // also learned A's address from the request (so B never had to ask).
  EXPECT_EQ(net.a_if.arp_stats().requests_sent, 1u);
  EXPECT_EQ(net.a_if.arp_stats().replies_received, 1u);
  EXPECT_EQ(net.a_if.arp_stats().resolutions, 1u);
  EXPECT_EQ(net.b_if.arp_stats().requests_received, 1u);
  EXPECT_EQ(net.b_if.arp_stats().replies_sent, 1u);
  EXPECT_EQ(net.b_if.arp_stats().requests_sent, 0u) << "B learned A from the request";
  EXPECT_EQ(net.a_if.arp_stats().timeouts, 0u);
}

TEST(Arp, SilentAddressTimesOutAndDropsQueue) {
  ColdEthernet net;
  bool done = false;
  net.a_host.Spawn("talker", [](ColdEthernet* n, bool* flag) -> SimTask {
    // Three packets to an address nobody owns.
    for (int i = 0; i < 3; ++i) {
      MbufPtr m = n->a_host.pool().GetHeader(40);
      std::memset(m->Append(20).data(), 0xCC, 20);
      n->a_ip.Output(std::move(m), MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 99), 250);
    }
    *flag = true;
    co_return;
  }(&net, &done));
  net.sim.RunToCompletion();
  ASSERT_TRUE(done);
  EXPECT_EQ(net.a_if.arp_stats().requests_sent, 1u) << "one who-has per unresolved burst";
  EXPECT_EQ(net.a_if.arp_stats().timeouts, 3u);
  EXPECT_EQ(net.a_host.pool().stats().in_use, 0) << "queued packets must not leak mbufs";
}

TEST(Arp, PreseededCacheNeverAsks) {
  // The standard Testbed seeds both ends (the paper's fixed pair).
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 20;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_EQ(tb.ether_netif(0).arp_stats().requests_sent, 0u);
  EXPECT_EQ(tb.ether_netif(1).arp_stats().requests_sent, 0u);
}

}  // namespace
}  // namespace tcplat
