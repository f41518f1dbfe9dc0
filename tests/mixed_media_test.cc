// The 1994 deployment topology: an ATM-attached host reaching an Ethernet
// host through a dual-homed gateway. Exercises MSS negotiation across
// unequal MTUs, gateway fragmentation of large datagrams (9188-byte ATM
// MTU down to 1500 on Ethernet), the DF bit, and end-to-end TCP across
// mixed media.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/atm/atm_netif.h"
#include "src/atm/tca100.h"
#include "src/base/random.h"
#include "src/core/testbed.h"
#include "src/ether/ether_netif.h"
#include "src/icmp/icmp.h"
#include "src/os/task.h"
#include "src/tcp/tcp_stack.h"
#include "src/udp/udp.h"

namespace tcplat {
namespace {

constexpr Ipv4Addr kAtmHostIp = MakeAddr(10, 0, 1, 1);
constexpr Ipv4Addr kGwAtmIp = MakeAddr(10, 0, 1, 254);
constexpr Ipv4Addr kGwEthIp = MakeAddr(10, 0, 2, 254);
constexpr Ipv4Addr kEthHostIp = MakeAddr(10, 0, 2, 1);
constexpr Ipv4Addr kMask24 = MakeAddr(255, 255, 255, 0);

// atm_host ==ATM fiber== gateway ==Ethernet== eth_host
struct MixedNet {
  MixedNet()
      : sim(1),
        atm_host(&sim, "atm-host", CostProfile::Decstation5000_200()),
        gw_host(&sim, "gateway", CostProfile::Decstation5000_200()),
        eth_host(&sim, "eth-host", CostProfile::Decstation5000_200()),
        atm_ip(&atm_host, kAtmHostIp),
        gw_ip(&gw_host, kGwAtmIp),
        eth_ip(&eth_host, kEthHostIp),
        fiber(kTaxiBitsPerSecond, SimDuration::FromNanos(300)),
        atm_adapter(&atm_host, &fiber.dir(0)),
        gw_adapter(&gw_host, &fiber.dir(1)),
        atm_if(&atm_ip, &atm_adapter, 42),
        gw_atm_if(&gw_ip, &gw_adapter, 42),
        segment(&sim, SimDuration::FromNanos(300)),
        gw_eth_if(&gw_ip, &gw_host, &segment, MacAddr{2, 0, 0, 0, 2, 0xFE}),
        eth_if(&eth_ip, &eth_host, &segment, MacAddr{2, 0, 0, 0, 2, 1}),
        atm_tcp(&atm_ip, TcpConfig{}),
        eth_tcp(&eth_ip, TcpConfig{}),
        atm_udp(&atm_ip),
        eth_udp(&eth_ip) {
    atm_adapter.ConnectPeer(&gw_adapter);
    gw_adapter.ConnectPeer(&atm_adapter);
    gw_eth_if.AddRoute(kEthHostIp, MacAddr{2, 0, 0, 0, 2, 1});
    eth_if.AddRoute(kGwEthIp, MacAddr{2, 0, 0, 0, 2, 0xFE});

    atm_ip.AddRoute(MakeAddr(10, 0, 1, 0), kMask24, &atm_if);
    atm_ip.AddRoute(0, 0, &atm_if, kGwAtmIp);
    eth_ip.AddRoute(MakeAddr(10, 0, 2, 0), kMask24, &eth_if);
    eth_ip.AddRoute(0, 0, &eth_if, kGwEthIp);
    gw_ip.AddRoute(MakeAddr(10, 0, 1, 0), kMask24, &gw_atm_if);
    gw_ip.AddRoute(MakeAddr(10, 0, 2, 0), kMask24, &gw_eth_if);
    gw_ip.set_forwarding(true);
  }

  Simulator sim;
  Host atm_host;
  Host gw_host;
  Host eth_host;
  IpStack atm_ip;
  IpStack gw_ip;
  IpStack eth_ip;
  DuplexLink fiber;
  Tca100 atm_adapter;
  Tca100 gw_adapter;
  AtmNetIf atm_if;
  AtmNetIf gw_atm_if;
  EtherSegment segment;
  EtherNetIf gw_eth_if;
  EtherNetIf eth_if;
  TcpStack atm_tcp;
  TcpStack eth_tcp;
  UdpStack atm_udp;
  UdpStack eth_udp;
};

SimTask UdpSink(MixedNet* net, std::vector<uint8_t>* got, bool* done) {
  UdpSocket* s = net->eth_udp.CreateSocket(7777);
  std::vector<uint8_t> buf(65536);
  size_t n = 0;
  while ((n = s->RecvFrom(buf)) == 0) {
    co_await s->WaitReadable();
  }
  got->assign(buf.begin(), buf.begin() + n);
  *done = true;
}

TEST(MixedMedia, GatewayFragmentsLargeDatagramForEthernet) {
  MixedNet net;
  std::vector<uint8_t> got;
  bool done = false;
  bool sent = false;
  net.eth_host.Spawn("sink", UdpSink(&net, &got, &done));
  net.atm_host.Spawn("sender", [](MixedNet* n, bool* flag) -> SimTask {
    // 4000 bytes fits the 9188-byte ATM MTU in one packet but not the
    // 1500-byte Ethernet MTU: the gateway must fragment.
    UdpSocket* s = n->atm_udp.CreateSocket();
    Rng rng(3);
    std::vector<uint8_t> msg(4000);
    for (auto& b : msg) {
      b = static_cast<uint8_t>(rng.Next());
    }
    s->SendTo(msg, SockAddr{kEthHostIp, 7777});
    *flag = true;
    co_return;
  }(&net, &sent));
  net.sim.RunToCompletion();
  ASSERT_TRUE(sent);
  ASSERT_TRUE(done);
  EXPECT_EQ(got.size(), 4000u);
  Rng rng(3);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], static_cast<uint8_t>(rng.Next())) << "byte " << i;
  }
  EXPECT_EQ(net.atm_ip.stats().fragments_sent, 0u) << "the source sent one packet";
  EXPECT_GE(net.gw_ip.stats().fragments_sent, 3u) << "the gateway fragmented";
  EXPECT_EQ(net.eth_ip.stats().reassembled, 1u);
}

TEST(MixedMedia, TcpNegotiatesTheSmallerMss) {
  MixedNet net;
  struct State {
    std::vector<uint8_t> echoed;
    bool done = false;
  } state;
  net.eth_host.Spawn("server", [](MixedNet* n) -> SimTask {
    Socket* listener = n->eth_tcp.Listen(5001);
    Socket* s = nullptr;
    while (s == nullptr) {
      s = listener->Accept();
      if (s == nullptr) {
        co_await listener->WaitAcceptable();
      }
    }
    std::vector<uint8_t> buf(8192);
    size_t echoed = 0;
    while (echoed < 6000) {
      const size_t n_read = s->Read(buf);
      if (n_read > 0) {
        size_t sent = 0;
        while (sent < n_read) {
          sent += s->Write({buf.data() + sent, n_read - sent});
        }
        echoed += n_read;
      } else {
        co_await s->WaitReadable();
      }
    }
  }(&net));
  net.atm_host.Spawn("client", [](MixedNet* n, State* st) -> SimTask {
    Socket* s = n->atm_tcp.Connect(SockAddr{kEthHostIp, 5001});
    while (!s->connected() && !s->has_error()) {
      co_await s->WaitConnected();
    }
    std::vector<uint8_t> msg(6000, 0x3C);
    size_t sent = 0;
    while (sent < msg.size()) {
      const size_t w = s->Write({msg.data() + sent, msg.size() - sent});
      sent += w;
      if (w == 0) {
        co_await s->WaitWritable();
      }
    }
    std::vector<uint8_t> buf(8192);
    while (st->echoed.size() < msg.size()) {
      const size_t n_read = s->Read(buf);
      if (n_read > 0) {
        st->echoed.insert(st->echoed.end(), buf.begin(), buf.begin() + n_read);
      } else {
        if (s->eof() || s->has_error()) {
          break;
        }
        co_await s->WaitReadable();
      }
    }
    st->done = true;
  }(&net, &state));
  net.sim.RunToCompletion();
  ASSERT_TRUE(state.done);
  EXPECT_EQ(state.echoed.size(), 6000u);
  // MSS 1460 won the negotiation: no IP fragmentation anywhere, and the
  // ATM host sent multiple sub-MTU segments despite its 9 KB MTU.
  EXPECT_EQ(net.gw_ip.stats().fragments_sent, 0u);
  EXPECT_GE(net.atm_tcp.stats().data_segs_sent, 5u);
}

TEST(MixedMedia, DontFragmentDrawsIcmpFragNeeded) {
  MixedNet net;
  IcmpStack atm_icmp(&net.atm_ip);
  IcmpStack gw_icmp(&net.gw_ip);
  bool sent = false;
  net.atm_host.Spawn("df-sender", [](MixedNet* n, bool* flag) -> SimTask {
    // A hand-built 3000-byte DF packet: too big for the Ethernet leg.
    MbufPtr head = n->atm_host.pool().GetHeader(40);
    MbufPtr body = n->atm_host.pool().GetCluster();
    std::memset(body->Append(3000).data(), 0xDD, 3000);
    head->SetNext(std::move(body));
    Ipv4Header hdr;
    hdr.total_length = static_cast<uint16_t>(3000 + kIpv4HeaderBytes);
    hdr.protocol = 250;
    hdr.dont_fragment = true;
    hdr.src = kAtmHostIp;
    hdr.dst = kEthHostIp;
    // Use the raw interface: Output would fragment at the source only if
    // the first hop needed it (ATM does not).
    hdr.FillChecksum();
    MbufPtr pkt = std::move(head);
    hdr.Serialize(pkt->Prepend(kIpv4HeaderBytes));
    n->atm_if.Output(std::move(pkt), kGwAtmIp);
    *flag = true;
    co_return;
  }(&net, &sent));
  net.sim.RunToCompletion();
  ASSERT_TRUE(sent);
  EXPECT_EQ(net.eth_ip.stats().packets_received, 0u);
  EXPECT_EQ(gw_icmp.stats().errors_sent, 1u);
  // The sender heard about it (path-MTU discovery's raw material).
  IcmpStack::Event ev;
  ASSERT_TRUE(atm_icmp.PollEvent(&ev));
  EXPECT_EQ(ev.message.type, IcmpType::kDestUnreachable);
  EXPECT_EQ(ev.message.code, 4);  // fragmentation needed and DF set
  EXPECT_EQ(ev.from, kGwAtmIp);
}

}  // namespace
}  // namespace tcplat
