// The workstations of §1.1 and the shapes built around them, from one
// TestbedConfig.
//
// The paper's testbed is a pair of DECstation 5000/200s connected either by
// FORE TCA-100 adapters over a switchless private ATM fiber, or by a private
// 10 Mbit/s Ethernet segment (the Table 1 baseline). The same class adds:
//  * a cell switch between the two hosts (`switched`), for §4.2.1's
//    source-(1) experiments;
//  * K clients and M servers (`clients`, `servers`), the many-flow regime
//    the related work studies. An ATM testbed of more than two hosts always
//    has the switch; each host owns a private fiber to it, and contention
//    shows up in the switch's per-output wires (output buffering);
//  * an IP gateway (`routed`, Ethernet only): clients on one segment,
//    servers on a second, and a forwarding host named "gateway" between
//    them. The paper defines local-area traffic as "packets that go from
//    source host to destination host without passing through any IP
//    routers" (§4.2); this is the other case, where §4.2.1's source-(3)
//    errors make the TCP checksum non-negotiable.
//
// Every shape uses one plan. Host index i counts clients first (0..K-1),
// then servers (K..K+M-1). Client i is 10.0.1.(i+1) named "client<i>",
// server j is 10.0.2.(j+1) named "server<j>", and the gateway takes .254 on
// each subnet. On ATM every ordered host pair gets its own virtual circuit,
// vci(src, dst), so cells from different senders converging on one receiver
// stay separable (AAL3/4 reassembly state is per VC).

#ifndef SRC_CORE_TESTBED_H_
#define SRC_CORE_TESTBED_H_

#include <memory>
#include <vector>

#include "src/atm/atm_netif.h"
#include "src/atm/atm_switch.h"
#include "src/atm/tca100.h"
#include "src/ether/ether_netif.h"
#include "src/ip/ip_stack.h"
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"
#include "src/tcp/tcp_stack.h"
#include "src/udp/udp.h"

namespace tcplat {

enum class NetworkKind { kAtm, kEthernet };

struct TestbedConfig {
  NetworkKind network = NetworkKind::kAtm;
  int clients = 1;
  int servers = 1;
  // Insert a cell switch between two ATM hosts (the paper's testbed was
  // switchless; this enables the §4.2.1 source-(1) experiments). Larger ATM
  // testbeds always switch.
  bool switched = false;
  // Ethernet only: put the servers on a second segment behind an IP gateway.
  bool routed = false;
  SimDuration switch_latency = SimDuration::FromMicros(10);
  // Finite per-VC output buffering at the switch (buffer_cells == 0 keeps
  // infinite buffers).
  VcBufferConfig vc_buffers;
  // Line rate of the switch output ports feeding the *server* hosts, in
  // bits/second (0 = full TAXI rate). A slower server trunk turns the
  // switch's per-VC output buffers into the shared bottleneck the
  // congestion cells study, instead of the hosts' protocol CPU.
  double server_trunk_bps = 0;
  TcpConfig tcp;  // applied to every stack
  // "our machines are only running the standard ULTRIX daemons and our test
  // program" — inert PCBs ahead of the benchmark connection in the list.
  size_t background_pcbs = 13;
  uint64_t seed = 1;
  SimDuration propagation = SimDuration::FromNanos(300);
  CostProfile profile = CostProfile::Decstation5000_200();
};

inline constexpr Ipv4Addr ClientAddr(int i) {
  return MakeAddr(10, 0, 1, static_cast<uint8_t>(i + 1));
}
inline constexpr Ipv4Addr ServerAddr(int j) {
  return MakeAddr(10, 0, 2, static_cast<uint8_t>(j + 1));
}
inline constexpr Ipv4Addr kClientAddr = ClientAddr(0);
inline constexpr Ipv4Addr kServerAddr = ServerAddr(0);
// The gateway's address on the client and on the server subnet.
inline constexpr Ipv4Addr kGatewayClientAddr = MakeAddr(10, 0, 1, 254);
inline constexpr Ipv4Addr kGatewayServerAddr = MakeAddr(10, 0, 2, 254);
inline constexpr uint16_t kEchoPort = 5001;

class Testbed {
 public:
  explicit Testbed(TestbedConfig config);
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  const TestbedConfig& config() const { return config_; }
  Simulator& sim() { return sim_; }

  // Drains the event queue. With a switch, then CHECKs its cell
  // conservation at quiescence: every pair VC's occupancy is back to 0, and
  // every cell an adapter sent, less those its fiber lost in flight plus
  // those it duplicated, was switched, dropped by the VC buffer policy, or
  // had no route.
  void RunToCompletion();

  int clients() const { return config_.clients; }
  int servers() const { return config_.servers; }
  int host_count() const { return config_.clients + config_.servers; }

  // End hosts by global index (clients first, then servers).
  Host& host(int idx) { return *hosts_[static_cast<size_t>(idx)]; }
  IpStack& ip(int idx) { return *ips_[static_cast<size_t>(idx)]; }
  TcpStack& tcp(int idx) { return *tcps_[static_cast<size_t>(idx)]; }
  UdpStack& udp(int idx) { return *udps_[static_cast<size_t>(idx)]; }
  Host& client_host(int i = 0) { return host(i); }
  Host& server_host(int j = 0) { return host(config_.clients + j); }
  IpStack& client_ip(int i = 0) { return ip(i); }
  IpStack& server_ip(int j = 0) { return ip(config_.clients + j); }
  TcpStack& client_tcp(int i = 0) { return tcp(i); }
  TcpStack& server_tcp(int j = 0) { return tcp(config_.clients + j); }
  UdpStack& client_udp(int i = 0) { return udp(i); }
  UdpStack& server_udp(int j = 0) { return udp(config_.clients + j); }

  // The forwarding host of a routed testbed (CHECK-fails otherwise).
  Host& gateway_host();
  IpStack& gateway_ip();

  // The VC host `src` transmits on toward host `dst` (ATM only).
  uint16_t vci(int src, int dst) const {
    return static_cast<uint16_t>(64 + src * host_count() + dst);
  }

  // ATM devices by host index: the host's transmit fiber (to its peer on
  // the two-host direct testbed, to the switch otherwise), its TCA-100, and
  // its AAL3/4 network interface.
  Wire& fiber(int idx) { return *fibers_.at(static_cast<size_t>(idx)); }
  Tca100& adapter(int idx) { return *adapters_.at(static_cast<size_t>(idx)); }
  AtmNetIf& atm_netif(int idx) { return *atm_ifs_.at(static_cast<size_t>(idx)); }
  // Null unless the testbed has a cell switch.
  AtmSwitch* atm_switch() { return atm_switch_.get(); }

  // Ethernet devices: the end host's interface, and segment `side` (0 is the
  // only segment, or the clients' one when routed; 1 is the servers'; null
  // on ATM).
  EtherNetIf& ether_netif(int idx) { return *ether_ifs_.at(static_cast<size_t>(idx)); }
  EtherSegment* ether_segment(int side = 0) {
    return segments_.empty() ? nullptr : segments_.at(static_cast<size_t>(side)).get();
  }

  // Attaches `tracer` to every host (and the switch, when present) so
  // packet-lifecycle and span events are recorded. Pass nullptr to detach.
  // The tracer is owned by the caller and must outlive the testbed's use.
  void AttachTracer(Tracer* tracer);

  // Clears every host's span tracker (start of a measured region).
  void ResetTrackers();

  // Sum of one span's accumulation across every host.
  SimDuration SpanTotal(SpanId id) const;

 private:
  void BuildAtm();
  void BuildEthernet();
  void CheckCellConservation() const;

  TestbedConfig config_;
  Simulator sim_;  // first member: destroyed last, after all schedulers
  // End hosts by index; a routed testbed's gateway follows them.
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<IpStack>> ips_;

  std::vector<std::unique_ptr<Wire>> fibers_;  // host idx -> its tx fiber
  std::unique_ptr<AtmSwitch> atm_switch_;
  std::vector<std::unique_ptr<Tca100>> adapters_;
  std::vector<std::unique_ptr<AtmNetIf>> atm_ifs_;

  std::vector<std::unique_ptr<EtherSegment>> segments_;
  // End hosts' interfaces by index, then the gateway's two.
  std::vector<std::unique_ptr<EtherNetIf>> ether_ifs_;

  std::vector<std::unique_ptr<TcpStack>> tcps_;
  std::vector<std::unique_ptr<UdpStack>> udps_;
};

}  // namespace tcplat

#endif  // SRC_CORE_TESTBED_H_
