#include "src/core/testbed.h"

#include <string>

#include "src/base/check.h"

namespace tcplat {
namespace {
constexpr Ipv4Addr kMask24 = MakeAddr(255, 255, 255, 0);
}  // namespace

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)), sim_(config_.seed) {
  TCPLAT_CHECK_GT(config_.clients, 0);
  TCPLAT_CHECK_GT(config_.servers, 0);
  TCPLAT_CHECK(!config_.routed || config_.network == NetworkKind::kEthernet)
      << "only Ethernet testbeds are routed";
  const int n = host_count();
  TCPLAT_CHECK_LE(n, 250) << "testbed exceeds the address/VCI plan";

  for (int idx = 0; idx < n; ++idx) {
    const bool is_client = idx < config_.clients;
    const int k = is_client ? idx : idx - config_.clients;
    hosts_.push_back(std::make_unique<Host>(
        &sim_, (is_client ? "client" : "server") + std::to_string(k), config_.profile));
    ips_.push_back(std::make_unique<IpStack>(hosts_.back().get(),
                                             is_client ? ClientAddr(k) : ServerAddr(k)));
  }
  if (config_.routed) {
    hosts_.push_back(std::make_unique<Host>(&sim_, "gateway", config_.profile));
    ips_.push_back(std::make_unique<IpStack>(hosts_.back().get(), kGatewayClientAddr));
  }

  if (config_.network == NetworkKind::kAtm) {
    BuildAtm();
  } else {
    BuildEthernet();
  }

  for (int idx = 0; idx < n; ++idx) {
    tcps_.push_back(std::make_unique<TcpStack>(&ip(idx), config_.tcp));
    tcps_.back()->AddBackgroundPcbs(config_.background_pcbs);
    udps_.push_back(std::make_unique<UdpStack>(&ip(idx)));
  }
}

void Testbed::BuildAtm() {
  const int n = host_count();
  if (config_.switched || n > 2) {
    atm_switch_ = std::make_unique<AtmSwitch>(&sim_, kTaxiBitsPerSecond, config_.propagation,
                                              config_.switch_latency);
    if (config_.vc_buffers.buffer_cells > 0) {
      atm_switch_->ConfigureVcBuffers(config_.vc_buffers);
    }
  }
  const bool integrated = config_.tcp.checksum == ChecksumMode::kCombined;
  for (int idx = 0; idx < n; ++idx) {
    fibers_.push_back(std::make_unique<Wire>(kTaxiBitsPerSecond, config_.propagation));
    adapters_.push_back(std::make_unique<Tca100>(&host(idx), fibers_.back().get()));
    if (atm_switch_ != nullptr) {
      // Port number = host index; the switch creates the return fiber.
      const bool server_port = idx >= config_.clients;
      atm_switch_->AttachOutput(idx, adapters_.back().get(),
                                server_port ? config_.server_trunk_bps : 0);
      adapters_.back()->ConnectSink(atm_switch_->input(idx));
    }
    atm_ifs_.push_back(
        std::make_unique<AtmNetIf>(&ip(idx), adapters_.back().get(), vci(idx, idx)));
    atm_ifs_.back()->set_rx_integrated_checksum(integrated);
  }
  if (atm_switch_ == nullptr) {
    adapter(0).ConnectPeer(&adapter(1));
    adapter(1).ConnectPeer(&adapter(0));
  }
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) {
        continue;
      }
      atm_netif(src).AddVc(ip(dst).addr(), vci(src, dst));
      if (atm_switch_ != nullptr) {
        atm_switch_->AddRoute(vci(src, dst), dst);
      }
    }
  }
}

void Testbed::BuildEthernet() {
  const int n = host_count();
  // Segment 0 carries every host, or only the clients when routed.
  auto side = [this](int idx) { return config_.routed && idx >= config_.clients ? 1 : 0; };
  segments_.push_back(std::make_unique<EtherSegment>(&sim_, config_.propagation));
  if (config_.routed) {
    segments_.push_back(std::make_unique<EtherSegment>(&sim_, config_.propagation));
  }
  for (int idx = 0; idx < n; ++idx) {
    const MacAddr mac{0x02, 0, 0, 0, 0, static_cast<uint8_t>(idx + 1)};
    ether_ifs_.push_back(
        std::make_unique<EtherNetIf>(&ip(idx), &host(idx), ether_segment(side(idx)), mac));
  }
  // Static ARP between the hosts of a segment, as the paper's warm two-host
  // cache generalizes.
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a != b && side(a) == side(b)) {
        ether_netif(a).AddRoute(ip(b).addr(), ether_netif(b).mac());
      }
    }
  }
  if (!config_.routed) {
    return;
  }

  // The gateway has one interface on each segment. End hosts reach their own
  // subnet directly and everything else through it; it knows both connected
  // subnets and forwards.
  const Ipv4Addr gw_addr[2] = {kGatewayClientAddr, kGatewayServerAddr};
  const Ipv4Addr subnet[2] = {MakeAddr(10, 0, 1, 0), MakeAddr(10, 0, 2, 0)};
  EtherNetIf* gw_if[2];
  for (int s = 0; s < 2; ++s) {
    const MacAddr mac{0x02, 0, 0, 0, static_cast<uint8_t>(s + 1), 0xFE};
    ether_ifs_.push_back(
        std::make_unique<EtherNetIf>(&gateway_ip(), &gateway_host(), ether_segment(s), mac));
    gw_if[s] = ether_ifs_.back().get();
    gateway_ip().AddRoute(subnet[s], kMask24, gw_if[s]);
  }
  gateway_ip().set_forwarding(true);
  for (int idx = 0; idx < n; ++idx) {
    const int s = side(idx);
    ether_netif(idx).AddRoute(gw_addr[s], gw_if[s]->mac());
    gw_if[s]->AddRoute(ip(idx).addr(), ether_netif(idx).mac());
    ip(idx).AddRoute(subnet[s], kMask24, &ether_netif(idx));
    ip(idx).AddRoute(0, 0, &ether_netif(idx), gw_addr[s]);
  }
}

Host& Testbed::gateway_host() {
  TCPLAT_CHECK(config_.routed) << "only a routed testbed has a gateway";
  return *hosts_.back();
}

IpStack& Testbed::gateway_ip() {
  TCPLAT_CHECK(config_.routed) << "only a routed testbed has a gateway";
  return *ips_.back();
}

void Testbed::RunToCompletion() {
  sim_.RunToCompletion();
  if (atm_switch_ != nullptr) {
    CheckCellConservation();
  }
}

void Testbed::CheckCellConservation() const {
  const int n = host_count();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      const AtmSwitch::VcState* vc = atm_switch_->vc_state(vci(src, dst));
      if (vc != nullptr) {
        TCPLAT_CHECK_EQ(vc->occupancy, 0)
            << "VC " << vci(src, dst) << " still holds cells at quiescence";
      }
    }
  }
  uint64_t arrived = 0;
  for (int idx = 0; idx < n; ++idx) {
    const Wire& uplink = *fibers_[static_cast<size_t>(idx)];
    arrived += adapters_[static_cast<size_t>(idx)]->stats().cells_sent +
               uplink.units_duplicated() - uplink.units_dropped();
  }
  const AtmSwitchStats& sw = atm_switch_->stats();
  TCPLAT_CHECK_EQ(arrived, sw.cells_switched + sw.cells_dropped_tail + sw.cells_dropped_epd +
                               sw.cells_dropped_ppd + sw.no_route)
      << "adapter cells not accounted for at the switch";
}

void Testbed::AttachTracer(Tracer* tracer) {
  for (auto& host : hosts_) {
    host->AttachTracer(tracer);
  }
  if (atm_switch_ != nullptr) {
    if (tracer != nullptr) {
      atm_switch_->AttachTracer(tracer, tracer->RegisterHost("switch"));
    } else {
      atm_switch_->AttachTracer(nullptr, 0);
    }
  }
}

void Testbed::ResetTrackers() {
  for (auto& host : hosts_) {
    host->tracker().Reset();
  }
}

SimDuration Testbed::SpanTotal(SpanId id) const {
  SimDuration total;
  for (const auto& host : hosts_) {
    total += host->tracker().total(id);
  }
  return total;
}

}  // namespace tcplat
