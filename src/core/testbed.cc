#include "src/core/testbed.h"

namespace tcplat {

Testbed::Testbed(TestbedConfig config) : config_(std::move(config)), sim_(config_.seed) {
  client_host_ = std::make_unique<Host>(&sim_, "client", config_.profile);
  server_host_ = std::make_unique<Host>(&sim_, "server", config_.profile);
  client_ip_ = std::make_unique<IpStack>(client_host_.get(), kClientAddr);
  server_ip_ = std::make_unique<IpStack>(server_host_.get(), kServerAddr);

  if (config_.network == NetworkKind::kAtm) {
    atm_link_ = std::make_unique<DuplexLink>(kTaxiBitsPerSecond, config_.propagation);
    client_adapter_ = std::make_unique<Tca100>(client_host_.get(), &atm_link_->dir(0));
    server_adapter_ = std::make_unique<Tca100>(server_host_.get(), &atm_link_->dir(1));
    uint16_t client_vci = 42;
    uint16_t server_vci = 42;
    if (config_.switched) {
      // Host fibers terminate at the switch; per-direction VCs route
      // through it (client sends on 42, server on 43).
      server_vci = 43;
      atm_switch_ = std::make_unique<AtmSwitch>(&sim_, kTaxiBitsPerSecond,
                                                config_.propagation, config_.switch_latency);
      atm_switch_->AttachOutput(0, client_adapter_.get());
      atm_switch_->AttachOutput(1, server_adapter_.get());
      atm_switch_->AddRoute(client_vci, 1);
      atm_switch_->AddRoute(server_vci, 0);
      client_adapter_->ConnectSink(atm_switch_->input(0));
      server_adapter_->ConnectSink(atm_switch_->input(1));
    } else {
      client_adapter_->ConnectPeer(server_adapter_.get());
      server_adapter_->ConnectPeer(client_adapter_.get());
    }
    client_atm_if_ =
        std::make_unique<AtmNetIf>(client_ip_.get(), client_adapter_.get(), client_vci);
    server_atm_if_ =
        std::make_unique<AtmNetIf>(server_ip_.get(), server_adapter_.get(), server_vci);
    const bool integrated = config_.tcp.checksum == ChecksumMode::kCombined;
    client_atm_if_->set_rx_integrated_checksum(integrated);
    server_atm_if_->set_rx_integrated_checksum(integrated);
  } else {
    ether_segment_ = std::make_unique<EtherSegment>(&sim_, config_.propagation);
    const MacAddr client_mac{0x02, 0, 0, 0, 0, 1};
    const MacAddr server_mac{0x02, 0, 0, 0, 0, 2};
    client_ether_if_ =
        std::make_unique<EtherNetIf>(client_ip_.get(), client_host_.get(), ether_segment_.get(),
                                     client_mac);
    server_ether_if_ =
        std::make_unique<EtherNetIf>(server_ip_.get(), server_host_.get(), ether_segment_.get(),
                                     server_mac);
    client_ether_if_->AddRoute(kServerAddr, server_mac);
    server_ether_if_->AddRoute(kClientAddr, client_mac);
  }

  client_tcp_ = std::make_unique<TcpStack>(client_ip_.get(), config_.tcp);
  server_tcp_ = std::make_unique<TcpStack>(server_ip_.get(), config_.tcp);
  client_tcp_->AddBackgroundPcbs(config_.background_pcbs);
  server_tcp_->AddBackgroundPcbs(config_.background_pcbs);
  client_udp_ = std::make_unique<UdpStack>(client_ip_.get());
  server_udp_ = std::make_unique<UdpStack>(server_ip_.get());
}

void Testbed::AttachTracer(Tracer* tracer) {
  client_host_->AttachTracer(tracer);
  server_host_->AttachTracer(tracer);
  if (atm_switch_ != nullptr) {
    if (tracer != nullptr) {
      atm_switch_->AttachTracer(tracer, tracer->RegisterHost("switch"));
    } else {
      atm_switch_->AttachTracer(nullptr, 0);
    }
  }
}

void Testbed::ResetTrackers() {
  client_host_->tracker().Reset();
  server_host_->tracker().Reset();
}

SimDuration Testbed::SpanTotal(SpanId id) const {
  return client_host_->tracker().total(id) + server_host_->tracker().total(id);
}

}  // namespace tcplat
