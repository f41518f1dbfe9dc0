// The cost of leaving the LAN — §4.2's "local-area traffic" boundary made
// quantitative. Compares round trips on a private segment against the same
// exchange through an IP gateway (two Ethernet hops + forwarding), and
// demonstrates why the paper restricts checksum elimination to the local
// case: a flaky gateway memory corrupts routed traffic invisibly to every
// link CRC.
//
// Exits 1 unless every gateway tax is positive, the checksum-on run shows no
// app-visible corruption, and the checksum-off run shows some.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

// One echo run on a private segment, or through the gateway with a fraction
// `gw_corrupt_prob` of its forwarded packets damaged in gateway memory.
RpcResult Measure(size_t size, bool routed, ChecksumMode mode = ChecksumMode::kStandard,
                  double gw_corrupt_prob = 0) {
  TestbedConfig cfg;
  cfg.network = NetworkKind::kEthernet;
  cfg.routed = routed;
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  if (gw_corrupt_prob > 0) {
    auto rng = std::make_shared<Rng>(33);
    tb.gateway_ip().set_forward_corrupt_hook([rng, gw_corrupt_prob](std::vector<uint8_t>& pkt) {
      if (pkt.size() > 60 && rng->NextBool(gw_corrupt_prob)) {
        pkt[48] ^= 0x11;
      }
    });
  }
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 120;
  return RunRpcBenchmark(tb, opt);
}

// Prints both tables; returns false unless the gateway costs time at every
// size and only the checksum-off run lets corruption reach the application.
bool Run() {
  bool ok = true;
  std::printf("Local segment vs routed path (Ethernet hops, round-trip us)\n\n");
  TextTable t({"Size", "Local segment", "Via gateway", "Gateway tax"});
  for (size_t size : {4u, 200u, 1400u, 4000u}) {
    const double local = Measure(size, false).MeanRtt().micros();
    const double routed = Measure(size, true).MeanRtt().micros();
    ok = ok && routed > local;
    t.AddRow({std::to_string(size), TextTable::Us(local), TextTable::Us(routed),
              TextTable::Pct(100.0 * (routed - local) / local)});
  }
  t.Print();

  std::printf("\nA gateway with flaky memory (0.5%% of forwarded packets corrupted):\n\n");
  TextTable t2({"TCP checksum", "Mean RTT (us)", "App-visible corruption"});
  const RpcResult on = Measure(1400, true, ChecksumMode::kStandard, 0.005);
  const RpcResult off = Measure(1400, true, ChecksumMode::kNone, 0.005);
  ok = ok && on.data_mismatches == 0 && off.data_mismatches > 0;
  t2.AddRow({"on", TextTable::Us(on.MeanRtt().micros()), std::to_string(on.data_mismatches)});
  t2.AddRow({"off (negotiated away)", TextTable::Us(off.MeanRtt().micros()),
             std::to_string(off.data_mismatches)});
  t2.Print();
  std::printf("\nThis is §4.2's boundary condition in numbers: the no-checksum option is\n"
              "safe only for \"packets that go from source host to destination host\n"
              "without passing through any IP routers\" — past a gateway, the TCP\n"
              "checksum is the only thing standing between router memory and your data.\n");
  if (!ok) {
    std::printf("\nFAIL: expected a positive gateway tax at every size, no corruption with\n"
                "the checksum on, and some with it off.\n");
  }
  return ok;
}

}  // namespace
}  // namespace tcplat

int main() { return tcplat::Run() ? 0 : 1; }
