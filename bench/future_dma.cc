// The paper's endgame (§2.2.3, §4.2): "Eliminating the checksum ... opens
// the possibility of eliminating these data copying costs given a network
// adapter that supports DMA", allowing "data to be moved at near bus
// bandwidth speeds to the application layer". This bench walks that path:
// the 1994 baseline, checksum elimination alone, a hypothetical DMA adapter
// alone, and both together — per size, with the remaining latency floor.

#include <cstdio>

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

double MeasureRtt(bool dma, ChecksumMode mode, size_t size) {
  TestbedConfig cfg;
  cfg.tcp.checksum = mode;
  Testbed tb(cfg);
  tb.atm_netif(0).set_dma(dma);
  tb.atm_netif(1).set_dma(dma);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 150;
  return RunRpcBenchmark(tb, opt).MeanRtt().micros();
}

void Run() {
  std::printf("Future-work endpoint: DMA adapter + checksum elimination (RTT, us)\n\n");
  TextTable t({"Size", "Baseline (PIO+cksum)", "No cksum", "DMA adapter", "DMA + no cksum",
               "Total saving"});
  for (size_t size : paper::kSizes) {
    const double base = MeasureRtt(false, ChecksumMode::kStandard, size);
    const double nock = MeasureRtt(false, ChecksumMode::kNone, size);
    const double dma = MeasureRtt(true, ChecksumMode::kStandard, size);
    const double both = MeasureRtt(true, ChecksumMode::kNone, size);
    t.AddRow({std::to_string(size), TextTable::Us(base), TextTable::Us(nock),
              TextTable::Us(dma), TextTable::Us(both),
              TextTable::Pct(100.0 * (base - both) / base)});
  }
  t.Print();
  std::printf(
      "\nReadings: the two optimizations attack different copies — the checksum\n"
      "pass and the programmed-I/O device copy — so their savings compose. At\n"
      "8000 bytes the pair removes most data-touching work and the round trip\n"
      "approaches protocol processing + wire time, the paper's 'near bus\n"
      "bandwidth' projection. Neither helps the 4-byte case much: small-\n"
      "message latency was already dominated by per-packet software costs,\n"
      "the other half of the paper's story.\n");
}

}  // namespace
}  // namespace tcplat

int main() {
  tcplat::Run();
  return 0;
}
