// Tests for the ATM cell switch and the switched-testbed topology.

#include <gtest/gtest.h>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/fault/error_experiment.h"
#include "src/fault/injector.h"

namespace tcplat {
namespace {

TEST(AtmSwitch, EchoWorksThroughSwitch) {
  TestbedConfig cfg;
  cfg.switched = true;
  Testbed tb(cfg);
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 50;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  EXPECT_GT(tb.atm_switch()->stats().cells_switched, 0u);
  EXPECT_EQ(tb.atm_switch()->stats().no_route, 0u);
}

TEST(AtmSwitch, AddsLatencyOverSwitchlessLink) {
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 50;

  TestbedConfig direct_cfg;
  Testbed direct(direct_cfg);
  const double direct_us = RunRpcBenchmark(direct, opt).MeanRtt().micros();

  TestbedConfig sw_cfg;
  sw_cfg.switched = true;
  sw_cfg.switch_latency = SimDuration::FromMicros(10);
  Testbed switched(sw_cfg);
  const double switched_us = RunRpcBenchmark(switched, opt).MeanRtt().micros();

  // Two fabric traversals per round trip, plus the extra serialization of
  // each cell on the second fiber hop.
  EXPECT_GT(switched_us, direct_us + 2 * 10.0);
  EXPECT_LT(switched_us, direct_us + 300.0);
}

TEST(AtmSwitch, FabricCorruptionCaughtEndToEndByAalCrc) {
  // §4.2.1 source (1): "not a problem since AAL payload checksums are
  // end-to-end, i.e., intermediate switches do not recompute the checksum."
  TestbedConfig cfg;
  cfg.switched = true;
  Testbed tb(cfg);
  auto rng = std::make_shared<Rng>(3);
  auto counter = std::make_shared<InjectionCounter>();
  tb.atm_switch()->set_fabric_corrupt_hook(MakeCellBitFlipper(rng, counter, 0.003));

  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 100;
  const RpcResult r = RunRpcBenchmark(tb, opt);

  EXPECT_GT(counter->injected, 0u);
  const uint64_t crc_catches =
      tb.atm_netif(0).sar_stats().crc_errors + tb.atm_netif(1).sar_stats().crc_errors;
  EXPECT_EQ(crc_catches, counter->injected) << "every fabric error is CRC-visible at the edge";
  EXPECT_EQ(r.client_tcp.checksum_errors + r.server_tcp.checksum_errors, 0u)
      << "TCP never needed to get involved";
  EXPECT_EQ(r.data_mismatches, 0u);
}

TEST(AtmSwitch, ErrorExperimentAttributesSwitchFaults) {
  ErrorExperimentConfig cfg;
  cfg.source = ErrorSource::kSwitchFabric;
  cfg.checksum = ChecksumMode::kNone;  // even with no TCP checksum...
  cfg.probability = 0.003;
  cfg.iterations = 100;
  const ErrorExperimentResult r = RunErrorExperiment(cfg);
  EXPECT_GT(r.injected, 0u);
  EXPECT_EQ(r.caught_cell_crc, r.injected);
  EXPECT_EQ(r.app_mismatches, 0u) << "...the AAL CRC alone protects against fabric errors";
}

TEST(AtmSwitch, UnroutedVciIsDropped) {
  Simulator sim;
  AtmSwitch sw(&sim, kTaxiBitsPerSecond, SimDuration::FromNanos(300),
               SimDuration::FromMicros(10));
  struct NullSink : CellSink {
    void DeliverCell(SimTime, const CellImage&) override { ++cells; }
    int cells = 0;
  } sink;
  sw.AttachOutput(0, &sink);
  sw.AddRoute(7, 0);

  CellImage cell{};
  cell[1] = 0;
  cell[2] = 7;  // routed VCI
  sw.input(1)->DeliverCell(sim.Now(), cell);
  cell[2] = 9;  // unrouted VCI
  sw.input(1)->DeliverCell(sim.Now(), cell);
  sim.RunToCompletion();
  EXPECT_EQ(sink.cells, 1);
  EXPECT_EQ(sw.stats().cells_switched, 1u);
  EXPECT_EQ(sw.stats().no_route, 1u);
}

}  // namespace
}  // namespace tcplat
