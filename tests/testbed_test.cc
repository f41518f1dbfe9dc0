// Tests for the testbed's shapes: the routed Ethernet path carries
// the echo benchmark through its gateway, and ATM testbeds of more than two
// hosts are always switched.

#include <gtest/gtest.h>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"

namespace tcplat {
namespace {

TEST(Testbed, RoutedShapeRunsTheRpcBenchmark) {
  RpcOptions opt;
  opt.size = 200;
  opt.iterations = 40;
  opt.warmup = 8;

  TestbedConfig local_cfg;
  local_cfg.network = NetworkKind::kEthernet;
  Testbed local(local_cfg);
  const RpcResult local_run = RunRpcBenchmark(local, opt);

  TestbedConfig routed_cfg = local_cfg;
  routed_cfg.routed = true;
  Testbed routed(routed_cfg);
  const RpcResult routed_run = RunRpcBenchmark(routed, opt);

  EXPECT_FALSE(routed_run.aborted);
  EXPECT_EQ(routed_run.rtt.count(), 40u);
  EXPECT_EQ(routed_run.data_mismatches, 0u);
  EXPECT_GT(routed.gateway_ip().stats().forwarded, 0u);
  EXPECT_GT(routed_run.MeanRtt().nanos(), local_run.MeanRtt().nanos())
      << "two Ethernet hops and a forwarding host must cost more than one segment";
}

TEST(Testbed, AtmStarsAlwaysSwitch) {
  TestbedConfig cfg;
  cfg.clients = 2;
  cfg.servers = 1;
  cfg.switched = false;
  Testbed tb(cfg);
  ASSERT_NE(tb.atm_switch(), nullptr);

  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 20;
  opt.warmup = 4;
  const RpcResult run = RunRpcBenchmark(tb, opt);
  EXPECT_FALSE(run.aborted);
  EXPECT_EQ(run.rtt.count(), 20u);
  EXPECT_EQ(run.data_mismatches, 0u);
  EXPECT_GT(tb.atm_switch()->stats().cells_switched, 0u);
}

}  // namespace
}  // namespace tcplat
