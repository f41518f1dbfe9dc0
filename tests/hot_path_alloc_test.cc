// Exact, deterministic proxies for the simulator's own cost. A counting
// global operator new makes every figure here a count rather than a
// timing, so it holds in any build type and on any machine:
//
//  * the serial hot path is allocation-free: after warm-up, scheduling,
//    popping and cancelling events, and carrying ATM cells adapter ->
//    switch -> adapter, perform zero heap allocations;
//  * the echo benchmark's events and heap allocations per round trip, and
//    the 64-flow capacity cell's per sample, are pinned. Each is taken as
//    the difference between an N- and a 2N-iteration run, so setup and
//    warm-up cancel out. A change that lowers one edits the constant; one
//    that raises it fails here;
//  * attaching a disabled Tracer changes neither count by one, and neither
//    does enabling the timeseries plane with recording off.
//
// Wall-clock rates live in perfbench (python3 perfbench/run.py), which
// measures them with their spread.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/atm/aal34.h"
#include "src/atm/atm_switch.h"
#include "src/atm/tca100.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every plain and nothrow form is replaced, and all of them pair with
// malloc/free, so no allocation escapes the count and no block is freed by
// a different allocator than the one that made it.
void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace tcplat {
namespace {

uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Schedule/pop/cancel churn shaped like the simulator's: a cell-sized
// capture, a timer armed and cancelled, and every other event popped.
void QueueChurn(EventQueue& q, SimTime& now, int rounds) {
  std::array<uint8_t, 53> cell{};
  uint64_t sink = 0;
  for (int i = 0; i < rounds; ++i) {
    cell[0] = static_cast<uint8_t>(i);
    q.ScheduleAt(now + SimDuration::FromNanos(10 + i % 7),
                 [cell, &sink] { sink += cell[0]; });
    const EventId timer = q.ScheduleAt(now + SimDuration::FromMillis(200), [&sink] { ++sink; });
    q.ScheduleAt(now + SimDuration::FromNanos(5), [&sink] { sink += 2; });
    EXPECT_TRUE(q.Cancel(timer));
    for (int pop = 0; pop < 2; ++pop) {
      auto ev = q.PopNext();
      now = ev.time;
      ev.fn();
    }
  }
  while (!q.empty()) {
    auto ev = q.PopNext();
    now = ev.time;
    ev.fn();
  }
  EXPECT_GT(sink, 0u);
}

TEST(HotPathAlloc, EventQueueScheduleCancelPopAllocatesNothing) {
  EventQueue q;
  SimTime now;
  QueueChurn(q, now, 2000);  // warm-up: slots, heap and free stack reach size
  const uint64_t before = Allocations();
  QueueChurn(q, now, 20000);
  EXPECT_EQ(Allocations() - before, 0u);
}

// A 1x1 star: one adapter on each side of one cell switch.
class CellPathTest : public ::testing::Test {
 protected:
  static constexpr uint16_t kVci = 42;

  CellPathTest()
      : tx_host_(&sim_, "tx", CostProfile::Decstation5000_200()),
        rx_host_(&sim_, "rx", CostProfile::Decstation5000_200()),
        tx_uplink_(kTaxiBitsPerSecond, SimDuration::FromNanos(300)),
        rx_uplink_(kTaxiBitsPerSecond, SimDuration::FromNanos(300)),
        switch_(&sim_, kTaxiBitsPerSecond, SimDuration::FromNanos(300),
                SimDuration::FromMicros(1)),
        tx_dev_(&tx_host_, &tx_uplink_),
        rx_dev_(&rx_host_, &rx_uplink_) {
    switch_.AttachOutput(1, &rx_dev_);
    switch_.AddRoute(kVci, 1);
    tx_dev_.ConnectSink(switch_.input(0));
    rx_dev_.ConnectSink(switch_.input(1));
    rx_dev_.set_rx_interrupt([this] {
      Tca100::RxEntry entry;
      while (rx_dev_.PopRxCell(&entry)) {
        ++received_;
        crc_failures_ += entry.crc_ok ? 0 : 1;
      }
    });
    cell_.vci = kVci;
    cell_.st = SegmentType::kSsm;  // one cell per PDU: one interrupt each
    cell_.li = 40;
    for (size_t i = 0; i < cell_.payload.size(); ++i) {
      cell_.payload[i] = static_cast<uint8_t>(i * 7);
    }
  }

  // Sends `n` cells in one CPU run of the sending host, then runs the
  // simulation dry.
  void SendCells(int n) {
    {
      CpuRun run(tx_host_.cpu(), sim_.Now());
      for (int i = 0; i < n; ++i) {
        cell_.sn = static_cast<uint8_t>(i & 0xF);
        tx_dev_.TxCell(cell_);
      }
    }
    sim_.RunToCompletion();
  }

  Simulator sim_;
  Host tx_host_;
  Host rx_host_;
  Wire tx_uplink_;
  Wire rx_uplink_;
  AtmSwitch switch_;
  Tca100 tx_dev_;
  Tca100 rx_dev_;
  AtmCell cell_;
  uint64_t received_ = 0;
  uint64_t crc_failures_ = 0;
};

TEST_F(CellPathTest, AdapterSwitchAdapterAllocatesNothing) {
  constexpr int kCells = 5000;
  SendCells(kCells);  // warm-up: the event queue grows to this burst's depth
  const uint64_t before = Allocations();
  SendCells(kCells);
  EXPECT_EQ(Allocations() - before, 0u);
  // The cells really made the trip, CRC-checked at the far adapter.
  EXPECT_EQ(received_, 2u * kCells);
  EXPECT_EQ(crc_failures_, 0u);
  EXPECT_EQ(switch_.stats().cells_switched, 2u * kCells);
}

// What one run cost the host: simulator events dispatched and heap
// allocations made.
struct RunCost {
  uint64_t events = 0;
  uint64_t allocations = 0;
};

RunCost operator-(const RunCost& a, const RunCost& b) {
  return {a.events - b.events, a.allocations - b.allocations};
}

// The paper's echo benchmark on a default (direct-fiber ATM) testbed. The
// allocation count starts after the testbed is built and `tracer` (if any)
// attached, and covers the connection, warm-up and measured round trips.
RunCost EchoCost(size_t size, int iterations, Tracer* tracer = nullptr) {
  Testbed tb{TestbedConfig{}};
  if (tracer != nullptr) {
    tb.AttachTracer(tracer);
  }
  RpcOptions opt;
  opt.size = size;
  opt.iterations = iterations;
  const uint64_t before = Allocations();
  const RpcResult result = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(result.iterations, static_cast<uint64_t>(iterations));
  return {tb.sim().events_dispatched(), Allocations() - before};
}

// The cost of `extra` more round trips: a 2N-iteration run minus an
// N-iteration run. The first run only warms process-wide lazy state.
RunCost EchoCostOfRoundTrips(size_t size, int extra) {
  EchoCost(size, extra);
  return EchoCost(size, 2 * extra) - EchoCost(size, extra);
}

constexpr int kRoundTrips = 200;

TEST(RoundTripCost, Echo1400BytesOverAtm) {
  const RunCost cost = EchoCostOfRoundTrips(1400, kRoundTrips);
  EXPECT_EQ(cost.events, 70u * kRoundTrips);
  EXPECT_EQ(cost.allocations, 1613u);
}

TEST(RoundTripCost, Echo4BytesOverAtm) {
  const RunCost cost = EchoCostOfRoundTrips(4, kRoundTrips);
  EXPECT_EQ(cost.events, 8u * kRoundTrips);
  EXPECT_EQ(cost.allocations, 1613u);
}

TEST(RoundTripCost, Echo8000BytesOverAtm) {
  const RunCost cost = EchoCostOfRoundTrips(8000, kRoundTrips);
  EXPECT_EQ(cost.events, 384u * kRoundTrips);
  EXPECT_EQ(cost.allocations, 4839u);
}

// The capacity workhorse (perfbench star_rpc's shape): 64 closed-loop
// 200-byte echo flows over 4 clients, 2 servers and the cell switch.
RunCost CapacityCost(int iterations) {
  CapacityCell cell;
  cell.flows = 64;
  cell.size = 200;
  cell.iterations = iterations;
  cell.warmup = 2;
  const uint64_t before = Allocations();
  const CapacityOutcome out = RunCapacityCell(cell);
  EXPECT_EQ(out.samples, static_cast<uint64_t>(cell.flows) * iterations);
  return {out.sim_events, Allocations() - before};
}

TEST(RoundTripCost, CapacityCellPerSample) {
  CapacityCost(5);
  const RunCost cost = CapacityCost(25) - CapacityCost(5);  // 64 x 20 = 1280 samples
  EXPECT_EQ(cost.events, 50000u);
  EXPECT_EQ(cost.allocations, 10578u);
}

// Tracing costs nothing when off: an attached tracer with recording
// disabled adds no event and no allocation to the run, and records nothing.
TEST(RoundTripCost, DisabledTracerAddsNoEventsOrAllocations) {
  EchoCost(1400, kRoundTrips);
  const RunCost plain = EchoCost(1400, kRoundTrips);
  Tracer tracer;
  tracer.set_enabled(false);
  const RunCost traced = EchoCost(1400, kRoundTrips, &tracer);
  EXPECT_EQ(traced.events, plain.events);
  EXPECT_EQ(traced.allocations, plain.allocations);
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(plain.events, 16265u);
  EXPECT_EQ(plain.allocations, 2016u);
}

// The timeseries hooks cost nothing while no sampler records: both runs
// attach a recording tracer, and one also enables the timeseries plane with
// a non-positive period. Every TcpConnection hook on the echo path still
// reaches TimeseriesSampler::Push, which must return before touching any
// state: same events, same allocations, same trace, no points.
TEST(RoundTripCost, TimeseriesHooksWithRecordingOffAddNothing) {
  EchoCost(1400, kRoundTrips);
  Tracer plain_tracer;
  const RunCost plain = EchoCost(1400, kRoundTrips, &plain_tracer);
  Tracer hooked_tracer;
  TimeseriesConfig config;
  config.period_ns = 0;
  hooked_tracer.EnableTimeseries(config);
  const RunCost hooked = EchoCost(1400, kRoundTrips, &hooked_tracer);
  EXPECT_EQ(hooked.events, plain.events);
  EXPECT_EQ(hooked.allocations, plain.allocations);
  EXPECT_EQ(hooked_tracer.event_count(), plain_tracer.event_count());
  ASSERT_NE(hooked_tracer.timeseries(), nullptr);
  EXPECT_TRUE(hooked_tracer.timeseries()->points().empty());
}

}  // namespace
}  // namespace tcplat
