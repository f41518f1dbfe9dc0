// Pins the serial hot path allocation-free: after warm-up, scheduling,
// popping and cancelling events, and carrying ATM cells adapter -> switch ->
// adapter, perform zero heap allocations. A counting global operator new
// makes this an exact count rather than a timing, so any change that puts
// a per-event or per-cell allocation back fails here deterministically.

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
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

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

}  // namespace
}  // namespace tcplat
