// Tests for the FORE TCA-100 device model: cut-through transmit timing,
// TX FIFO back-pressure, RX FIFO overflow, and per-PDU interrupts.

#include <gtest/gtest.h>

#include <vector>

#include "src/atm/tca100.h"
#include "src/base/random.h"
#include "src/link/wire.h"
#include "src/os/host.h"
#include "src/sim/simulator.h"

namespace tcplat {
namespace {

class Tca100Test : public ::testing::Test {
 protected:
  Tca100Test()
      : tx_host_(&sim_, "tx", CostProfile::Decstation5000_200()),
        rx_host_(&sim_, "rx", CostProfile::Decstation5000_200()),
        link_(kTaxiBitsPerSecond, SimDuration::FromNanos(300)),
        tx_dev_(&tx_host_, &link_.dir(0)),
        rx_dev_(&rx_host_, &link_.dir(1)) {
    tx_dev_.ConnectPeer(&rx_dev_);
    rx_dev_.ConnectPeer(&tx_dev_);
  }

  std::vector<AtmCell> MakePduCells(size_t payload_bytes, uint64_t seed = 1) {
    Rng rng(seed);
    std::vector<uint8_t> payload(payload_bytes);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const auto cpcs = BuildCpcsPdu(payload, 1);
    return SegmentCpcsPdu(cpcs, 42, 1, &sn_);
  }

  Simulator sim_;
  Host tx_host_;
  Host rx_host_;
  DuplexLink link_;
  Tca100 tx_dev_;
  Tca100 rx_dev_;
  uint8_t sn_ = 0;
};

TEST_F(Tca100Test, CutThroughStartsWireBeforeLastCellWritten) {
  const auto cells = MakePduCells(4000);
  ASSERT_GT(cells.size(), 36u);  // bigger than the TX FIFO
  CpuRun run(tx_host_.cpu(), sim_.Now());
  for (const auto& c : cells) {
    tx_dev_.TxCell(c);
  }
  // The wire started draining while the driver was still copying: by the
  // time the last cell is written, most serialization time has passed.
  const SimDuration cell_time = link_.dir(0).SerializationDelay(kAtmCellBytes);
  const SimTime wire_done = link_.dir(0).free_at();
  const SimTime copy_done = tx_host_.cpu().cursor();
  EXPECT_LT((wire_done - copy_done).nanos(), 40 * cell_time.nanos())
      << "cut-through should overlap copy and wire almost completely";
}

TEST_F(Tca100Test, TxFifoBackPressureStallsCpu) {
  // The copy loop (2.55 us/cell) outruns the 140 Mbit/s drain (3.03 us per
  // 53-byte cell) by ~0.16 cells per cell sent, so the 36-cell FIFO fills
  // after ~230 cells; a 12 KB PDU (273 cells) must stall.
  const auto cells = MakePduCells(12000);
  ASSERT_GT(cells.size(), kTca100TxFifoCells);
  CpuRun run(tx_host_.cpu(), sim_.Now());
  for (const auto& c : cells) {
    tx_dev_.TxCell(c);
  }
  // Copying cells (2.55 us each) is faster than the 140 Mbit/s drain
  // (~3.03 us/cell): a long PDU must hit the 36-cell limit and stall.
  EXPECT_GT(tx_dev_.stats().tx_fifo_stalls, 0u);
  EXPECT_GT(tx_dev_.stats().tx_stall_time.nanos(), 0);
}

TEST_F(Tca100Test, SmallPduNeverStalls) {
  const auto cells = MakePduCells(1000);
  ASSERT_LT(cells.size(), kTca100TxFifoCells);
  CpuRun run(tx_host_.cpu(), sim_.Now());
  for (const auto& c : cells) {
    tx_dev_.TxCell(c);
  }
  EXPECT_EQ(tx_dev_.stats().tx_fifo_stalls, 0u);
}

TEST_F(Tca100Test, PerPduInterruptFiresOnEomArrival) {
  int interrupts = 0;
  rx_dev_.set_rx_interrupt([&] { ++interrupts; });
  {
    CpuRun run(tx_host_.cpu(), sim_.Now());
    for (const auto& c : MakePduCells(500)) {
      tx_dev_.TxCell(c);
    }
    for (const auto& c : MakePduCells(500, 2)) {
      tx_dev_.TxCell(c);
    }
  }
  sim_.RunToCompletion();
  EXPECT_EQ(interrupts, 2);  // one per PDU, not per cell
  EXPECT_EQ(rx_dev_.stats().cells_received, tx_dev_.stats().cells_sent);
}

TEST_F(Tca100Test, DrainedCellsReassembleIntact) {
  std::vector<uint8_t> reassembled;
  SarReassembler reasm;
  rx_dev_.set_rx_interrupt([&] {
    Tca100::RxEntry e;
    while (rx_dev_.PopRxCell(&e)) {
      auto pdu = reasm.Feed(e.cell, e.crc_ok);
      if (pdu.has_value()) {
        reassembled = std::move(*pdu);
      }
    }
  });
  Rng rng(9);
  std::vector<uint8_t> payload(3000);
  for (auto& b : payload) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const auto cpcs = BuildCpcsPdu(payload, 7);
  uint8_t sn = 0;
  {
    CpuRun run(tx_host_.cpu(), sim_.Now());
    for (const auto& c : SegmentCpcsPdu(cpcs, 42, 1, &sn)) {
      tx_dev_.TxCell(c);
    }
  }
  sim_.RunToCompletion();
  EXPECT_EQ(reassembled, payload);
}

TEST_F(Tca100Test, RxFifoOverflowDropsCells) {
  // No drain: the handler leaves everything in the FIFO.
  rx_dev_.set_rx_interrupt([] {});
  {
    CpuRun run(tx_host_.cpu(), sim_.Now());
    // ~8 KB PDUs are ~187 cells; two of them exceed the 292-cell FIFO.
    for (const auto& c : MakePduCells(8000, 3)) {
      tx_dev_.TxCell(c);
    }
    for (const auto& c : MakePduCells(8000, 4)) {
      tx_dev_.TxCell(c);
    }
  }
  sim_.RunToCompletion();
  EXPECT_EQ(rx_dev_.rx_fifo_depth(), kTca100RxFifoCells);
  EXPECT_GT(rx_dev_.stats().rx_fifo_drops, 0u);
}

TEST_F(Tca100Test, StoreAndForwardDelaysFirstBit) {
  // Compare the time of the first delivery under cut-through vs SAF.
  SimTime first_arrival_ct;
  SimTime first_arrival_saf;

  rx_dev_.set_rx_interrupt([] {});
  {
    CpuRun run(tx_host_.cpu(), sim_.Now());
    for (const auto& c : MakePduCells(2000, 5)) {
      tx_dev_.TxCell(c);
    }
  }
  const uint64_t before = rx_dev_.stats().cells_received;
  sim_.RunUntil(SimTime::Max());
  ASSERT_GT(rx_dev_.stats().cells_received, before);
  first_arrival_ct = sim_.Now();  // upper bound: all arrived by now

  tx_dev_.set_cut_through(false);
  const SimTime start = sim_.Now();
  {
    CpuRun run(tx_host_.cpu(), start);
    for (const auto& c : MakePduCells(2000, 6)) {
      tx_dev_.TxCell(c);
    }
    tx_dev_.FlushTx();
    // In SAF mode nothing reaches the wire until the flush, which happens
    // after the whole copy loop.
    EXPECT_GE(link_.dir(0).free_at(), tx_host_.cpu().cursor());
  }
  sim_.RunToCompletion();
  first_arrival_saf = sim_.Now();
  EXPECT_GT(first_arrival_saf - start, first_arrival_ct - SimTime());
}

}  // namespace
}  // namespace tcplat
