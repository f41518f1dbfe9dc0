#include "perfbench/replay.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <optional>
#include <vector>

#include "perfbench/reductions.h"
#include "src/atm/aal34.h"
#include "src/base/check.h"
#include "src/base/random.h"
#include "src/buf/mbuf.h"
#include "src/cpu/cpu.h"
#include "src/net/checksum.h"
#include "src/net/crc.h"
#include "src/sim/simulator.h"

namespace perfbench {
namespace {

constexpr int kReps = 11;
// Calls per repetition: enough that one repetition spans about a
// millisecond or more, well above the clock's resolution.
constexpr int kBatch = 4096;

// Keeps results observable so the timed calls are not optimised away.
volatile uint64_t g_sink = 0;

std::vector<uint8_t> RandomBytes(tcplat::Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Median over kReps of (host ns of one batch / units the batch did).
double MedianNsPerUnit(const std::function<double()>& batch) {
  std::vector<double> per_unit;
  batch();  // warm caches and lazily built tables
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const double units = batch();
    const auto t1 = std::chrono::steady_clock::now();
    per_unit.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() / units);
  }
  return Median(per_unit);
}

double TimeCrc10(tcplat::Rng& rng) {
  std::vector<std::vector<uint8_t>> sar_pdus;
  for (int i = 0; i < 64; ++i) {
    sar_pdus.push_back(RandomBytes(rng, tcplat::kAtmCellBytes - tcplat::kAtmCellHeaderBytes));
  }
  return MedianNsPerUnit([&] {
    uint64_t acc = 0;
    for (int i = 0; i < kBatch; ++i) {
      acc += tcplat::Crc10(sar_pdus[static_cast<size_t>(i) % sar_pdus.size()]);
    }
    g_sink = g_sink + acc;
    return static_cast<double>(kBatch);
  });
}

double TimeSar(tcplat::Rng& rng, size_t pdu_bytes) {
  const std::vector<uint8_t> payload = RandomBytes(rng, pdu_bytes);
  const std::vector<uint8_t> cpcs = tcplat::BuildCpcsPdu(payload, /*btag=*/7);
  tcplat::SarReassembler reassembler;
  const int pdus = std::max(1, kBatch / 32);
  return MedianNsPerUnit([&] {
    uint8_t sn = 0;
    uint64_t cells_done = 0;
    for (int p = 0; p < pdus; ++p) {
      const std::vector<tcplat::AtmCell> cells =
          tcplat::SegmentCpcsPdu(cpcs, /*vci=*/64, /*mid=*/1, &sn);
      bool complete = false;
      for (const tcplat::AtmCell& cell : cells) {
        const std::vector<uint8_t> wire = tcplat::SerializeCell(cell);
        bool crc_ok = false;
        const std::optional<tcplat::AtmCell> parsed = tcplat::ParseCell(wire, &crc_ok);
        TCPLAT_CHECK(parsed.has_value() && crc_ok);
        complete = reassembler.Feed(*parsed, crc_ok).has_value();
      }
      TCPLAT_CHECK(complete) << "replayed PDU did not reassemble";
      cells_done += cells.size();
    }
    return static_cast<double>(cells_done);
  });
}

double TimeChecksum(tcplat::Rng& rng, size_t segment_bytes) {
  const std::vector<uint8_t> segment = RandomBytes(rng, std::max<size_t>(segment_bytes, 1));
  const int calls = std::max(64, static_cast<int>(kBatch * 64 / segment.size()));
  return MedianNsPerUnit([&] {
    uint64_t acc = 0;
    for (int i = 0; i < calls; ++i) {
      acc += tcplat::OptimizedChecksum(segment);
    }
    g_sink = g_sink + acc;
    return static_cast<double>(calls) * static_cast<double>(segment.size()) / 1024.0;
  });
}

double TimeMbufGetFree() {
  tcplat::Simulator sim;
  tcplat::Cpu cpu(&sim, tcplat::CostProfile::Decstation5000_200());
  tcplat::CpuRun run(cpu, sim.Now());
  tcplat::MbufPool pool(&cpu);
  return MedianNsPerUnit([&] {
    for (int i = 0; i < kBatch; ++i) {
      pool.FreeChain(pool.GetHeader());
    }
    return static_cast<double>(kBatch);
  });
}

// A simulator holding `depth` pending events at seeded future times.
void Prefill(tcplat::Simulator& sim, tcplat::Rng& rng, size_t depth) {
  for (size_t i = 0; i < depth; ++i) {
    sim.Schedule(tcplat::SimDuration::FromNanos(rng.NextInRange(1, 1'000'000)), [] {});
  }
}

double TimeSchedulePop(tcplat::Rng& rng, size_t depth) {
  tcplat::Simulator sim;
  Prefill(sim, rng, depth);
  return MedianNsPerUnit([&] {
    for (int i = 0; i < kBatch; ++i) {
      sim.Schedule(tcplat::SimDuration::FromNanos(rng.NextInRange(1, 1'000'000)), [] {});
      sim.Step();
    }
    return static_cast<double>(kBatch);
  });
}

double TimeScheduleCancel(tcplat::Rng& rng, size_t depth) {
  tcplat::Simulator sim;
  Prefill(sim, rng, depth);
  return MedianNsPerUnit([&] {
    for (int i = 0; i < kBatch; ++i) {
      const tcplat::EventId id = sim.Schedule(
          tcplat::SimDuration::FromNanos(rng.NextInRange(1, 1'000'000)), [] {});
      sim.Cancel(id);
    }
    return static_cast<double>(kBatch);
  });
}

}  // namespace

ReplayTimes RunReplay(const ReplayShape& shape, uint64_t seed) {
  tcplat::Rng rng(seed);
  ReplayTimes out;
  out.crc10_ns_per_cell = TimeCrc10(rng);
  out.sar_ns_per_cell = TimeSar(rng, std::max<size_t>(shape.pdu_bytes, 1));
  out.cksum_ns_per_kb = TimeChecksum(rng, shape.segment_bytes);
  out.get_free_ns = TimeMbufGetFree();
  out.schedule_pop_ns = TimeSchedulePop(rng, std::max<size_t>(shape.queue_depth, 1));
  out.schedule_cancel_ns = TimeScheduleCancel(rng, std::max<size_t>(shape.queue_depth, 1));
  return out;
}

}  // namespace perfbench
