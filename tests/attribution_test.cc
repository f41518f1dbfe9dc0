// Critical-path attribution contract tests.
//
//  * A traced 1x1 star run decomposes every round trip into stages that
//    telescope exactly to the RTT, and the percentile picks match
//    LatencyStats.
//  * On an 8-flow star every sample is attributed, and the p50/p99 picks sit
//    within one 40 ns clock tick of the driver's own percentiles.
//  * Blame reports are byte-identical serial vs 4 workers.
//  * A 1-in-N flow-sampled trace attributes each kept flow's round trips
//    exactly as the full trace does.
//  * LatencyStats::Percentiles()/PercentileGap() match a hand-computed
//    distribution.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/trace/attribution.h"
#include "src/trace/binary_trace.h"
#include "src/trace/causal_graph.h"
#include "src/trace/latency_stats.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"
#include "src/workload/interactive.h"

namespace tcplat {
namespace {

CapacityCell OneFlowCell(size_t size) {
  CapacityCell cell;
  cell.clients = 1;
  cell.servers = 1;
  cell.flows = 1;
  cell.size = size;
  cell.iterations = 40;
  cell.warmup = 8;
  cell.seed = 1;
  return cell;
}

// One closed-loop flow on the 1x1 star: the causal graph must anchor every
// measured round trip, every window's stages must telescope exactly to its
// RTT, and the blame report's percentile picks must equal what LatencyStats
// computed over the same samples (CapacityOutcome's p50/p99).
TEST(Attribution, OneFlowStagesTelescopeAndMatchLatencyStats) {
  for (size_t size : {size_t{200}, size_t{1400}}) {
    const CapacityCell cell = OneFlowCell(size);
    Tracer tracer;
    const CapacityOutcome outcome = RunCapacityCell(cell, &tracer);
    ASSERT_EQ(outcome.samples, 40u) << "size " << size;

    const CausalGraph graph = CausalGraph::Build(tracer);
    EXPECT_GT(graph.linked_count(), 0u);

    AttributionOptions options;
    options.message_bytes = cell.size;
    options.warmup_windows = cell.warmup;
    const AttributionResult result = AttributeRtts(tracer, graph, options);
    ASSERT_EQ(result.windows.size(), outcome.samples) << "size " << size;

    for (size_t i = 0; i < result.windows.size(); ++i) {
      const RttWindow& w = result.windows[i];
      int64_t sum = 0;
      for (int64_t stage : w.stage_ns) {
        sum += stage;
      }
      EXPECT_EQ(sum, w.rtt_ns()) << "window " << i << " does not telescope";
      EXPECT_EQ(w.stage_ns[static_cast<size_t>(BlameStage::kUnattributed)], 0)
          << "window " << i << " on a clean 1x1 run should anchor fully";
      EXPECT_GT(w.rtt_ns(), 0) << "window " << i;
    }

    // The driver quantizes both RTT endpoints to the 40 ns paper clock and
    // reads t1 only after the PRU_RCVD window update, which runs after the
    // traced kUserRead event — so the trace-derived RTT may sit within one
    // clock tick of the driver's sample, never more.
    const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);
    EXPECT_LE(std::abs(blame.lo_rtt_ns - outcome.p50.nanos()), 40) << "size " << size;
    EXPECT_LE(std::abs(blame.hi_rtt_ns - outcome.p99.nanos()), 40) << "size " << size;
    EXPECT_EQ(blame.explained_pct, 100.0);
  }
}

// --- Blame determinism ----------------------------------------------------

CapacityCell EightFlowCell() {
  CapacityCell cell;
  cell.clients = 4;
  cell.servers = 2;
  cell.flows = 8;
  cell.size = 200;
  cell.iterations = 12;
  cell.warmup = 4;
  cell.seed = 1;
  return cell;
}

std::string BlameFingerprint(const CapacityCell& cell) {
  Tracer tracer;
  RunCapacityCell(cell, &tracer);
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;
  const AttributionResult result = AttributeRtts(tracer, graph, options);
  const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);

  char buf[64];
  std::string out;
  std::snprintf(buf, sizeof(buf), "windows=%zu lo=%" PRId64 " hi=%" PRId64 "\n",
                result.windows.size(), blame.lo_rtt_ns, blame.hi_rtt_ns);
  out += buf;
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 ",%" PRId64 "\n", blame.lo_stage_ns[s],
                  blame.hi_stage_ns[s]);
    out += buf;
  }
  for (const RttWindow& w : result.windows) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 ":%" PRId64 "-%" PRId64 "\n", w.flow, w.start_ns,
                  w.end_ns);
    out += buf;
  }
  return out;
}

// The full blame report for the 8-flow cell — window boundaries included —
// must be byte-identical between serial and 4-worker execution.
TEST(BlameDeterminism, ReportsByteIdenticalSerialVsParallel) {
  std::vector<CapacityCell> cells;
  for (bool hp : {true, false}) {
    CapacityCell cell = EightFlowCell();
    cell.header_prediction = hp;
    cells.push_back(cell);
  }
  auto run_on = [&](Executor& exec) {
    std::vector<std::function<std::string()>> thunks;
    for (const CapacityCell& cell : cells) {
      thunks.emplace_back([cell] { return BlameFingerprint(cell); });
    }
    std::vector<std::string> out;
    for (auto& outcome : exec.Run<std::string>(thunks)) {
      EXPECT_TRUE(outcome.ok()) << outcome.error;
      out.push_back(outcome.ok() ? *outcome.value : outcome.error);
    }
    return out;
  };
  Executor serial(1);
  Executor parallel(4);
  const std::vector<std::string> a = run_on(serial);
  const std::vector<std::string> b = run_on(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "blame report " << i << " diverged between 1 and 4 workers";
  }
}

// Multi-flow: every measured sample must still be attributed, every window
// must telescope even when flows share hosts and interleave, and the blame
// report's p50/p99 must agree with the driver's own samples. Each trace RTT
// is within one 40 ns tick of its driver sample, and a per-sample error of
// at most one tick moves each order statistic by at most one tick.
TEST(Attribution, EightFlowWindowsAllTelescope) {
  const CapacityCell cell = EightFlowCell();
  Tracer tracer;
  const CapacityOutcome outcome = RunCapacityCell(cell, &tracer);
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;
  const AttributionResult result = AttributeRtts(tracer, graph, options);
  EXPECT_EQ(result.windows.size(), outcome.samples);
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns());
  }
  const BlameReport blame = BuildBlame(result.windows, 50.0, 99.0);
  EXPECT_LE(std::abs(blame.lo_rtt_ns - outcome.p50.nanos()), 40);
  EXPECT_LE(std::abs(blame.hi_rtt_ns - outcome.p99.nanos()), 40);
  EXPECT_GE(blame.explained_pct, 95.0);
}

// --- The binary trace pipeline and flow sampling ------------------------

bool SameWindow(const RttWindow& a, const RttWindow& b) {
  if (a.flow != b.flow || a.client_host != b.client_host || a.server_host != b.server_host ||
      a.start_ns != b.start_ns || a.end_ns != b.end_ns || a.retransmits != b.retransmits ||
      a.delayed_acks != b.delayed_acks || a.tx_stall_ns != b.tx_stall_ns) {
    return false;
  }
  for (size_t s = 0; s < kBlameStageCount; ++s) {
    if (a.stage_ns[s] != b.stage_ns[s]) return false;
  }
  return true;
}

std::vector<RttWindow> SortedWindows(std::vector<RttWindow> windows) {
  std::sort(windows.begin(), windows.end(), [](const RttWindow& a, const RttWindow& b) {
    return a.flow != b.flow ? a.flow < b.flow : a.start_ns < b.start_ns;
  });
  return windows;
}

// Sealing the run's record stream and decoding it into a fresh tracer (the
// offline path for a saved capture) must leave the attribution result
// untouched.
TEST(Attribution, BinaryRoundTripPreservesWindows) {
  const CapacityCell cell = EightFlowCell();
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;

  Tracer live;
  RunCapacityCell(cell, &live);
  const CausalGraph live_graph = CausalGraph::Build(live);
  const AttributionResult from_live = AttributeRtts(live, live_graph, options);

  const std::string blob = SealBinaryTrace(live.host_names(), live.binary_records());
  Tracer decoded;
  ASSERT_TRUE(DecodeBinaryTrace(blob, &decoded));
  ASSERT_EQ(decoded.event_count(), live.event_count());
  const CausalGraph decoded_graph = CausalGraph::Build(decoded);
  const AttributionResult from_sealed = AttributeRtts(decoded, decoded_graph, options);

  ASSERT_FALSE(from_live.windows.empty());
  ASSERT_EQ(from_sealed.windows.size(), from_live.windows.size());
  for (size_t i = 0; i < from_live.windows.size(); ++i) {
    EXPECT_TRUE(SameWindow(from_live.windows[i], from_sealed.windows[i])) << "window " << i;
  }
}

// A 1-in-N sampled trace keeps every event of a kept flow's chains, so each
// kept flow's round trips must come out exactly as in the full trace: same
// window bounds (the client write-syscall entry included) and the same
// stage decomposition to the nanosecond.
TEST(Attribution, SampledTraceReproducesKeptFlowWindowsExactly) {
  const CapacityCell cell = EightFlowCell();
  AttributionOptions options;
  options.message_bytes = cell.size;
  options.warmup_windows = cell.warmup;

  Tracer full;
  RunCapacityCell(cell, &full);
  const std::vector<RttWindow> full_windows =
      SortedWindows(AttributeRtts(full, CausalGraph::Build(full), options).windows);

  for (uint32_t one_in : {2u, 4u, 8u}) {
    Tracer sampled;
    FlowSampleConfig sample;
    sample.one_in = one_in;
    sample.seed = cell.seed;
    sampled.EnableFlowSampling(sample);
    RunCapacityCell(cell, &sampled);
    ASSERT_FALSE(sampled.flows_kept().empty()) << "1-in-" << one_in << " kept no flow";
    const std::vector<RttWindow> windows =
        AttributeRtts(sampled, CausalGraph::Build(sampled), options).windows;
    EXPECT_EQ(windows.size(), sampled.flows_kept().size() * static_cast<size_t>(cell.iterations))
        << "1-in-" << one_in;
    for (const RttWindow& w : windows) {
      const auto match = std::find_if(full_windows.begin(), full_windows.end(),
                                      [&](const RttWindow& f) { return SameWindow(f, w); });
      EXPECT_NE(match, full_windows.end())
          << "1-in-" << one_in << ": flow " << w.flow << " window [" << w.start_ns << ", "
          << w.end_ns << "] differs from the full trace";
    }
  }
}

// --- interactive Nagle × delayed-ACK blame --------------------------------

int64_t AckWaitNanos(const RttWindow& w) {
  return w.stage_ns[static_cast<size_t>(BlameStage::kCliAckWait)] +
         w.stage_ns[static_cast<size_t>(BlameStage::kSrvAckWait)];
}

AttributionResult AttributeInteractive(const InteractiveCell& cell, Tracer& tracer) {
  const CausalGraph graph = CausalGraph::Build(tracer);
  AttributionOptions options;
  options.message_bytes = 200;  // two 100-byte chunks up, 200 bytes back
  options.warmup_windows = cell.warmup;
  return AttributeRtts(tracer, graph, options);
}

// The pathological cell's round trips are the delayed-ACK timer: the
// sender-side ACK-wait stage (anchored by the kNagleHold event) must own
// at least 80% of every window — in particular the p99 one — and the
// windows must still telescope exactly.
TEST(InteractiveBlame, DelackCellBlamesAckWaitAtTheSender) {
  InteractiveCell cell;
  cell.iterations = 16;
  cell.warmup = 2;
  Tracer tracer;
  const InteractiveOutcome outcome = RunInteractiveCell(cell, &tracer);
  ASSERT_EQ(outcome.samples, 16u);
  const AttributionResult result = AttributeInteractive(cell, tracer);
  ASSERT_EQ(result.windows.size(), 16u);

  const RttWindow* p99 = &result.windows[0];
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns()) << "window does not telescope";
    EXPECT_GE(AckWaitNanos(w), static_cast<int64_t>(0.8 * static_cast<double>(w.rtt_ns())));
    if (w.rtt_ns() > p99->rtt_ns()) {
      p99 = &w;
    }
  }
  EXPECT_GE(p99->rtt_ns(), 200 * 1'000'000);
  EXPECT_GE(AckWaitNanos(*p99),
            static_cast<int64_t>(0.8 * static_cast<double>(p99->rtt_ns())));
}

// Under TCP_NODELAY no segment is ever held, no kNagleHold event exists,
// and the ACK-wait stages collapse to exactly zero in every window: the
// blame mode vanishes along with the latency mode.
TEST(InteractiveBlame, NodelayCellHasNoAckWaitBlame) {
  InteractiveCell cell;
  cell.knob = InteractiveKnob::kNodelay;
  cell.iterations = 16;
  cell.warmup = 2;
  Tracer tracer;
  const InteractiveOutcome outcome = RunInteractiveCell(cell, &tracer);
  ASSERT_EQ(outcome.samples, 16u);
  const AttributionResult result = AttributeInteractive(cell, tracer);
  ASSERT_EQ(result.windows.size(), 16u);
  for (const RttWindow& w : result.windows) {
    int64_t sum = 0;
    for (int64_t stage : w.stage_ns) {
      sum += stage;
    }
    EXPECT_EQ(sum, w.rtt_ns());
    EXPECT_EQ(AckWaitNanos(w), 0);
    EXPECT_LT(w.rtt_ns(), 5 * 1'000'000);
  }
}

// --- LatencyStats percentile helpers -------------------------------------

TEST(LatencyStats, SummaryAndGapMatchHandComputedDistribution) {
  // 100 samples: 1000, 2000, ..., 100000 ns. Nearest rank (ceil(p/100*n)):
  // p50 -> rank 50 -> 50000; p90 -> 90000; p99 -> 99000; p99.9 -> 100000.
  LatencyStats stats;
  for (int i = 100; i >= 1; --i) {  // insertion order must not matter
    stats.Add(SimDuration::FromNanos(i * 1000));
  }
  const LatencyStats::Summary summary = stats.Percentiles();
  EXPECT_EQ(summary.p50.nanos(), 50000);
  EXPECT_EQ(summary.p90.nanos(), 90000);
  EXPECT_EQ(summary.p99.nanos(), 99000);
  EXPECT_EQ(summary.p999.nanos(), 100000);
  EXPECT_EQ(summary.p50.nanos(), stats.Percentile(50).nanos());
  EXPECT_EQ(summary.p999.nanos(), stats.Percentile(99.9).nanos());

  EXPECT_EQ(stats.PercentileGap(50, 99).nanos(), 49000);
  EXPECT_EQ(stats.PercentileGap(99, 99).nanos(), 0);
  EXPECT_EQ(stats.PercentileGap(0, 100).nanos(),
            stats.Max().nanos() - stats.Min().nanos());
}

TEST(LatencyStats, SummaryOnTinySets) {
  LatencyStats one;
  one.Add(SimDuration::FromNanos(42));
  const LatencyStats::Summary summary = one.Percentiles();
  EXPECT_EQ(summary.p50.nanos(), 42);
  EXPECT_EQ(summary.p999.nanos(), 42);
  EXPECT_EQ(one.PercentileGap(50, 99.9).nanos(), 0);

  LatencyStats empty;
  EXPECT_EQ(empty.Percentiles().p99.nanos(), 0);
  EXPECT_EQ(empty.PercentileGap(50, 99).nanos(), 0);
}

}  // namespace
}  // namespace tcplat
