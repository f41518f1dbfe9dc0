// Contract of the time-series telemetry plane (src/trace/timeseries.h and
// its producers): timelines are a pure function of the seed — byte-identical
// across repeat runs and TCPLAT_JOBS — edge
// samples land exactly on the discontinuities they mark (summing kTcpRtoFire
// edges reconstructs rexmt_stall_ns to the nanosecond, loss-enter/exit pairs
// carry the exact peak and deflated window), mid-run TLBT disk spill
// reproduces the unspilled stream byte for byte. The bench
// self-checks (bench/congestion --timeline, bench/observability_selfcheck)
// exercise the same paths at full scale; these tests pin the invariants on
// cells small enough for the tier-1 suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/trace/binary_trace.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/capacity.h"
#include "src/workload/congestion.h"

namespace tcplat {
namespace {

// Congested enough (Reno + tail drop, small per-VC buffers) that the
// timeline contains real loss episodes and fired RTOs, small enough to
// keep the suite fast.
CongestionCell LossyCell() {
  CongestionCell cell;
  cell.flows = 4;
  cell.bulk_bytes = 48 * 1024;
  cell.buffer_cells = 128;
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  return cell;
}

struct TimelineRun {
  CongestionOutcome outcome;
  std::vector<TimeseriesPoint> points;  // sorted on (ts, host)
  std::vector<std::string> host_names;
  std::string csv;
};

TimelineRun RunTimeline(const CongestionCell& cell) {
  Tracer tracer;
  tracer.EnableTimeseries(TimeseriesConfig{});
  TimelineRun run;
  run.outcome = RunCongestionCell(cell, &tracer);
  run.points = tracer.SortedTimeseriesPoints();
  run.host_names = tracer.host_names();
  run.csv = tracer.TimelineCsv();
  return run;
}

bool IsClientHost(const TimelineRun& run, uint8_t host) {
  return host < run.host_names.size() &&
         run.host_names[host].compare(0, 6, "client") == 0;
}

TEST(Timeseries, TimelineByteIdenticalAcrossRepeats) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{7}}) {
    CongestionCell cell = LossyCell();
    cell.seed = seed;
    const TimelineRun first = RunTimeline(cell);
    ASSERT_FALSE(first.csv.empty()) << "seed " << seed;
    EXPECT_EQ(first.csv, RunTimeline(cell).csv)
        << "repeat run diverged, seed " << seed;
  }
}

TEST(Timeseries, TimelineIgnoresTcplatJobs) {
  // TCPLAT_JOBS sizes the grid executor only; it must never reach the bytes.
  CongestionCell cell = LossyCell();
  setenv("TCPLAT_JOBS", "1", 1);
  const std::string one_job = RunTimeline(cell).csv;
  setenv("TCPLAT_JOBS", "4", 1);
  const std::string four_jobs = RunTimeline(cell).csv;
  unsetenv("TCPLAT_JOBS");
  ASSERT_FALSE(one_job.empty());
  EXPECT_EQ(one_job, four_jobs);
}

// Summing the kTcpRtoFire edge values of one client host reconstructs that
// flow's rexmt_stall_ns exactly: the edge is emitted by the same callback
// that accumulates the stall, carrying the fired RTO's length.
TEST(Timeseries, RtoFireEdgesReconstructRexmtStallExactly) {
  const TimelineRun run = RunTimeline(LossyCell());
  ASSERT_GT(run.outcome.rexmt_timeouts, 0u)
      << "cell no longer fires RTOs; edge-exactness is vacuous";

  std::map<uint8_t, uint64_t> stall_by_host;
  for (const TimeseriesPoint& p : run.points) {
    if (p.edge && p.metric == static_cast<uint8_t>(TsMetric::kTcpRtoFire)) {
      EXPECT_GT(p.value, 0) << "RTO edge with non-positive dead-air length";
      stall_by_host[p.host] += static_cast<uint64_t>(p.value);
    }
  }

  uint64_t edge_total = 0;
  uint64_t expected_total = 0;
  for (const auto& [host, stall] : stall_by_host) {
    EXPECT_TRUE(IsClientHost(run, host))
        << "RTO edge on non-client host " << static_cast<int>(host);
    edge_total += stall;
  }
  for (const CongestionFlowStats& fs : run.outcome.flow_stats) {
    expected_total += fs.rexmt_stall_ns;
  }
  EXPECT_EQ(edge_total, expected_total);
}

// Loss-enter edges carry the exact cwnd peak the window fell from; the
// matching loss-exit edge (same host, next in time) carries the deflated
// post-recovery window — ssthresh, i.e. half the effective window at the
// loss with one MSS of integer-division slack.
TEST(Timeseries, LossEdgePairsCarryExactPeakAndDeflatedWindow) {
  const CongestionCell cell = LossyCell();
  const TimelineRun run = RunTimeline(cell);
  const auto mss = static_cast<int64_t>(cell.mss_clamp);

  int pairs = 0;
  for (size_t i = 0; i < run.points.size(); ++i) {
    const TimeseriesPoint& p = run.points[i];
    if (!p.edge || p.metric != static_cast<uint8_t>(TsMetric::kTcpLossEnter)) {
      continue;
    }
    EXPECT_TRUE(IsClientHost(run, p.host));
    for (size_t j = i + 1; j < run.points.size(); ++j) {
      const TimeseriesPoint& q = run.points[j];
      if (q.host != p.host || q.key != p.key || !q.edge) {
        continue;
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossEnter)) {
        break;  // recovery ended via RTO, no exit edge for this episode
      }
      if (q.metric == static_cast<uint8_t>(TsMetric::kTcpLossExit)) {
        EXPECT_LT(q.value, p.value) << "exit valley not below entry peak";
        EXPECT_LE(2 * q.value, p.value + 2 * mss)
            << "exit valley above half the entry peak";
        ++pairs;
        break;
      }
    }
  }
  EXPECT_GT(pairs, 0) << "no loss enter/exit pairs in a lossy cell";
}

// Memory is counted by content, so the figure is the same on every
// platform: three points on three tracks cost three points plus three
// tracks (key, 24-byte state, two hash-node pointers), whatever capacity
// the point vector grew to.
TEST(Timeseries, ApproxMemoryBytesCountsContentNotCapacity) {
  TimeseriesSampler sampler(TimeseriesConfig{});
  for (uint64_t key = 1; key <= 3; ++key) {
    sampler.Push(0, TsMetric::kTcpCwnd, key, SimTime::FromNanos(0), 1460);
  }
  ASSERT_EQ(sampler.points().size(), 3u);
  constexpr size_t kTrackBytes = sizeof(uint64_t) + 24 + 2 * sizeof(void*);
  EXPECT_EQ(sampler.ApproxMemoryBytes(), 3 * sizeof(TimeseriesPoint) + 3 * kTrackBytes);
}

CapacityCell SmallCapacityCell() {
  CapacityCell cell;
  cell.flows = 8;
  cell.clients = 4;
  cell.servers = 2;
  cell.size = 200;
  cell.iterations = 8;
  cell.warmup = 2;
  cell.seed = 3;
  return cell;
}

// A binary capture that spills sealed TLBT segments to disk mid-run must
// reproduce the unspilled stream byte for byte once re-sealed.
TEST(Timeseries, SpilledBinaryTraceMatchesResidentByteForByte) {
  const CapacityCell cell = SmallCapacityCell();

  Tracer resident;
  RunCapacityCell(cell, &resident);
  const std::string resident_blob =
      SealBinaryTrace(resident.host_names(), resident.binary_records());

  const std::string spill_path =
      testing::TempDir() + "/timeseries_test_spill.tlbt";
  Tracer spilled;
  ASSERT_TRUE(spilled.mutable_binary_records()->EnableSpill(spill_path,
                                                            8 * 1024));
  RunCapacityCell(cell, &spilled);
  EXPECT_GE(spilled.binary_records().spill_segments(), 2u)
      << "segment size too large to exercise mid-run spilling";
  const std::string spilled_blob =
      SealBinaryTrace(spilled.host_names(), spilled.binary_records());
  // events() decodes the spilled segments too, so every view of the
  // spilling tracer matches the resident one.
  const std::string spilled_csv = spilled.ToCsv();
  const uint64_t spilled_count = spilled.event_count();
  const size_t spilled_decoded = spilled.events().size();
  std::remove(spill_path.c_str());

  ASSERT_FALSE(resident_blob.empty());
  EXPECT_EQ(resident_blob, spilled_blob);
  EXPECT_EQ(spilled_csv, resident.ToCsv());
  EXPECT_EQ(spilled_count, resident.event_count());
  EXPECT_EQ(spilled_decoded, resident.events().size());
  EXPECT_EQ(spilled_decoded, spilled_count);
}

}  // namespace
}  // namespace tcplat
