// Unit tests of the benchmark's reductions. The expected quartiles are what
// Python's statistics.quantiles(values, n=4) returns for the same inputs,
// since the benchmark's spreads are judged with that function.

#include "perfbench/reductions.h"

#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/workloads.h"
#include "src/core/paper_data.h"

namespace perfbench {
namespace {

TEST(PerOp, DividesCountByOps) {
  EXPECT_DOUBLE_EQ(PerOp(81 * 16, 16), 81);
  EXPECT_DOUBLE_EQ(PerOp(12.6 * 1600, 1600), 12.6);
  EXPECT_DOUBLE_EQ(PerOp(0, 7), 0);
}

TEST(PerOpDeathTest, RejectsZeroOps) { EXPECT_DEATH(PerOp(5, 0), "no ops"); }

TEST(RelErrorPct, IsAbsoluteAndRelativeToPaper) {
  EXPECT_DOUBLE_EQ(RelErrorPct(110, 100), 10);
  EXPECT_DOUBLE_EQ(RelErrorPct(90, 100), 10);
  EXPECT_DOUBLE_EQ(RelErrorPct(100, 100), 0);
}

TEST(SummarizeErrors, AgainstTable1) {
  // The paper against itself has no error; one cell off by 19% sets the max.
  const std::array<double, 8>& atm = tcplat::paper::kTable1Atm;
  const ErrorSummary exact = SummarizeErrors(atm, atm);
  EXPECT_EQ(exact.cells, 8u);
  EXPECT_DOUBLE_EQ(exact.max_pct, 0);
  EXPECT_DOUBLE_EQ(exact.mean_pct, 0);

  std::array<double, 8> sim = atm;
  sim[7] = atm[7] * 1.19;
  sim[0] = atm[0] * 0.95;
  const ErrorSummary off = SummarizeErrors(sim, atm);
  EXPECT_NEAR(off.max_pct, 19.0, 1e-9);
  EXPECT_NEAR(off.mean_pct, (19.0 + 5.0) / 8, 1e-9);
}

TEST(SummarizeErrors, LayerRowsCoverTables2And3) {
  // 6 transmit rows + 7 receive rows, 8 sizes each: the 104 cells behind
  // paper_layer_err_mean_pct.
  size_t cells = 0;
  for (const LayerRow& row : LayerRows()) {
    cells += row.paper->size();
  }
  EXPECT_EQ(cells, 104u);
  EXPECT_EQ(LayerRows().front().paper, &tcplat::paper::kTable2User);
  EXPECT_EQ(LayerRows().back().paper, &tcplat::paper::kTable3User);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  Quartiles q = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.Spread(), (8.25 - 2.75) / 5.5);

  q = ComputeQuartiles({3.5, 1.25});
  EXPECT_DOUBLE_EQ(q.q1, 0.6875);
  EXPECT_DOUBLE_EQ(q.median, 2.375);
  EXPECT_DOUBLE_EQ(q.q3, 4.0625);

  q = ComputeQuartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(q.q1, 1.5);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.5);

  q = ComputeQuartiles({10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110});
  EXPECT_DOUBLE_EQ(q.q1, 30);
  EXPECT_DOUBLE_EQ(q.median, 60);
  EXPECT_DOUBLE_EQ(q.q3, 90);
}

TEST(Quantiles, DecilesMatchPython) {
  const std::vector<double> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<double> want = {1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9};
  const std::vector<double> got = Quantiles(ten, 10);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << i;
  }
  std::vector<double> twenty;
  for (int i = 20; i >= 1; --i) {
    twenty.push_back(i);
  }
  EXPECT_NEAR(Quantiles(twenty, 10)[8], 18.9, 1e-12);
}

TEST(Quantiles, ExtrapolatesPastTheEndsWithFewValues) {
  // statistics.quantiles([5, 1, 4, 2, 3], n=10)[8] is 5.4, past the max.
  EXPECT_NEAR(Quantiles({5, 1, 4, 2, 3}, 10)[8], 5.4, 1e-12);
}

TEST(AtReference, ScalesRatesUpAndTimesDownOnASlowHost) {
  // A host running the reference kernel in 2x its reference time is half
  // as fast: a rate it measured doubles, a duration halves.
  const std::vector<double> kernel = {0.02, 0.01, 0.005};
  const std::vector<double> rates = {100, 100, 100};
  const std::vector<double> times = {4, 4, 4};
  const std::vector<double> r = RatesAtReference(rates, kernel, 0.01);
  const std::vector<double> t = TimesAtReference(times, kernel, 0.01);
  EXPECT_DOUBLE_EQ(r[0], 200);
  EXPECT_DOUBLE_EQ(r[1], 100);
  EXPECT_DOUBLE_EQ(r[2], 50);
  EXPECT_DOUBLE_EQ(t[0], 2);
  EXPECT_DOUBLE_EQ(t[1], 4);
  EXPECT_DOUBLE_EQ(t[2], 8);
}

TEST(AtReference, PairsEachSampleWithItsOwnKernelTime) {
  // Work that slows down exactly as the kernel does reads the same.
  const std::vector<double> kernel = {0.01, 0.03, 0.02};
  const std::vector<double> rates = {300, 100, 150};
  for (double v : RatesAtReference(rates, kernel, 0.01)) {
    EXPECT_DOUBLE_EQ(v, 300);
  }
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7}), 7);
}

TEST(JainIndex, EqualSharesAreFair) {
  const std::vector<double> equal = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(JainIndex(equal), 1.0);
  const std::vector<double> one_hog = {1, 0, 0, 0};
  EXPECT_DOUBLE_EQ(JainIndex(one_hog), 0.25);
}

}  // namespace
}  // namespace perfbench
