#include "perfbench/reductions.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/base/check.h"

namespace perfbench {

double PerOp(double count, double ops) {
  TCPLAT_CHECK(ops > 0) << "per-op figure of a run with no ops";
  return count / ops;
}

double RelErrorPct(double simulated, double paper) {
  TCPLAT_CHECK(paper != 0) << "paper reference must be nonzero";
  return 100.0 * std::fabs(simulated - paper) / std::fabs(paper);
}

ErrorSummary SummarizeErrors(std::span<const double> simulated, std::span<const double> paper) {
  TCPLAT_CHECK_EQ(simulated.size(), paper.size());
  ErrorSummary out;
  double sum = 0;
  for (size_t i = 0; i < paper.size(); ++i) {
    const double err = RelErrorPct(simulated[i], paper[i]);
    out.max_pct = std::max(out.max_pct, err);
    sum += err;
  }
  out.cells = paper.size();
  out.mean_pct = out.cells == 0 ? 0 : sum / static_cast<double>(out.cells);
  return out;
}

std::vector<double> Quantiles(std::vector<double> values, int n) {
  TCPLAT_CHECK_GE(values.size(), 2u) << "quantiles need at least two values";
  TCPLAT_CHECK_GE(n, 1);
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::vector<double> cuts;
  for (long i = 1; i < n; ++i) {
    const long j = std::clamp(i * m / n, 1L, ld - 1);
    const long delta = i * m - j * n;
    cuts.push_back((values[static_cast<size_t>(j - 1)] * static_cast<double>(n - delta) +
                    values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
                   static_cast<double>(n));
  }
  return cuts;
}

Quartiles ComputeQuartiles(std::vector<double> values) {
  const std::vector<double> q = Quantiles(std::move(values), 4);
  return Quartiles{q[0], q[1], q[2]};
}

double Median(std::vector<double> values) {
  TCPLAT_CHECK(!values.empty()) << "median of no values";
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> RatesAtReference(std::span<const double> rates,
                                     std::span<const double> kernel_s, double reference_s) {
  TCPLAT_CHECK(rates.size() == kernel_s.size() && reference_s > 0);
  std::vector<double> out;
  for (size_t i = 0; i < rates.size(); ++i) {
    out.push_back(rates[i] * kernel_s[i] / reference_s);
  }
  return out;
}

std::vector<double> TimesAtReference(std::span<const double> times,
                                     std::span<const double> kernel_s, double reference_s) {
  TCPLAT_CHECK(times.size() == kernel_s.size() && reference_s > 0);
  std::vector<double> out;
  for (size_t i = 0; i < times.size(); ++i) {
    TCPLAT_CHECK(kernel_s[i] > 0);
    out.push_back(times[i] * reference_s / kernel_s[i]);
  }
  return out;
}

double JainIndex(std::span<const double> values) {
  double sum = 0;
  double sum_sq = 0;
  for (double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  return sum_sq == 0 ? 1.0 : (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

}  // namespace perfbench
