// Pure reductions the benchmark applies to its raw measurements: per-op
// normalisation, relative error against the paper's tables, and the
// median/quartile summary of repeated timings. Kept free of any simulator
// state so reductions_test can pin them on hand-made inputs.

#ifndef PERFBENCH_REDUCTIONS_H_
#define PERFBENCH_REDUCTIONS_H_

#include <cstddef>
#include <span>
#include <vector>

namespace perfbench {

// count / ops. A run that completed no op has no per-op figure; that is a
// benchmark bug, not a measurement, so it fails loudly.
double PerOp(double count, double ops);

// |simulated - paper| / paper, in percent.
double RelErrorPct(double simulated, double paper);

struct ErrorSummary {
  double max_pct = 0;
  double mean_pct = 0;
  size_t cells = 0;
};

// Relative error of every cell of `simulated` against the same cell of
// `paper` (equal lengths), reduced to the largest and the mean.
ErrorSummary SummarizeErrors(std::span<const double> simulated, std::span<const double> paper);

// The n-1 cut points Python's statistics.quantiles(values, n=n) gives (the
// default "exclusive" method). Needs at least two values.
std::vector<double> Quantiles(std::vector<double> values, int n);

// Quartiles as statistics.quantiles(values, n=4) gives them.
struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  // (q3 - q1) / median: the run-to-run spread the benchmark's bounds are
  // judged against.
  double Spread() const { return median == 0 ? 0 : (q3 - q1) / median; }
};
Quartiles ComputeQuartiles(std::vector<double> values);

// statistics.median: the middle value, or the mean of the two middle ones.
double Median(std::vector<double> values);

// Host-time samples rescaled to a reference host speed. Sample i is paired
// with kernel_s[i], the time a fixed reference kernel took next to it, and
// reference_s is that kernel's time on the reference host: a rate scales
// by kernel_s[i] / reference_s, a duration by reference_s / kernel_s[i].
std::vector<double> RatesAtReference(std::span<const double> rates,
                                     std::span<const double> kernel_s, double reference_s);
std::vector<double> TimesAtReference(std::span<const double> times,
                                     std::span<const double> kernel_s, double reference_s);

// Jain's fairness index (sum x)^2 / (n * sum x^2); 1 for equal shares.
double JainIndex(std::span<const double> values);

}  // namespace perfbench

#endif  // PERFBENCH_REDUCTIONS_H_
