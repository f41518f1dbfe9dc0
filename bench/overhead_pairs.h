// Interleaved A/B wall-clock overhead measurement, shared by the
// self-checks that gate "this hook costs nothing" claims.
//
// One wall-clock A/B is noise-dominated, so the runs are interleaved: each
// of kOverheadPairs pairs times the base run and the hooked run back to
// back (alternating which goes first, so drift and warm-up do not favour
// one side) and yields one overhead figure. Gates read the median pair; the
// quartiles show how far apart the pairs were.

#ifndef BENCH_OVERHEAD_PAIRS_H_
#define BENCH_OVERHEAD_PAIRS_H_

#include <algorithm>
#include <functional>
#include <vector>

namespace tcplat {

inline constexpr int kOverheadPairs = 11;

struct OverheadSpread {
  double median_pct = 0;
  double q1_pct = 0;
  double q3_pct = 0;
};

// Linear-interpolated quantile of `sorted` (ascending, non-empty).
inline double Quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

// `base_rate` and `hooked_rate` each run once and return a throughput
// (higher is better); the overhead of one pair is 100 * (base - hooked) /
// base.
inline OverheadSpread MeasureInterleavedOverheadPct(const std::function<double()>& base_rate,
                                                    const std::function<double()>& hooked_rate) {
  std::vector<double> pct;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double base = 0;
    double hooked = 0;
    for (int leg = 0; leg < 2; ++leg) {
      if ((leg == 0) == (pair % 2 == 0)) {
        base = base_rate();
      } else {
        hooked = hooked_rate();
      }
    }
    pct.push_back(100.0 * (base - hooked) / base);
  }
  std::sort(pct.begin(), pct.end());
  return {Quantile(pct, 0.5), Quantile(pct, 0.25), Quantile(pct, 0.75)};
}

}  // namespace tcplat

#endif  // BENCH_OVERHEAD_PAIRS_H_
