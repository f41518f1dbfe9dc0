#include "src/link/wire.h"

#include <utility>

#include "src/base/check.h"

namespace tcplat {

Wire::Wire(double bits_per_second, SimDuration propagation, size_t gap_bytes)
    : bits_per_second_(bits_per_second), propagation_(propagation), gap_bytes_(gap_bytes) {
  TCPLAT_CHECK_GT(bits_per_second, 0.0);
}

SimDuration Wire::SerializationDelay(size_t bytes) const {
  return SimDuration::FromSeconds(static_cast<double>(bytes) * 8.0 / bits_per_second_);
}

WireFate Wire::Transmit(SimTime earliest, std::span<uint8_t> unit) {
  TCPLAT_CHECK(!unit.empty());
  const SimTime start = earliest > busy_until_ ? earliest : busy_until_;
  WireFate fate;
  fate.departure = start + SerializationDelay(unit.size() + gap_bytes_);
  busy_until_ = fate.departure;
  ++units_sent_;
  bytes_sent_ += unit.size();

  // Fate hooks compose corrupt-then-impair: a corrupted unit can still be
  // discarded, and either way the sender already paid serialization — loss
  // happens in flight, never refunding wire time.
  if (corrupt_) {
    corrupt_(unit);
  }
  LinkImpairment::Verdict verdict;
  if (impairment_ != nullptr) {
    verdict = impairment_->OnTransmit(fate.departure, unit);
    if (verdict.drop) {
      ++units_dropped_;
      return fate;
    }
  }
  // The original is listed first so it is also delivered first when the
  // duplicate lag is zero (event order at equal times is insertion order).
  fate.arrival[0] = fate.departure + propagation_ + verdict.extra_delay;
  fate.copies = 1;
  if (verdict.duplicate) {
    fate.arrival[1] = fate.arrival[0] + verdict.duplicate_lag;
    fate.copies = 2;
  }
  return fate;
}

}  // namespace tcplat
