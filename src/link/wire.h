// Physical link models.
//
// A Wire serializes transmission units (ATM cells, Ethernet frames) at a
// fixed bit rate with a fixed propagation delay. It is a timing-and-fate
// object: Transmit runs the fault hooks over the unit's bytes in place and
// reports when the last bit left and when each surviving copy arrives. The
// owner (adapter, switch port, Ethernet segment) schedules its own typed
// delivery event from that answer, so a 53-byte cell crosses a hop as a
// value and a frame keeps its one buffer. An optional corruption hook lets
// the fault module flip bits in flight (§4.2.1 error-source experiments).
//
// A DuplexLink is two independent directions (the point-to-point TAXI
// fiber between the FORE adapters); the 10 Mbit/s Ethernet baseline is one
// Wire shared by every station, with the preamble and inter-frame gap as
// per-unit gap bytes.

#ifndef SRC_LINK_WIRE_H_
#define SRC_LINK_WIRE_H_

#include <cstdint>
#include <functional>
#include <span>

#include "src/sim/time.h"

namespace tcplat {

// May mutate the bytes of a unit in flight.
using CorruptFn = std::function<void(std::span<uint8_t> unit)>;

// Per-link impairment policy: consulted once per transmitted unit, after the
// corruption hook, to decide loss, duplication, and added delay. The
// concrete seeded policy lives in src/fault/impairment.h; this interface
// keeps the link layer free of any dependency on the fault module.
class LinkImpairment {
 public:
  struct Verdict {
    bool drop = false;       // discard the unit in flight
    bool duplicate = false;  // deliver a second copy
    SimDuration extra_delay;      // added to this unit's arrival time
    SimDuration duplicate_lag;    // duplicate arrives this much after the original
  };

  virtual ~LinkImpairment() = default;

  // `departure` is the time the last bit leaves the sender.
  virtual Verdict OnTransmit(SimTime departure, std::span<const uint8_t> unit) = 0;
};

// What became of one transmitted unit.
struct WireFate {
  SimTime departure;  // the last bit leaves the sender
  // Arrival times of the copies that survive, in delivery order: none when
  // the unit was lost in flight, two when the impairment duplicated it.
  SimTime arrival[2];
  uint8_t copies = 0;

  std::span<const SimTime> arrivals() const { return {arrival, copies}; }
};

// One direction of a serial medium.
class Wire {
 public:
  // `gap_bytes` is per-unit wire overhead serialized but not delivered
  // (preamble, interframe gap, HEC idle...).
  Wire(double bits_per_second, SimDuration propagation, size_t gap_bytes = 0);

  // Queues `unit` for transmission no earlier than `earliest` (and not
  // before previously queued units finish), runs the corruption hook and
  // the impairment policy over it, and reports its fate. Each arrival is the
  // departure plus the propagation delay (plus any impairment delay); the
  // caller delivers the (possibly corrupted) bytes at those times. Loss
  // happens in flight: the sender pays serialization either way.
  WireFate Transmit(SimTime earliest, std::span<uint8_t> unit);

  // Time the medium becomes free.
  SimTime free_at() const { return busy_until_; }

  SimDuration SerializationDelay(size_t bytes) const;

  void set_corrupt_hook(CorruptFn hook) { corrupt_ = std::move(hook); }

  // `impairment` must outlive the wire (or be detached with nullptr). A null
  // policy costs one pointer test per unit — zero-overhead when off.
  void set_impairment(LinkImpairment* impairment) { impairment_ = impairment; }
  LinkImpairment* impairment() const { return impairment_; }

  uint64_t units_sent() const { return units_sent_; }
  uint64_t bytes_sent() const { return bytes_sent_; }
  // Units consumed in flight by the impairment policy.
  uint64_t units_dropped() const { return units_dropped_; }

 private:
  double bits_per_second_;
  SimDuration propagation_;
  size_t gap_bytes_;
  SimTime busy_until_;
  CorruptFn corrupt_;
  LinkImpairment* impairment_ = nullptr;
  uint64_t units_sent_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t units_dropped_ = 0;
};

// A full-duplex point-to-point link: direction 0 is a->b, 1 is b->a.
class DuplexLink {
 public:
  DuplexLink(double bits_per_second, SimDuration propagation, size_t gap_bytes = 0)
      : dirs_{Wire(bits_per_second, propagation, gap_bytes),
              Wire(bits_per_second, propagation, gap_bytes)} {}

  Wire& dir(int d) { return dirs_[d]; }

 private:
  Wire dirs_[2];
};

}  // namespace tcplat

#endif  // SRC_LINK_WIRE_H_
