// A tcpdump-style segment tap.
//
// Attach one to a TcpStack to record every segment the stack sends or
// receives, with a text formatter for golden-output debugging — the
// simulated stack's equivalent of watching the wire. Used by tests and
// available to examples; recording costs no simulated time (the observer
// is not part of the machine).

#ifndef SRC_TCP_SEGMENT_TAP_H_
#define SRC_TCP_SEGMENT_TAP_H_

#include <deque>
#include <string>
#include <vector>

#include "src/net/wire.h"
#include "src/sim/time.h"

namespace tcplat {

class SegmentTap {
 public:
  struct Record {
    SimTime time;
    bool outbound = false;
    SockAddr src;
    SockAddr dst;
    TcpHeader header;
    size_t payload_len = 0;
  };

  explicit SegmentTap(size_t capacity = 4096) : capacity_(capacity) {}

  void OnSegment(Record record) {
    if (records_.size() == capacity_) {
      records_.pop_front();
      ++dropped_;
    }
    records_.push_back(std::move(record));
  }

  const std::deque<Record>& records() const { return records_; }
  uint64_t dropped() const { return dropped_; }
  void Clear() { records_.clear(); }

  // "1.234567 OUT 10.0.1.1:20000 > 10.0.2.1:5001: Flags [S], seq 64001,
  //  win 8192, options [mss 9148], length 0"
  static std::string Format(const Record& record);

  // The whole capture, one line per segment.
  std::string Dump() const;

 private:
  size_t capacity_;
  std::deque<Record> records_;
  uint64_t dropped_ = 0;
};

}  // namespace tcplat

#endif  // SRC_TCP_SEGMENT_TAP_H_
