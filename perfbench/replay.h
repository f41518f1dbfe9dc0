// Replay timers: each layer's public functions run in isolation on inputs
// shaped like a workload's traffic, timed on the host clock. Multiplied by
// the per-op call counts the trace gives, they estimate each layer's share
// of the host time an op costs (the *.est_share_pct metrics).

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct ReplayShape {
  size_t pdu_bytes = 0;      // mean datagram handed to AAL3/4
  size_t segment_bytes = 0;  // mean bytes one TCP checksum covers
  size_t queue_depth = 0;    // events pending in the replayed event queue
};

struct ReplayTimes {
  double crc10_ns_per_cell = 0;   // Crc10 over one 48-byte SAR-PDU
  double sar_ns_per_cell = 0;     // segment + serialize + parse + reassemble
  double cksum_ns_per_kb = 0;     // OptimizedChecksum
  double get_free_ns = 0;         // MbufPool::GetHeader + FreeChain
  double schedule_pop_ns = 0;     // Simulator::ScheduleAt + Step
  double schedule_cancel_ns = 0;  // Simulator::ScheduleAt + Cancel
};

// Each figure is the median over several repetitions of a batch of calls.
ReplayTimes RunReplay(const ReplayShape& shape, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
