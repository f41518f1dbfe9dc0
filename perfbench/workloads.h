// The benchmark's three workloads, each a batch of fresh simulation runs
// driven only through the simulator's public entry points: RunRpcBenchmark
// on a Testbed, RunCapacityCell and RunCongestionCell (and their Tracer*
// overloads). Every run is serial on the calling thread; nothing here
// touches the experiment executor, so TCPLAT_JOBS cannot change a result.
//
// One "chunk" is the unit of timed work: a fixed set of runs with a fixed
// number of simulated ops. The seed fixes each testbed's simulator seed and
// the order in which a chunk runs its cells; no component these workloads
// configure draws from the simulator RNG, so simulated outputs are the same
// for every seed (the benchmark checks repeatability at one seed).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/trace/tracer.h"

namespace perfbench {

enum class Workload { kPaperRtt, kStarRpc, kCongestionBulk };

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload w);
// What one op is on this workload ("round trip" / "KiB delivered").
const char* OpName(Workload w);

// Event counts of one or more traced runs, gathered per (layer, kind) plus
// the byte and cell totals the per-op metrics and conservation checks need.
struct TraceCounts {
  static constexpr size_t kLayers = static_cast<size_t>(tcplat::TraceLayer::kCount);
  static constexpr size_t kKinds = static_cast<size_t>(tcplat::TraceEventKind::kCount);
  std::array<std::array<uint64_t, kKinds>, kLayers> events{};
  uint64_t total_events = 0;
  uint64_t adapter_cells = 0;  // cells segmented by host adapters (kPduTx)
  uint64_t pdus = 0;
  uint64_t pdu_bytes = 0;
  uint64_t switched_cells = 0;
  uint64_t switch_drops = 0;   // buffer-policy drops and no-route cells
  uint64_t host_cell_drops = 0;
  uint64_t seg_tx_payload = 0;
  uint64_t seg_rx_payload = 0;
  uint64_t ipintrq_wait_ns = 0;
  uint64_t cell_runs_bytes_read = 0;  // user bytes read in runs that sent cells
  // Runs whose trace breaks an invariant: cells sent != switched + dropped
  // at the switch, or bytes written by users != bytes read by users.
  uint64_t conservation_violations = 0;
  // Per run, Jain's index over its sockets' goodput (bytes read over the
  // socket's active interval): the echo workloads' fairness figure.
  std::vector<double> run_fairness;

  uint64_t count(tcplat::TraceLayer layer, tcplat::TraceEventKind kind) const {
    return events[static_cast<size_t>(layer)][static_cast<size_t>(kind)];
  }
  // Accumulates one finished run's event stream and checks its invariants.
  void Add(const tcplat::Tracer& tracer);
};

// What one untimed re-run of a measured chunk shows of the testbeds the
// entry points build and drop internally (see RunProbe).
struct ProbeCounts {
  uint64_t mbuf_allocs = 0;
  uint64_t bytes_copied = 0;
  uint64_t predict_hits = 0;
  uint64_t predict_attempts = 0;
  uint64_t rexmt_timeouts = 0;  // RTO firings, every TCP stack of every run
  uint64_t sim_events = 0;      // the workload's own events (the sampler's excluded)
  // Pending events in the simulator's queue, sampled every simulated
  // microsecond and weighted by the events dispatched since the previous
  // sample: the queue depth an average event is scheduled into.
  double mean_queue_depth = 0;
};

// Table 1 RTTs and the 13 Table 2/3 rows simulated for the paper's sizes.
struct Fidelity {
  std::array<double, 8> rtt_atm_us{};
  std::array<double, 8> rtt_ether_us{};
  std::array<std::array<double, 8>, 13> rows_us{};
};

// The Table 2/3 rows in the order of Fidelity::rows_us, with the metric
// name each row's error is reported under and the paper's values.
struct LayerRow {
  const char* metric;
  const std::array<double, 8>* paper;
};
const std::array<LayerRow, 13>& LayerRows();

struct ChunkResult {
  double ops = 0;         // ops attempted
  double failed_ops = 0;  // aborted, mismatched or incomplete
  uint64_t sim_events = 0;
  // Heap allocations inside the simulator's entry points, testbed
  // construction included (the benchmark's own bookkeeping excluded).
  uint64_t heap_allocs = 0;
  // Percentiles of the measured round trips; on congestion_bulk, of the
  // flows' completion times (first write to completion token).
  int64_t rtt_p50_ns = 0;
  int64_t rtt_p99_ns = 0;
  double goodput_mbps = 0;
  double efficiency = 0;  // congestion_bulk only: payload over bottleneck cell slots
  double fairness = 0;    // congestion_bulk only: Jain over per-flow goodput
  std::string fingerprint;  // every simulated output, canonical order
  std::optional<Fidelity> fidelity;  // paper_rtt only
  TraceCounts trace;                 // traced chunks only
};

enum class ChunkKind {
  kMeasured,  // the workload's full unit of work
  kSetup,     // the same testbeds and connections with no measured work
};

ChunkResult RunChunk(Workload w, uint64_t seed, ChunkKind kind, bool traced);

// Re-runs the workload's measured chunk with the simulator exposed: the
// paper sweep's Testbeds directly, and for the other workloads the star
// testbed and flows RunCapacityCell / RunCongestionCell build, set up the
// same way here. A sampler reads the queue depth as the runs go; its
// callbacks touch no simulated state, and sim_events must equal the
// measured chunk's, which the caller checks.
ProbeCounts RunProbe(Workload w, uint64_t seed);

// The paper sweep's fidelity figures (runs one paper_rtt chunk).
Fidelity PaperFidelity(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
