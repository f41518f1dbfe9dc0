// Capacity-curve cells: one (topology × discipline × flow count × stack
// config) point, run on a fresh switched Testbed. Shared by bench/capacity and
// the workload determinism tests so both format byte-identical rows.

#ifndef SRC_WORKLOAD_CAPACITY_H_
#define SRC_WORKLOAD_CAPACITY_H_

#include <string>
#include <vector>

#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"

namespace tcplat {

enum class LoadDiscipline { kClosedLoop, kOpenLoop, kIncast };

struct CapacityCell {
  NetworkKind network = NetworkKind::kAtm;
  int clients = 4;
  int servers = 2;
  int flows = 1;
  size_t size = 200;
  int iterations = 50;
  int warmup = 8;
  bool header_prediction = true;
  ChecksumMode checksum = ChecksumMode::kStandard;
  LoadDiscipline discipline = LoadDiscipline::kClosedLoop;
  SimDuration think_time;         // closed-loop only
  SimDuration mean_interarrival;  // open-loop only (zero = 500 us default)
  uint64_t seed = 1;
};

struct CapacityOutcome {
  uint64_t samples = 0;  // measured round trips across all flows
  SimDuration mean;
  SimDuration p50;
  SimDuration p99;
  uint64_t completed = 0;
  uint64_t aborted = 0;
  size_t max_concurrent = 0;
  double goodput_mbps = 0;  // echoed payload bits per simulated second
  SimDuration sim_elapsed;  // simulated time the whole run took
  uint64_t sim_events = 0;  // events the simulator dispatched
};

// Builds a fresh switched testbed for the cell, runs its workload to
// completion, and reduces the per-flow stats. The second overload attaches
// `tracer` to every host and the switch before running, so the cell's full
// event stream is available for causal-graph attribution afterwards.
CapacityOutcome RunCapacityCell(const CapacityCell& cell);
CapacityOutcome RunCapacityCell(const CapacityCell& cell, Tracer* tracer);

// Table formatting shared by the bench binary and the determinism tests.
// Only simulated quantities appear — never wall-clock — so the rows are
// byte-identical across job counts and repeated runs.
std::vector<std::string> CapacityHeader();
std::vector<std::string> CapacityRow(const CapacityCell& cell, const CapacityOutcome& out);

}  // namespace tcplat

#endif  // SRC_WORKLOAD_CAPACITY_H_
