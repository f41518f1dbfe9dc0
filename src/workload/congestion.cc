#include "src/workload/congestion.h"

#include <algorithm>
#include <string>

#include "src/atm/aal34.h"
#include "src/base/check.h"
#include "src/core/table.h"

namespace tcplat {
namespace {

// AAL3/4 SAR: 53-byte cell, 48-byte SAR-PDU, 44 bytes of CPCS payload once
// the 2-byte header and trailer are paid. The efficiency denominator.
constexpr uint64_t kCellPayloadBytes = 44;

}  // namespace

std::vector<FlowSpec> BuildCongestionFlows(const CongestionCell& cell) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  TCPLAT_CHECK_GT(cell.bulk_bytes, 0u);
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(cell.flows));
  for (int f = 0; f < cell.flows; ++f) {
    FlowSpec spec;
    spec.client = f;
    spec.server = 0;
    spec.bulk_bytes = cell.bulk_bytes;
    spec.congestion = cell.variant;
    // Staggered starts: the flows still overlap almost completely, but the
    // SYN bursts and initial slow starts do not land on the same cell slot,
    // which would synchronize every flow's first loss.
    spec.start_delay = SimDuration::FromMicros(200) * f;
    // Heavy loss can exhaust a connection's retransmit budget; that is an
    // aborted flow to report, not a harness crash.
    spec.tolerate_errors = true;
    specs.push_back(spec);
  }
  return specs;
}

CongestionOutcome RunCongestionCell(const CongestionCell& cell) {
  return RunCongestionCell(cell, nullptr);
}

CongestionOutcome RunCongestionCell(const CongestionCell& cell, Tracer* tracer) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  TCPLAT_CHECK_GT(cell.buffer_cells, 0u) << "an infinite buffer never congests";
  TestbedConfig config;
  config.network = NetworkKind::kAtm;
  config.switched = true;
  config.clients = cell.flows;
  config.servers = 1;
  config.seed = cell.seed;
  config.propagation = GetLinkProfile(cell.profile).propagation;
  config.vc_buffers.buffer_cells = cell.buffer_cells;
  config.vc_buffers.policy = cell.policy;
  config.vc_buffers.epd_threshold = cell.epd_threshold;
  config.server_trunk_bps = cell.trunk_bps;
  config.tcp.sndbuf = cell.sndbuf;
  config.tcp.rcvbuf = cell.rcvbuf;
  config.tcp.mss_clamp = cell.mss_clamp;
  Testbed testbed(config);
  if (tracer != nullptr) {
    testbed.AttachTracer(tracer);
  }

  const std::vector<FlowSpec> specs = BuildCongestionFlows(cell);
  WorkloadOptions options;
  options.reset_trackers_at_warmup = false;  // no warmup region in bulk mode
  const WorkloadResult result = RunWorkload(testbed, specs, options);

  CongestionOutcome out;
  out.completed = result.completed;
  out.aborted = result.aborted;

  int64_t first_start = -1;
  int64_t last_done = -1;
  uint64_t payload_total = 0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (size_t f = 0; f < result.flows.size(); ++f) {
    const FlowResult& flow = result.flows[f];
    out.goodput_bps.push_back(flow.bulk.goodput_bps());
    CongestionFlowStats fs;
    fs.goodput_bps = flow.bulk.goodput_bps();
    fs.elapsed_ns = (flow.bulk.done_ns >= 0 && flow.bulk.start_ns >= 0)
                        ? flow.bulk.done_ns - flow.bulk.start_ns
                        : -1;
    const TcpStats& client = testbed.tcp(static_cast<int>(f)).stats();
    fs.retransmits = client.retransmits;
    fs.rexmt_timeouts = client.rexmt_timeouts;
    fs.fast_retransmits = client.fast_retransmits;
    fs.rexmt_stall_ns = client.rexmt_stall_ns;
    out.flow_stats.push_back(fs);
    if (flow.bulk.start_ns >= 0) {
      first_start = first_start < 0 ? flow.bulk.start_ns
                                    : std::min(first_start, flow.bulk.start_ns);
    }
    if (flow.bulk.done_ns >= 0) {
      last_done = std::max(last_done, flow.bulk.done_ns);
      payload_total += flow.bulk.bytes;
    }
    sum += out.goodput_bps.back();
    sum_sq += out.goodput_bps.back() * out.goodput_bps.back();
  }
  if (last_done > first_start && first_start >= 0) {
    out.aggregate_goodput_mbps = static_cast<double>(payload_total) * 8e3 /
                                 static_cast<double>(last_done - first_start);
  }
  const size_t n = out.goodput_bps.size();
  if (n > 0 && sum_sq > 0.0) {
    out.fairness = (sum * sum) / (static_cast<double>(n) * sum_sq);
  }

  for (int idx = 0; idx < testbed.host_count(); ++idx) {
    const TcpStats& stats = testbed.tcp(idx).stats();
    out.retransmits += stats.retransmits;
    out.rexmt_timeouts += stats.rexmt_timeouts;
    out.fast_retransmits += stats.fast_retransmits;
    out.fast_recovery_episodes += stats.fast_recovery_episodes;
    out.newreno_partial_acks += stats.newreno_partial_acks;
    out.sack_blocks_received += stats.sack_blocks_received;
    out.sack_retransmits += stats.sack_retransmits;
  }

  AtmSwitch* sw = testbed.atm_switch();
  for (int f = 0; f < cell.flows; ++f) {
    const AtmSwitch::VcState* vc = sw->vc_state(testbed.vci(f, cell.flows));
    if (vc == nullptr) {
      continue;
    }
    out.cells_forwarded += vc->cells_forwarded;
    out.frames_discarded += vc->frames_discarded;
    out.occupancy_hiwat = std::max(out.occupancy_hiwat, vc->hiwat);
  }
  out.cells_dropped_tail = sw->stats().cells_dropped_tail;
  out.cells_dropped_epd = sw->stats().cells_dropped_epd;
  out.cells_dropped_ppd = sw->stats().cells_dropped_ppd;
  out.cells_switched = sw->stats().cells_switched;
  out.cells_no_route = sw->stats().no_route;
  for (int idx = 0; idx < testbed.host_count(); ++idx) {
    out.adapter_cells_sent += testbed.adapter(idx).stats().cells_sent;
  }
  if (out.cells_forwarded > 0) {
    out.efficiency = static_cast<double>(payload_total) /
                     static_cast<double>(out.cells_forwarded * kCellPayloadBytes);
  }
  out.sim_elapsed = testbed.sim().Now() - SimTime();
  out.sim_events = testbed.sim().events_dispatched();
  return out;
}

std::vector<std::string> CongestionHeader() {
  return {"variant", "policy",  "buf",   "flows", "goodput", "effic",
          "fair",    "rexmt",   "timeo", "recov", "drops",   "frames"};
}

std::vector<std::string> CongestionRow(const CongestionCell& cell,
                                       const CongestionOutcome& out) {
  const uint64_t drops =
      out.cells_dropped_tail + out.cells_dropped_epd + out.cells_dropped_ppd;
  return {
      CongestionVariantName(cell.variant),
      DropPolicyName(cell.policy),
      std::to_string(cell.buffer_cells),
      std::to_string(cell.flows),
      TextTable::Num(out.aggregate_goodput_mbps, 2) + " Mb/s",
      TextTable::Num(out.efficiency, 3),
      TextTable::Num(out.fairness, 3),
      std::to_string(out.retransmits),
      std::to_string(out.rexmt_timeouts),
      std::to_string(out.fast_recovery_episodes),
      std::to_string(drops),
      std::to_string(out.frames_discarded),
  };
}

}  // namespace tcplat
