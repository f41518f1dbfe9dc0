#include "src/workload/interactive.h"

#include <algorithm>
#include <string>

#include "src/base/check.h"
#include "src/core/table.h"

namespace tcplat {

const char* InteractiveKnobName(InteractiveKnob knob) {
  switch (knob) {
    case InteractiveKnob::kPathological:
      return "nagle+delack";
    case InteractiveKnob::kNodelay:
      return "nodelay";
    case InteractiveKnob::kDelackOff:
      return "delack-off";
  }
  return "?";
}

std::vector<FlowSpec> BuildInteractiveFlows(const InteractiveCell& cell, int clients,
                                            int servers) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  TCPLAT_CHECK(!cell.request_chunks.empty());
  std::vector<FlowSpec> specs;
  specs.reserve(static_cast<size_t>(cell.flows));
  for (int f = 0; f < cell.flows; ++f) {
    FlowSpec spec;
    spec.client = f % clients;
    spec.server = f % servers;
    spec.iterations = cell.iterations;
    spec.warmup = cell.warmup;
    spec.think_time = cell.think_time;
    if (cell.keystrokes > 0) {
      spec.keystrokes = cell.keystrokes;
      spec.keystroke_interval = cell.keystroke_interval;
      spec.size = 1;
    } else if (cell.streaming) {
      spec.streaming = true;
      spec.size = cell.request_chunks[0];
      spec.stream_interval = cell.stream_interval;
    } else {
      spec.request_chunks = cell.request_chunks;
      spec.response_size = cell.response_size;
      spec.pipeline_depth = cell.pipeline_depth;
    }
    if (f < cell.clean_flows && !cell.streaming && cell.keystrokes == 0) {
      // Well-behaved control population: the whole request in one write,
      // sent immediately. These flows dominate p50 in mixed cells.
      size_t total = 0;
      for (const size_t chunk : cell.request_chunks) {
        total += chunk;
      }
      spec.request_chunks = {total};
      spec.client_nodelay = true;
    }
    switch (cell.knob) {
      case InteractiveKnob::kPathological:
        break;
      case InteractiveKnob::kNodelay:
        spec.client_nodelay = true;
        break;
      case InteractiveKnob::kDelackOff:
        spec.server_delack = false;
        break;
    }
    if (cell.impairment.active()) {
      spec.tolerate_errors = true;
    }
    specs.push_back(spec);
  }
  return specs;
}

InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell) {
  return RunInteractiveCell(cell, nullptr);
}

InteractiveOutcome RunInteractiveCell(const InteractiveCell& cell, Tracer* tracer) {
  TCPLAT_CHECK_GT(cell.flows, 0);
  TestbedConfig config;
  config.switched = true;
  config.clients = std::min(cell.clients, cell.flows);
  config.servers = std::min(cell.servers, cell.flows);
  config.seed = cell.seed;
  if (cell.delack_timeout.nanos() > 0) {
    config.tcp.delack_timeout = cell.delack_timeout;
  }
  Testbed testbed(config);
  if (tracer != nullptr) {
    testbed.AttachTracer(tracer);
  }
  if (cell.server_rcv_clamp > 0) {
    // Clamp only the server side: the echoed response still flows through
    // the client's full window, so the scenario converges on the
    // delayed-ACK clock instead of wedging both directions.
    for (int j = 0; j < config.servers; ++j) {
      testbed.server_tcp(j).config().rcv_window_clamp = cell.server_rcv_clamp;
    }
  }
  ImpairmentPolicy policy(cell.impairment);
  if (cell.impairment.active()) {
    testbed.atm_switch()->set_output_impairment(&policy);
  }

  const std::vector<FlowSpec> specs =
      BuildInteractiveFlows(cell, config.clients, config.servers);
  const WorkloadResult result = RunWorkload(testbed, specs);
  if (cell.impairment.active()) {
    testbed.atm_switch()->set_output_impairment(nullptr);
  }

  InteractiveOutcome out;
  out.samples = result.rtt.count();
  out.mean = result.rtt.Mean();
  if (out.samples > 0) {
    out.p50 = result.rtt.Percentile(50);
    out.p99 = result.rtt.Percentile(99);
  }
  out.completed = result.completed;
  out.aborted = result.aborted;
  for (int idx = 0; idx < config.clients + config.servers; ++idx) {
    const TcpStats& stats = testbed.tcp(idx).stats();
    out.nagle_holds += stats.nagle_holds;
    out.sws_holds += stats.sws_holds;
    out.delayed_acks_fired += stats.delayed_acks_fired;
    out.retransmits += stats.retransmits;
    out.rexmt_timeouts += stats.rexmt_timeouts;
    out.fast_retransmits += stats.fast_retransmits;
  }
  out.drops_injected = policy.stats().dropped;
  out.sim_elapsed = testbed.sim().Now() - SimTime();
  out.sim_events = testbed.sim().events_dispatched();
  return out;
}

std::vector<std::string> InteractiveHeader() {
  return {"knob",  "flows", "req",   "resp",  "delack", "samples", "p50",
          "p99",   "nagle", "sws",   "dacks", "rexmt"};
}

std::vector<std::string> InteractiveRow(const InteractiveCell& cell,
                                        const InteractiveOutcome& out) {
  std::string req;
  for (size_t i = 0; i < cell.request_chunks.size(); ++i) {
    if (i > 0) req += "+";
    req += std::to_string(cell.request_chunks[i]);
  }
  const int64_t timer_ns =
      cell.delack_timeout.nanos() > 0 ? cell.delack_timeout.nanos() : TcpConfig().delack_timeout.nanos();
  return {
      InteractiveKnobName(cell.knob),
      std::to_string(cell.flows),
      req,
      std::to_string(cell.response_size),
      TextTable::Num(static_cast<double>(timer_ns) / 1e6, 0) + " ms",
      std::to_string(out.samples),
      TextTable::Us(static_cast<double>(out.p50.nanos()) / 1e3, 1),
      TextTable::Us(static_cast<double>(out.p99.nanos()) / 1e3, 1),
      std::to_string(out.nagle_holds),
      std::to_string(out.sws_holds),
      std::to_string(out.delayed_acks_fired),
      std::to_string(out.retransmits),
  };
}

}  // namespace tcplat
