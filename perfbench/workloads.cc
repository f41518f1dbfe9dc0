#include "perfbench/workloads.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <utility>

#include "perfbench/alloc_counter.h"
#include "perfbench/reductions.h"
#include "src/base/check.h"
#include "src/base/random.h"
#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/link/link_profile.h"
#include "src/workload/capacity.h"
#include "src/workload/congestion.h"
#include "src/workload/flow_driver.h"
#include "src/workload/generator.h"
#include "src/workload/star_testbed.h"

namespace perfbench {

using tcplat::TraceEventKind;

namespace {

// star_rpc: the 64-flow closed-loop capacity cell (4 clients, 2 servers,
// one cell switch) that the simulator's own throughput checks use.
constexpr int kStarFlows = 64;
constexpr size_t kStarSize = 200;
constexpr int kStarIterations = 25;
constexpr int kStarWarmup = 2;

// congestion_bulk: 8 bulk flows into the 6 Mb/s trunk with 128-cell per-VC
// buffers, once as Reno over tail drop and once as SACK over EPD — the
// pairing whose gap the congestion grid is built to show.
constexpr int kBulkFlows = 8;
constexpr uint64_t kBulkBytes = 96 * 1024;
constexpr size_t kBulkBufferCells = 128;

std::string FingerprintLatency(const tcplat::LatencyStats& s) {
  std::ostringstream os;
  os << s.count() << '/' << s.sum().nanos();
  if (s.count() > 0) {
    os << '/' << s.Min().nanos() << '/' << s.Percentile(50).nanos() << '/'
       << s.Percentile(99).nanos() << '/' << s.Max().nanos();
  }
  return os.str();
}

// Seeded permutation of 0..n-1: the order a chunk runs its cells in.
std::vector<size_t> CellOrder(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  tcplat::Rng rng(seed);
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBelow(i)]);
  }
  return order;
}

void SetPercentiles(const tcplat::LatencyStats& s, ChunkResult* out) {
  if (s.count() > 0) {
    out->rtt_p50_ns = s.Percentile(50).nanos();
    out->rtt_p99_ns = s.Percentile(99).nanos();
  }
}

// --- paper_rtt ---------------------------------------------------------------

constexpr size_t kSizes = tcplat::paper::kSizes.size();
// Cells 0..7 are the ATM sizes, 8..15 the Ethernet ones.
constexpr size_t kPaperCells = 2 * kSizes;

tcplat::TestbedConfig PaperConfig(size_t cell, uint64_t seed) {
  tcplat::TestbedConfig cfg;
  cfg.network = cell < kSizes ? tcplat::NetworkKind::kAtm : tcplat::NetworkKind::kEthernet;
  cfg.seed = seed;
  return cfg;
}

tcplat::RpcOptions PaperOptions(size_t cell, ChunkKind kind) {
  tcplat::RpcOptions opt;  // the Table 1-3 benches' defaults
  opt.size = tcplat::paper::kSizes[cell % kSizes];
  opt.tolerate_errors = true;
  if (kind == ChunkKind::kSetup) {
    opt.iterations = 1;
    opt.warmup = 0;
  }
  return opt;
}

ChunkResult RunPaperChunk(uint64_t seed, ChunkKind kind, bool traced) {
  ChunkResult out;
  out.fidelity.emplace();
  std::vector<std::string> prints(kPaperCells);
  tcplat::LatencyStats merged;
  // Per cell, summed in cell order afterwards so the totals do not depend
  // on the seeded run order (float addition is not associative).
  std::vector<double> payload_bits(kPaperCells);
  std::vector<double> sim_seconds(kPaperCells);
  for (size_t cell : CellOrder(kPaperCells, seed)) {
    const bool atm = cell < kSizes;
    const size_t i = cell % kSizes;
    const tcplat::RpcOptions opt = PaperOptions(cell, kind);
    tcplat::Tracer tracer;
    const uint64_t allocs_before = HeapAllocations();
    tcplat::Testbed tb(PaperConfig(cell, seed));
    if (traced) {
      tb.AttachTracer(&tracer);
    }
    const tcplat::RpcResult r = tcplat::RunRpcBenchmark(tb, opt);
    out.heap_allocs += HeapAllocations() - allocs_before;
    // Warm-up round trips are echoed like measured ones, so they count as
    // ops; only measured ones are timed and verified by RunRpcBenchmark.
    const double ops = static_cast<double>(opt.iterations + opt.warmup);
    out.ops += ops;
    if (r.aborted) {
      out.failed_ops += ops;
    } else {
      const uint64_t missing = r.iterations - std::min<uint64_t>(r.iterations, r.rtt.count());
      out.failed_ops += static_cast<double>(missing + r.data_mismatches);
    }
    out.sim_events += tb.sim().events_dispatched();
    merged.Merge(r.rtt);
    payload_bits[cell] =
        2.0 * 8.0 * static_cast<double>(opt.size) * static_cast<double>(r.rtt.count());
    sim_seconds[cell] = static_cast<double>(r.rtt.sum().nanos()) / 1e9;

    std::ostringstream fp;
    fp << cell << ':' << FingerprintLatency(r.rtt) << ':' << r.data_mismatches << ':'
       << r.aborted << ':' << tb.sim().events_dispatched();
    for (tcplat::SimDuration span : r.spans) {
      fp << ',' << span.nanos();
    }
    prints[cell] = fp.str();

    if (atm) {
      out.fidelity->rtt_atm_us[i] = r.MeanRtt().micros();
      static constexpr std::array<tcplat::SpanId, 13> kRowSpans = {
          tcplat::SpanId::kTxUser,        tcplat::SpanId::kTxTcpChecksum,
          tcplat::SpanId::kTxTcpMcopy,    tcplat::SpanId::kTxTcpSegment,
          tcplat::SpanId::kTxIp,          tcplat::SpanId::kTxDriver,
          tcplat::SpanId::kRxDriver,      tcplat::SpanId::kRxIpq,
          tcplat::SpanId::kRxIp,          tcplat::SpanId::kRxTcpChecksum,
          tcplat::SpanId::kRxTcpSegment,  tcplat::SpanId::kRxWakeup,
          tcplat::SpanId::kRxUser,
      };
      for (size_t row = 0; row < kRowSpans.size(); ++row) {
        out.fidelity->rows_us[row][i] = r.SpanMean(kRowSpans[row]).micros();
      }
    } else {
      out.fidelity->rtt_ether_us[i] = r.MeanRtt().micros();
    }
    if (traced) {
      out.trace.Add(tracer);
    }
  }
  for (const std::string& p : prints) {
    out.fingerprint += p + ';';
  }
  SetPercentiles(merged, &out);
  const double bits = std::accumulate(payload_bits.begin(), payload_bits.end(), 0.0);
  const double seconds = std::accumulate(sim_seconds.begin(), sim_seconds.end(), 0.0);
  out.goodput_mbps = seconds > 0 ? bits / seconds / 1e6 : 0;
  return out;
}

// --- star_rpc ----------------------------------------------------------------

tcplat::CapacityCell StarCell(uint64_t seed, ChunkKind kind) {
  tcplat::CapacityCell cell;
  cell.flows = kStarFlows;
  cell.size = kStarSize;
  cell.iterations = kind == ChunkKind::kSetup ? 1 : kStarIterations;
  cell.warmup = kind == ChunkKind::kSetup ? 0 : kStarWarmup;
  cell.seed = seed;
  return cell;
}

ChunkResult RunStarChunk(uint64_t seed, ChunkKind kind, bool traced) {
  const tcplat::CapacityCell cell = StarCell(seed, kind);
  tcplat::Tracer tracer;
  const uint64_t allocs_before = HeapAllocations();
  const tcplat::CapacityOutcome o =
      traced ? tcplat::RunCapacityCell(cell, &tracer) : tcplat::RunCapacityCell(cell);
  const uint64_t allocs = HeapAllocations() - allocs_before;

  ChunkResult out;
  out.heap_allocs = allocs;
  out.ops = static_cast<double>(cell.flows) * (cell.iterations + cell.warmup);
  const bool whole = o.aborted == 0 && o.completed == static_cast<uint64_t>(cell.flows) &&
                     o.samples == static_cast<uint64_t>(cell.flows) * cell.iterations;
  out.failed_ops = whole ? 0 : out.ops;
  out.sim_events = o.sim_events;
  out.rtt_p50_ns = o.p50.nanos();
  out.rtt_p99_ns = o.p99.nanos();
  out.goodput_mbps = o.goodput_mbps;
  std::ostringstream fp;
  fp << o.samples << ':' << o.mean.nanos() << ':' << o.p50.nanos() << ':' << o.p99.nanos()
     << ':' << o.completed << ':' << o.aborted << ':' << o.max_concurrent << ':'
     << o.sim_elapsed.nanos() << ':' << o.sim_events;
  out.fingerprint = fp.str();
  if (traced) {
    out.trace.Add(tracer);
  }
  return out;
}

// --- congestion_bulk ---------------------------------------------------------

std::array<tcplat::CongestionCell, 2> BulkCells(uint64_t seed, ChunkKind kind) {
  std::array<tcplat::CongestionCell, 2> cells;
  cells[0].variant = tcplat::CongestionVariant::kReno;
  cells[0].policy = tcplat::DropPolicy::kTailDrop;
  cells[1].variant = tcplat::CongestionVariant::kSack;
  cells[1].policy = tcplat::DropPolicy::kEpd;
  for (tcplat::CongestionCell& c : cells) {
    c.buffer_cells = kBulkBufferCells;
    c.flows = kBulkFlows;
    c.bulk_bytes = kind == ChunkKind::kSetup ? 1 : kBulkBytes;
    c.seed = seed;
  }
  return cells;
}

ChunkResult RunCongestionChunk(uint64_t seed, ChunkKind kind, bool traced) {
  const std::array<tcplat::CongestionCell, 2> cells = BulkCells(seed, kind);
  ChunkResult out;
  std::array<std::string, 2> prints;
  tcplat::LatencyStats completions;
  for (size_t idx : CellOrder(cells.size(), seed)) {
    const tcplat::CongestionCell& c = cells[idx];
    tcplat::Tracer tracer;
    const uint64_t allocs_before = HeapAllocations();
    const tcplat::CongestionOutcome o =
        traced ? tcplat::RunCongestionCell(c, &tracer) : tcplat::RunCongestionCell(c);
    out.heap_allocs += HeapAllocations() - allocs_before;
    const double kib = static_cast<double>(c.bulk_bytes) / 1024.0;
    out.ops += kib * c.flows;
    bool whole = o.aborted == 0 && o.completed == static_cast<uint64_t>(c.flows) &&
                 o.flow_stats.size() == static_cast<size_t>(c.flows);
    for (const tcplat::CongestionFlowStats& f : o.flow_stats) {
      if (f.elapsed_ns <= 0) {
        whole = false;
        continue;
      }
      completions.Add(tcplat::SimDuration::FromNanos(f.elapsed_ns));
    }
    if (!whole) {
      out.failed_ops += kib * c.flows;
    }
    out.sim_events += o.sim_events;
    out.goodput_mbps += o.aggregate_goodput_mbps / cells.size();
    out.efficiency += o.efficiency / cells.size();
    out.fairness += o.fairness / cells.size();
    std::ostringstream fp;
    fp.precision(17);
    fp << idx << ':' << o.aggregate_goodput_mbps << ':' << o.efficiency << ':' << o.fairness
       << ':' << o.completed << ':' << o.aborted << ':' << o.retransmits << ':'
       << o.rexmt_timeouts << ':' << o.fast_retransmits << ':' << o.sack_retransmits << ':'
       << o.cells_forwarded << ':' << o.cells_dropped_tail << ':' << o.cells_dropped_epd << ':'
       << o.cells_dropped_ppd << ':' << o.frames_discarded << ':' << o.occupancy_hiwat << ':'
       << o.sim_elapsed.nanos() << ':' << o.sim_events;
    for (const tcplat::CongestionFlowStats& f : o.flow_stats) {
      fp << ',' << f.elapsed_ns;
    }
    prints[idx] = fp.str();
    if (traced) {
      out.trace.Add(tracer);
    }
  }
  out.fingerprint = prints[0] + ';' + prints[1];
  SetPercentiles(completions, &out);
  return out;
}

// --- probe -------------------------------------------------------------------

struct DepthTotals {
  uint64_t weighted = 0;  // sum of pending events x events dispatched since the last sample
  uint64_t events = 0;
};

// Samples a simulator's pending-event count every simulated microsecond
// while it runs, skipping ahead to the next pending event across idle
// gaps, and stops once nothing else is pending so RunToCompletion still
// ends. Its callbacks read the simulator and touch no simulated state.
class QueueDepthSampler {
 public:
  QueueDepthSampler(tcplat::Simulator& sim, DepthTotals* totals) : sim_(sim), totals_(totals) {
    Arm(sim_.Now() + kPeriod);
  }

  // Events the simulator dispatched, less the sampler's own.
  uint64_t workload_events() const { return sim_.events_dispatched() - fired_; }

 private:
  static constexpr tcplat::SimDuration kPeriod = tcplat::SimDuration::FromNanos(1000);

  void Arm(tcplat::SimTime when) {
    sim_.ScheduleAt(when, [this] { Fire(); });
  }

  void Fire() {
    // The simulator counts an event once its callback returns, so this
    // call is not in events_dispatched() yet.
    const uint64_t dispatched = workload_events();
    ++fired_;
    totals_->weighted += sim_.pending_events() * (dispatched - last_dispatched_);
    totals_->events += dispatched - last_dispatched_;
    last_dispatched_ = dispatched;
    if (sim_.pending_events() > 0) {
      Arm(std::max(sim_.Now() + kPeriod, sim_.NextEventTime()));
    }
  }

  tcplat::Simulator& sim_;
  DepthTotals* totals_;
  uint64_t fired_ = 0;
  uint64_t last_dispatched_ = 0;
};

void AddHostCounters(tcplat::Host& host, const tcplat::TcpStats& tcp, ProbeCounts* out) {
  const tcplat::MbufStats& m = host.pool().stats();
  out->mbuf_allocs += m.small_allocs + m.cluster_allocs;
  out->bytes_copied += m.bytes_copied;
  const uint64_t hits = tcp.predict_ack_hits + tcp.predict_data_hits;
  out->predict_hits += hits;
  out->predict_attempts += hits + tcp.predict_misses;
  out->rexmt_timeouts += tcp.rexmt_timeouts;
}

void AddStarCounters(tcplat::StarTestbed& tb, ProbeCounts* out) {
  for (int i = 0; i < tb.host_count(); ++i) {
    AddHostCounters(tb.host(i), tb.tcp(i).stats(), out);
  }
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (Workload w : {Workload::kPaperRtt, Workload::kStarRpc, Workload::kCongestionBulk}) {
    if (name == WorkloadName(w)) {
      return w;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kPaperRtt:
      return "paper_rtt";
    case Workload::kStarRpc:
      return "star_rpc";
    case Workload::kCongestionBulk:
      return "congestion_bulk";
  }
  return "?";
}

const char* OpName(Workload w) {
  return w == Workload::kCongestionBulk ? "KiB of bulk payload delivered" : "echo round trip";
}

const std::array<LayerRow, 13>& LayerRows() {
  namespace p = tcplat::paper;
  static const std::array<LayerRow, 13> kRows = {{
      {"sock.tx_user_err_pct", &p::kTable2User},
      {"tcp.tx_checksum_err_pct", &p::kTable2Checksum},
      {"tcp.tx_mcopy_err_pct", &p::kTable2Mcopy},
      {"tcp.tx_segment_err_pct", &p::kTable2Segment},
      {"ip.tx_err_pct", &p::kTable2Ip},
      {"atm.tx_err_pct", &p::kTable2Atm},
      {"atm.rx_err_pct", &p::kTable3Atm},
      {"ip.rxq_err_pct", &p::kTable3Ipq},
      {"ip.rx_err_pct", &p::kTable3Ip},
      {"tcp.rx_checksum_err_pct", &p::kTable3Checksum},
      {"tcp.rx_segment_err_pct", &p::kTable3Segment},
      {"sock.rx_wakeup_err_pct", &p::kTable3Wakeup},
      {"sock.rx_user_err_pct", &p::kTable3User},
  }};
  return kRows;
}

void TraceCounts::Add(const tcplat::Tracer& tracer) {
  const std::vector<std::string>& names = tracer.host_names();
  int switch_id = -1;
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "switch") {
      switch_id = static_cast<int>(i);
    }
  }
  uint64_t sent_cells = 0;
  uint64_t switched = 0;
  uint64_t dropped = 0;
  uint64_t written = 0;
  uint64_t read = 0;
  struct SocketSpan {
    int64_t first_ns = -1;
    int64_t last_ns = -1;
    uint64_t read = 0;
  };
  std::map<std::pair<uint8_t, uint64_t>, SocketSpan> sockets;
  for (const tcplat::TraceEvent& ev : tracer.events()) {
    ++events[static_cast<size_t>(ev.layer)][static_cast<size_t>(ev.kind)];
    ++total_events;
    const bool at_switch = static_cast<int>(ev.host) == switch_id;
    switch (ev.kind) {
      case TraceEventKind::kPduTx:
        sent_cells += ev.packet;
        ++pdus;
        pdu_bytes += ev.bytes;
        break;
      case TraceEventKind::kCellSwitch:
        ++switched;
        break;
      case TraceEventKind::kDrop:
        if (at_switch) {
          ++dropped;
        }
        break;
      case TraceEventKind::kCellDrop:
        ++host_cell_drops;
        break;
      case TraceEventKind::kSegTx:
        seg_tx_payload += ev.bytes;
        break;
      case TraceEventKind::kSegRx:
        seg_rx_payload += ev.bytes;
        break;
      case TraceEventKind::kDequeue:
        ipintrq_wait_ns += static_cast<uint64_t>(ev.dur_ns);
        break;
      case TraceEventKind::kUserWrite: {
        written += ev.bytes;
        SocketSpan& s = sockets[{ev.host, ev.flow}];
        if (s.first_ns < 0) {
          s.first_ns = ev.ts_ns;
        }
        break;
      }
      case TraceEventKind::kUserRead: {
        read += ev.bytes;
        SocketSpan& s = sockets[{ev.host, ev.flow}];
        s.last_ns = ev.ts_ns;
        s.read += ev.bytes;
        break;
      }
      default:
        break;
    }
  }
  adapter_cells += sent_cells;
  switched_cells += switched;
  switch_drops += dropped;
  if (sent_cells > 0) {
    cell_runs_bytes_read += read;
  }
  if ((switch_id >= 0 && sent_cells != switched + dropped) || written != read) {
    ++conservation_violations;
  }
  std::vector<double> goodput;
  for (const auto& [key, s] : sockets) {
    if (s.first_ns >= 0 && s.last_ns > s.first_ns) {
      goodput.push_back(static_cast<double>(s.read) * 8e3 /
                        static_cast<double>(s.last_ns - s.first_ns));
    }
  }
  if (!goodput.empty()) {
    run_fairness.push_back(JainIndex(goodput));
  }
}

ChunkResult RunChunk(Workload w, uint64_t seed, ChunkKind kind, bool traced) {
  switch (w) {
    case Workload::kPaperRtt:
      return RunPaperChunk(seed, kind, traced);
    case Workload::kStarRpc:
      return RunStarChunk(seed, kind, traced);
    case Workload::kCongestionBulk:
      return RunCongestionChunk(seed, kind, traced);
  }
  TCPLAT_CHECK(false) << "unknown workload";
  return {};
}

ProbeCounts RunProbe(Workload w, uint64_t seed) {
  ProbeCounts out;
  DepthTotals depth;
  switch (w) {
    case Workload::kPaperRtt:
      for (size_t cell = 0; cell < kPaperCells; ++cell) {
        tcplat::Testbed tb(PaperConfig(cell, seed));
        const QueueDepthSampler sampler(tb.sim(), &depth);
        const tcplat::RpcResult r =
            tcplat::RunRpcBenchmark(tb, PaperOptions(cell, ChunkKind::kMeasured));
        AddHostCounters(tb.client_host(), r.client_tcp, &out);
        AddHostCounters(tb.server_host(), r.server_tcp, &out);
        out.sim_events += sampler.workload_events();
      }
      break;
    case Workload::kStarRpc: {
      // RunCapacityCell's closed-loop star, as it builds it.
      const tcplat::CapacityCell cell = StarCell(seed, ChunkKind::kMeasured);
      tcplat::StarTestbedConfig config;
      config.network = cell.network;
      config.clients = std::min(cell.clients, cell.flows);
      config.servers = std::min(cell.servers, cell.flows);
      config.seed = cell.seed;
      config.tcp.header_prediction = cell.header_prediction;
      config.tcp.checksum = cell.checksum;
      tcplat::ClosedLoopConfig closed;
      closed.flows = cell.flows;
      closed.clients = config.clients;
      closed.servers = config.servers;
      closed.size = cell.size;
      closed.iterations = cell.iterations;
      closed.warmup = cell.warmup;
      closed.think_time = cell.think_time;
      tcplat::StarTestbed tb(config);
      const QueueDepthSampler sampler(tb.sim(), &depth);
      tcplat::RunWorkload(tb, tcplat::BuildClosedLoop(closed));
      AddStarCounters(tb, &out);
      out.sim_events += sampler.workload_events();
      break;
    }
    case Workload::kCongestionBulk:
      // RunCongestionCell's bulk star, as it builds it.
      for (const tcplat::CongestionCell& cell : BulkCells(seed, ChunkKind::kMeasured)) {
        tcplat::StarTestbedConfig config;
        config.network = tcplat::NetworkKind::kAtm;
        config.clients = cell.flows;
        config.servers = 1;
        config.seed = cell.seed;
        config.propagation = tcplat::GetLinkProfile(cell.profile).propagation;
        config.vc_buffers.buffer_cells = cell.buffer_cells;
        config.vc_buffers.policy = cell.policy;
        config.vc_buffers.epd_threshold = cell.epd_threshold;
        config.server_trunk_bps = cell.trunk_bps;
        config.tcp.sndbuf = cell.sndbuf;
        config.tcp.rcvbuf = cell.rcvbuf;
        config.tcp.mss_clamp = cell.mss_clamp;
        tcplat::WorkloadOptions options;
        options.reset_trackers_at_warmup = false;
        tcplat::StarTestbed tb(config);
        const QueueDepthSampler sampler(tb.sim(), &depth);
        tcplat::RunWorkload(tb, tcplat::BuildCongestionFlows(cell), options);
        AddStarCounters(tb, &out);
        out.sim_events += sampler.workload_events();
      }
      break;
  }
  out.mean_queue_depth = depth.events == 0 ? 0.0
                                           : static_cast<double>(depth.weighted) /
                                                 static_cast<double>(depth.events);
  return out;
}

Fidelity PaperFidelity(uint64_t seed) {
  return *RunPaperChunk(seed, ChunkKind::kMeasured, /*traced=*/false).fidelity;
}

}  // namespace perfbench
