// The repository benchmark: host cost and paper fidelity of the simulator.
//
//   perfbench --workload <paper_rtt|star_rpc|congestion_bulk> --seed <n>
//             --seconds <s> --trace <0|1>
//
// With --trace 0 it prints the end-to-end metrics: simulated ops completed
// per host second, set-up time, peak memory, the share of ops that
// completed correctly, and the error of the simulated Table 1-3 cells
// against the paper. With --trace 1 it prints the per-layer metrics: event,
// cell, segment and allocation counts per op from a traced run, replayed
// per-call costs of each layer's functions and the share of an op's host
// time they explain, the tracing overhead, and each Table 2/3 row's error.
//
// Every chunk of work is checked: no aborted flow, every echo verified,
// every flow completed, cells conserved at the switch, and the simulated
// outputs of every chunk identical to the first chunk's at the same seed (a
// mismatch exits with status 3). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}; the line
// before it records the environment.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/reductions.h"
#include "perfbench/replay.h"
#include "perfbench/workloads.h"
#include "src/base/check.h"
#include "src/core/paper_data.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  Workload workload = Workload::kPaperRtt;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper_rtt|star_rpc|congestion_bulk> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const std::optional<Workload> w = ParseWorkload(value);
      if (!w) {
        Usage(("unknown workload " + value).c_str());
      }
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) {
    Usage("--workload is required");
  }
  return args;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Ops, failures and the simulated-output check shared by every chunk run.
class Ledger {
 public:
  explicit Ledger(const Args& args) : args_(args) {}

  // Runs one chunk, checks it against the first chunk of its kind, and
  // returns it with its host time.
  ChunkResult Run(ChunkKind kind, bool traced, double* host_s) {
    const Clock::time_point t0 = Clock::now();
    ChunkResult r = RunChunk(args_.workload, args_.seed, kind, traced);
    *host_s = SecondsSince(t0);
    std::string& reference = kind == ChunkKind::kSetup ? setup_print_ : measured_print_;
    if (reference.empty()) {
      reference = r.fingerprint;
    } else if (r.fingerprint != reference) {
      std::fprintf(stderr,
                   "perfbench: determinism break on %s seed %llu: a %s chunk's simulated "
                   "outputs differ from the first one's\n",
                   WorkloadName(args_.workload), static_cast<unsigned long long>(args_.seed),
                   traced ? "traced" : "untraced");
      std::exit(3);
    }
    attempted_ += r.ops;
    const bool broken = r.trace.conservation_violations > 0;
    failed_ += broken ? r.ops : r.failed_ops;
    return r;
  }

  double attempted() const { return attempted_; }
  double failed() const { return failed_; }

 private:
  const Args& args_;
  std::string setup_print_;
  std::string measured_print_;
  double attempted_ = 0;
  double failed_ = 0;
};

// The host shares its cores with other tenants, and its speed drifts by up
// to a third over tens of seconds as their load comes and goes, more than
// any statistic over one run's chunks can hide. So every round also times
// a fixed reference kernel, and the gated host-time metrics scale each
// chunk and set-up by it to a reference host speed, on which the kernel
// takes a fixed 7.5 ms (on the 4-vCPU x86-64 VM the benchmark was tuned
// on, it took 5-11 ms as the other load varied). The kernel does the
// kinds of work the simulator's host time goes to (heap allocation and
// free, ordered-tree inserts, small copies), so it slows down with the
// simulator; it is the benchmark's own code, so no change to the
// simulator changes its speed.
constexpr double kReferenceKernelS = 0.0075;

uint64_t ReferenceKernel() {
  constexpr int kItems = 20000;
  std::vector<std::unique_ptr<std::string>> strings;
  for (int i = 0; i < kItems; ++i) {
    strings.push_back(std::make_unique<std::string>(40, static_cast<char>('a' + i % 26)));
  }
  std::map<int, int> tree;
  for (int i = 0; i < kItems; ++i) {
    tree[(i * 7919) % 20011] = i;
  }
  return tree.size() + strings.size() + static_cast<uint64_t>((*strings.back())[0]);
}

double TimeReferenceKernel() {
  static volatile uint64_t sink = 0;
  const Clock::time_point t0 = Clock::now();
  sink = sink + ReferenceKernel();
  return SecondsSince(t0);
}

// Peak resident memory of this process image. VmHWM, unlike getrusage's
// ru_maxrss, does not inherit the launching process's peak across exec.
double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  TCPLAT_CHECK(f != nullptr) << "cannot read /proc/self/status";
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(f);
  TCPLAT_CHECK(kib > 0) << "no VmHWM in /proc/self/status";
  return kib / 1024.0;
}

struct Rounds {
  std::vector<double> setup_s;       // one set-up per round
  std::vector<double> plain_rates;   // ops per host second, untraced chunks
  std::vector<double> traced_rates;  // traced chunks (A/B runs only)
  std::vector<double> kernel_s;      // the reference kernel, once per round
};

// Repeats rounds for `seconds`: a set-up (the workload's testbeds and
// connections with one op per flow), an untraced chunk, for the A/B a
// traced one, and the reference kernel. Interleaving spreads every kind of
// sample over the same load phases.
Rounds RunRounds(Ledger& ledger, double seconds, bool with_traced) {
  Rounds out;
  double host_s = 0;
  const Clock::time_point t0 = Clock::now();
  while (out.plain_rates.size() < 2 || SecondsSince(t0) < seconds) {
    ledger.Run(ChunkKind::kSetup, false, &host_s);
    out.setup_s.push_back(host_s);
    const ChunkResult a = ledger.Run(ChunkKind::kMeasured, false, &host_s);
    out.plain_rates.push_back(a.ops / host_s);
    if (with_traced) {
      const ChunkResult b = ledger.Run(ChunkKind::kMeasured, true, &host_s);
      out.traced_rates.push_back(b.ops / host_s);
    }
    out.kernel_s.push_back(TimeReferenceKernel());
  }
  return out;
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

// Chunk rates at the reference host speed: the values ops_per_s is the
// median of.
std::vector<double> ScaledRates(const Rounds& rounds) {
  return RatesAtReference(rounds.plain_rates, rounds.kernel_s, kReferenceKernelS);
}

void PrintEnv(const Args& args, const Rounds& rounds, const char* extra) {
  const Quartiles q = ComputeQuartiles(ScaledRates(rounds));
  const char* jobs = std::getenv("TCPLAT_JOBS");
  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"op\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"build_type\": \"%s\", \"host_time_valid\": %s, \"nproc\": %ld, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s\", \"tcplat_jobs\": \"%s\", "
      "\"chunks\": %zu, \"chunk_ops_per_s_q1\": %.6g, \"chunk_ops_per_s_median\": %.6g, "
      "\"chunk_ops_per_s_q3\": %.6g, \"chunk_ops_per_s_spread\": %.4f, "
      "\"raw_chunk_ops_per_s_median\": %.6g, \"reference_kernel_s_median\": %.6g, "
      "\"reference_kernel_s\": %g%s}}\n",
      WorkloadName(args.workload), OpName(args.workload),
      static_cast<unsigned long long>(args.seed), args.seconds, PERFBENCH_BUILD_TYPE,
      release ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      std::thread::hardware_concurrency(), kCompiler, jobs == nullptr ? "" : jobs,
      rounds.plain_rates.size(), q.q1, q.median, q.q3, q.Spread(), Median(rounds.plain_rates),
      Median(rounds.kernel_s), kReferenceKernelS, extra);
  if (!release) {
    std::fprintf(stderr, "perfbench: %s build; host-time metrics are not comparable\n",
                 PERFBENCH_BUILD_TYPE);
  }
}

void PrintResult(bool correct, double attempted, double failed, const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(std::llround(attempted)),
              static_cast<unsigned long long>(std::llround(std::ceil(failed))));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

std::vector<double> Flatten(const std::array<std::array<double, 8>, 13>& rows) {
  std::vector<double> out;
  for (const auto& row : rows) {
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

std::vector<double> PaperLayerCells() {
  std::vector<double> out;
  for (const LayerRow& row : LayerRows()) {
    out.insert(out.end(), row.paper->begin(), row.paper->end());
  }
  return out;
}

int RunEndToEnd(const Args& args) {
  Ledger ledger(args);
  // The first chunk warms the process and fixes the reference outputs.
  double host_s = 0;
  const ChunkResult first = ledger.Run(ChunkKind::kMeasured, false, &host_s);
  const Fidelity fid = first.fidelity ? *first.fidelity : PaperFidelity(args.seed);
  // Every chunk repeats the first one's simulated work, so the simulator's
  // peak is reached by now; read it before the reference kernel's
  // allocations can raise it.
  const double peak_rss_mb = PeakRssMb();
  const Rounds rounds = RunRounds(ledger, args.seconds, /*with_traced=*/false);

  std::vector<double> sim_rtt(fid.rtt_atm_us.begin(), fid.rtt_atm_us.end());
  sim_rtt.insert(sim_rtt.end(), fid.rtt_ether_us.begin(), fid.rtt_ether_us.end());
  std::vector<double> paper_rtt(tcplat::paper::kTable1Atm.begin(), tcplat::paper::kTable1Atm.end());
  paper_rtt.insert(paper_rtt.end(), tcplat::paper::kTable1Ethernet.begin(),
                   tcplat::paper::kTable1Ethernet.end());
  const ErrorSummary rtt_err = SummarizeErrors(sim_rtt, paper_rtt);
  const ErrorSummary layer_err = SummarizeErrors(Flatten(fid.rows_us), PaperLayerCells());

  const double attempted = ledger.attempted();
  const double failed = ledger.failed();
  const std::vector<Metric> metrics = {
      {"ops_per_s", Median(ScaledRates(rounds)), "1/s"},
      {"setup_s", Median(TimesAtReference(rounds.setup_s, rounds.kernel_s, kReferenceKernelS)),
       "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"ok_ops_pct", 100.0 * (attempted - failed) / attempted, "%"},
      {"paper_rtt_err_max_pct", rtt_err.max_pct, "%"},
      {"paper_rtt_err_mean_pct", rtt_err.mean_pct, "%"},
      {"paper_layer_err_mean_pct", layer_err.mean_pct, "%"},
  };
  PrintEnv(args, rounds, "");
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

int RunPerLayer(const Args& args) {
  Ledger ledger(args);
  // Allocations per event come from one untraced chunk; the count repeats
  // exactly at a given seed (simulated work is deterministic).
  double host_s = 0;
  const ChunkResult plain = ledger.Run(ChunkKind::kMeasured, false, &host_s);
  const ChunkResult traced = ledger.Run(ChunkKind::kMeasured, true, &host_s);

  // Interleaved A/B: untraced and traced chunks alternate for the run time.
  const Rounds rounds = RunRounds(ledger, args.seconds, /*with_traced=*/true);
  // The per-layer figures stay in this host's own nanoseconds, the unit the
  // replay timers measure in; the A/B interleave keeps the traced and
  // untraced medians comparable.
  const double plain_rate = Median(rounds.plain_rates);
  const double traced_rate = Median(rounds.traced_rates);
  const double ops = plain.ops;
  const double host_ns_per_op = 1e9 / plain_rate;
  const double events_per_op = PerOp(static_cast<double>(plain.sim_events), ops);

  const TraceCounts& t = traced.trace;
  const ProbeCounts probe = RunProbe(args.workload, args.seed);
  if (probe.sim_events != plain.sim_events) {
    std::fprintf(stderr,
                 "perfbench: the probe of %s dispatched %llu events, the measured chunk %llu; "
                 "RunProbe no longer builds what the entry points build\n",
                 WorkloadName(args.workload), static_cast<unsigned long long>(probe.sim_events),
                 static_cast<unsigned long long>(plain.sim_events));
    return 3;
  }
  const auto per_op = [ops](double count) { return PerOp(count, ops); };
  const auto ratio = [](double num, double den) { return den == 0 ? 0.0 : num / den; };

  using tcplat::TraceEventKind;
  using tcplat::TraceLayer;
  const double seg_tx = static_cast<double>(t.count(TraceLayer::kTcp, TraceEventKind::kSegTx));
  const double seg_rx = static_cast<double>(t.count(TraceLayer::kTcp, TraceEventKind::kSegRx));
  const double pkt_tx = static_cast<double>(t.count(TraceLayer::kIp, TraceEventKind::kPktTx));
  const double pkt_rx = static_cast<double>(t.count(TraceLayer::kIp, TraceEventKind::kPktRx));
  // A TCP checksum covers the 12-byte pseudo-header, the 20-byte header and
  // the payload; IP checksums its 20-byte header on each send and receive.
  const double cksum_bytes = static_cast<double>(t.seg_tx_payload + t.seg_rx_payload) +
                             32.0 * (seg_tx + seg_rx) + 20.0 * (pkt_tx + pkt_rx);

  ReplayShape shape;
  shape.pdu_bytes = static_cast<size_t>(ratio(static_cast<double>(t.pdu_bytes), t.pdus));
  shape.segment_bytes = static_cast<size_t>(ratio(cksum_bytes, seg_tx + seg_rx));
  shape.queue_depth = static_cast<size_t>(std::lround(probe.mean_queue_depth));
  const ReplayTimes rt = RunReplay(shape, args.seed);

  const double cells_per_op = per_op(static_cast<double>(t.adapter_cells));
  // Every adapter cell is serialized (CRC-10 computed) on send and parsed
  // (CRC-10 checked) on receive; the SAR replay includes both calls.
  const double sar_only_ns = std::max(0.0, rt.sar_ns_per_cell - 2.0 * rt.crc10_ns_per_cell);
  const double atm_share = 100.0 * cells_per_op * sar_only_ns / host_ns_per_op;
  const double net_share = 100.0 *
                           (2.0 * cells_per_op * rt.crc10_ns_per_cell +
                            per_op(cksum_bytes) / 1024.0 * rt.cksum_ns_per_kb) /
                           host_ns_per_op;

  // The echo workloads' efficiency is user payload over the payload
  // capacity of every adapter cell; their fairness is the mean of each
  // run's Jain index, summed in sorted order so the seeded run order cannot
  // change its last bits.
  const bool bulk = args.workload == Workload::kCongestionBulk;
  std::vector<double> run_fairness = t.run_fairness;
  std::sort(run_fairness.begin(), run_fairness.end());
  const double echo_fairness =
      ratio(std::accumulate(run_fairness.begin(), run_fairness.end(), 0.0),
            static_cast<double>(run_fairness.size()));
  const double echo_efficiency = ratio(static_cast<double>(t.cell_runs_bytes_read),
                                       44.0 * static_cast<double>(t.adapter_cells));

  const Fidelity fid = traced.fidelity ? *traced.fidelity : PaperFidelity(args.seed);
  std::vector<Metric> metrics = {
      {"sim.events_per_op", events_per_op, "count"},
      {"sim.host_ns_per_event", host_ns_per_op / events_per_op, "ns"},
      {"sim.schedule_pop_ns", rt.schedule_pop_ns, "ns"},
      {"sim.schedule_cancel_ns", rt.schedule_cancel_ns, "ns"},
      {"atm.adapter_cells_per_op", cells_per_op, "count"},
      {"atm.switched_cells_per_op", per_op(static_cast<double>(t.switched_cells)), "count"},
      {"atm.dropped_cells_per_op",
       per_op(static_cast<double>(t.switch_drops + t.host_cell_drops)), "count"},
      {"atm.sar_ns_per_cell", rt.sar_ns_per_cell, "ns"},
      {"atm.est_share_pct", atm_share, "%"},
      {"net.crc10_ns_per_cell", rt.crc10_ns_per_cell, "ns"},
      {"net.cksum_ns_per_kb", rt.cksum_ns_per_kb, "ns"},
      {"net.est_share_pct", net_share, "%"},
      {"buf.mbuf_allocs_per_op", per_op(static_cast<double>(probe.mbuf_allocs)), "count"},
      {"buf.bytes_copied_per_op", per_op(static_cast<double>(probe.bytes_copied)), "B"},
      {"buf.get_free_ns", rt.get_free_ns, "ns"},
      {"heap.allocs_per_event",
       PerOp(static_cast<double>(plain.heap_allocs), static_cast<double>(plain.sim_events)),
       "count"},
      {"tcp.segs_per_op", per_op(seg_tx), "count"},
      {"tcp.retransmits_per_op",
       per_op(static_cast<double>(t.count(TraceLayer::kTcp, TraceEventKind::kRetransmit))),
       "count"},
      {"tcp.rto_per_op", per_op(static_cast<double>(probe.rexmt_timeouts)), "count"},
      {"tcp.predict_hit_pct",
       100.0 * ratio(static_cast<double>(probe.predict_hits),
                     static_cast<double>(probe.predict_attempts)),
       "%"},
      {"ip.packets_per_op", per_op(pkt_tx), "count"},
      {"ip.ipintrq_wait_us",
       ratio(static_cast<double>(t.ipintrq_wait_ns) / 1e3,
             static_cast<double>(t.count(TraceLayer::kIp, TraceEventKind::kDequeue))),
       "us"},
      {"sock.wakeups_per_op",
       per_op(static_cast<double>(t.count(TraceLayer::kSock, TraceEventKind::kWakeup))), "count"},
      {"workload.build_ms", Median(rounds.setup_s) * 1e3, "ms"},
      {"workload.failed_ops_pct", 100.0 * ledger.failed() / ledger.attempted(), "%"},
      {"trace.events_per_op", per_op(static_cast<double>(t.total_events)), "count"},
      {"trace.overhead_pct", 100.0 * (plain_rate - traced_rate) / plain_rate, "%"},
  };
  for (size_t row = 0; row < LayerRows().size(); ++row) {
    const LayerRow& lr = LayerRows()[row];
    metrics.push_back({lr.metric, SummarizeErrors(fid.rows_us[row], *lr.paper).mean_pct, "%"});
  }
  metrics.push_back({"workload.rtt_p50_us", static_cast<double>(plain.rtt_p50_ns) / 1e3, "us"});
  metrics.push_back({"workload.rtt_p99_us", static_cast<double>(plain.rtt_p99_ns) / 1e3, "us"});
  metrics.push_back({"workload.goodput_mbps", plain.goodput_mbps, "Mb/s"});
  metrics.push_back({"workload.efficiency", bulk ? plain.efficiency : echo_efficiency, "ratio"});
  metrics.push_back({"workload.fairness", bulk ? plain.fairness : echo_fairness, "ratio"});

  char extra[256];
  std::snprintf(extra, sizeof(extra),
                ", \"traced_chunks\": %zu, \"replay_pdu_bytes\": %zu, \"replay_segment_bytes\": "
                "%zu, \"probe_mean_queue_depth\": %.2f, \"replay_queue_depth\": %zu",
                rounds.traced_rates.size(), shape.pdu_bytes, shape.segment_bytes,
                probe.mean_queue_depth, shape.queue_depth);
  PrintEnv(args, rounds, extra);
  PrintResult(ledger.failed() == 0, ledger.attempted(), ledger.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  return args.trace ? perfbench::RunPerLayer(args) : perfbench::RunEndToEnd(args);
}
