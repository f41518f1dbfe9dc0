// Machine-readable export: sweeps the paper's size range across every stack
// configuration and emits tidy CSV (one row per measurement) for plotting
// pipelines — regenerate Figures 1 and 2 in your plotting tool of choice.
//
//   $ ./export_csv > sweep.csv
//
// With --trace [--size N] it instead runs one echo benchmark with the
// packet-lifecycle tracer attached and emits the raw event stream as flat
// CSV (one row per event: timestamps, layer, kind, span, flow/packet ids).
//
//   $ ./export_csv --trace --size 1400 > trace.csv
//
// With --trace --from-binary PATH it converts a sealed TLBT binary trace
// (bench/capacity --bin-out, src/trace/binary_trace.h) to the same CSV,
// decoding record by record — no intermediate JSON or in-memory event
// vector, so arbitrarily large captures convert in constant memory.
//
//   $ ./export_csv --trace --from-binary capture.tlbt > trace.csv
//
// With --timeline it runs one congested-bottleneck cell with the timeseries
// telemetry plane attached (src/trace/timeseries.h) and emits the long-
// format timeline CSV (ts_ns,host,metric,key,value,edge) — cwnd sawteeth,
// per-VC queue occupancy, per-flow goodput — byte-identical across
// TCPLAT_JOBS at a fixed seed.
//
//   $ ./export_csv --timeline --seed 1 > timeline.csv

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_flags.h"

#include "src/core/paper_data.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/table.h"
#include "src/core/testbed.h"
#include "src/trace/binary_trace.h"
#include "src/trace/timeseries.h"
#include "src/trace/tracer.h"
#include "src/workload/congestion.h"

namespace tcplat {
namespace {

const char* ModeName(ChecksumMode mode) {
  switch (mode) {
    case ChecksumMode::kStandard:
      return "standard";
    case ChecksumMode::kCombined:
      return "combined";
    case ChecksumMode::kNone:
      return "none";
  }
  return "?";
}

void Run() {
  TextTable csv({"network", "checksum", "prediction", "dma", "size_bytes", "rtt_us",
                 "rtt_p99_us", "tx_cksum_us", "rx_cksum_us", "tx_driver_us", "rx_driver_us",
                 "ipq_us", "wakeup_us"});

  const struct {
    NetworkKind net;
    ChecksumMode mode;
    bool prediction;
    bool dma;
  } configs[] = {
      {NetworkKind::kAtm, ChecksumMode::kStandard, true, false},
      {NetworkKind::kAtm, ChecksumMode::kStandard, false, false},
      {NetworkKind::kAtm, ChecksumMode::kCombined, true, false},
      {NetworkKind::kAtm, ChecksumMode::kNone, true, false},
      {NetworkKind::kAtm, ChecksumMode::kStandard, true, true},
      {NetworkKind::kAtm, ChecksumMode::kNone, true, true},
      {NetworkKind::kEthernet, ChecksumMode::kStandard, true, false},
      {NetworkKind::kEthernet, ChecksumMode::kNone, true, false},
  };

  for (const auto& c : configs) {
    for (size_t size : paper::kSizes) {
      TestbedConfig cfg;
      cfg.network = c.net;
      cfg.tcp.checksum = c.mode;
      cfg.tcp.header_prediction = c.prediction;
      Testbed tb(cfg);
      if (c.dma && c.net == NetworkKind::kAtm) {
        tb.atm_netif(0).set_dma(true);
        tb.atm_netif(1).set_dma(true);
      }
      RpcOptions opt;
      opt.size = size;
      opt.iterations = 120;
      const RpcResult r = RunRpcBenchmark(tb, opt);
      csv.AddRow({c.net == NetworkKind::kAtm ? "atm" : "ethernet", ModeName(c.mode),
                  c.prediction ? "on" : "off", c.dma ? "on" : "off", std::to_string(size),
                  TextTable::Us(r.MeanRtt().micros(), 1),
                  TextTable::Us(r.rtt.Percentile(99).micros(), 1),
                  TextTable::Us(r.SpanMean(SpanId::kTxTcpChecksum).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxTcpChecksum).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kTxDriver).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxDriver).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxIpq).micros(), 2),
                  TextTable::Us(r.SpanMean(SpanId::kRxWakeup).micros(), 2)});
    }
  }
  std::fputs(csv.ToCsv().c_str(), stdout);
}

int RunTraceFromBinary(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::perror(path.c_str());
    return 1;
  }
  std::string blob;
  char in[4096];
  size_t n;
  while ((n = std::fread(in, 1, sizeof(in), f)) > 0) {
    blob.append(in, n);
  }
  std::fclose(f);

  BinaryTraceReader reader(blob);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), reader.error_message());
    return 1;
  }
  std::fputs(std::string(TraceCsvHeader()).c_str(), stdout);
  std::string row;
  TraceEvent ev;
  uint64_t decoded = 0;
  while (reader.Next(&ev)) {
    row.clear();
    AppendTraceCsvRow(ev, reader.host_names(), &row);
    std::fputs(row.c_str(), stdout);
    ++decoded;
  }
  if (reader.error()) {
    std::fprintf(stderr, "%s: %s (after %" PRIu64 " of %" PRIu64 " records)\n", path.c_str(),
                 reader.error_message(), decoded, reader.record_count());
    return 1;
  }
  return 0;
}

void RunTimeline(const BenchFlags& flags) {
  CongestionCell cell;
  cell.variant = CongestionVariant::kReno;
  cell.policy = DropPolicy::kTailDrop;
  cell.flows = flags.flows > 0 ? flags.flows : 4;
  cell.bulk_bytes = flags.quick ? 24 * 1024 : 48 * 1024;
  cell.seed = flags.seed;
  Tracer tracer;
  TimeseriesConfig ts;
  if (flags.timeline_period_us > 0) {
    ts.period_ns = flags.timeline_period_us * 1000;
  }
  tracer.EnableTimeseries(ts);
  RunCongestionCell(cell, &tracer);
  std::fputs(tracer.TimelineCsv().c_str(), stdout);
}

void RunTrace(size_t size) {
  TestbedConfig cfg;
  Testbed tb(cfg);
  Tracer tracer;
  tb.AttachTracer(&tracer);
  RpcOptions opt;
  opt.size = size;
  opt.iterations = 50;
  opt.warmup = 16;
  RunRpcBenchmark(tb, opt);
  std::fputs(tracer.ToCsv().c_str(), stdout);
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  flags.size = 1400;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--trace [--size N] [--from-binary PATH]] "
                               "[--timeline [--seed N] [--flows N] "
                               "[--timeline-period-us N]]")) {
    return 2;
  }
  if (flags.trace && !flags.from_binary_path.empty()) {
    return tcplat::RunTraceFromBinary(flags.from_binary_path);
  }
  if (flags.timeline) {
    tcplat::RunTimeline(flags);
  } else if (flags.trace) {
    tcplat::RunTrace(flags.size);
  } else {
    tcplat::Run();
  }
  return 0;
}
