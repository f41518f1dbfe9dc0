// Runs many concurrent echo flows over a Testbed's socket layer.
//
// Each flow is the paper's measurement workload (src/core/rpc_benchmark):
// a client process writes `size` bytes, waits for `size` bytes back, and
// times each round trip. The driver generalizes it to F flows spread over
// the testbed's client/server pairs, with optional per-flow start offsets
// (open-loop arrivals) and think times (closed-loop load). A single flow on
// a one-client, one-server testbed reproduces RunRpcBenchmark on the same
// testbed byte-for-byte.
//
// Every flow gets a dedicated server port (listener), so a listener always
// knows its flow's message size — the echo protocol is read-exactly-then-
// write, as in the original benchmark.

#ifndef SRC_WORKLOAD_FLOW_DRIVER_H_
#define SRC_WORKLOAD_FLOW_DRIVER_H_

#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "src/core/testbed.h"
#include "src/trace/latency_stats.h"

namespace tcplat {

struct FlowSpec {
  int client = 0;  // client host index in [0, K)
  int server = 0;  // server host index in [0, M)
  size_t size = 4;
  int iterations = 200;  // measured round trips
  int warmup = 32;       // untimed round trips first
  // Listener port; 0 auto-assigns kEchoPort + flow index, so flow 0 lands
  // on the classic echo port.
  uint16_t port = 0;
  SimDuration start_delay;  // open-loop arrival offset before connecting
  SimDuration think_time;   // closed-loop pause after each round trip
  bool verify_data = true;
  bool tolerate_errors = false;

  // --- interactive request/response extensions (all default-off; leaving
  // them alone keeps the legacy echo path byte-identical) ---
  // Request written as these chunks, each a separate write syscall — the
  // small-write shape that arms the Nagle × delayed-ACK pathology. Empty =
  // one `size`-byte write.
  std::vector<size_t> request_chunks;
  // Server reply per request; 0 = echo the request size.
  size_t response_size = 0;
  // Requests the client keeps in flight before waiting for a response.
  int pipeline_depth = 1;
  // Streaming mode: the client appends `size` bytes every `stream_interval`
  // (jittertrap-style steady small appends) and the server only sinks them;
  // per-message latency is send-entry to sink-side delivery.
  bool streaming = false;
  SimDuration stream_interval;
  // Per-flow socket options: TCP_NODELAY on the client socket, delayed-ACK
  // enable/timer on the server's accepted connection. Unset = stack config.
  std::optional<bool> client_nodelay;
  std::optional<bool> server_delack;
  std::optional<SimDuration> server_delack_timeout;

  // --- congestion-era extensions (all default-off) ---
  // Congestion-control variant for this flow's connection: set on the client
  // socket before the active open and on the server's listener (accepted
  // connections inherit it). Unset = the stack config's variant.
  std::optional<CongestionVariant> congestion;
  // Bulk-transfer mode: the client pushes `bulk_bytes` one way as fast as
  // the windows allow; the server sinks them and answers with a 1-byte
  // completion token. Goodput is bulk_bytes over first-write to token
  // arrival. `size`/`iterations`/`warmup` are ignored.
  uint64_t bulk_bytes = 0;
  // Keystroke mode: the client sends `keystrokes` 1-byte writes, one every
  // `keystroke_interval` (open loop — the next keystroke is not gated on the
  // previous echo), against an echo server; each echo's latency lands in
  // `rtt`. The telnet shape: pure Nagle/delayed-ACK territory.
  int keystrokes = 0;
  SimDuration keystroke_interval = SimDuration::FromMillis(200);

  size_t request_bytes() const {
    return request_chunks.empty()
               ? size
               : std::accumulate(request_chunks.begin(), request_chunks.end(), size_t{0});
  }
  size_t response_bytes() const { return response_size != 0 ? response_size : request_bytes(); }
  bool interactive() const {
    return !request_chunks.empty() || response_size != 0 || pipeline_depth > 1 ||
           client_nodelay.has_value() || server_delack.has_value() ||
           server_delack_timeout.has_value();
  }
};

struct BulkStats {
  uint64_t bytes = 0;        // payload delivered (the spec's bulk_bytes)
  int64_t start_ns = -1;     // client's first write entry
  int64_t done_ns = -1;      // completion token arrival at the client
  double goodput_bps() const {
    return done_ns > start_ns ? static_cast<double>(bytes) * 8e9 /
                                    static_cast<double>(done_ns - start_ns)
                              : 0.0;
  }
};

struct FlowResult {
  LatencyStats rtt;
  uint64_t iterations = 0;
  bool completed = false;  // every iteration finished and the flow closed
  bool aborted = false;    // connection died first (tolerate_errors runs)
  uint64_t data_mismatches = 0;
  BulkStats bulk;  // populated only in bulk-transfer mode
};

struct WorkloadOptions {
  // Flow 0 clears the span trackers when it crosses its warmup boundary
  // (the single-flow measured-region convention). Disable for mixes where
  // no single flow owns the measured region.
  bool reset_trackers_at_warmup = true;
};

struct WorkloadResult {
  std::vector<FlowResult> flows;
  LatencyStats rtt;  // all flows' measured round trips merged
  std::vector<LatencyStats> per_client;  // merged by client host index
  uint64_t completed = 0;
  uint64_t aborted = 0;
  uint64_t data_mismatches = 0;
  // Peak number of flows simultaneously inside an echo round trip; a
  // closed-loop run can never exceed its flow count (concurrency invariant).
  size_t max_concurrent = 0;
};

// Runs every flow to completion on the testbed's simulator. The testbed can
// be reused for further runs.
WorkloadResult RunWorkload(Testbed& testbed, const std::vector<FlowSpec>& specs,
                           const WorkloadOptions& options = {});

}  // namespace tcplat

#endif  // SRC_WORKLOAD_FLOW_DRIVER_H_
