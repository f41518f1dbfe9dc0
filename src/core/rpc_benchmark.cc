#include "src/core/rpc_benchmark.h"

#include <cstring>
#include <vector>

#include "src/base/check.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

// Deterministic per-iteration payload so the client can verify the echo
// end-to-end (the application-level check of §4.2.1).
void FillPattern(std::vector<uint8_t>& buf, int iteration) {
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>((i * 131 + iteration * 17 + 7) & 0xFF);
  }
}

struct RunState {
  RpcResult result;
  bool server_done = false;
  bool client_done = false;
};

// Reads exactly buf.size() bytes (coroutine helper pattern: test, block,
// retry). Returns false if the connection died first.
SimTask ServerProc(Testbed* tb, const RpcOptions* opt, RunState* state) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  while (true) {
    Socket* conn = listener->Accept();
    if (conn != nullptr) {
      std::vector<uint8_t> buf(opt->size);
      const int total = opt->warmup + opt->iterations;
      for (int iter = 0; iter < total; ++iter) {
        size_t got = 0;
        while (got < buf.size()) {
          const size_t n = conn->Read({buf.data() + got, buf.size() - got});
          got += n;
          if (n == 0) {
            if (conn->eof() || conn->has_error()) {
              state->server_done = true;
              co_return;
            }
            co_await conn->WaitReadable();
          }
        }
        size_t sent = 0;
        while (sent < buf.size()) {
          const size_t n = conn->Write({buf.data() + sent, buf.size() - sent});
          sent += n;
          if (n == 0) {
            if (conn->has_error()) {
              state->server_done = true;
              co_return;
            }
            co_await conn->WaitWritable();
          }
        }
      }
      conn->Close();
      state->server_done = true;
      co_return;
    }
    co_await listener->WaitAcceptable();
  }
}

SimTask ClientProc(Testbed* tb, const RpcOptions* opt, RunState* state) {
  Host& host = tb->client_host();
  Socket* sock = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
  while (!sock->connected() && !sock->has_error()) {
    co_await sock->WaitConnected();
  }
  if (sock->has_error() && opt->tolerate_errors) {
    state->result.aborted = true;
    state->client_done = true;
    co_return;
  }
  TCPLAT_CHECK(!sock->has_error()) << "client failed to connect";

  std::vector<uint8_t> out(opt->size);
  std::vector<uint8_t> in(opt->size);
  const int total = opt->warmup + opt->iterations;
  for (int iter = 0; iter < total; ++iter) {
    if (iter == opt->warmup) {
      // Start of the measured region: clear the layer accumulators, the
      // way the paper re-initializes its kernel counters.
      tb->ResetTrackers();
    }
    FillPattern(out, iter);
    const SimTime t0 = host.CurrentTime();

    size_t sent = 0;
    while (sent < out.size()) {
      const size_t n = sock->Write({out.data() + sent, out.size() - sent});
      sent += n;
      if (n == 0) {
        if (sock->has_error() && opt->tolerate_errors) {
          state->result.aborted = true;
          state->client_done = true;
          co_return;
        }
        TCPLAT_CHECK(!sock->has_error()) << "connection error during send";
        co_await sock->WaitWritable();
      }
    }
    size_t got = 0;
    while (got < in.size()) {
      const size_t n = sock->Read({in.data() + got, in.size() - got});
      got += n;
      if (n == 0) {
        if ((sock->eof() || sock->has_error()) && opt->tolerate_errors) {
          state->result.aborted = true;
          state->client_done = true;
          co_return;
        }
        TCPLAT_CHECK(!sock->eof() && !sock->has_error()) << "connection died mid-echo";
        co_await sock->WaitReadable();
      }
    }

    const SimTime t1 = host.CurrentTime();
    if (iter >= opt->warmup) {
      state->result.rtt.Add(t1.QuantizeToClockTick() - t0.QuantizeToClockTick());
      if (opt->verify_data && std::memcmp(in.data(), out.data(), out.size()) != 0) {
        ++state->result.data_mismatches;
      }
    }
  }
  sock->Close();
  state->client_done = true;
  co_return;
}

}  // namespace

RpcResult RunRpcBenchmark(Testbed& testbed, const RpcOptions& options) {
  TCPLAT_CHECK_GT(options.size, 0u);
  TCPLAT_CHECK_GT(options.iterations, 0);

  RunState state;
  state.result.iterations = static_cast<uint64_t>(options.iterations);

  // Reset protocol statistics so each run reports its own numbers.
  testbed.client_tcp().stats() = TcpStats{};
  testbed.server_tcp().stats() = TcpStats{};
  testbed.ResetTrackers();

  testbed.server_host().Spawn("echo-server", ServerProc(&testbed, &options, &state));
  testbed.client_host().Spawn("echo-client", ClientProc(&testbed, &options, &state));

  testbed.RunToCompletion();
  if (options.tolerate_errors) {
    // A one-sided death can leave the peer parked on a wait channel with no
    // events pending (e.g. the client dropped after max_rexmt and the server
    // never learns); that is an aborted run, not a harness bug.
    state.result.aborted = state.result.aborted || !state.client_done || !state.server_done;
  } else {
    TCPLAT_CHECK(state.client_done) << "client did not finish";
    TCPLAT_CHECK(state.server_done) << "server did not finish";
  }

  for (size_t i = 0; i < state.result.spans.size(); ++i) {
    state.result.spans[i] = testbed.SpanTotal(static_cast<SpanId>(i));
  }
  state.result.client_tcp = testbed.client_tcp().stats();
  state.result.server_tcp = testbed.server_tcp().stats();
  return state.result;
}

}  // namespace tcplat
