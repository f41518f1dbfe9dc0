// Tests for TCP keepalive: probes keep a live-but-idle connection open,
// a vanished peer is detected and dropped, and the feature stays inert
// when disabled.

#include <gtest/gtest.h>

#include <span>

#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/os/task.h"

namespace tcplat {
namespace {

struct IdlePair {
  Socket* client = nullptr;
  Socket* server = nullptr;
  bool established = false;
};

// Connects and then both sides simply hold the socket open, forever idle.
SimTask IdleServer(Testbed* tb, IdlePair* pair) {
  Socket* listener = tb->server_tcp().Listen(kEchoPort);
  while (pair->server == nullptr) {
    pair->server = listener->Accept();
    if (pair->server == nullptr) {
      co_await listener->WaitAcceptable();
    }
  }
}

SimTask IdleClient(Testbed* tb, IdlePair* pair) {
  Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
  pair->client = s;
  while (!s->connected() && !s->has_error()) {
    co_await s->WaitConnected();
  }
  pair->established = s->connected();
}

TestbedConfig KeepaliveConfig() {
  TestbedConfig cfg;
  cfg.tcp.keepalive = true;
  cfg.tcp.keepalive_idle = SimDuration::FromSeconds(2);
  cfg.tcp.keepalive_interval = SimDuration::FromSeconds(1);
  cfg.tcp.keepalive_probes = 3;
  return cfg;
}

TEST(Keepalive, IdleConnectionSurvivesWhenPeerAnswers) {
  Testbed tb(KeepaliveConfig());
  IdlePair pair;
  tb.server_host().Spawn("idle-server", IdleServer(&tb, &pair));
  tb.client_host().Spawn("idle-client", IdleClient(&tb, &pair));
  // Let a minute of idle time pass: many probe rounds.
  tb.sim().RunUntil(SimTime::FromSeconds(60));
  ASSERT_TRUE(pair.established);
  EXPECT_GT(tb.client_tcp().stats().keepalive_probes_sent +
                tb.server_tcp().stats().keepalive_probes_sent,
            10u);
  EXPECT_EQ(tb.client_tcp().stats().keepalive_drops, 0u);
  EXPECT_EQ(tb.server_tcp().stats().keepalive_drops, 0u);
  EXPECT_TRUE(pair.client->connected()) << "answered probes must not kill the connection";
  EXPECT_FALSE(pair.client->has_error());
}

TEST(Keepalive, VanishedPeerIsDetectedAndDropped) {
  Testbed tb(KeepaliveConfig());
  IdlePair pair;
  tb.server_host().Spawn("idle-server", IdleServer(&tb, &pair));
  tb.client_host().Spawn("idle-client", IdleClient(&tb, &pair));
  tb.sim().RunUntil(SimTime::FromMillis(100));  // handshake completes
  ASSERT_TRUE(pair.established);

  // The fiber goes dark in both directions: every cell is destroyed.
  tb.fiber(0).set_corrupt_hook([](std::span<uint8_t> c) { c[10] ^= 0xFF; });
  tb.fiber(1).set_corrupt_hook([](std::span<uint8_t> c) { c[10] ^= 0xFF; });

  tb.sim().RunUntil(SimTime::FromSeconds(60));
  EXPECT_GE(tb.client_tcp().stats().keepalive_probes_sent, 3u);
  EXPECT_GE(tb.client_tcp().stats().keepalive_drops, 1u);
  EXPECT_TRUE(pair.client->has_error()) << "the dead connection must be reported";
}

TEST(Keepalive, DisabledMeansForeverIdle) {
  TestbedConfig cfg;  // keepalive off by default
  Testbed tb(cfg);
  IdlePair pair;
  tb.server_host().Spawn("idle-server", IdleServer(&tb, &pair));
  tb.client_host().Spawn("idle-client", IdleClient(&tb, &pair));
  tb.sim().RunUntil(SimTime::FromSeconds(120));
  ASSERT_TRUE(pair.established);
  EXPECT_EQ(tb.client_tcp().stats().keepalive_probes_sent, 0u);
  EXPECT_TRUE(pair.client->connected());
  // Nothing is pending: a fully idle connection generates no events at all.
  EXPECT_EQ(tb.sim().pending_events(), 0u);
}

TEST(Keepalive, ProbesDoNotDisturbActiveTraffic) {
  Testbed tb(KeepaliveConfig());
  RpcOptions opt;
  opt.size = 500;
  opt.iterations = 100;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_EQ(r.data_mismatches, 0u);
  // Active exchanges reset the idle timer continuously: no probes fire
  // while the echo loop runs (the iterations are microseconds apart).
  EXPECT_EQ(tb.client_tcp().stats().keepalive_probes_sent, 0u);
}

}  // namespace
}  // namespace tcplat
