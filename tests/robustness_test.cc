// Adversarial robustness: the stack must survive arbitrary garbage — random
// packets injected below IP, random bit damage to real traffic with all
// checks disabled, malformed headers — without crashing, deadlocking, or
// leaking mbufs. (With checksums off, *data* corruption is expected; crashes
// are not.) Every wire and trace parser also survives hostile bytes: seeded
// mutations of a valid encoding, run under ASan+UBSan in CI.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/atm/aal34.h"
#include "src/base/random.h"
#include "src/core/rpc_benchmark.h"
#include "src/core/testbed.h"
#include "src/icmp/icmp.h"
#include "src/net/wire.h"
#include "src/trace/binary_trace.h"
#include "src/trace/tracer.h"
#include "src/udp/udp.h"

namespace tcplat {
namespace {

// Injects one raw "packet" of arbitrary bytes at the driver/IP boundary.
void InjectRaw(Testbed& tb, std::span<const uint8_t> bytes) {
  Host& h = tb.server_host();
  CpuRun run(h.cpu(), tb.sim().Now());
  MbufPtr head = h.pool().GetHeader();
  const size_t first = std::min(bytes.size(), head->trailing_space());
  std::memcpy(head->Append(first).data(), bytes.data(), first);
  size_t off = first;
  while (off < bytes.size()) {
    MbufPtr m = h.pool().GetCluster();
    const size_t take = std::min(bytes.size() - off, m->capacity());
    std::memcpy(m->Append(take).data(), bytes.data() + off, take);
    off += take;
    ChainAppend(&head, std::move(m));
  }
  tb.server_ip().InputFromDriver(std::move(head));
}

TEST(Robustness, RandomGarbagePacketsDoNotCrashOrLeak) {
  Testbed tb{TestbedConfig{}};
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    std::vector<uint8_t> junk(20 + rng.NextBelow(200));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.Next());
    }
    InjectRaw(tb, junk);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0) << "garbage leaked mbufs";
}

TEST(Robustness, ValidIpHeaderGarbageTcpPayload) {
  Testbed tb{TestbedConfig{}};
  // A listener so segments reach TCP demux and the listen path.
  tb.server_tcp().Listen(kEchoPort);
  Rng rng(77);
  for (int i = 0; i < 2000; ++i) {
    const size_t tcp_len = 20 + rng.NextBelow(80);
    std::vector<uint8_t> pkt(kIpv4HeaderBytes + tcp_len);
    for (auto& b : pkt) {
      b = static_cast<uint8_t>(rng.Next());
    }
    Ipv4Header iph;
    iph.total_length = static_cast<uint16_t>(pkt.size());
    iph.protocol = kIpProtoTcp;
    iph.src = kClientAddr;
    iph.dst = kServerAddr;
    iph.FillChecksum();
    iph.Serialize(pkt);
    // Sometimes make the destination port the live listener's.
    if (rng.NextBool(0.5)) {
      pkt[22] = static_cast<uint8_t>(kEchoPort >> 8);
      pkt[23] = static_cast<uint8_t>(kEchoPort & 0xFF);
    }
    InjectRaw(tb, pkt);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0);
}

TEST(Robustness, TruncatedTcpHeadersDropped) {
  Testbed tb{TestbedConfig{}};
  for (size_t tcp_len : {0u, 1u, 10u, 19u}) {
    std::vector<uint8_t> pkt(kIpv4HeaderBytes + tcp_len, 0xAA);
    Ipv4Header iph;
    iph.total_length = static_cast<uint16_t>(pkt.size());
    iph.protocol = kIpProtoTcp;
    iph.src = kClientAddr;
    iph.dst = kServerAddr;
    iph.FillChecksum();
    iph.Serialize(pkt);
    InjectRaw(tb, pkt);
    tb.sim().RunToCompletion();
  }
  EXPECT_EQ(tb.server_host().pool().stats().in_use, 0);
}

TEST(Robustness, NoChecksumModeSurvivesCorruptionWithoutCrashing) {
  // With the TCP checksum negotiated off and CRC-invisible link damage,
  // corrupted bytes reach the application (that is §4.2.1's point) — but
  // nothing may crash, deadlock, or leak, and the header-level sanity
  // checks still bound the damage.
  TestbedConfig cfg;
  cfg.tcp.checksum = ChecksumMode::kNone;
  Testbed tb(cfg);
  auto rng = std::make_shared<Rng>(11);
  tb.fiber(0).set_corrupt_hook([rng](std::span<uint8_t> cell) {
    if (rng->NextBool(0.01)) {
      // Damage payload bytes only, in a CRC-defeating generator pattern.
      constexpr uint32_t kGen = 0x633;
      const size_t first = kSarHeaderBytes * 8;
      const size_t last = (kSarHeaderBytes + kSarPayloadBytes) * 8 - 11;
      const size_t off = first + rng->NextBelow(last - first);
      for (int i = 0; i < 11; ++i) {
        if ((kGen >> (10 - i)) & 1) {
          const size_t bit = off + static_cast<size_t>(i);
          cell[kAtmCellHeaderBytes + bit / 8] ^=
              static_cast<uint8_t>(0x80u >> (bit % 8));
        }
      }
    }
  });
  RpcOptions opt;
  opt.size = 1400;
  opt.iterations = 300;
  opt.warmup = 4;
  const RpcResult r = RunRpcBenchmark(tb, opt);
  EXPECT_GT(r.data_mismatches, 0u) << "corruption should reach the app in this mode";
  EXPECT_EQ(r.rtt.count(), 300u) << "...but the stream itself must survive";
}

TEST(Robustness, ChaosMixedSizesUnderLossWithChecksums) {
  // Property: with checksums ON, no corruption ever reaches the app, no
  // matter the mix of message sizes or the (CRC-visible) loss pattern —
  // TCP masks everything with retransmission.
  TestbedConfig cfg;
  Testbed tb(cfg);
  auto rng = std::make_shared<Rng>(2026);
  tb.fiber(0).set_corrupt_hook([rng](std::span<uint8_t> cell) {
    if (rng->NextBool(0.001)) {
      cell[17] ^= 0x04;
    }
  });
  tb.fiber(1).set_corrupt_hook([rng](std::span<uint8_t> cell) {
    if (rng->NextBool(0.001)) {
      cell[33] ^= 0x40;
    }
  });

  struct Chaos {
    static SimTask Server(Testbed* t, int rounds, bool* ok) {
      Socket* listener = t->server_tcp().Listen(kEchoPort);
      Socket* s = nullptr;
      while (s == nullptr) {
        s = listener->Accept();
        if (s == nullptr) {
          co_await listener->WaitAcceptable();
        }
      }
      Rng sizes(99);
      std::vector<uint8_t> buf(16384);
      for (int i = 0; i < rounds; ++i) {
        const size_t size = 1 + sizes.NextBelow(8192);
        size_t got = 0;
        while (got < size) {
          const size_t n = s->Read({buf.data() + got, size - got});
          got += n;
          if (n == 0) {
            if (s->eof() || s->has_error()) {
              co_return;
            }
            co_await s->WaitReadable();
          }
        }
        size_t sent = 0;
        while (sent < size) {
          const size_t w = s->Write({buf.data() + sent, size - sent});
          sent += w;
          if (w == 0) {
            co_await s->WaitWritable();
          }
        }
      }
      *ok = true;
    }
    static SimTask Client(Testbed* t, int rounds, uint64_t* mismatches, bool* ok) {
      Socket* s = t->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      while (!s->connected() && !s->has_error()) {
        co_await s->WaitConnected();
      }
      Rng sizes(99);   // same sequence as the server
      Rng fill(1001);
      std::vector<uint8_t> out(16384);
      std::vector<uint8_t> in(16384);
      for (int i = 0; i < rounds; ++i) {
        const size_t size = 1 + sizes.NextBelow(8192);
        for (size_t b = 0; b < size; ++b) {
          out[b] = static_cast<uint8_t>(fill.Next());
        }
        size_t sent = 0;
        while (sent < size) {
          const size_t w = s->Write({out.data() + sent, size - sent});
          sent += w;
          if (w == 0) {
            co_await s->WaitWritable();
          }
        }
        size_t got = 0;
        while (got < size) {
          const size_t n = s->Read({in.data() + got, size - got});
          got += n;
          if (n == 0) {
            if (s->eof() || s->has_error()) {
              co_return;
            }
            co_await s->WaitReadable();
          }
        }
        if (std::memcmp(in.data(), out.data(), size) != 0) {
          ++*mismatches;
        }
      }
      s->Close();
      *ok = true;
    }
  };

  constexpr int kRounds = 150;
  bool server_ok = false;
  bool client_ok = false;
  uint64_t mismatches = 0;
  tb.server_host().Spawn("chaos-s", Chaos::Server(&tb, kRounds, &server_ok));
  tb.client_host().Spawn("chaos-c", Chaos::Client(&tb, kRounds, &mismatches, &client_ok));
  tb.sim().RunToCompletion();
  EXPECT_TRUE(server_ok);
  EXPECT_TRUE(client_ok);
  EXPECT_EQ(mismatches, 0u);
  // The noise actually did something.
  EXPECT_GT(tb.atm_netif(0).sar_stats().crc_errors +
                tb.atm_netif(1).sar_stats().crc_errors,
            0u);
}

TEST(Robustness, ManySimultaneousConnections) {
  Testbed tb{TestbedConfig{}};
  constexpr int kConns = 40;
  struct State {
    int completed = 0;
  } state;
  struct Procs {
    static SimTask Server(Testbed* tb, int conns, State* st) {
      Socket* listener = tb->server_tcp().Listen(kEchoPort);
      std::vector<Socket*> accepted;
      while (static_cast<int>(accepted.size()) < conns) {
        Socket* s = listener->Accept();
        if (s == nullptr) {
          co_await listener->WaitAcceptable();
          continue;
        }
        accepted.push_back(s);
        std::vector<uint8_t> buf(64);
        size_t n = 0;
        while ((n = s->Read(buf)) == 0) {
          co_await s->WaitReadable();
        }
        size_t sent = 0;
        while (sent < n) {
          sent += s->Write({buf.data() + sent, n - sent});
        }
        ++st->completed;
      }
    }
    static SimTask Client(Testbed* tb, int index) {
      Socket* s = tb->client_tcp().Connect(SockAddr{kServerAddr, kEchoPort});
      while (!s->connected() && !s->has_error()) {
        co_await s->WaitConnected();
      }
      std::vector<uint8_t> msg(32, static_cast<uint8_t>(index));
      s->Write(msg);
      std::vector<uint8_t> buf(64);
      size_t n = 0;
      while ((n = s->Read(buf)) == 0 && !s->eof() && !s->has_error()) {
        co_await s->WaitReadable();
      }
      EXPECT_EQ(n, 32u);
      s->Close();
    }
  };
  tb.server_host().Spawn("multi-server", Procs::Server(&tb, kConns, &state));
  for (int i = 0; i < kConns; ++i) {
    tb.client_host().Spawn("c" + std::to_string(i), Procs::Client(&tb, i));
  }
  tb.sim().RunToCompletion();
  EXPECT_EQ(state.completed, kConns);
  // Sequential serving means later connections' SYNs may retransmit, but
  // everyone gets through and the PCB table saw 40 distinct connections.
  EXPECT_EQ(tb.server_tcp().stats().conns_established, static_cast<uint64_t>(kConns));
}

// --- Hostile bytes ---------------------------------------------------------
//
// Each parser is fed kMutations seeded mutations of one valid encoding. A
// mutation stacks one to three edits: bit flips, a truncation, an
// extension with random bytes, or a length/count field lie (the field's
// byte overwritten with a boundary or random value, or replaced by a
// ten-byte varint near 2^64). The parser must reject the bytes or return a
// self-consistent parse; out-of-bounds reads and undefined behavior are
// caught by the sanitizer build.

constexpr int kMutations = 20000;

using Bytes = std::vector<uint8_t>;

// `length_fields` are the byte offsets of the encoding's length and count
// fields, the ones a length lie overwrites.
Bytes Mutate(const Bytes& valid, const std::vector<size_t>& length_fields, Rng& rng) {
  static constexpr uint8_t kLies[] = {0x00, 0x01, 0x02, 0x7F, 0x80, 0xFE, 0xFF};
  Bytes out = valid;
  const int edits = 1 + static_cast<int>(rng.NextBelow(3));
  for (int e = 0; e < edits; ++e) {
    switch (rng.NextBelow(4)) {
      case 0:  // bit flips
        for (int f = 1 + static_cast<int>(rng.NextBelow(4)); f > 0 && !out.empty(); --f) {
          out[rng.NextBelow(out.size())] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
        }
        break;
      case 1:  // truncation
        out.resize(rng.NextBelow(out.size() + 1));
        break;
      case 2:  // extension
        for (int x = 1 + static_cast<int>(rng.NextBelow(64)); x > 0; --x) {
          out.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      default: {  // length-field lie
        const size_t at = length_fields[rng.NextBelow(length_fields.size())];
        if (at >= out.size()) {
          break;
        }
        if (rng.NextBool(0.5)) {
          out[at] = rng.NextBool(0.5) ? kLies[rng.NextBelow(sizeof(kLies))]
                                      : static_cast<uint8_t>(rng.Next());
        } else {
          // Within 128 of 2^64: a huge count, or a huge signed delta once
          // zigzag-decoded.
          Bytes longest(10, 0xFF);
          longest[0] = static_cast<uint8_t>(0x80 | rng.Next());
          longest[9] = 0x01;
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(at));
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), longest.begin(),
                     longest.end());
        }
        break;
      }
    }
  }
  return out;
}

// Runs `parse` on kMutations mutations of `valid`, seeded by `seed`.
template <typename Parse>
void FeedMutations(const Bytes& valid, const std::vector<size_t>& length_fields, uint64_t seed,
                   Parse parse) {
  Rng rng(seed);
  parse(valid);
  for (int i = 0; i < kMutations; ++i) {
    parse(Mutate(valid, length_fields, rng));
  }
}

TEST(HostileBytes, Ipv4Header) {
  Ipv4Header h;
  h.total_length = 1420;
  h.id = 7;
  h.dont_fragment = true;
  h.src = kClientAddr;
  h.dst = kServerAddr;
  h.FillChecksum();
  Bytes valid(kIpv4HeaderBytes + 8, 0xA5);
  h.Serialize(valid);
  FeedMutations(valid, {0, 2, 3, 6}, 101, [](const Bytes& in) {
    const auto parsed = Ipv4Header::Parse(in);
    if (parsed.has_value()) {
      EXPECT_GE(in.size(), kIpv4HeaderBytes);
      EXPECT_LE(parsed->frag_offset, 0x1FFF);
    }
  });
}

TEST(HostileBytes, TcpHeaderWithOptionsAndSackBlocks) {
  TcpHeader h;
  h.src_port = 1024;
  h.dst_port = kEchoPort;
  h.seq = 0x01020304;
  h.ack = 0x0A0B0C0D;
  h.flags.ack = true;
  h.window = 4096;
  // Every option kind the stack parses, SYN-only ones included: 56 bytes.
  h.options.mss = 1460;
  h.options.alt_checksum = kTcpAltChecksumNone;
  h.options.sack_permitted = true;
  h.options.sack = {{100, 200}, {300, 400}, {500, 600}};
  Bytes valid(h.HeaderLength() + 16, 0x5A);
  h.Serialize(valid);
  // Data offset, then each option's length byte (NOP padding shifts them,
  // so lie at every option-space offset).
  std::vector<size_t> lengths = {12};
  for (size_t at = kTcpMinHeaderBytes; at < h.HeaderLength(); ++at) {
    lengths.push_back(at);
  }
  FeedMutations(valid, lengths, 202, [](const Bytes& in) {
    const auto parsed = TcpHeader::Parse(in);
    if (parsed.has_value()) {
      EXPECT_GE(in.size(), kTcpMinHeaderBytes);
      // 40 bytes of option space hold at most four 8-byte SACK blocks.
      EXPECT_LE(parsed->options.sack.size(), 4u);
    }
  });
}

TEST(HostileBytes, UdpHeader) {
  UdpHeader h;
  h.src_port = 7;
  h.dst_port = 9;
  h.length = kUdpHeaderBytes + 12;
  Bytes valid(h.length, 0x11);
  h.Serialize(valid);
  FeedMutations(valid, {4, 5}, 404, [](const Bytes& in) {
    const auto parsed = UdpHeader::Parse(in);
    EXPECT_EQ(parsed.has_value(), in.size() >= kUdpHeaderBytes);
  });
}

TEST(HostileBytes, IcmpMessage) {
  IcmpMessage msg;
  msg.id = 3;
  msg.seq = 4;
  msg.payload = Bytes(28, 0x42);
  const Bytes valid = msg.Serialize();
  FeedMutations(valid, {0, 1, 2, 3}, 505, [](const Bytes& in) {
    bool checksum_ok = false;
    const auto parsed = IcmpMessage::Parse(in, &checksum_ok);
    ASSERT_EQ(parsed.has_value(), in.size() >= kIcmpHeaderBytes);
    if (parsed.has_value()) {
      EXPECT_EQ(parsed->payload.size(), in.size() - kIcmpHeaderBytes);
    }
  });
}

TEST(HostileBytes, EtherHeader) {
  EtherHeader h;
  h.dst = {1, 2, 3, 4, 5, 6};
  h.src = {6, 5, 4, 3, 2, 1};
  Bytes valid(kEtherHeaderBytes + 46, 0);
  h.Serialize(valid);
  FeedMutations(valid, {12, 13}, 606, [](const Bytes& in) {
    const auto parsed = EtherHeader::Parse(in);
    EXPECT_EQ(parsed.has_value(), in.size() >= kEtherHeaderBytes);
  });
}

bool SameCell(const AtmCell& a, const AtmCell& b) {
  return a.st == b.st && a.sn == b.sn && a.mid == b.mid && a.li == b.li &&
         a.payload == b.payload;
}

// Mutated cells go through ParseCell and one PDU's worth at a time into
// the SAR reassembler. A PDU in which every altered cell was caught by its
// CRC-10 must either be dropped or reassemble to the exact datagram.
TEST(HostileBytes, AtmCellsThroughReassembly) {
  Bytes datagram(200);
  for (size_t i = 0; i < datagram.size(); ++i) {
    datagram[i] = static_cast<uint8_t>(i * 13);
  }
  uint8_t sn = 0;
  const std::vector<AtmCell> cells = SegmentCpcsPdu(BuildCpcsPdu(datagram, 9), 42, 0, &sn);
  // The SAR header (segment type, sequence number) and the trailer's
  // length indicator are the cell's length/boundary fields.
  const std::vector<size_t> fields = {kAtmCellHeaderBytes, kAtmCellHeaderBytes + 1,
                                      kAtmCellBytes - 2};
  SarReassembler sar;
  Rng rng(707);
  uint64_t intact = 0;
  for (int i = 0; i < kMutations; ++i) {
    bool undetected = false;  // an altered cell passed its CRC this PDU
    for (const AtmCell& cell : cells) {
      const CellImage image = EncodeCell(cell);
      const Bytes valid(image.begin(), image.end());
      const Bytes wire = rng.NextBool(0.2) ? Mutate(valid, fields, rng) : valid;
      bool crc_ok = false;
      const auto parsed = ParseCell(wire, &crc_ok);
      ASSERT_EQ(parsed.has_value(), wire.size() == kAtmCellBytes);
      if (!parsed.has_value()) {
        continue;
      }
      undetected = undetected || (crc_ok && !SameCell(*parsed, cell));
      const auto out = sar.Feed(*parsed, crc_ok);
      if (out.has_value() && !undetected) {
        EXPECT_EQ(*out, datagram) << "PDU " << i;
        ++intact;
      }
    }
  }
  EXPECT_GT(intact, 0u);
  EXPECT_GT(sar.stats().crc_errors, 0u);
}

// A BOM followed by in-sequence COMs, every cell intact, can announce an
// endless PDU. The reassembler must abort it at the first cell that takes it
// past the largest CPCS-PDU (65535-byte payload, pad, 8-byte envelope),
// discard the rest through the EOM, and then reassemble a maximum-size
// datagram that follows.
TEST(HostileBytes, OversizedAal34PduIsAbortedAtTheCpcsMaximum) {
  constexpr size_t kMaxPdu = kCpcsHeaderBytes + 65535 + 3 + kCpcsTrailerBytes;
  SarReassembler sar;
  uint8_t sn = 0;
  AtmCell cell;
  cell.vci = 42;
  cell.li = kSarPayloadBytes;
  cell.payload.fill(0x5A);
  const auto feed = [&](SegmentType st) {
    cell.st = st;
    cell.sn = sn;
    sn = static_cast<uint8_t>((sn + 1) & 0xF);
    return sar.Feed(cell, /*crc_ok=*/true);
  };
  EXPECT_FALSE(feed(SegmentType::kBom).has_value());
  for (size_t com = 1; com <= 2000; ++com) {
    EXPECT_FALSE(feed(SegmentType::kCom).has_value());
    const bool past_max = (com + 1) * kSarPayloadBytes > kMaxPdu;
    ASSERT_EQ(sar.stats().protocol_errors, past_max ? 1u : 0u) << "COM " << com;
  }
  EXPECT_FALSE(feed(SegmentType::kEom).has_value());
  EXPECT_EQ(sar.stats().protocol_errors, 1u);
  EXPECT_EQ(sar.stats().pdus_dropped, 1u);
  EXPECT_EQ(sar.stats().cpcs_errors, 0u);  // the EOM was discarded unparsed
  EXPECT_EQ(sar.stats().pdus_ok, 0u);

  Bytes datagram(65535);
  for (size_t i = 0; i < datagram.size(); ++i) {
    datagram[i] = static_cast<uint8_t>(i * 31);
  }
  std::optional<Bytes> out;
  for (const AtmCell& next : SegmentCpcsPdu(BuildCpcsPdu(datagram, 7), 42, 0, &sn)) {
    out = sar.Feed(next, /*crc_ok=*/true);
  }
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, datagram);
  EXPECT_EQ(sar.stats().pdus_ok, 1u);
  EXPECT_EQ(sar.stats().protocol_errors, 1u);
}

TEST(HostileBytes, CpcsPdu) {
  const Bytes valid = BuildCpcsPdu(Bytes(61, 0x3C), 17);
  // Header BAsize (2-3) and btag (1); trailer etag and length (last 3).
  const std::vector<size_t> fields = {1, 2, 3, valid.size() - 3, valid.size() - 2,
                                      valid.size() - 1};
  FeedMutations(valid, fields, 808, [](const Bytes& in) {
    std::string error;
    const auto parsed = ParseCpcsPdu(in, &error);
    if (parsed.has_value()) {
      EXPECT_LE(parsed->size() + kCpcsHeaderBytes + kCpcsTrailerBytes, in.size());
    } else {
      EXPECT_FALSE(error.empty());
    }
  });
}

TEST(HostileBytes, BinaryTrace) {
  // A real capture: a short traced echo, sealed as a TLBT stream.
  Tracer tracer;
  {
    Testbed tb{TestbedConfig{}};
    tb.AttachTracer(&tracer);
    RpcOptions opt;
    opt.iterations = 2;
    opt.warmup = 0;
    RunRpcBenchmark(tb, opt);
  }
  const std::string sealed = SealBinaryTrace(tracer.host_names(), tracer.binary_records());
  const Bytes valid(sealed.begin(), sealed.end());
  // Past the magic and version, nearly every byte is a varint: the host
  // count, name lengths, the record count, and each record's timestamp
  // delta and payload fields.
  std::vector<size_t> fields;
  for (size_t at = 6; at < valid.size(); ++at) {
    fields.push_back(at);
  }
  FeedMutations(valid, fields, 909, [](const Bytes& in) {
    Tracer out;
    const std::string_view blob(reinterpret_cast<const char*>(in.data()), in.size());
    const bool ok = DecodeBinaryTrace(blob, &out);
    // A record takes at least ten bytes (a one-byte delta, four tag bytes
    // and five one-byte varints), so no stream decodes into more records
    // than that allows.
    EXPECT_LE(out.event_count() * 10, in.size());
    if (ok) {
      BinaryTraceReader reader(blob);
      EXPECT_EQ(out.event_count(), reader.record_count());
    }
  });
}

}  // namespace
}  // namespace tcplat
