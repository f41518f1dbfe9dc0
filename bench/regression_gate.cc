// Regression gate: diffs a fresh BENCH_trace.json (and optionally a fresh
// BENCH_congestion.json) against the committed baselines in
// bench/baselines/, and exits non-zero on a regression so CI can fail the
// build. The simulator's own cost is not gated here: perfbench measures
// it end to end, and tests/hot_path_alloc_test pins its exact per-round-trip
// event and allocation counts.
//
// Tolerance policy, per metric class:
//  * The trace metrics file (written by observability_selfcheck: reference
//    trace bytes/event-count/FNV-1a hash, binary-pipeline and sampling
//    results) must match the committed baseline exactly — every value is
//    pure simulated data, so any drift is a real behavior change — except
//    the capacity-class metrics binary_trace_bytes_per_event and
//    timeseries_points_per_flow, which gate on a 1.10x growth ceiling
//    (encoding or sampler-frugality regressions trip, small drifts from
//    new events do not, and shrinking is always fine).
//  * The congestion grid's goodput/efficiency/fairness gate on a 0.90x
//    floor of baseline; its counters and acceptance booleans stay exact.
//
// Modes: default gates; --write-baseline refreshes the committed files;
// --selftest runs the gate logic on synthetic data (pass + perturbed-fail)
// with no file dependencies, for ctest.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_flags.h"
#include "src/trace/tracer.h"

namespace tcplat {
namespace {

constexpr double kMaxTraceGrowthRatio = 1.10;
constexpr double kMinCongestionRatio = 0.90;

int g_failures = 0;
int g_warnings = 0;

void Result(const char* status, const std::string& key, const std::string& detail) {
  std::printf("  [%s] %-40s %s\n", status, key.c_str(), detail.c_str());
  if (std::strcmp(status, "FAIL") == 0) {
    ++g_failures;
  } else if (std::strcmp(status, "warn") == 0) {
    ++g_warnings;
  }
}

bool ReadFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::perror(path.c_str());
    return false;
  }
  char buf[4096];
  size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out->append(buf, n);
  }
  std::fclose(f);
  return true;
}

// Minimal parser for the flat one-level JSON objects the bench binaries
// write: "key": value pairs, values being numbers, booleans, or strings.
// Returns key -> raw value token (quotes stripped for strings).
std::map<std::string, std::string> ParseFlatJson(const std::string& text) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  while (i < text.size()) {
    const size_t key_open = text.find('"', i);
    if (key_open == std::string::npos) {
      break;
    }
    const size_t key_close = text.find('"', key_open + 1);
    if (key_close == std::string::npos) {
      break;
    }
    const std::string key = text.substr(key_open + 1, key_close - key_open - 1);
    size_t colon = key_close + 1;
    while (colon < text.size() && (text[colon] == ' ' || text[colon] == '\t')) {
      ++colon;
    }
    if (colon >= text.size() || text[colon] != ':') {
      i = key_close + 1;  // a bare string (not a key); skip it
      continue;
    }
    size_t v = colon + 1;
    while (v < text.size() && (text[v] == ' ' || text[v] == '\t')) {
      ++v;
    }
    std::string value;
    if (v < text.size() && text[v] == '"') {
      const size_t end = text.find('"', v + 1);
      if (end == std::string::npos) {
        break;
      }
      value = text.substr(v + 1, end - v - 1);
      i = end + 1;
    } else {
      size_t end = v;
      while (end < text.size() && text[end] != ',' && text[end] != '}' && text[end] != '\n') {
        ++end;
      }
      value = text.substr(v, end - v);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\r')) {
        value.pop_back();
      }
      i = end;
    }
    out[key] = value;
  }
  return out;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// Trace metrics gating on a growth ceiling rather than exact equality:
// binary stream density and the timeline's point budget may creep as event
// kinds are added, but a >10% jump is an encoding or sampler-thinning
// regression.
bool IsCeilinged(const std::string& key) {
  return key == "binary_trace_bytes_per_event" || key == "timeseries_points_per_flow";
}

void GateTrace(const std::map<std::string, std::string>& fresh,
               const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh trace metrics");
      continue;
    }
    if (IsCeilinged(key)) {
      const double fresh_value = std::strtod(it->second.c_str(), nullptr);
      const double ceiling = std::strtod(base_value.c_str(), nullptr) * kMaxTraceGrowthRatio;
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (ceiling %.3f)",
                    it->second.c_str(), base_value.c_str(), ceiling);
      Result(fresh_value <= ceiling ? "ok" : "FAIL", key, detail);
      continue;
    }
    Result(it->second == base_value ? "ok" : "FAIL", key,
           it->second + " vs baseline " + base_value);
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      Result("warn", key, "new metric (no baseline yet): " + value);
    }
  }
}

// Congestion goodput-grid metrics (bench/congestion): everything is
// simulated and deterministic, but the goodput/efficiency/fairness numbers
// may legitimately drift as the protocol stack evolves — the gate's job is
// to stop them *collapsing*, so they gate on a 0.90x floor of baseline
// (improvement always passes). Counters and the acceptance booleans
// (sack_epd_beats_reno_tail, gap_shrinks_with_buffer, all_flows_completed)
// stay exact.
bool IsCongestionFloored(const std::string& key) {
  return EndsWith(key, "_goodput_mbps") || EndsWith(key, "_efficiency") ||
         EndsWith(key, "_fairness");
}

void GateCongestion(const std::map<std::string, std::string>& fresh,
                    const std::map<std::string, std::string>& baseline) {
  for (const auto& [key, base_value] : baseline) {
    auto it = fresh.find(key);
    if (it == fresh.end()) {
      Result("FAIL", key, "missing from fresh congestion results");
      continue;
    }
    if (IsCongestionFloored(key)) {
      const double fresh_value = std::strtod(it->second.c_str(), nullptr);
      const double floor = std::strtod(base_value.c_str(), nullptr) * kMinCongestionRatio;
      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s vs baseline %s (floor %.3f)",
                    it->second.c_str(), base_value.c_str(), floor);
      Result(fresh_value >= floor ? "ok" : "FAIL", key, detail);
      continue;
    }
    Result(it->second == base_value ? "ok" : "FAIL", key,
           it->second + " vs baseline " + base_value);
  }
  for (const auto& [key, value] : fresh) {
    if (baseline.find(key) == baseline.end()) {
      Result("warn", key, "new metric (no baseline yet): " + value);
    }
  }
}

// Pure-logic verification: the gate must pass on identical data and fail on
// a perturbed baseline, with no files involved.
int SelfTest() {
  const std::map<std::string, std::string> trace = {
      {"trace_bytes", "12345"},
      {"trace_events", "678"},
      {"trace_fnv64", "00deadbeef00cafe"},
      {"binary_trace_bytes_per_event", "12.790"},
      {"binary_roundtrip_identical", "true"},
      {"binary_jobs_identical", "true"},
      {"trace_sampled_flows", "20"},
      {"sampled_blame_within_tolerance", "true"},
      {"spill_roundtrip_identical", "true"},
      {"timeseries_points_per_flow", "113.0"},
  };

  const std::map<std::string, std::string> congestion = {
      {"quick", "true"},
      {"flows", "8"},
      {"congestion_sack_epd_256_goodput_mbps", "3.670"},
      {"congestion_sack_epd_256_efficiency", "0.9440"},
      {"congestion_sack_epd_256_fairness", "1.0000"},
      {"congestion_sack_epd_256_retransmits", "56"},
      {"congestion_sack_epd_256_timeouts", "0"},
      {"congestion_sack_epd_beats_reno_tail", "true"},
      {"congestion_gap_shrinks_with_buffer", "true"},
      {"congestion_all_flows_completed", "true"},
  };

  std::printf("selftest: identical data must pass\n");
  GateTrace(trace, trace);
  GateCongestion(congestion, congestion);
  if (g_failures != 0) {
    std::printf("selftest FAILED: clean comparison reported %d failure(s)\n", g_failures);
    return 1;
  }

  std::printf("selftest: perturbed data must fail\n");
  int expected = 0;

  std::map<std::string, std::string> drifted = trace;
  drifted["trace_fnv64"] = "0123456789abcdef";
  g_failures = 0;
  GateTrace(drifted, trace);
  expected += g_failures == 1 ? 0 : 1;

  // Ceiling metrics: growth within 10% of baseline passes, and shrinking
  // is always fine...
  std::map<std::string, std::string> creep = trace;
  creep["binary_trace_bytes_per_event"] = "13.900";
  creep["timeseries_points_per_flow"] = "90.0";
  g_failures = 0;
  GateTrace(creep, trace);
  expected += g_failures == 0 ? 0 : 1;

  // ...growth past it is an encoding or sampler-thinning regression...
  std::map<std::string, std::string> bloated = trace;
  bloated["binary_trace_bytes_per_event"] = "15.100";
  bloated["timeseries_points_per_flow"] = "140.0";
  g_failures = 0;
  GateTrace(bloated, trace);
  expected += g_failures == 2 ? 0 : 1;

  // ...and a lost pipeline property fails exactly.
  std::map<std::string, std::string> broken = trace;
  broken["binary_jobs_identical"] = "false";
  broken["trace_sampled_flows"] = "3";
  broken["spill_roundtrip_identical"] = "false";
  g_failures = 0;
  GateTrace(broken, trace);
  expected += g_failures == 3 ? 0 : 1;

  // Congestion floors: goodput/efficiency/fairness within 10% of baseline
  // (or better) pass...
  std::map<std::string, std::string> cong_drift = congestion;
  cong_drift["congestion_sack_epd_256_goodput_mbps"] = "3.400";  // -7.4%
  cong_drift["congestion_sack_epd_256_efficiency"] = "0.9600";   // better
  g_failures = 0;
  GateCongestion(cong_drift, congestion);
  expected += g_failures == 0 ? 0 : 1;

  // ...a goodput collapse past the floor fails...
  std::map<std::string, std::string> cong_collapse = congestion;
  cong_collapse["congestion_sack_epd_256_goodput_mbps"] = "1.800";
  cong_collapse["congestion_sack_epd_256_fairness"] = "0.5000";
  g_failures = 0;
  GateCongestion(cong_collapse, congestion);
  expected += g_failures == 2 ? 0 : 1;

  // ...and a lost ordering or determinism boolean fails exactly, as does a
  // drifted deterministic counter.
  std::map<std::string, std::string> cong_broken = congestion;
  cong_broken["congestion_sack_epd_beats_reno_tail"] = "false";
  cong_broken["congestion_sack_epd_256_timeouts"] = "12";
  g_failures = 0;
  GateCongestion(cong_broken, congestion);
  expected += g_failures == 2 ? 0 : 1;

  if (expected != 0) {
    std::printf("selftest FAILED: %d scenario(s) did not gate as expected\n", expected);
    return 1;
  }
  std::printf("selftest passed\n");
  return 0;
}

int Run(const BenchFlags& flags) {
  if (flags.selftest) {
    return SelfTest();
  }
  if (flags.trace_path.empty()) {
    std::fprintf(stderr, "regression_gate: --trace is required (or --selftest)\n");
    return 2;
  }
  const std::string dir = flags.baseline_dir.empty() ? "bench/baselines" : flags.baseline_dir;
  const std::string trace_baseline_path = dir + "/BENCH_trace.json";
  const std::string congestion_baseline_path = dir + "/BENCH_congestion.json";

  std::string fresh_trace_text;
  std::string fresh_congestion_text;
  if (!ReadFile(flags.trace_path, &fresh_trace_text)) {
    return 2;
  }
  // The congestion grid file is optional; CI passes both.
  if (!flags.congestion_path.empty() &&
      !ReadFile(flags.congestion_path, &fresh_congestion_text)) {
    return 2;
  }

  if (flags.write_baseline) {
    if (!WriteTextFile(trace_baseline_path, fresh_trace_text)) {
      return 2;
    }
    if (!flags.congestion_path.empty() &&
        !WriteTextFile(congestion_baseline_path, fresh_congestion_text)) {
      return 2;
    }
    std::printf("wrote baselines in %s\n", dir.c_str());
    return 0;
  }

  std::string trace_baseline_text;
  if (!ReadFile(trace_baseline_path, &trace_baseline_text)) {
    std::fprintf(stderr, "regression_gate: no baselines in %s (run --write-baseline first)\n",
                 dir.c_str());
    return 2;
  }

  std::printf("trace metrics (%s vs %s):\n", flags.trace_path.c_str(),
              trace_baseline_path.c_str());
  GateTrace(ParseFlatJson(fresh_trace_text), ParseFlatJson(trace_baseline_text));

  if (!flags.congestion_path.empty()) {
    std::string congestion_baseline_text;
    if (!ReadFile(congestion_baseline_path, &congestion_baseline_text)) {
      std::fprintf(stderr,
                   "regression_gate: no congestion baseline in %s (run --write-baseline)\n",
                   dir.c_str());
      return 2;
    }
    std::printf("congestion metrics (%s vs %s):\n", flags.congestion_path.c_str(),
                congestion_baseline_path.c_str());
    GateCongestion(ParseFlatJson(fresh_congestion_text),
                   ParseFlatJson(congestion_baseline_text));
  }

  std::printf("%d failure(s), %d warning(s)\n", g_failures, g_warnings);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace tcplat

int main(int argc, char** argv) {
  tcplat::BenchFlags flags;
  if (!tcplat::ParseBenchFlags(argc, argv, &flags,
                               "[--trace PATH] [--congestion PATH] "
                               "[--baseline-dir DIR] [--write-baseline] [--selftest]")) {
    return 2;
  }
  return tcplat::Run(flags);
}
