#include "src/fault/impairment.h"

#include "src/base/check.h"

namespace tcplat {

ImpairmentStats& ImpairmentStats::operator+=(const ImpairmentStats& o) {
  offered += o.offered;
  delivered += o.delivered;
  dropped += o.dropped;
  duplicated += o.duplicated;
  reordered += o.reordered;
  jittered += o.jittered;
  ge_bursts += o.ge_bursts;
  bytes_offered += o.bytes_offered;
  bytes_dropped += o.bytes_dropped;
  return *this;
}

ImpairmentPolicy::ImpairmentPolicy(const ImpairmentConfig& config)
    : config_(config), rng_(config.seed) {
  TCPLAT_CHECK_GE(config.drop_prob, 0.0);
  TCPLAT_CHECK_LE(config.drop_prob, 1.0);
  TCPLAT_CHECK_GE(config.ge_bad_to_good, 0.0);
  TCPLAT_CHECK_GE(config.reorder_hold.nanos(), 0);
  TCPLAT_CHECK_GE(config.duplicate_lag.nanos(), 0);
  TCPLAT_CHECK_GE(config.jitter_max.nanos(), 0);
}

LinkImpairment::Verdict ImpairmentPolicy::OnTransmit(SimTime departure,
                                                     std::span<const uint8_t> data) {
  ++stats_.offered;
  stats_.bytes_offered += data.size();

  Verdict verdict;

  // Each feature draws from the stream only when configured, so one policy's
  // schedule is a pure function of (seed, offered sequence) for its config.
  bool drop = false;
  if (config_.ge_bad_loss > 0.0) {
    if (ge_bad_) {
      if (rng_.NextBool(config_.ge_bad_to_good)) {
        ge_bad_ = false;
      }
    } else if (rng_.NextBool(config_.ge_good_to_bad)) {
      ge_bad_ = true;
      ++stats_.ge_bursts;
    }
    drop = rng_.NextBool(ge_bad_ ? config_.ge_bad_loss : config_.ge_good_loss);
  }
  if (!drop && config_.drop_prob > 0.0) {
    drop = rng_.NextBool(config_.drop_prob);
  }
  if (drop) {
    ++stats_.dropped;
    stats_.bytes_dropped += data.size();
    if (tracer_ != nullptr) {
      tracer_->RecordPacket(trace_id_, TraceLayer::kLink, TraceEventKind::kImpairDrop,
                            departure, 0, stats_.offered, data.size());
    }
    verdict.drop = true;
    return verdict;
  }

  if (config_.duplicate_prob > 0.0 && rng_.NextBool(config_.duplicate_prob)) {
    verdict.duplicate = true;
    verdict.duplicate_lag = config_.duplicate_lag;
    ++stats_.duplicated;
    if (tracer_ != nullptr) {
      tracer_->RecordPacket(trace_id_, TraceLayer::kLink, TraceEventKind::kImpairDup,
                            departure, 0, stats_.offered, data.size(), config_.duplicate_lag);
    }
  }
  if (config_.reorder_prob > 0.0 && rng_.NextBool(config_.reorder_prob)) {
    verdict.extra_delay += config_.reorder_hold;
    ++stats_.reordered;
  }
  if (config_.jitter_max.nanos() > 0) {
    const SimDuration jitter =
        SimDuration::FromNanos(static_cast<int64_t>(
            rng_.NextBelow(static_cast<uint64_t>(config_.jitter_max.nanos()))));
    verdict.extra_delay += jitter;
    if (jitter.nanos() > 0) {
      ++stats_.jittered;
    }
  }
  if (verdict.extra_delay.nanos() > 0 && tracer_ != nullptr) {
    tracer_->RecordPacket(trace_id_, TraceLayer::kLink, TraceEventKind::kImpairDelay,
                          departure, 0, stats_.offered, data.size(), verdict.extra_delay);
  }

  ++stats_.delivered;
  return verdict;
}

void ImpairmentPolicy::RegisterMetrics(MetricsRegistry& metrics, std::string_view prefix) {
  const std::string base = "link." + std::string(prefix) + ".";
  if (metrics.contains(base + "offered")) {
    return;
  }
  metrics.AddCounterView(base + "offered", &stats_.offered);
  metrics.AddCounterView(base + "delivered", &stats_.delivered);
  metrics.AddCounterView(base + "dropped", &stats_.dropped);
  metrics.AddCounterView(base + "duplicated", &stats_.duplicated);
  metrics.AddCounterView(base + "reordered", &stats_.reordered);
  metrics.AddCounterView(base + "jittered", &stats_.jittered);
  metrics.AddCounterView(base + "ge_bursts", &stats_.ge_bursts);
  metrics.AddCounterView(base + "bytes_offered", &stats_.bytes_offered);
  metrics.AddCounterView(base + "bytes_dropped", &stats_.bytes_dropped);
}

}  // namespace tcplat
