#include "src/os/host.h"

#include <algorithm>

#include "src/base/check.h"

namespace tcplat {

Host::Host(Simulator* sim, std::string name, CostProfile profile)
    : sim_(sim), name_(std::move(name)), cpu_(sim, std::move(profile)), pool_(&cpu_) {
  cpu_.set_charge_listener(&tracker_);
  tracker_.set_clock(&cpu_);
  // The mbuf pool predates the registry and belongs to a layer below it, so
  // the host registers the views on its behalf.
  const MbufStats& mb = pool_.stats();
  metrics_.AddCounterView("mbuf.small_allocs", &mb.small_allocs);
  metrics_.AddCounterView("mbuf.cluster_allocs", &mb.cluster_allocs);
  metrics_.AddCounterView("mbuf.cluster_refs", &mb.cluster_refs);
  metrics_.AddCounterView("mbuf.frees", &mb.frees);
  metrics_.AddCounterView("mbuf.copym_calls", &mb.copym_calls);
  metrics_.AddCounterView("mbuf.bytes_copied", &mb.bytes_copied);
  metrics_.AddGaugeView("mbuf.in_use", &mb.in_use);
  metrics_.AddGaugeView("mbuf.peak_in_use", &mb.peak_in_use);
  metrics_.AddCounterView("mbuf.freelist_hits", &mb.mbuf_freelist_hits);
  metrics_.AddCounterView("mbuf.cluster_freelist_hits", &mb.cluster_freelist_hits);
}

void Host::AttachTracer(Tracer* tracer) {
  if (tracer != nullptr) {
    trace_id_ = tracer->RegisterHost(name_);
  }
  tracer_ = tracer;
  tracker_.AttachTracer(tracer, trace_id_);
}

SimTime Host::CurrentTime() const {
  return cpu_.running() ? cpu_.cursor() : sim_->Now();
}

Process* Host::Spawn(std::string name, SimTask task) {
  TCPLAT_CHECK(task.valid());
  auto proc = std::unique_ptr<Process>(new Process(this, std::move(name), std::move(task)));
  Process* p = proc.get();
  p->continuation_ = p->task_.handle();
  p->state_ = ProcessState::kRunnable;
  processes_.push_back(std::move(proc));
  ScheduleResume(p, CurrentTime(), /*charge_wakeup=*/false);
  return p;
}

void Host::Wakeup(WaitChannel& chan) {
  const SimTime now = CurrentTime();
  for (Process* p : chan.waiters_) {
    TCPLAT_CHECK(p->state_ == ProcessState::kBlocked);
    p->state_ = ProcessState::kRunnable;
    p->wakeup_issued_at_ = now;
    TracePacket(TraceLayer::kSched, TraceEventKind::kWakeup);
    ScheduleResume(p, now, /*charge_wakeup=*/true);
  }
  chan.waiters_.clear();
}

void Host::ScheduleResume(Process* p, SimTime at, bool charge_wakeup) {
  p->charge_wakeup_ = charge_wakeup;
  sim_->ScheduleAt(at, [this, p, at] { ResumeProcess(p, at); });
}

void Host::ResumeProcess(Process* p, SimTime request_time) {
  TCPLAT_CHECK(p->state_ == ProcessState::kRunnable);
  CpuRun run(cpu_, request_time);
  if (p->charge_wakeup_) {
    // Run-queue removal + context switch: the paper's "Wakeup" span is the
    // wall interval from wakeup() to the process actually running.
    cpu_.Charge(cpu_.profile().wakeup_ctx_switch);
    tracker_.AddInterval(SpanId::kRxWakeup, cpu_.cursor() - p->wakeup_issued_at_);
    p->charge_wakeup_ = false;
  }
  p->state_ = ProcessState::kRunning;
  current_ = p;
  auto cont = p->continuation_;
  p->continuation_ = nullptr;
  cont.resume();
  current_ = nullptr;
  if (p->task_.done()) {
    p->state_ = ProcessState::kDone;
  } else {
    TCPLAT_CHECK(p->state_ == ProcessState::kBlocked)
        << "process " << p->name_ << " suspended without blocking";
  }
}

void Host::RegisterNetisr(std::function<void()> handler) {
  TCPLAT_CHECK(netisr_ == nullptr) << "netisr already registered";
  netisr_ = std::move(handler);
}

void Host::RaiseNetisr() {
  TCPLAT_CHECK(netisr_ != nullptr);
  if (netisr_pending_) {
    return;
  }
  netisr_pending_ = true;
  netisr_raised_at_ = CurrentTime();
  sim_->ScheduleAt(netisr_raised_at_, [this] {
    CpuRun run(cpu_, netisr_raised_at_);
    cpu_.Charge(cpu_.profile().softint_dispatch);
    netisr_();
    // Cleared after the handler: anything enqueued while it ran was drained
    // by the handler's own loop, so a re-raise is unnecessary.
    netisr_pending_ = false;
  });
}

EventId Host::After(SimDuration d, std::function<void()> fn) {
  const SimTime when = CurrentTime() + d;
  return sim_->ScheduleAt(when, [this, when, fn = std::move(fn)] {
    CpuRun run(cpu_, when);
    fn();
  });
}

bool Host::CancelCallout(EventId id) { return sim_->Cancel(id); }

void BlockAwaiter::await_suspend(std::coroutine_handle<> h) {
  Process* p = host->current_process();
  TCPLAT_CHECK(p != nullptr) << "Block() outside process context";
  p->continuation_ = h;
  p->state_ = ProcessState::kBlocked;
  chan->waiters_.push_back(p);
}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  Process* p = host->current_process();
  TCPLAT_CHECK(p != nullptr) << "SleepFor() outside process context";
  p->continuation_ = h;
  p->state_ = ProcessState::kBlocked;
  const SimTime at = host->CurrentTime() + delay;
  host->sim().ScheduleAt(at, [host = host, p, at] {
    TCPLAT_CHECK(p->state_ == ProcessState::kBlocked);
    p->state_ = ProcessState::kRunnable;
    host->ResumeProcess(p, at);
  });
}

}  // namespace tcplat
