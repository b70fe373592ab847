//===- core/PreemptionClock.cpp - Preemption and timers --------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PreemptionClock.h"

#include "core/Current.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"

#include <chrono>

namespace sting {

PreemptionClock::PreemptionClock(VirtualMachine &Vm, std::uint64_t TickNanos,
                                 bool PreemptionEnabled)
    : Vm(&Vm), TickNanos(TickNanos ? TickNanos : 1'000'000),
      Enabled(PreemptionEnabled) {
  Os = std::thread([this] { run(); });
}

PreemptionClock::~PreemptionClock() { stop(); }

void PreemptionClock::stop() {
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    if (Stopping.exchange(true))
      return;
  }
  TimerCv.notify_all();
  if (Os.joinable())
    Os.join();
}

void PreemptionClock::setPreemptionEnabled(bool NewEnabled) {
  Enabled.store(NewEnabled, std::memory_order_relaxed);
  TimerCv.notify_all();
}

void PreemptionClock::push(Timer T) {
  bool Earliest;
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    Earliest = Timers.empty() || T.DeadlineNanos < Timers.top().DeadlineNanos;
    Timers.push(std::move(T));
  }
  if (Earliest)
    TimerCv.notify_all();
}

void PreemptionClock::scheduleResume(ThreadRef T, std::uint64_t DelayNanos) {
  push(Timer{nowNanos() + DelayNanos, std::move(T)});
}

void PreemptionClock::scheduleTimeout(Thread &T, std::uint64_t DeadlineNanos) {
  std::uint64_t Queued = T.QueuedTimeout.load(std::memory_order_seq_cst);
  do {
    if (Queued != 0 && Queued <= DeadlineNanos)
      return; // the queued entry fires first and re-queues (see header)
  } while (!T.QueuedTimeout.compare_exchange_weak(Queued, DeadlineNanos,
                                                  std::memory_order_seq_cst));
  push(Timer{DeadlineNanos, ThreadRef(&T), Timer::Kind::KernelTimeout});
}

void PreemptionClock::fireTimeout(Thread &T, std::uint64_t DeadlineNanos) {
  std::uint64_t Queued = DeadlineNanos;
  if (!T.QueuedTimeout.compare_exchange_strong(Queued, 0,
                                               std::memory_order_seq_cst))
    return; // superseded: an earlier entry took over the slot
  if (std::uint64_t Later = ThreadController::deliverTimeout(T, DeadlineNanos))
    scheduleTimeout(T, Later);
}

std::size_t PreemptionClock::pendingTimers() const {
  std::lock_guard<std::mutex> Guard(TimerLock);
  return Timers.size();
}

void PreemptionClock::raisePreemptFlags(std::uint64_t Now) {
  for (const auto &Vp : Vm->vps()) {
    std::uint64_t Deadline = Vp->SliceDeadline.load(std::memory_order_relaxed);
    if (Deadline == 0 || Now < Deadline)
      continue;
    if (!Vp->PreemptFlag.exchange(true, std::memory_order_relaxed))
      Raised.fetch_add(1, std::memory_order_relaxed);
  }
}

void PreemptionClock::fireDueTimers(std::uint64_t Now) {
  // Collect due targets under the lock, resume them outside it: threadRun
  // and deliverTimeout walk thread/queue locks that must not nest inside
  // TimerLock, and a re-queued timeout pushes under TimerLock itself.
  std::vector<Timer> Due;
  {
    std::lock_guard<std::mutex> Guard(TimerLock);
    while (!Timers.empty() && Timers.top().DeadlineNanos <= Now) {
      Due.push_back(Timers.top());
      Timers.pop();
    }
  }
  for (const Timer &T : Due) {
    switch (T.What) {
    case Timer::Kind::Resume:
      ThreadController::threadRun(*T.Target);
      break;
    case Timer::Kind::KernelTimeout:
      fireTimeout(*T.Target, T.DeadlineNanos);
      break;
    }
  }
}

void PreemptionClock::run() {
  while (!Stopping.load(std::memory_order_relaxed)) {
    const std::uint64_t Now = nowNanos();
    fireDueTimers(Now);
    if (Enabled.load(std::memory_order_relaxed))
      raisePreemptFlags(Now);

    std::uint64_t WaitNanos = TickNanos;
    {
      std::unique_lock<std::mutex> Lock(TimerLock);
      if (!Timers.empty()) {
        std::uint64_t Next = Timers.top().DeadlineNanos;
        std::uint64_t Later = nowNanos();
        std::uint64_t UntilTimer = Next > Later ? Next - Later : 1;
        if (UntilTimer < WaitNanos)
          WaitNanos = UntilTimer;
      }
      if (Stopping.load(std::memory_order_relaxed))
        break;
      TimerCv.wait_for(Lock, std::chrono::nanoseconds(WaitNanos));
    }
  }
}

//===----------------------------------------------------------------------===//
// WithoutPreemption
//===----------------------------------------------------------------------===//

WithoutPreemption::WithoutPreemption() {
  Tcb *C = currentTcb();
  STING_CHECK(C, "without-preemption outside a sting thread");
  C->disablePreemption();
}

WithoutPreemption::~WithoutPreemption() {
  Tcb *C = currentTcb();
  C->enablePreemption();
  if (!C->preemptionDisabled() && C->DeferredPreempt) {
    // Paper 4.2.2: a preemption deferred inside the scope "should not be
    // ignored" — honor it at the re-enable point.
    C->DeferredPreempt = false;
    ThreadController::yieldProcessor();
  }
}

WithoutInterrupts::WithoutInterrupts() {
  currentTcb()->disableInterrupts();
}

WithoutInterrupts::~WithoutInterrupts() {
  // Only re-enable: deferred requests include cross-thread raises, which
  // *throw* on delivery — and a destructor must not throw. They fire at
  // the thread's next controller call, matching the paper's "the change
  // itself takes place only when the target thread next makes a TC call".
  currentTcb()->enableInterrupts();
}

} // namespace sting
