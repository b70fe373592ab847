//===- core/PhysicalProcessor.cpp - Physical processors --------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PhysicalProcessor.h"

#include "core/Current.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"

namespace sting {

PhysicalProcessor::PhysicalProcessor(VirtualMachine &Vm, unsigned Index,
                                     std::unique_ptr<PhysicalPolicy> Policy)
    : Vm(&Vm), Index(Index), Policy(std::move(Policy)),
      Poll(PollSet::create()) {
  STING_CHECK(this->Policy, "physical processor needs a policy");
}

PhysicalProcessor::~PhysicalProcessor() {
  STING_DCHECK(!Os.joinable(), "physical processor destroyed while running");
}

void PhysicalProcessor::assignVp(VirtualProcessor &Vp) {
  Vps.push_back(&Vp);
  Vp.Pp = this; // pinned for life
}

void PhysicalProcessor::start() {
  Os = std::thread([this] { run(); });
}

void PhysicalProcessor::stop() {
  if (Os.joinable())
    Os.join();
}

void PhysicalProcessor::run() {
  currentCursor().Pp = this;

  EventCount &Idle = Vm->idleEventCount();
  while (!Vm->isShuttingDown()) {
    // A busy PP still takes readiness for threads on its VPs, once per
    // pass: a VP returns here at least every VpSliceNanos.
    if (Poll->hasArmed())
      Poll->wait(0);
    VirtualProcessor *Vp = Policy->nextVp(*this);
    if (!Vp) {
      // Sleep in epoll_wait until an enqueue writes our wake fd or a
      // descriptor armed here turns ready. The eventcount handshake:
      // register as a waiter, re-check every VP's queues, and only then
      // list the wake fd — an enqueue that lands after the re-check sees
      // the registration and either moves the epoch (commitSleep refuses)
      // or writes the listed fd (no lost wakeups; support/EventCount.h).
      EventCount::Key K = Idle.prepareWait();
      bool Work = false;
      for (VirtualProcessor *Candidate : Vps)
        Work |= Candidate->hasReadyWork();
      if (Work || Vm->isShuttingDown()) {
        Idle.cancelWait();
      } else if (Idle.commitSleep(K, Poll->wakeFd())) {
        Poll->wait(-1);
        if (Idle.endSleep(Poll->wakeFd()))
          EventCount::drainWake(Poll->wakeFd());
        Vps.front()->stats().PpWakeups.inc();
      }
      Policy->workPublished(*this);
      continue;
    }

    ++Switches;
    currentCursor().Vp = Vp;
#ifdef STING_TRACE
    // Point this OS thread's event sink at the VP it is about to run: a VP
    // is pinned to one PP for life, so its ring has exactly one writer.
    obs::setThreadTraceBuffer(Vp->traceBuffer());
#endif
    switchContext(PpCtx, Vp->SchedCtx);
#ifdef STING_TRACE
    obs::setThreadTraceBuffer(nullptr);
#endif
    currentCursor().Vp = nullptr;
  }

  currentCursor() = ExecutionCursor();
}

} // namespace sting
