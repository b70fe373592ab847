//===- core/VirtualProcessor.cpp - Virtual processors ----------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/VirtualProcessor.h"

#include "core/Current.h"
#include "core/PhysicalProcessor.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "obs/Flow.h"
#include "support/Clock.h"

namespace sting {

namespace {
/// Dispatches a VP performs before yielding its physical processor so that
/// sibling VPs multiplexed on the same PP also make progress.
constexpr int SliceDispatches = 64;
/// Recycled TCBs retained per VP.
constexpr std::size_t MaxCachedTcbs = 64;

/// Saturating add for slice deadlines (a thread may request an effectively
/// infinite quantum).
std::uint64_t saturatingAdd(std::uint64_t A, std::uint64_t B) {
  std::uint64_t R = A + B;
  return R < A ? ~0ull : R;
}
} // namespace

VirtualProcessor::VirtualProcessor(VirtualMachine &Vm, unsigned Index,
                                   std::unique_ptr<PolicyManager> Policy)
    : Vm(&Vm), Index(Index), Policy(std::move(Policy)),
      Stacks(Vm.config().StackSize) {
  STING_CHECK(this->Policy, "virtual processor needs a policy manager");
  SchedStack = &Stacks.allocate();
  initContext(SchedCtx, SchedStack->base(), SchedStack->size(),
              &VirtualProcessor::schedulerEntry, this);
  DispatchBudget = SliceDispatches;
#ifdef STING_TRACE
  if (Vm.config().EnableTracing) {
    Trace = std::make_unique<obs::TraceBuffer>(Index,
                                               Vm.config().TraceCapacity);
    Trace->setEnabled(true);
  }
#endif
}

VirtualProcessor::~VirtualProcessor() {
  // Release queued work: threads drop their queue reference; orphaned TCBs
  // (yielded or woken but never redispatched) are destroyed outright.
  Policy->drain(*this, [&](Schedulable &Item) {
    if (Item.isThread()) {
      Item.asThread().release();
      return;
    }
    Tcb &C = Item.asTcb();
    if (C.Stk) {
      Stacks.release(*C.Stk);
      C.Stk = nullptr;
    }
    delete &C;
  });

  while (!TcbCache.empty()) {
    Tcb &C = TcbCache.popFront();
    if (C.Stk) {
      Stacks.release(*C.Stk);
      C.Stk = nullptr;
    }
    delete &C;
  }

  if (SchedStack)
    Stacks.release(*SchedStack);
}

void VirtualProcessor::enqueue(Schedulable &Item, EnqueueReason Reason) {
  // Attribute the enqueue to the VP doing the inserting (single-writer
  // fast path); producers with no VP — the clock, external callers —
  // charge the target with a shared increment.
  const ExecutionCursor &Cur = currentCursor();
  if (Cur.Vp)
    Cur.Vp->Stats.Enqueues.inc();
  else
    Stats.Enqueues.incShared();
  Policy->enqueueThread(Item, *this, Reason);
  // Readiness dispatched by this VP's own PP, between VPs: that PP picks
  // its next VP right after, so no other processor needs waking.
  if (Cur.Vp || Cur.Pp != Pp)
    Vm->notifyWork();
}

VirtualProcessor &VirtualProcessor::leftVp() const {
  return Vm->vp(Vm->topology().leftOf(Index));
}
VirtualProcessor &VirtualProcessor::rightVp() const {
  return Vm->vp(Vm->topology().rightOf(Index));
}
VirtualProcessor &VirtualProcessor::upVp() const {
  return Vm->vp(Vm->topology().upOf(Index));
}
VirtualProcessor &VirtualProcessor::downVp() const {
  return Vm->vp(Vm->topology().downOf(Index));
}

//===----------------------------------------------------------------------===//
// Scheduler loop
//===----------------------------------------------------------------------===//

void VirtualProcessor::schedulerEntry(void *Arg) {
  enteredContext();
  static_cast<VirtualProcessor *>(Arg)->schedulerLoop();
  STING_UNREACHABLE("scheduler loop returned");
}

void VirtualProcessor::schedulerLoop() {
  PpSliceDeadline = nowNanos() + Vm->config().VpSliceNanos;
  for (;;) {
    // Yield to the physical processor when the machine is coming down,
    // when this VP's time slice (or dispatch backstop) is exhausted, or
    // when there is no work. The PP decides what runs next (another VP,
    // or a sleep in its epoll set).
    bool ShouldYield = Vm->isShuttingDown();
    if (!ShouldYield && --DispatchBudget <= 0)
      ShouldYield = true;
    if (!ShouldYield && nowNanos() >= PpSliceDeadline)
      ShouldYield = true;
    if (!ShouldYield && !dispatchOne())
      ShouldYield = true;
    if (ShouldYield) {
      STING_DCHECK(Pp, "scheduler running without a physical processor");
      switchContext(SchedCtx, Pp->PpCtx);
      // Re-entered by a PP: start a fresh slice.
      DispatchBudget = SliceDispatches;
      PpSliceDeadline = nowNanos() + Vm->config().VpSliceNanos;
    }
  }
}

bool VirtualProcessor::dispatchOne() {
  Schedulable *Item = Policy->getNextThread(*this);
  if (!Item) {
    Stats.IdleCalls.inc();
    Item = Policy->vpIdle(*this);
  }
  if (!Item) {
    // First fruitless dispatch of an idle episode: this VP is parking (its
    // PP may go on to sleep on the machine eventcount). Counted once per
    // episode, not once per idle poll.
    if (!IdleParked) {
      IdleParked = true;
      Stats.VpParks.inc();
      STING_TRACE_EVENT(VpPark, 0, 0);
    }
    return false;
  }
  if (IdleParked) {
    IdleParked = false;
    Stats.VpUnparks.inc();
    STING_TRACE_EVENT(VpUnpark, 0,
                      static_cast<std::uint32_t>(
                          Stats.VpParks.get() > 0xffffffff
                              ? 0xffffffff
                              : Stats.VpParks.get()));
  }
  Stats.Dequeues.inc();

  if (Item->isThread()) {
    Thread &T = Item->asThread();
    // Claim the thread. A failure means it was stolen or terminated while
    // queued — lazy removal, drop the queue's reference and move on.
    if (!T.tryTransition(ThreadState::Scheduled, ThreadState::Evaluating)) {
      Stats.SkippedStale.inc();
      STING_TRACE_EVENT(DequeueStale, T.id(), 0);
      T.release();
      return true;
    }
    runFresh(T);
    return true;
  }

  Stats.Resumes.inc();
  resume(Item->asTcb());
  return true;
}

void VirtualProcessor::runFresh(Thread &T) {
  Tcb &C = acquireTcb();
  C.Current = ThreadRef::adopt(&T); // absorb the ready queue's reference
  C.Active = &T;
  C.setVp(this);
  C.QuantumNanos = T.quantumNanos() ? T.quantumNanos()
                                    : Vm->config().DefaultQuantumNanos;
  {
    // Publish the dynamic context so requesters can reach it (threadRun,
    // threadTerminate, suspend timers take the same lock).
    std::lock_guard<SpinLock> Guard(T.WaiterLock);
    T.OwnedTcb = &C;
  }
  initContext(C.Ctx, C.Stk->base(), C.Stk->size(), &tcbEntry, &C);
  Stats.FreshBinds.inc();
  // Install the thread's flow before the start event so the first-run
  // record already belongs to the request the thread serves.
  obs::FlowScope StartFlow(T.flowId());
  STING_TRACE_EVENT(ThreadStart, T.id(), 0);
  switchInto(C);
}

void VirtualProcessor::tcbEntry(void *Arg) {
  enteredContext();
  ThreadController::runToCompletion(*static_cast<Tcb *>(Arg));
}

void VirtualProcessor::resume(Tcb &C) { switchInto(C); }

void VirtualProcessor::switchInto(Tcb &C) {
  STING_DCHECK(C.Park.load(std::memory_order_relaxed) == ParkState::Running,
               "dispatching a TCB that is not Running");
  Running.store(&C, std::memory_order_relaxed);
  currentCursor().CurTcb = &C;
  C.setVp(this);
  C.SliceStartNanos = nowNanos();
  SliceDeadline.store(saturatingAdd(C.SliceStartNanos, C.QuantumNanos),
                      std::memory_order_relaxed);
  Stats.Dispatches.inc();
  // The dispatched thread's flow rides the OS thread's TLS slot for the
  // whole occupancy: the Dispatch record, everything the thread emits
  // while running, and the switch-out record below all carry it (the
  // thread may adopt a different flow mid-run; whatever it left installed
  // labels the switch-out). Restored to the scheduler's no-flow state on
  // every exit path from this function.
  obs::FlowScope DispatchFlow(C.Active ? C.Active->flowId() : 0);
  STING_TRACE_EVENT(Dispatch, C.Active ? C.Active->id() : 0, 0);

  switchContext(SchedCtx, C.Ctx);

  // Back in the scheduler; perform whatever the outgoing thread asked for.
  SliceDeadline.store(0, std::memory_order_relaxed);
  currentCursor().CurTcb = nullptr;
  Running.store(nullptr, std::memory_order_relaxed);

  Tcb *Out = ActionTcb;
  SchedAction A = Action;
  EnqueueReason Reason = ActionReason;
  Action = SchedAction::None;
  ActionTcb = nullptr;

#ifdef STING_TRACE
  // The run-slice histogram costs an extra clock read, so it is recorded
  // only while this VP's ring is live; the switch-back event reuses the
  // same timestamping path inside emit().
  if (Out && Trace && Trace->enabled()) {
    Stats.RunSliceNanos.record(nowNanos() - C.SliceStartNanos);
    std::uint64_t OutId = Out->Active ? Out->Active->id() : 0;
    switch (A) {
    case SchedAction::Yield:
      Trace->emit(obs::TraceEventKind::SwitchYield, OutId,
                  static_cast<std::uint32_t>(Reason));
      break;
    case SchedAction::Park:
      Trace->emit(obs::TraceEventKind::SwitchPark, OutId, 0);
      break;
    case SchedAction::Exit:
      Trace->emit(obs::TraceEventKind::SwitchExit, OutId, 0);
      break;
    case SchedAction::None:
      break;
    }
  }
#endif

  switch (A) {
  case SchedAction::None:
    return;

  case SchedAction::Yield:
    Stats.Yields.inc();
    enqueue(*Out, Reason);
    return;

  case SchedAction::Park: {
    Stats.Parks.inc();
    // Complete the park handshake now that the thread is off its stack.
    for (;;) {
      ParkState S = Out->Park.load(std::memory_order_acquire);
      if (S == ParkState::ParkingUser || S == ParkState::ParkingKernel) {
        ParkState Target = S == ParkState::ParkingUser
                               ? ParkState::ParkedUser
                               : ParkState::ParkedKernel;
        if (Out->Park.compare_exchange_weak(S, Target,
                                            std::memory_order_acq_rel))
          return;
        continue;
      }
      STING_DCHECK(S == ParkState::WakeupPending,
                   "unexpected park state in scheduler");
      // A wakeup raced with the switch-out; the thread never really slept.
      Out->Park.store(ParkState::Running, std::memory_order_release);
      enqueue(*Out, Reason);
      return;
    }
  }

  case SchedAction::Exit:
    Stats.Exits.inc();
    recycleTcb(*Out);
    return;
  }
  STING_UNREACHABLE("bad scheduler action");
}

//===----------------------------------------------------------------------===//
// TCB cache
//===----------------------------------------------------------------------===//

Tcb &VirtualProcessor::acquireTcb() {
  Tcb *C;
  if (!TcbCache.empty()) {
    C = &TcbCache.popFront();
    --CachedTcbs;
    Stats.TcbReuses.inc();
  } else {
    C = new Tcb();
    Stats.TcbAllocs.inc();
  }
  if (!C->Stk)
    C->Stk = &Stacks.allocate();
  return *C;
}

void VirtualProcessor::recycleTcb(Tcb &C) {
  STING_DCHECK(C.thread() && C.thread()->isDetermined(),
               "recycling a TCB whose thread is not determined");
  C.Current.reset();
  C.Active = nullptr;
  C.Requests.store(0, std::memory_order_relaxed);
  C.Park.store(ParkState::Running, std::memory_order_relaxed);
  C.ParkKind = ParkClass::None;
  C.BlockedOn = nullptr;
  C.WaitCount.store(0, std::memory_order_relaxed);
  C.PreemptPending.store(false, std::memory_order_relaxed);
  C.PendingUserWake.store(false, std::memory_order_relaxed);
  C.PendingKernelWake.store(false, std::memory_order_relaxed);
  C.TimedParkDeadline.store(0, std::memory_order_relaxed);
  C.DeferredPreempt = false;
  C.PreemptDisableDepth = 0;
  C.StealDepth = 0;
  C.SuspendQuantumNanos = 0;
  C.PendingTerminateValue.reset();
  C.PendingException = nullptr;
  C.InterruptDisableDepth = 0;

  if (CachedTcbs >= MaxCachedTcbs) {
    if (C.Stk) {
      Stacks.release(*C.Stk);
      C.Stk = nullptr;
    }
    delete &C;
    return;
  }
  ++CachedTcbs;
  TcbCache.pushFront(C);
}

} // namespace sting
