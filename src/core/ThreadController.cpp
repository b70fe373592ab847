//===- core/ThreadController.cpp - The thread controller -------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The controller implements the synchronous thread state-transition
// function of paper section 3.1. Two invariants shape the code:
//
//  1. The controller allocates no storage on its hot paths: waiter records
//     live on waiters' stacks, queue links are intrusive, TCBs come from
//     per-VP caches. (blockOnGroup's record array is the one exception the
//     paper itself makes: block-on-group is defined *above* the TC and
//     allocates its TBs.)
//
//  2. Only a thread effects transitions out of Evaluating. Other threads
//     record *requests* in the TCB; the owner applies them at its next
//     controller call.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadController.h"

#include "core/Current.h"
#include "core/PhysicalProcessor.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "obs/Flow.h"
#include "support/Chaos.h"
#include "support/Clock.h"

#include <exception>
#include <vector>

namespace sting {

namespace {

/// Thrown by terminateSelf while executing a *stolen* thunk: unwinds only
/// the stolen evaluation, back to runStolen's handler on the same TCB.
struct StealTerminated {
  AnyValue Result;
};

/// Thrown to deliver a thread-terminate request at steal depth zero: the
/// whole thread body unwinds — releasing mutexes, retracting waiter-queue
/// registrations, running destructors — before runToCompletion catches it
/// and determines the thread with \p Result. Termination used to bypass
/// the stack (exitCurrent straight from applyRequests), which leaked any
/// guard the dying thread held; cancellation-as-unwind is what makes
/// terminating a thread parked inside a primitive safe (DESIGN.md 7.2).
struct ThreadTerminated {
  AnyValue Result;
};

/// Picks the VP a new/rescheduled thread should go to when the caller did
/// not pin one.
VirtualProcessor &chooseVp(VirtualMachine &Vm, VirtualProcessor *Explicit) {
  if (Explicit)
    return *Explicit;
  if (VirtualProcessor *Cur = currentVp(); Cur && &Cur->vm() == &Vm)
    return Cur->policy().selectVpForNewThread(*Cur);
  return Vm.vp(0);
}

/// Schedules \p T (which must have just transitioned to Scheduled),
/// transferring a new queue reference.
void scheduleThread(Thread &T, VirtualProcessor *Explicit,
                    EnqueueReason Reason) {
  VirtualProcessor &Target = chooseVp(T.vm(), Explicit);
  T.retain(); // the ready queue's reference
  Target.enqueue(T, Reason);
}

} // namespace

//===----------------------------------------------------------------------===//
// Creation and scheduling
//===----------------------------------------------------------------------===//

ThreadRef ThreadController::forkThread(Thread::Thunk Code,
                                       const SpawnOptions &Opts) {
  VirtualProcessor *Cur = currentVp();
  STING_CHECK(Cur || Opts.Vp,
              "forkThread outside a machine requires SpawnOptions::Vp");
  VirtualMachine &Vm = Cur ? Cur->vm() : Opts.Vp->vm();
  ThreadRef T = Thread::create(Vm, std::move(Code), Opts);
  bool Ok = T->tryTransition(ThreadState::Delayed, ThreadState::Scheduled);
  STING_CHECK(Ok, "fresh thread not delayed");
  scheduleThread(*T, Opts.Vp, EnqueueReason::NewThread);
  return T;
}

ThreadRef ThreadController::createThread(Thread::Thunk Code,
                                         const SpawnOptions &Opts) {
  VirtualProcessor *Cur = currentVp();
  STING_CHECK(Cur || Opts.Vp,
              "createThread outside a machine requires SpawnOptions::Vp");
  VirtualMachine &Vm = Cur ? Cur->vm() : Opts.Vp->vm();
  return Thread::create(Vm, std::move(Code), Opts);
}

void ThreadController::threadRun(Thread &T, VirtualProcessor *Vp) {
  for (;;) {
    switch (T.state()) {
    case ThreadState::Delayed:
      if (!T.tryTransition(ThreadState::Delayed, ThreadState::Scheduled))
        continue;
      scheduleThread(T, Vp, EnqueueReason::Delayed);
      return;

    case ThreadState::Scheduled:
      // Cancel a pending suspend-on-start: thread-run resumes suspended
      // threads, including ones suspended before they ever ran.
      T.SuspendOnStart.store(false, std::memory_order_release);
      return;

    case ThreadState::Stolen:
    case ThreadState::Determined:
      return; // being run inline, or finished

    case ThreadState::Evaluating: {
      // Resume a thread parked by thread-block / thread-suspend. Kernel
      // parks (waits inside runtime structures) are not resumable this
      // way; only the owning structure may wake those.
      std::lock_guard<SpinLock> Guard(T.WaiterLock);
      if (T.state() != ThreadState::Evaluating)
        continue;
      if (Tcb *C = T.OwnedTcb)
        unparkTcbIfUser(*C, EnqueueReason::UserBlock);
      return;
    }
    }
  }
}

//===----------------------------------------------------------------------===//
// Park / unpark protocol
//===----------------------------------------------------------------------===//

void ThreadController::parkCurrent(ParkClass Class, const void *Blocker,
                                   Deadline D) {
  STING_CHECK(onStingThread(), "parkCurrent outside a sting thread");
  Tcb &C = *currentTcb();
  C.vp()->stats().Blocks.inc();

  // Publish this park's deadline (0 = untimed) before the park state
  // becomes visible: deliverTimeout validates timers against it, so a
  // stale timer can match only while a park with this exact deadline is
  // current — any other delivery is dropped or degrades to a spurious
  // kernel wake. seq_cst: it pairs with the clock's read of it after
  // clearing the thread's queued-timeout slot (PreemptionClock.h).
  const std::uint64_t DeadlineNanos = D.isNever() ? 0 : D.AtNanos;
  C.TimedParkDeadline.store(DeadlineNanos, std::memory_order_seq_cst);

  // A terminate or raise request that raced ahead of the park would
  // strand a *user* park (nothing is obliged to resume it) and would
  // pointlessly stall a kernel park until its structure's next wake.
  // Apply it now: kernel park sites retract their waiter-queue
  // registrations on unwind, so throwing here is safe.
  if (C.Requests.load(std::memory_order_acquire) &
      (ReqTerminate | ReqRaise))
    applyRequests(C); // terminates or throws

  C.ParkKind = Class;
  C.BlockedOn = Blocker;
  C.Park.store(Class == ParkClass::User ? ParkState::ParkingUser
                                        : ParkState::ParkingKernel,
               std::memory_order_release);

  // A user wakeup that landed before the park state was visible cancels
  // the park (the resume "arrived first"). Checked after the store above
  // so a waker sees either the flag consumed or the Parking state.
  if (Class == ParkClass::User &&
      C.PendingUserWake.exchange(false, std::memory_order_acq_rel)) {
    C.Park.store(ParkState::Running, std::memory_order_release);
    C.ParkKind = ParkClass::None;
    C.BlockedOn = nullptr;
    applyRequests(C);
    return;
  }

  if (Class == ParkClass::Kernel) {
    // Chaos: pretend a structure wakeup already landed. This exercises the
    // real sticky-wake protocol below, so the injected fault is exactly
    // the spurious return every kernel park site must tolerate.
    if (STING_CHAOS_FIRE(SpuriousWake)) {
      STING_TRACE_EVENT(ChaosInject, C.thread()->id(),
                        static_cast<std::uint32_t>(
                            chaos::Site::SpuriousWake));
      C.PendingKernelWake.store(true, std::memory_order_release);
    }
    // The kernel counterpart of the sticky user wake: a structure wakeup
    // that hit this TCB while it was transiently Running (between a
    // spurious park return and the re-park) cancels this park.
    if (C.PendingKernelWake.exchange(false, std::memory_order_acq_rel)) {
      C.Park.store(ParkState::Running, std::memory_order_release);
      C.ParkKind = ParkClass::None;
      C.BlockedOn = nullptr;
      applyRequests(C);
      return;
    }
  }

  // Arm the timeout only once the park is committed; the timer races the
  // switch-out harmlessly (unparkImpl handles the Parking window). The
  // clock keeps one queued timeout per thread: a re-park whose deadline is
  // no earlier than the queued one (spurious wake, group re-check, the
  // next timed wait) pushes nothing and wakes no one.
  if (DeadlineNanos != 0)
    C.vp()->vm().clock().scheduleTimeout(*C.thread(), DeadlineNanos);

  VirtualProcessor &Vp = *C.vp();
  Vp.Action = SchedAction::Park;
  Vp.ActionTcb = &C;
  Vp.ActionReason = Class == ParkClass::User ? EnqueueReason::UserBlock
                                             : EnqueueReason::KernelBlock;
  switchContext(C.Ctx, Vp.SchedCtx);

  // Resumed — possibly on a different VP (C.Vp was updated by the
  // dispatching scheduler before switching back in).
  C.ParkKind = ParkClass::None;
  C.BlockedOn = nullptr;
  applyRequests(C);
}

bool ThreadController::unparkImpl(Tcb &C, EnqueueReason Reason,
                                  UnparkClass Constraint) {
  // Chaos: stall the wakeup before it touches the park state word,
  // widening the Parking/Running windows the protocol must cover.
  if (STING_CHAOS_FIRE(UnparkDelay)) {
    STING_TRACE_EVENT(ChaosInject, C.thread() ? C.thread()->id() : 0,
                      static_cast<std::uint32_t>(chaos::Site::UnparkDelay));
    spinForNanos(2'000);
  }
  // Wakeups are charged to the waker's VP (single-writer); wakers with no
  // VP — the preemption clock, external joiners — charge the target.
  auto NoteWakeup = [&C](std::uint32_t Payload) {
    if (VirtualProcessor *Cur = currentVp())
      Cur->stats().Wakeups.inc();
    else if (VirtualProcessor *Target = C.vp())
      Target->stats().Wakeups.incShared();
    // Causal flow crosses the wake edge: the wakee continues whatever
    // request the waker was serving. Flow-less wakers (the preemption
    // clock, timers, external joiners) leave the wakee's flow alone.
    if (obs::FlowId F = obs::currentFlowId())
      if (Thread *T = C.thread())
        T->setFlowId(F);
    STING_TRACE_EVENT(Wakeup, C.thread() ? C.thread()->id() : 0, Payload);
  };
  for (;;) {
    ParkState S = C.Park.load(std::memory_order_acquire);
    switch (S) {
    case ParkState::ParkedUser:
    case ParkState::ParkedKernel: {
      if (Constraint == UnparkClass::UserOnly && S == ParkState::ParkedKernel)
        return false;
      if (Constraint == UnparkClass::KernelOnly && S == ParkState::ParkedUser)
        return false;
      if (!C.Park.compare_exchange_weak(S, ParkState::Running,
                                        std::memory_order_acq_rel))
        continue;
      NoteWakeup(0);
      C.vp()->enqueue(C, Reason);
      return true;
    }
    case ParkState::ParkingUser:
    case ParkState::ParkingKernel: {
      if (Constraint == UnparkClass::UserOnly && S == ParkState::ParkingKernel)
        return false;
      if (Constraint == UnparkClass::KernelOnly && S == ParkState::ParkingUser)
        return false;
      // The target is still walking off its stack; hand the wakeup to its
      // scheduler, which re-enqueues once the switch-out completes.
      if (C.Park.compare_exchange_weak(S, ParkState::WakeupPending,
                                       std::memory_order_acq_rel)) {
        NoteWakeup(1);
        return true;
      }
      continue;
    }
    case ParkState::Running:
      if (Constraint == UnparkClass::UserOnly) {
        // The target has not parked yet (e.g. a suspend timer fired
        // between scheduleResume and the park). Leave a sticky wake; the
        // park-entry check below consumes it and cancels the park.
        C.PendingUserWake.store(true, std::memory_order_release);
        NoteWakeup(2);
        return true;
      }
      // Kernel wake (structure or timer) onto a transiently-Running TCB:
      // the waiter already returned from its park (spuriously, by timeout,
      // or popped just as it gave up) and is between re-checks. Dropping
      // the wake here could strand its re-park forever; leave the kernel
      // sticky wake, which the next *kernel* park consumes and cancels —
      // user parks never consume it, so this path stays safe for
      // KernelOnly (timer) deliveries too.
      C.PendingKernelWake.store(true, std::memory_order_release);
      NoteWakeup(3);
      return true;
    case ParkState::WakeupPending:
      return false; // someone else already woke it
    }
  }
}

bool ThreadController::unparkTcb(Tcb &C, EnqueueReason Reason) {
  return unparkImpl(C, Reason, UnparkClass::Any);
}

std::uint64_t ThreadController::deliverTimeout(Thread &T,
                                               std::uint64_t DeadlineNanos) {
  // Runs on the machine clock's OS thread. The waiter lock pins the TCB;
  // the deadline check drops timers whose timed park already ended, and
  // hands a later park deadline back for re-queueing. A stale delivery
  // that slips past it anyway (the target re-parked with the same
  // deadline, or is mid-wake) is constrained to kernel parks: at worst it
  // produces a spurious return there, which every kernel park site
  // tolerates — it can never resume a user park (thread-suspend) early,
  // whatever the target parked into since the check.
  std::lock_guard<SpinLock> Guard(T.WaiterLock);
  if (T.state() != ThreadState::Evaluating)
    return 0;
  Tcb *C = T.OwnedTcb;
  if (!C)
    return 0;
  std::uint64_t Current = C->TimedParkDeadline.load(std::memory_order_seq_cst);
  if (Current > DeadlineNanos)
    return Current;
  if (Current == DeadlineNanos)
    unparkImpl(*C, EnqueueReason::KernelBlock, UnparkClass::KernelOnly);
  return 0;
}

bool ThreadController::unparkTcbIfUser(Tcb &C, EnqueueReason Reason) {
  return unparkImpl(C, Reason, UnparkClass::UserOnly);
}

bool ThreadController::unparkThreadKernel(Thread &T, EnqueueReason Reason) {
  // Same pinning discipline as deliverTimeout: the waiter lock keeps the
  // Evaluating -> OwnedTcb binding stable, so the unpark can never touch a
  // TCB that was recycled after the caller let go of its structure lock.
  std::lock_guard<SpinLock> Guard(T.WaiterLock);
  if (T.state() != ThreadState::Evaluating)
    return false;
  Tcb *C = T.OwnedTcb;
  if (!C)
    return false;
  return unparkImpl(*C, Reason, UnparkClass::KernelOnly);
}

//===----------------------------------------------------------------------===//
// Blocking and waiting
//===----------------------------------------------------------------------===//

void ThreadController::threadBlock(const void *Blocker) {
  parkCurrent(ParkClass::User, Blocker);
}

void ThreadController::threadSuspend(std::uint64_t QuantumNanos) {
  STING_CHECK(onStingThread(), "threadSuspend outside a sting thread");
  Tcb &C = *currentTcb();
  if (QuantumNanos != 0)
    C.vp()->vm().clock().scheduleResume(ThreadRef(C.thread()), QuantumNanos);
  parkCurrent(ParkClass::User, "thread-suspend");
}

void ThreadController::threadSuspend(Thread &T, std::uint64_t QuantumNanos) {
  if (&T == currentThread()) {
    threadSuspend(QuantumNanos);
    return;
  }
  // Request semantics: an evaluating target suspends at its next
  // controller call; a delayed/scheduled target suspends immediately after
  // it is first bound to a TCB. Determined targets are gone.
  ThreadState S = T.state();
  if (S == ThreadState::Delayed || S == ThreadState::Scheduled) {
    T.SuspendOnStartQuantum = QuantumNanos;
    T.SuspendOnStart.store(true, std::memory_order_release);
    if (T.state() != ThreadState::Evaluating)
      return;
    // Lost the race against dispatch; fall through to the request path
    // (the start hook may already have been consumed).
  }
  std::lock_guard<SpinLock> Guard(T.WaiterLock);
  if (T.state() != ThreadState::Evaluating)
    return;
  if (Tcb *C = T.OwnedTcb)
    C->requestSuspend(QuantumNanos);
}

void ThreadController::blockOnGroup(std::size_t Count,
                                    std::span<Thread *const> Group) {
  (void)blockOnGroupUntil(Count, Group, Deadline::never());
}

WaitResult ThreadController::blockOnGroupUntil(std::size_t Count,
                                               std::span<Thread *const> Group,
                                               Deadline D) {
  STING_CHECK(onStingThread(), "blockOnGroup outside a sting thread");
  if (Count == 0)
    return WaitResult::Ready;
  STING_CHECK(Count <= Group.size(), "blockOnGroup count exceeds group");

  Tcb &C = *currentTcb();

  // Pre-load the wait count with a sentinel so completions that land during
  // registration can never drive it to zero early; the real target is
  // folded in once registration finishes (see Fig. 5's two-phase scan).
  constexpr int Sentinel = 1 << 30;
  C.WaitCount.store(Sentinel, std::memory_order_release);

  std::vector<ThreadBarrier> Records(Group.size());
  std::vector<std::uint8_t> Registered(Group.size(), 0);

  // Every exit — completion, timeout, or an async terminate/raise
  // unwinding out of the park — must retract the registrations before the
  // stack frame holding Records pops; a record already absent was fully
  // processed under its target's waiter lock (lifetime protocol in
  // Thread.h), so popping the frame after this guard runs is safe.
  struct DeregisterOnExit {
    std::span<Thread *const> Group;
    std::vector<ThreadBarrier> &Records;
    std::vector<std::uint8_t> &Registered;
    Tcb &C;
    ~DeregisterOnExit() {
      for (std::size_t I = 0; I != Group.size(); ++I)
        if (Registered[I])
          Group[I]->removeWaiter(Records[I]);
      C.WaitCount.store(0, std::memory_order_relaxed);
    }
  } Guard{Group, Records, Registered, C};

  // Liveness: the wait completes only if at least Count members run to
  // determination, but a delayed member sits on no ready queue — the steal
  // fast path was the only other thing that would ever run it, and it may
  // have declined (depth bound, state race, injected fault). Blocking on a
  // thread is a demand for its value, so schedule just enough delayed
  // members to cover the deficit. No more than that: a wait-for-one over a
  // forked favorite and a delayed fallback must leave the fallback lazy.
  std::size_t Progressing = 0;
  for (Thread *T : Group)
    if (T->state() != ThreadState::Delayed)
      ++Progressing;
  for (std::size_t I = 0; I != Group.size() && Progressing < Count; ++I)
    if (Group[I]->state() == ThreadState::Delayed) {
      if (Group[I]->tryTransition(ThreadState::Delayed,
                                  ThreadState::Scheduled))
        scheduleThread(*Group[I], nullptr, EnqueueReason::Delayed);
      ++Progressing; // scheduled by us, or raced into a live state
    }

  std::size_t AlreadyDone = 0;
  for (std::size_t I = 0; I != Group.size(); ++I) {
    Records[I].Kind = ThreadBarrier::WaiterKind::TcbWaiter;
    Records[I].WaiterTcb = &C;
    if (Group[I]->addWaiter(Records[I]))
      Registered[I] = 1;
    else
      ++AlreadyDone; // determined before we could register
  }

  bool MustPark = false;
  if (AlreadyDone < Count) {
    const int Needed = static_cast<int>(Count - AlreadyDone);
    const int NewValue =
        C.WaitCount.fetch_add(Needed - Sentinel, std::memory_order_acq_rel) +
        Needed - Sentinel;
    MustPark = NewValue > 0;
  }

  // Re-check the count around every park: wakeWaiter decrements it before
  // unparking, so a wake that lands while we are transiently Running is
  // observed here (and any park it cancelled was spurious by definition).
  while (MustPark && C.WaitCount.load(std::memory_order_acquire) > 0) {
    if (D.expired()) {
      STING_TRACE_EVENT(TimeoutFired, C.thread()->id(), 0);
      return WaitResult::Timeout;
    }
    parkCurrent(ParkClass::Kernel, Group.data(), D);
  }
  return WaitResult::Ready;
}

void ThreadController::threadWait(Thread &T) {
  if (T.isDetermined())
    return;
  if (!onStingThread()) {
    T.join();
    return;
  }
  STING_CHECK(&T != currentThread(), "thread waiting on itself");
  if (T.isStealable() && trySteal(T))
    return;
  Thread *Target = &T;
  blockOnGroup(1, std::span<Thread *const>(&Target, 1));
}

bool ThreadController::threadWaitFor(Thread &T, Deadline D) {
  if (T.isDetermined())
    return true;
  if (!onStingThread())
    return T.joinFor(D);
  STING_CHECK(&T != currentThread(), "thread waiting on itself");
  // Stealing makes progress instead of waiting, so it beats any deadline
  // the blocking path could honor.
  if (T.isStealable() && trySteal(T))
    return true;
  Thread *Target = &T;
  return blockOnGroupUntil(1, std::span<Thread *const>(&Target, 1), D) ==
         WaitResult::Ready;
}

const AnyValue &ThreadController::threadValue(Thread &T) {
  threadWait(T);
  T.rethrowIfFailed();
  return T.result();
}

//===----------------------------------------------------------------------===//
// Stealing (paper section 4.1.1)
//===----------------------------------------------------------------------===//

bool ThreadController::trySteal(Thread &T) {
  if (!onStingThread())
    return false;
  Tcb &C = *currentTcb();
  C.vp()->stats().StealsAttempted.inc();
  STING_TRACE_EVENT(StealAttempt, T.id(), 0);
  // Chaos: refuse a perfectly stealable thread, forcing the caller onto
  // the blocking path it would otherwise skip.
  if (STING_CHAOS_FIRE(StealDeny)) {
    STING_TRACE_EVENT(ChaosInject, T.id(),
                      static_cast<std::uint32_t>(chaos::Site::StealDeny));
    C.vp()->stats().StealsFailed.inc();
    STING_TRACE_EVENT(StealFail, T.id(), 2);
    return false;
  }
  // Every steal nests the stolen thunk on this TCB's stack; beyond the
  // machine's depth bound, fall back to blocking so deep dependency
  // chains cannot overflow it.
  if (C.StealDepth >= T.vm().config().MaxStealDepth) {
    C.vp()->stats().StealsFailed.inc();
    STING_TRACE_EVENT(StealFail, T.id(), 1);
    return false;
  }
  for (;;) {
    ThreadState S = T.state();
    if (S != ThreadState::Delayed && S != ThreadState::Scheduled) {
      C.vp()->stats().StealsFailed.inc();
      STING_TRACE_EVENT(StealFail, T.id(), 0);
      return false;
    }
    if (T.tryTransition(S, ThreadState::Stolen))
      break;
  }
  runStolen(T);
  // C.Vp may have moved while the stolen thunk ran; charge wherever the
  // stealer resumed.
  C.vp()->stats().StealsSucceeded.inc();
  STING_TRACE_EVENT(StealCommit, T.id(), 0);
  return true;
}

void ThreadController::runStolen(Thread &T) {
  Tcb &C = *currentTcb();
  Thread *Previous = C.Active;
  C.Active = &T;
  ++C.StealDepth;
  // The stolen thunk executes on the stealer's TCB but on behalf of T's
  // flow; restore the stealer's flow when the nested evaluation unwinds.
  obs::FlowScope StolenFlow(T.flowId());

  // A scheduled thread stolen out of a ready queue stays queued; dispatch
  // skips it when the CAS to Evaluating fails (lazy removal).
  AnyValue Value;
  bool DidFail = false;
  bool ViaTerminate = false;
  try {
    Value = T.Code();
  } catch (StealTerminated &E) {
    Value = std::move(E.Result);
    ViaTerminate = true;
  } catch (...) {
    Value = AnyValue(std::current_exception());
    DidFail = true;
  }
  T.Failed.store(DidFail, std::memory_order_relaxed);
  T.determine(std::move(Value), ViaTerminate);

  --C.StealDepth;
  C.Active = Previous;
  T.vm().stats().Steals.fetch_add(1, std::memory_order_relaxed);
  C.vp()->stats().ThreadsTerminated.inc();
  STING_TRACE_EVENT(ThreadExit, T.id(), 1);

  // A terminate request aimed at the stealer may have been re-armed while
  // the stolen thunk ran; honor it now that the steal frame is unwound.
  applyRequests(C);
}

//===----------------------------------------------------------------------===//
// Termination
//===----------------------------------------------------------------------===//

bool ThreadController::threadTerminate(Thread &T, AnyValue Result) {
  if (&T == currentThread())
    terminateSelf(std::move(Result));

  for (;;) {
    ThreadState S = T.state();
    switch (S) {
    case ThreadState::Delayed:
    case ThreadState::Scheduled:
      // Claim the thread, then determine it directly — it has no dynamic
      // context to unwind. (A claimed scheduled thread stays in its ready
      // queue; dispatch skips it.)
      if (!T.tryTransition(S, ThreadState::Evaluating))
        continue;
      T.Failed.store(false, std::memory_order_relaxed);
      T.determine(std::move(Result), /*ViaTerminate=*/true);
      return true;

    case ThreadState::Stolen:
    case ThreadState::Determined:
      return false;

    case ThreadState::Evaluating: {
      std::lock_guard<SpinLock> Guard(T.WaiterLock);
      if (T.state() != ThreadState::Evaluating)
        continue;
      Tcb *C = T.OwnedTcb;
      if (!C)
        continue; // binding in flight; retry
      C->PendingTerminateValue = std::move(Result);
      C->requestTerminate();
      // Wake the target whatever it is parked in. A kernel-parked waiter
      // returns spuriously into its primitive's re-check loop, which
      // applies the request at the park exit; the unwind then retracts its
      // waiter-queue registration (DESIGN.md 7.2). Holding the waiter lock
      // keeps the TCB from being recycled underneath us.
      unparkTcb(*C, EnqueueReason::KernelBlock);
      return true;
    }
    }
  }
}

bool ThreadController::raiseIn(Thread &T, std::exception_ptr E) {
  STING_CHECK(E, "raiseIn requires an exception");
  if (&T == currentThread())
    std::rethrow_exception(E);

  for (;;) {
    ThreadState S = T.state();
    switch (S) {
    case ThreadState::Delayed:
    case ThreadState::Scheduled:
      // Never ran: fail it directly with the exception.
      if (!T.tryTransition(S, ThreadState::Evaluating))
        continue;
      T.Failed.store(true, std::memory_order_relaxed);
      T.determine(AnyValue(E), /*ViaTerminate=*/true);
      return true;

    case ThreadState::Stolen:
    case ThreadState::Determined:
      return false;

    case ThreadState::Evaluating: {
      std::lock_guard<SpinLock> Guard(T.WaiterLock);
      if (T.state() != ThreadState::Evaluating)
        continue;
      Tcb *C = T.OwnedTcb;
      if (!C)
        continue; // binding in flight
      C->PendingException = E;
      C->Requests.fetch_or(ReqRaise, std::memory_order_release);
      // Deliver through kernel parks too: the woken waiter's park exit
      // rethrows, and the primitive's unwind guards keep its waiter queue
      // intact (the satellite fix for raiseIn-while-blocked).
      unparkTcb(*C, EnqueueReason::KernelBlock);
      return true;
    }
    }
  }
}

void ThreadController::terminateSelf(AnyValue Result) {
  Tcb &C = *currentTcb();
  if (C.StealDepth > 0 && C.Active != C.thread())
    throw StealTerminated{std::move(Result)}; // unwind just the stolen thunk
  // Unwind rather than exit in place so every guard on the dying stack —
  // mutex releases, waiter-queue registrations — runs before the thread
  // determines. runToCompletion turns this back into a terminate.
  throw ThreadTerminated{std::move(Result)};
}

void ThreadController::exitCurrent(AnyValue Result, bool ViaTerminate) {
  Tcb &C = *currentTcb();
  Thread &T = *C.thread();
  T.determine(std::move(Result), ViaTerminate);

  VirtualProcessor &Vp = *C.vp();
  Vp.stats().ThreadsTerminated.inc();
  STING_TRACE_EVENT(ThreadExit, T.id(), 0);
  Vp.Action = SchedAction::Exit;
  Vp.ActionTcb = &C;
  switchContext(C.Ctx, Vp.SchedCtx);
  STING_UNREACHABLE("resumed an exited thread");
}

void ThreadController::runToCompletion(Tcb &C) {
  Thread &T = *C.thread();
  if (T.SuspendOnStart.exchange(false, std::memory_order_acq_rel))
    C.requestSuspend(T.SuspendOnStartQuantum);
  AnyValue Value;
  bool DidFail = false;
  bool ViaTerminate = false;
  try {
    // Suspend/terminate before the first instruction; a terminate that
    // lands here determines the thread like one that unwinds its body.
    applyRequests(C);
    Value = T.Code();
  } catch (ThreadTerminated &E) {
    // A terminate request (or terminateSelf) unwound the whole body; the
    // guards on the dying stack have run by the time we get here.
    Value = std::move(E.Result);
    ViaTerminate = true;
  } catch (StealTerminated &E) {
    // Stolen-thunk termination unwinding past runStolen can only happen if
    // user frames swallowed it incorrectly. Treat it as termination of
    // this thread.
    Value = std::move(E.Result);
    ViaTerminate = true;
  } catch (...) {
    Value = AnyValue(std::current_exception());
    DidFail = true;
  }
  T.Failed.store(DidFail, std::memory_order_relaxed);
  exitCurrent(std::move(Value), ViaTerminate);
}

//===----------------------------------------------------------------------===//
// Yield, preemption, requested transitions
//===----------------------------------------------------------------------===//

void ThreadController::yieldProcessor() {
  STING_CHECK(onStingThread(), "yieldProcessor outside a sting thread");
  Tcb &C = *currentTcb();
  applyRequests(C);

  VirtualProcessor &Vp = *C.vp();
  Vp.Action = SchedAction::Yield;
  Vp.ActionTcb = &C;
  Vp.ActionReason = EnqueueReason::Yielded;
  switchContext(C.Ctx, Vp.SchedCtx);
  applyRequests(*currentTcb());
}

void ThreadController::checkpoint() {
  Tcb *C = currentTcb();
  if (!C)
    return;
  applyRequests(*C);

  VirtualProcessor &Vp = *C->vp();
  if (!Vp.PreemptFlag.load(std::memory_order_relaxed))
    return;
  Vp.PreemptFlag.store(false, std::memory_order_relaxed);

  if (C->preemptionDisabled()) {
    // Paper 4.2.2: ignore this preemption but mark that the next one (the
    // re-enable point) must not be ignored.
    C->DeferredPreempt = true;
    Vp.stats().PreemptsDeferred.inc();
    STING_TRACE_EVENT(PreemptDefer, C->Active ? C->Active->id() : 0, 0);
    return;
  }

  Vp.stats().PreemptsDelivered.inc();
  STING_TRACE_EVENT(PreemptDeliver, C->Active ? C->Active->id() : 0, 0);
  Vp.Action = SchedAction::Yield;
  Vp.ActionTcb = C;
  Vp.ActionReason = EnqueueReason::Preempted;
  switchContext(C->Ctx, C->vp()->SchedCtx);
  applyRequests(*currentTcb());
}

void ThreadController::applyRequests(Tcb &C) {
  if (!C.hasRequests())
    return;
  // Paper 4.2.2: without-interrupts defers every asynchronous transition;
  // the bits stay armed and fire at the first controller call after the
  // scope exits.
  if (C.interruptsDisabled())
    return;
  std::uint32_t R = C.Requests.exchange(0, std::memory_order_acq_rel);

  if (R & ReqTerminate) {
    if (C.StealDepth > 0 && C.Active != C.thread()) {
      // The request targets the *stealer* (this TCB's bound thread), but a
      // stolen thunk is executing. Abort the stolen evaluation (it shares
      // the stealer's fate, section 4.1.1) and re-arm the request so the
      // stealer itself dies at its next controller call.
      C.Requests.fetch_or(ReqTerminate, std::memory_order_release);
      throw StealTerminated{AnyValue()};
    }
    AnyValue Result;
    {
      // PendingTerminateValue is guarded by the thread's waiter lock.
      std::lock_guard<SpinLock> Guard(C.thread()->WaiterLock);
      Result = std::move(C.PendingTerminateValue);
    }
    STING_TRACE_EVENT(CancelDelivered, C.thread()->id(), 0);
    // Unwind (not exitCurrent): the target may be deep inside a blocking
    // primitive whose guards must retract waiter-queue registrations and
    // release held locks before the thread determines.
    throw ThreadTerminated{std::move(Result)};
  }

  if (R & ReqRaise) {
    std::exception_ptr E;
    {
      std::lock_guard<SpinLock> Guard(C.thread()->WaiterLock);
      E = std::move(C.PendingException);
      C.PendingException = nullptr;
    }
    if (E) {
      if (C.StealDepth > 0 && C.Active != C.thread()) {
        // The raise targets the stealer: re-arm so the stealer sees it
        // after the stolen frame unwinds, and abort the stolen thunk with
        // the same exception (shared fate, section 4.1.1).
        std::lock_guard<SpinLock> Guard(C.thread()->WaiterLock);
        C.PendingException = E;
        C.Requests.fetch_or(ReqRaise, std::memory_order_release);
      }
      STING_TRACE_EVENT(CancelDelivered, C.thread()->id(), 1);
      std::rethrow_exception(E);
    }
  }

  if (R & ReqSuspend) {
    std::uint64_t Quantum = C.SuspendQuantumNanos;
    if (Quantum != 0)
      C.vp()->vm().clock().scheduleResume(ThreadRef(C.thread()), Quantum);
    parkCurrent(ParkClass::User, "thread-suspend-request");
  }
}

} // namespace sting
