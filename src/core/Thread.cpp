//===- core/Thread.cpp - First-class lightweight threads -------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/Thread.h"

#include "core/Current.h"
#include "core/Fluid.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/ThreadGroup.h"
#include "core/VirtualMachine.h"
#include "core/VirtualProcessor.h"
#include "obs/Flow.h"

#include <condition_variable>
#include <exception>
#include <mutex>

namespace sting {

const char *threadStateName(ThreadState S) {
  switch (S) {
  case ThreadState::Delayed:
    return "delayed";
  case ThreadState::Scheduled:
    return "scheduled";
  case ThreadState::Evaluating:
    return "evaluating";
  case ThreadState::Stolen:
    return "stolen";
  case ThreadState::Determined:
    return "determined";
  }
  STING_UNREACHABLE("bad ThreadState");
}

//===----------------------------------------------------------------------===//
// Schedulable
//===----------------------------------------------------------------------===//

Thread &Schedulable::asThread() {
  STING_DCHECK(isThread(), "Schedulable is not a Thread");
  return *static_cast<Thread *>(this);
}

Tcb &Schedulable::asTcb() {
  STING_DCHECK(isTcb(), "Schedulable is not a Tcb");
  return *static_cast<Tcb *>(this);
}

int Schedulable::schedPriority() const {
  if (TheKind == Kind::Thread)
    return static_cast<const Thread *>(this)->priority();
  const Thread *T = static_cast<const Tcb *>(this)->thread();
  return T ? T->priority() : 0;
}

std::uint64_t Schedulable::schedThreadId() const {
  if (TheKind == Kind::Thread)
    return static_cast<const Thread *>(this)->id();
  const Thread *T = static_cast<const Tcb *>(this)->thread();
  return T ? T->id() : 0;
}

//===----------------------------------------------------------------------===//
// Thread
//===----------------------------------------------------------------------===//

Thread::Thread(VirtualMachine &Vm, Thunk Code, const SpawnOptions &Opts)
    : Schedulable(Kind::Thread), Id(Vm.nextThreadId()), Vm(&Vm),
      Code(std::move(Code)) {
  Stealable.store(Opts.Stealable, std::memory_order_relaxed);
  Priority.store(Opts.Priority, std::memory_order_relaxed);
  QuantumNanos = Opts.QuantumNanos;

  // Capture the creator's dynamic environment (paper 3.1: the thread holds
  // references to the thunk's dynamic environment). O(1): chains share
  // structure. Works for external creators too (their environment is a
  // per-OS-thread slot).
  FluidEnv = detail::currentFluidEnv();

  if (!Opts.NoGenealogy) {
    Thread *Creator = currentThread();
    if (Creator && &Creator->vm() == &Vm)
      Parent = ThreadRef(Creator);
    if (Opts.Group)
      Group = IntrusivePtr<ThreadGroup>(Opts.Group);
    else if (Parent && Parent->group())
      Group = IntrusivePtr<ThreadGroup>(Parent->group());
    else
      Group = IntrusivePtr<ThreadGroup>(&Vm.rootGroup());
    Group->addMember(*this);
  }

  // Causal flow: continue the creator's flow when there is one (fork
  // extends the request the creator was serving), otherwise start a fresh
  // flow at this root. Every thread carries a nonzero id.
  if (obs::FlowId F = obs::currentFlowId())
    Flow.store(F, std::memory_order_relaxed);
  else
    Flow.store(obs::newFlowId(), std::memory_order_relaxed);

  Vm.stats().ThreadsCreated.fetch_add(1, std::memory_order_relaxed);
  if (VirtualProcessor *Vp = currentVp())
    Vp->stats().ThreadsCreated.inc();
  else
    // External (non-substrate) creations — main() entering via run() —
    // are charged to vp0 so creations still balance terminations.
    Vm.vp(0).stats().ThreadsCreated.incShared();
  STING_TRACE_EVENT(ThreadCreate, id(), 0);
}

Thread::~Thread() {
  STING_DCHECK(!Waiters, "destroying a thread that still has waiters");
  // A thread released before it was ever determined (a delayed thread
  // whose value nobody demanded) still belongs to its group.
  if (Group && !isDetermined())
    Group->removeMember(*this);
}

ThreadRef Thread::create(VirtualMachine &Vm, Thunk Code,
                         const SpawnOptions &Opts) {
  return ThreadRef::adopt(new Thread(Vm, std::move(Code), Opts));
}

const AnyValue &Thread::result() const {
  STING_CHECK(isDetermined(), "result() on an undetermined thread");
  return Result;
}

void Thread::rethrowIfFailed() const {
  if (!failed())
    return;
  std::rethrow_exception(result().as<std::exception_ptr>());
}

bool Thread::isUserBlocked() const {
  auto *Self = const_cast<Thread *>(this);
  std::lock_guard<SpinLock> Guard(Self->WaiterLock);
  if (state() != ThreadState::Evaluating || !Self->OwnedTcb)
    return false;
  ParkState S = Self->OwnedTcb->Park.load(std::memory_order_acquire);
  return S == ParkState::ParkedUser || S == ParkState::ParkingUser;
}

bool Thread::addWaiter(ThreadBarrier &TB) {
  std::lock_guard<SpinLock> Guard(WaiterLock);
  if (state() == ThreadState::Determined)
    return false;
  TB.Target = this;
  TB.Next = Waiters;
  Waiters = &TB;
  return true;
}

bool Thread::removeWaiter(ThreadBarrier &TB) {
  std::lock_guard<SpinLock> Guard(WaiterLock);
  for (ThreadBarrier **P = &Waiters; *P; P = &(*P)->Next) {
    if (*P != &TB)
      continue;
    *P = TB.Next;
    TB.Next = nullptr;
    return true;
  }
  return false;
}

/// External joiner's rendezvous, allocated in the joiner's frame.
namespace {
struct ExternalJoin {
  std::mutex M;
  std::condition_variable Cv;
  bool Done = false;
};
} // namespace

/// Wakes one waiter record. Runs under the determined thread's waiter
/// lock; must not touch \p TB after signaling its owner (the owner may pop
/// its stack frame as soon as it observes the wakeup — see the lifetime
/// protocol in Thread.h).
static void wakeWaiter(ThreadBarrier &TB) {
  switch (TB.Kind) {
  case ThreadBarrier::WaiterKind::TcbWaiter: {
    Tcb *C = TB.WaiterTcb;
    if (C->WaitCount.fetch_sub(1, std::memory_order_acq_rel) == 1)
      ThreadController::unparkTcb(*C, EnqueueReason::KernelBlock);
    return;
  }
  case ThreadBarrier::WaiterKind::ExternalWaiter: {
    auto *EJ = static_cast<ExternalJoin *>(TB.ExternalSignal);
    std::lock_guard<std::mutex> Guard(EJ->M);
    EJ->Done = true;
    EJ->Cv.notify_all();
    return;
  }
  }
  STING_UNREACHABLE("bad waiter kind");
}

void Thread::determine(AnyValue Value, bool ViaTerminate) {
  WaiterLock.lock();
  STING_DCHECK(state() != ThreadState::Determined, "double determine");
  Result = std::move(Value);
  Terminated.store(ViaTerminate, std::memory_order_relaxed);
  OwnedTcb = nullptr;
  State.store(ThreadState::Determined, std::memory_order_release);
  // Bookkeeping must be visible before any waiter wakes: joiners observe
  // stats and group membership immediately after their wakeup.
  Vm->stats().ThreadsDetermined.fetch_add(1, std::memory_order_relaxed);
  if (Group)
    Group->removeMember(*this);

  ThreadBarrier *Chain = Waiters;
  Waiters = nullptr;
  // Process the chain while still holding the lock: a waiter that finds its
  // record absent under this lock may rely on the wakeup side-effects being
  // complete (see Thread.h).
  while (Chain) {
    ThreadBarrier *Next = Chain->Next;
    wakeWaiter(*Chain);
    Chain = Next;
  }
  WaiterLock.unlock();

  Code.reset();
}

void Thread::join() {
  if (isDetermined())
    return;

  STING_CHECK(!onStingThread() || &currentThread()->vm() != Vm,
              "join() called from inside the machine; use threadWait");

  // Demanding a delayed, stealable thread from outside the machine
  // evaluates it inline, mirroring the controller's steal of section 4.1.1.
  if (state() == ThreadState::Delayed && isStealable() &&
      tryTransition(ThreadState::Delayed, ThreadState::Stolen)) {
    AnyValue V;
    bool DidFail = false;
    try {
      V = Code();
    } catch (...) {
      V = AnyValue(std::current_exception());
      DidFail = true;
    }
    Failed.store(DidFail, std::memory_order_relaxed);
    determine(std::move(V), /*ViaTerminate=*/false);
    return;
  }

  ExternalJoin EJ;
  ThreadBarrier TB;
  TB.Kind = ThreadBarrier::WaiterKind::ExternalWaiter;
  TB.ExternalSignal = &EJ;
  if (!addWaiter(TB))
    return; // determined in the meantime

  std::unique_lock<std::mutex> Lock(EJ.M);
  EJ.Cv.wait(Lock, [&] { return EJ.Done; });
}

bool Thread::joinFor(Deadline D) {
  if (D.isNever()) {
    join();
    return true;
  }
  if (isDetermined())
    return true;

  STING_CHECK(!onStingThread() || &currentThread()->vm() != Vm,
              "joinFor() called from inside the machine; use threadWaitFor");

  ExternalJoin EJ;
  ThreadBarrier TB;
  TB.Kind = ThreadBarrier::WaiterKind::ExternalWaiter;
  TB.ExternalSignal = &EJ;
  if (!addWaiter(TB))
    return true; // determined in the meantime

  {
    std::unique_lock<std::mutex> Lock(EJ.M);
    while (!EJ.Done) {
      std::uint64_t Rem = D.remainingNanos();
      if (Rem == 0)
        break;
      EJ.Cv.wait_for(Lock, std::chrono::nanoseconds(Rem));
    }
    if (EJ.Done)
      return true;
  }

  // Timed out: retract the record so the stack frame can pop. If the
  // record is already gone, determine() is (or was) signalling it — wait
  // out the handshake, then report success.
  if (removeWaiter(TB))
    return false;
  std::unique_lock<std::mutex> Lock(EJ.M);
  EJ.Cv.wait(Lock, [&] { return EJ.Done; });
  return true;
}

} // namespace sting
