//===- core/Tcb.h - Thread control blocks -----------------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic context of an evaluating thread (paper section 3.1):
/// "Besides encapsulating thread storage (stacks and heaps), the TCB
/// contains information about the current state of the active thread,
/// requested state transitions on this thread made by other threads, the
/// current quantum for the thread, and the virtual processor on which the
/// thread is running."
///
/// TCBs are allocated from a per-VP cache and recycled when a thread
/// terminates, so a fork on a warm VP performs no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_TCB_H
#define STING_CORE_TCB_H

#include "arch/Context.h"
#include "core/Thread.h"
#include "support/IntrusiveList.h"

#include <atomic>
#include <cstdint>
#include <exception>

namespace sting {

class Stack;
class VirtualProcessor;
namespace gc {
class LocalHeap;
} // namespace gc

/// Hook tag for the VP's TCB cache list.
struct TcbCacheTag;

/// Requested-transition bits set by *other* threads; the owning thread
/// applies them at its next thread-controller call (paper section 3.1).
enum TcbRequest : std::uint32_t {
  ReqTerminate = 1u << 0, ///< thread-terminate on an evaluating thread
  ReqSuspend = 1u << 1,   ///< thread-suspend on an evaluating thread
  ReqRaise = 1u << 2,     ///< asynchronous cross-thread exception
};

/// Park protocol states for blocking an evaluating thread without losing
/// wakeups (the TCB equivalent of the paper's blocked/suspended states).
/// The User/Kernel split distinguishes thread-block / thread-suspend
/// (resumable by threadRun and timers) from waits inside runtime structures
/// (resumable only by the structure holding the TCB); encoding the class in
/// the state word lets wakers test it atomically.
enum class ParkState : std::uint32_t {
  Running,       ///< on a VP, or on a ready queue about to run
  ParkingUser,   ///< announced a user block, not yet off its stack
  ParkingKernel, ///< announced a kernel block, not yet off its stack
  ParkedUser,    ///< fully off-processor (thread-block / thread-suspend)
  ParkedKernel,  ///< fully off-processor (runtime-structure wait)
  WakeupPending, ///< woken while still Parking; scheduler re-enqueues
};

/// Why a TCB is parked; determines which operations may resume it.
enum class ParkClass : std::uint8_t {
  None,
  /// thread-block / thread-suspend: resumable by threadRun (and timers).
  User,
  /// Waiting inside a runtime structure (thread barrier, mutex queue);
  /// only that structure may wake it.
  Kernel,
};

/// A thread control block.
class Tcb final : public Schedulable, public ListNode<TcbCacheTag> {
public:
  Tcb() : Schedulable(Kind::Tcb) {}
  ~Tcb();

  Tcb(const Tcb &) = delete;
  Tcb &operator=(const Tcb &) = delete;

  /// The thread currently bound to this TCB (strong reference).
  Thread *thread() const { return Current.get(); }

  /// The thread whose code is executing on this TCB right now: normally
  /// thread(), but during a steal it is the *stolen* thread (section 4.1.1:
  /// the stolen thunk runs on the toucher's TCB).
  Thread *activeThread() const { return Active; }

  /// The VP the TCB last ran on. Relaxed: cross-thread readers (wakeup
  /// stats attribution on the clock thread) only need *a* recent value;
  /// readers that act on it (post-park enqueue) are ordered through the
  /// acquire/release protocol on Park.
  VirtualProcessor *vp() const { return Vp.load(std::memory_order_relaxed); }

  // --- Requested transitions -------------------------------------------

  void requestTerminate() {
    Requests.fetch_or(ReqTerminate, std::memory_order_release);
  }
  void requestSuspend(std::uint64_t QuantumNanos) {
    SuspendQuantumNanos = QuantumNanos;
    Requests.fetch_or(ReqSuspend, std::memory_order_release);
  }
  bool hasRequests() const {
    return Requests.load(std::memory_order_acquire) != 0;
  }

  // --- Interrupt masking (paper 4.2.2: without-interrupts) ---------------

  void disableInterrupts() { ++InterruptDisableDepth; }
  void enableInterrupts() {
    STING_DCHECK(InterruptDisableDepth > 0, "unbalanced enableInterrupts");
    --InterruptDisableDepth;
  }
  bool interruptsDisabled() const { return InterruptDisableDepth > 0; }

  // --- Preemption flags (paper section 4.2.2) ---------------------------

  /// Disables preemption; nested. While disabled, a preempt request sets
  /// the deferred bit instead (the paper's "another bit in the TCB state is
  /// set indicating that a subsequent preemption should not be ignored").
  void disablePreemption() { ++PreemptDisableDepth; }
  void enablePreemption() {
    STING_DCHECK(PreemptDisableDepth > 0, "unbalanced enablePreemption");
    --PreemptDisableDepth;
  }
  bool preemptionDisabled() const { return PreemptDisableDepth > 0; }

  /// Raised asynchronously by the preemption clock.
  std::atomic<bool> PreemptPending{false};
  bool DeferredPreempt = false;

  /// A user-class wakeup (threadRun / suspend timer) that arrived while
  /// the thread was still Running; consumed at the next user park, which
  /// it cancels. Closes the window between publishing a wakeup source
  /// (e.g. scheduleResume) and completing the park.
  std::atomic<bool> PendingUserWake{false};

  /// The kernel-class counterpart: a structure wakeup (ParkList::wakeOne,
  /// a barrier completion, a timeout) that landed while the TCB was
  /// transiently Running — e.g. between a spurious return from a park and
  /// the re-park. Consumed at the next kernel park, which it cancels, so
  /// every kernel park site must tolerate spurious returns by re-checking
  /// its condition in a loop (see ParkList::awaitUntil).
  std::atomic<bool> PendingKernelWake{false};

  /// Absolute deadline (monotonic nanos) of the current park; 0 while the
  /// park is untimed — including every user park. Written by the owner at
  /// each park entry, read by the machine clock: deliverTimeout drops a
  /// timer unless it matches, so a stale timer cannot wake a park with a
  /// different deadline, and timer delivery is additionally kernel-only
  /// (UnparkClass::KernelOnly), so it can never resume a user park
  /// (thread-suspend) early — at worst it produces a spurious return in a
  /// kernel park, which every kernel park site tolerates.
  std::atomic<std::uint64_t> TimedParkDeadline{0};

  // --- Barrier bookkeeping (paper section 4.3) --------------------------

  /// "Associated with a TCB structure is information on the number of
  /// threads in the group that must complete before the TCB's associated
  /// thread can resume."
  std::atomic<int> WaitCount{0};

  /// Per-thread GC context; created lazily on first managed allocation and
  /// recycled with the TCB (the paper's thread-local stack/heap areas).
  gc::LocalHeap *heap() { return Heap; }

  /// Creates the heap on first use (over the owning machine's shared older
  /// generation) and returns it.
  gc::LocalHeap &ensureHeap();

private:
  friend class Thread;
  friend class ThreadController;
  friend class VirtualProcessor;

  Context Ctx;
  Stack *Stk = nullptr;
  ThreadRef Current;
  Thread *Active = nullptr;
  /// Written by the dispatching scheduler (switchInto/runFresh) while the
  /// clock thread may concurrently read it for stats — hence atomic, but
  /// always accessed relaxed (see vp()).
  std::atomic<VirtualProcessor *> Vp{nullptr};

  void setVp(VirtualProcessor *P) { Vp.store(P, std::memory_order_relaxed); }

  std::atomic<std::uint32_t> Requests{0};
  std::uint64_t SuspendQuantumNanos = 0;
  /// Result delivered by a thread-terminate request on an evaluating
  /// thread; guarded by the thread's waiter lock.
  AnyValue PendingTerminateValue;
  /// Exception delivered by raiseIn; guarded by the thread's waiter lock.
  std::exception_ptr PendingException;
  int InterruptDisableDepth = 0;

  std::atomic<ParkState> Park{ParkState::Running};
  ParkClass ParkKind = ParkClass::None;
  const void *BlockedOn = nullptr; ///< the paper's "blocker", for debugging

  int PreemptDisableDepth = 0;
  std::uint64_t SliceStartNanos = 0;
  std::uint64_t QuantumNanos = 0;

  /// Depth of stolen thunks currently running on this TCB (section 4.1.1).
  int StealDepth = 0;

  gc::LocalHeap *Heap = nullptr;
};

} // namespace sting

#endif // STING_CORE_TCB_H
