//===- core/ThreadController.h - The thread controller ----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread controller (paper section 3.1): the synchronous
/// state-transition function on threads, exposed as the set of procedures
/// users manipulate threads with. The controller allocates no storage, so
/// "a TC call never triggers garbage collection": waiter records live on
/// the waiting thread's stack, queue links are intrusive, and TCBs come
/// from per-VP caches.
///
/// Paper-to-API mapping:
///   (fork-thread expr vp)        forkThread
///   (create-thread expr)         createThread
///   (thread-run thread [vp])     threadRun
///   (thread-wait thread)         threadWait
///   (thread-value thread)        threadValue
///   (thread-block thread ...)    threadBlock / blockCurrent
///   (thread-suspend thread . q)  threadSuspend
///   (thread-terminate thread .v) threadTerminate
///   (yield-processor)            yieldProcessor
///   (current-thread)             sting::currentThread (core/Current.h)
///   block-on-group (Fig. 5)      blockOnGroup
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_THREADCONTROLLER_H
#define STING_CORE_THREADCONTROLLER_H

#include "core/PolicyManager.h"
#include "core/Tcb.h"
#include "core/Thread.h"
#include "support/Deadline.h"

#include <span>

namespace sting {

class VirtualProcessor;

/// The thread controller. All members are static: the controller is a
/// state-transition function, not a data structure; its per-VP state lives
/// in the VirtualProcessor it executes on.
class ThreadController {
public:
  // --- Creation and scheduling -------------------------------------------

  /// Creates a thread evaluating \p Code and schedules it (fork-thread).
  /// Must be called from a sting thread or with \p Opts.Vp set; from plain
  /// OS threads use VirtualMachine::fork.
  static ThreadRef forkThread(Thread::Thunk Code,
                              const SpawnOptions &Opts = {});

  /// Creates a delayed thread (create-thread).
  static ThreadRef createThread(Thread::Thunk Code,
                                const SpawnOptions &Opts = {});

  /// Inserts a delayed, blocked or suspended thread into the ready queue of
  /// \p Vp's policy manager (thread-run). Null \p Vp picks via the current
  /// policy. No-op for threads that are already runnable or determined.
  static void threadRun(Thread &T, VirtualProcessor *Vp = nullptr);

  // --- Synchronization ----------------------------------------------------

  /// Blocks the calling thread until \p T is determined (thread-wait).
  /// If \p T is delayed or scheduled and stealable, evaluates its thunk
  /// inline on the caller's TCB instead of blocking — the paper's stealing
  /// optimization (section 4.1.1).
  static void threadWait(Thread &T);

  /// Timed thread-wait. \returns true once \p T is determined, false if
  /// \p D expired first (the wait leaves no residue on \p T's waiter
  /// chain). Callable from external OS threads, where it maps to a timed
  /// join.
  static bool threadWaitFor(Thread &T, Deadline D);

  /// thread-wait followed by reading the result (thread-value).
  static const AnyValue &threadValue(Thread &T);

  /// Blocks the calling thread; \p Blocker is "the condition on which the
  /// thread is blocking" (recorded for debugging). Resumed by threadRun.
  static void threadBlock(const void *Blocker = nullptr);

  /// Suspends the calling thread; with \p QuantumNanos != 0 the machine
  /// clock resumes it after the period elapses, "otherwise the thread is
  /// suspended indefinitely until explicitly resumed using thread-run".
  static void threadSuspend(std::uint64_t QuantumNanos = 0);

  /// Requests that \p T suspend (honored at T's next controller call).
  static void threadSuspend(Thread &T, std::uint64_t QuantumNanos);

  /// Requests that \p T terminate with \p Result (thread-terminate).
  /// Delayed/scheduled targets are determined immediately; evaluating
  /// targets observe the request at their next controller call. Never
  /// blocks. \returns true if the request was accepted (false if \p T was
  /// already determined or is being stolen).
  static bool threadTerminate(Thread &T, AnyValue Result = AnyValue());

  /// Terminates the calling thread with \p Result; never returns.
  [[noreturn]] static void terminateSelf(AnyValue Result = AnyValue());

  /// Raises \p E asynchronously in \p T — the paper's inter-process
  /// exceptions (section 3.1). An evaluating target observes the
  /// exception at its next controller call; it unwinds the target's
  /// frames and is catchable there, failing the thread if uncaught.
  /// Delayed/scheduled targets fail immediately without running.
  /// \returns true if the exception was delivered or armed.
  static bool raiseIn(Thread &T, std::exception_ptr E);

  /// Relinquishes the VP; the thread goes to its policy's ready queue
  /// (yield-processor).
  static void yieldProcessor();

  /// A preemption safe point: applies pending preemption and requested
  /// transitions. Long-running loops should call this (the paper delivers
  /// preemption at TC entries; see DESIGN.md substitution table).
  static void checkpoint();

  // --- Group synchronization (paper Fig. 5, section 4.3) ------------------

  /// Blocks the calling thread until \p Count of the \p Group threads are
  /// determined. Count == 1 yields wait-for-one; Count == Group.size()
  /// yields wait-for-all. Thread-barrier records are allocated on the
  /// caller's stack and fully deregistered before returning.
  static void blockOnGroup(std::size_t Count,
                           std::span<Thread *const> Group);

  /// Timed blockOnGroup. Registration is retracted on every exit path
  /// (completion, timeout, async terminate/raise unwinding through the
  /// park), so the caller's stack records never outlive the call.
  static WaitResult blockOnGroupUntil(std::size_t Count,
                                      std::span<Thread *const> Group,
                                      Deadline D);

  // --- Building blocks for higher-level structures (sync/, tuple/) --------

  /// Parks the calling thread. \p Class selects who may resume it
  /// (ParkClass::User: threadRun / timers; ParkClass::Kernel: only the
  /// structure that holds it). The caller must have published its TCB to
  /// the waking side *before* calling; the park protocol tolerates wakeups
  /// that arrive between publication and the final context switch.
  ///
  /// With a real \p D the machine clock delivers a wakeup once the
  /// deadline passes. The return is then indistinguishable from any other
  /// wake — kernel park sites re-check their condition (and the deadline)
  /// in a loop, which also makes them tolerant of spurious returns; every
  /// kernel park may return spuriously (chaos injection exploits this).
  static void parkCurrent(ParkClass Class, const void *Blocker,
                          Deadline D = Deadline::never());

  /// Resumes a parked TCB; the counterpart of parkCurrent, used by wakeup
  /// paths inside runtime structures. Safe against the Parking window.
  /// \returns true if this call delivered the wakeup.
  static bool unparkTcb(Tcb &C, EnqueueReason Reason);

  /// Like unparkTcb but only resumes user-class parks (thread-block /
  /// thread-suspend); the threadRun path.
  static bool unparkTcbIfUser(Tcb &C, EnqueueReason Reason);

  /// Kernel wake addressed by *thread identity*: re-validates under \p T's
  /// waiter lock that the thread is still evaluating and bound to a TCB,
  /// then delivers a kernel-only unpark. Wake paths that unlink a waiter
  /// under a structure lock but unpark after releasing it must use this:
  /// between the unlink and the unpark, the waiter may be woken
  /// independently (a timeout timer), finish its wait, terminate, and have
  /// its TCB recycled — a raw Tcb* dangles there, a ThreadRef cannot. The
  /// kernel-only constraint keeps a late delivery away from any user park
  /// the target may have entered since; at worst it spuriously returns a
  /// later kernel park, which every kernel park site tolerates.
  static bool unparkThreadKernel(Thread &T, EnqueueReason Reason);

  /// Runs the thread bound to \p C to completion and exits. The VP's entry
  /// trampoline for fresh TCBs; never returns. Internal.
  [[noreturn]] static void runToCompletion(Tcb &C);

  /// Attempts to steal \p T: transitions Delayed/Scheduled -> Stolen and
  /// evaluates the thunk on the caller's TCB. \returns true if this call
  /// performed the steal (T is then determined).
  static bool trySteal(Thread &T);

  /// Timeout delivery from the machine clock: wakes \p T's TCB if it is
  /// still in a timed park whose deadline is \p DeadlineNanos. Delivery is
  /// kernel-only: a stale timer that slips past the deadline check can
  /// only produce a spurious return in a kernel park (tolerated by
  /// construction), never resume a user park early. \returns the TCB's
  /// park deadline if it is later than \p DeadlineNanos — the clock then
  /// re-queues the thread's timeout there — and 0 otherwise. Internal —
  /// PreemptionClock only.
  static std::uint64_t deliverTimeout(Thread &T, std::uint64_t DeadlineNanos);

private:
  friend class VirtualProcessor;

  /// Which park classes a wakeup may affect.
  enum class UnparkClass : std::uint8_t {
    Any,        ///< structure wakeups (unparkTcb)
    UserOnly,   ///< threadRun / suspend-resume timers (unparkTcbIfUser)
    KernelOnly, ///< park-timeout delivery; must never touch a user park
  };

  /// Shared unpark machinery; \p Constraint restricts which park classes
  /// this wakeup is allowed to resume.
  static bool unparkImpl(Tcb &C, EnqueueReason Reason, UnparkClass Constraint);

  /// Applies requested transitions / preemption; called at controller
  /// entries. May not return (terminate) or may park (suspend).
  static void applyRequests(Tcb &C);

  /// Runs \p T's thunk to completion on the current TCB (steal execution).
  static void runStolen(Thread &T);

  /// Common exit: determine the current thread and leave the TCB.
  [[noreturn]] static void exitCurrent(AnyValue Result, bool ViaTerminate);
};

} // namespace sting

#endif // STING_CORE_THREADCONTROLLER_H
