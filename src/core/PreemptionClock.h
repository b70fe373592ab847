//===- core/PreemptionClock.h - Preemption and timers -----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine's clock: raises per-VP preemption flags when a thread's
/// quantum expires, and resumes threads suspended with a quantum
/// ("(thread-suspend thread . quantum) ... the thread is resumed when the
/// period specified has elapsed", paper section 3.1).
///
/// Substitution note (DESIGN.md section 1): the paper preempts via timer
/// interrupts; here a watchdog OS thread raises flags that threads observe
/// at thread-controller entry points and explicit checkpoints. The paper's
/// protocol is likewise deferred — a preempted thread "enters the
/// controller", and TCB flag bits may defer the preemption (section 4.2.2).
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_PREEMPTIONCLOCK_H
#define STING_CORE_PREEMPTIONCLOCK_H

#include "core/Thread.h"

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace sting {

class VirtualMachine;

/// The per-machine watchdog thread.
class PreemptionClock {
public:
  PreemptionClock(VirtualMachine &Vm, std::uint64_t TickNanos,
                  bool PreemptionEnabled);
  ~PreemptionClock();

  PreemptionClock(const PreemptionClock &) = delete;
  PreemptionClock &operator=(const PreemptionClock &) = delete;

  /// Globally enables/disables quantum preemption (per-thread and per-TCB
  /// controls still apply on top).
  void setPreemptionEnabled(bool Enabled);
  bool preemptionEnabled() const {
    return Enabled.load(std::memory_order_relaxed);
  }

  /// Schedules \p T to be resumed (threadRun) \p DelayNanos from now if it
  /// is still suspended at that point.
  void scheduleResume(ThreadRef T, std::uint64_t DelayNanos);

  /// Arms a timed-park timeout for \p T, whose current park deadline
  /// (Tcb::TimedParkDeadline) is \p DeadlineNanos. Each thread keeps at
  /// most one queued entry, recorded in Thread::QueuedTimeout (0 = none):
  /// this pushes only when no entry is queued or the queued one is later
  /// than \p DeadlineNanos. An earlier queued entry covers the park: when
  /// it fires it clears the slot, and if the thread's park deadline has
  /// moved later, it is queued again at that deadline
  /// (ThreadController::deliverTimeout) instead of waking anything. So
  /// a thread that parks with ever-later deadlines keeps one entry on the
  /// clock, not one per park.
  ///
  /// No timeout is lost. The parker stores TimedParkDeadline and then
  /// reads the slot; the clock clears the slot (CAS) and then reads
  /// TimedParkDeadline. All four accesses are seq_cst, so in their single
  /// total order either the parker's read comes first — it sees the
  /// queued entry, whose later clear-then-read sees the new deadline and
  /// re-queues — or the clear comes first, and the parker sees the slot
  /// empty (or re-filled at a deadline no later than its own) and pushes
  /// its own entry if needed. Duplicate entries are harmless: an entry
  /// whose slot CAS fails was superseded and is dropped, and delivery
  /// validates the deadline and wakes kernel parks only.
  void scheduleTimeout(Thread &T, std::uint64_t DeadlineNanos);

  /// Number of timers currently armed (resumes + park timeouts); a
  /// heartbeat input for the stall watchdog — a machine with live threads,
  /// no ready work and no pending timers is wedged.
  std::size_t pendingTimers() const;

  /// Number of preempt flags raised so far (for tests/benches).
  std::uint64_t preemptsRaised() const {
    return Raised.load(std::memory_order_relaxed);
  }

  void stop();

private:
  void run();
  void fireDueTimers(std::uint64_t Now);
  void fireTimeout(Thread &T, std::uint64_t DeadlineNanos);
  void raisePreemptFlags(std::uint64_t Now);

  struct Timer {
    enum class Kind : std::uint8_t {
      Resume,        ///< threadRun the target (suspend quantum elapsed)
      KernelTimeout, ///< deliverTimeout to the target's parked TCB
    };
    std::uint64_t DeadlineNanos;
    ThreadRef Target;
    Kind What = Kind::Resume;
    bool operator>(const Timer &RHS) const {
      return DeadlineNanos > RHS.DeadlineNanos;
    }
  };

  /// Queues \p T and wakes the clock thread only when \p T becomes the
  /// earliest entry. That is enough: the clock computes its sleep from the
  /// earliest entry under TimerLock.
  void push(Timer T);

  VirtualMachine *Vm;
  std::uint64_t TickNanos;
  std::atomic<bool> Enabled;
  std::atomic<bool> Stopping{false};
  std::atomic<std::uint64_t> Raised{0};

  mutable std::mutex TimerLock;
  std::condition_variable TimerCv;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<Timer>> Timers;

  std::thread Os;
};

/// Scoped preemption disable for the current thread — the paper's
/// (without-preemption body) special form (section 4.2.2). A preemption
/// arriving inside the scope is deferred and honored on exit.
class WithoutPreemption {
public:
  WithoutPreemption();
  ~WithoutPreemption();

  WithoutPreemption(const WithoutPreemption &) = delete;
  WithoutPreemption &operator=(const WithoutPreemption &) = delete;
};

/// The paper's more general (without-interrupts body): defers preemption
/// *and* every asynchronous transition request (terminate, suspend,
/// cross-thread raise) until the scope exits.
class WithoutInterrupts {
public:
  WithoutInterrupts();
  ~WithoutInterrupts();

  WithoutInterrupts(const WithoutInterrupts &) = delete;
  WithoutInterrupts &operator=(const WithoutInterrupts &) = delete;

private:
  WithoutPreemption NoPreempt;
};

} // namespace sting

#endif // STING_CORE_PREEMPTIONCLOCK_H
