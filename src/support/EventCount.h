//===- support/EventCount.h - Waiter-counting event count -------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An event count whose notify side is one fence and one atomic load when
/// nobody waits — the idle protocol of the lock-free scheduling fast path
/// (DESIGN.md section 8). A waiter count is folded into the same atomic
/// word as the epoch, and a sleeper sleeps on a descriptor of its own (an
/// eventfd) that the notifier writes, so an idle physical processor can
/// sleep in epoll_wait on a set that also holds its I/O descriptors:
///
///   waiter:                          notifier:
///     Key K = Ec.prepareWait();        publish work (any atomic store)
///     if (workAvailable())             Ec.notifyAll();  // fence + load
///       Ec.cancelWait();               //   when no waiter is registered
///     else if (Ec.commitSleep(K, Fd)) {
///       sleep until Fd is readable (poll, epoll_wait, ...);
///       if (Ec.endSleep(Fd)) drain Fd;
///     }
///
/// Correctness argument (the eventcount handshake, restated for a
/// descriptor). The notifier runs: publish P; seq_cst fence Fn; load L of
/// State. The waiter runs: RMW R on State (prepareWait); seq_cst fence
/// Fw; re-check C. Suppose L missed R's registration and C missed P. Then
/// L is coherence-ordered before R, so Fn precedes Fw in the fences'
/// single total order; and C is coherence-ordered before P, so Fw
/// precedes Fn ([atomics.order]). That is a contradiction, so at least
/// one side sees the other: either the re-check finds the work and the
/// waiter cancels, or the notifier sees a non-zero waiter count. The
/// fences make this hold whatever order P and C use; without Fn a release
/// publication could pass L (x86 reorders a store with a later load).
///
/// A notifier that sees a waiter bumps the epoch under Lock and writes
/// every listed sleeper's descriptor. The waiter lists its descriptor in
/// commitSleep under the same Lock, after checking the epoch: if the
/// notifier's critical section came first the waiter sees the new epoch
/// and does not sleep; if it came second the waiter's descriptor is
/// written. An eventfd stays readable until it is read, so a write that
/// lands before the waiter reaches its sleep still ends that sleep at
/// once. Writes happen only under Lock and only to listed descriptors,
/// and endSleep unlists under Lock, so no write can land after endSleep
/// returns: the drain it asks for leaves no stale token behind.
///
/// ThreadSanitizer builds (GCC rejects standalone fences under
/// -fsanitize=thread) drop both fences and make the notifier's load a
/// seq_cst RMW on State. Every write to State is an RMW, so if the
/// notifier's RMW comes first in State's modification order the waiter's
/// prepareWait reads from its release sequence and synchronizes with it:
/// the publication happens before the re-check. Otherwise the notifier's
/// RMW reads the registration. Normal builds keep the fence, which costs
/// no shared-line write on the notify fast path.
///
//===----------------------------------------------------------------------===//

#ifndef STING_SUPPORT_EVENTCOUNT_H
#define STING_SUPPORT_EVENTCOUNT_H

#include "support/SpinLock.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#if defined(__SANITIZE_THREAD__)
#define STING_EVENTCOUNT_NO_FENCES 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define STING_EVENTCOUNT_NO_FENCES 1
#endif
#endif

namespace sting {

/// A monotone event count with a waiter-count-gated notify fast path.
/// State packs (epoch << 32) | waiters so one atomic read answers both
/// "did anything happen" and "is anyone asleep".
class EventCount {
public:
  using Key = std::uint32_t;

  /// Registers this thread as a prospective waiter and \returns the epoch
  /// to pass to commitSleep. The caller must re-check its wait condition
  /// after this call and then either cancelWait() or commitSleep().
  Key prepareWait() {
    std::uint64_t Prev = State.fetch_add(1, std::memory_order_seq_cst);
#ifndef STING_EVENTCOUNT_NO_FENCES
    std::atomic_thread_fence(std::memory_order_seq_cst); // Fw
#endif
    return static_cast<Key>(Prev >> EpochShift);
  }

  /// Abandons a prepared wait (the re-check found work).
  void cancelWait() { State.fetch_sub(1, std::memory_order_seq_cst); }

  /// Lists \p WakeFd (an eventfd) as a sleeper for epoch \p K. \returns
  /// false if a notification already advanced the epoch: the caller must
  /// not sleep, and its registration is consumed. On true, the caller
  /// sleeps until \p WakeFd is readable (it may also wake for its own
  /// reasons) and then calls endSleep.
  bool commitSleep(Key K, int WakeFd) {
    {
      std::lock_guard<SpinLock> Guard(Lock);
      if (static_cast<Key>(State.load(std::memory_order_relaxed) >>
                           EpochShift) == K) {
        Sleepers.push_back(WakeFd);
        return true;
      }
    }
    State.fetch_sub(1, std::memory_order_seq_cst);
    return false;
  }

  /// Ends a sleep begun by commitSleep and consumes the registration.
  /// \returns true if a notifier wrote \p WakeFd, which the caller must
  /// then drain before its next sleep.
  bool endSleep(int WakeFd) {
    bool Written;
    {
      std::lock_guard<SpinLock> Guard(Lock);
      auto It = std::find(Sleepers.begin(), Sleepers.end(), WakeFd);
      Written = It == Sleepers.end();
      if (!Written) {
        *It = Sleepers.back();
        Sleepers.pop_back();
      }
    }
    State.fetch_sub(1, std::memory_order_seq_cst);
    return Written;
  }

  /// Wakes every listed sleeper. One fence and one uncontended load when
  /// no waiter is registered — the enqueue-path common case.
  void notifyAll() {
#ifdef STING_EVENTCOUNT_NO_FENCES
    if ((State.fetch_add(0, std::memory_order_seq_cst) & WaiterMask) == 0)
      return;
#else
    std::atomic_thread_fence(std::memory_order_seq_cst); // Fn
    if ((State.load(std::memory_order_seq_cst) & WaiterMask) == 0)
      return;
#endif
    std::lock_guard<SpinLock> Guard(Lock);
    State.fetch_add(std::uint64_t(1) << EpochShift,
                    std::memory_order_seq_cst);
    for (int Fd : Sleepers)
      writeWake(Fd);
    Sleepers.clear();
  }

  /// Registered waiters right now (diagnostics; racy by nature).
  std::uint32_t waiters() const {
    return static_cast<std::uint32_t>(
        State.load(std::memory_order_relaxed) & WaiterMask);
  }

  /// Adds one to eventfd \p Fd (a sleeper's wake descriptor).
  static void writeWake(int Fd);
  /// Resets eventfd \p Fd after a wake.
  static void drainWake(int Fd);

private:
  static constexpr unsigned EpochShift = 32;
  static constexpr std::uint64_t WaiterMask = 0xffffffffull;

  std::atomic<std::uint64_t> State{0};
  SpinLock Lock;
  /// Wake descriptors of committed sleepers not yet written; guarded by
  /// Lock. A notification writes and clears them all.
  std::vector<int> Sleepers;
};

} // namespace sting

#endif // STING_SUPPORT_EVENTCOUNT_H
