//===- core/PollSet.h - A physical processor's epoll set --------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one blocking primitive of a physical processor (DESIGN.md section
/// 8.3): an epoll set holding the PP's wake eventfd and every descriptor
/// an I/O client armed for a thread running on one of the PP's VPs. An
/// idle PP sleeps in wait() on this set, so the kernel wakes the PP that
/// will run the waiter, and that PP hands the readiness to the client that
/// armed it (paper section 6: non-blocking I/O "with call-back").
///
/// Reference counted: a client that armed descriptors here keeps the set
/// and its epoll descriptor alive past the machine, so the machine and an
/// IoService can be torn down in either order without touching a closed
/// (or reused) descriptor number.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLLSET_H
#define STING_CORE_POLLSET_H

#include "support/IntrusivePtr.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

namespace sting {

/// An epoll set owned by one physical processor.
class PollSet : public RefCounted<PollSet> {
public:
  /// Receives readiness for descriptors it armed in a set.
  class Client {
  public:
    /// \p Fd, armed by this client in \p Set, reported \p Events (epoll
    /// bits). Runs on the set's physical processor, outside any VP.
    virtual void ready(PollSet &Set, int Fd, std::uint32_t Events) = 0;

  protected:
    ~Client() = default;
  };

  static IntrusivePtr<PollSet> create() {
    return IntrusivePtr<PollSet>::adopt(new PollSet());
  }

  PollSet(const PollSet &) = delete;
  PollSet &operator=(const PollSet &) = delete;

  /// The eventfd an idle PP lists with the machine's event count.
  int wakeFd() const { return WakeFd; }

  /// Routes events tagged \p Id to \p C from now on. Idempotent; \returns
  /// true if \p C was not attached before. Ids are process-unique and
  /// never 0 (the wake descriptor's tag).
  bool attach(std::uint32_t Id, Client &C);

  /// Stops routing \p Id and drops its claims. On return no ready() call
  /// for it is running or will start; events still armed under \p Id are
  /// dropped.
  void detach(std::uint32_t Id);

  /// Arms one-shot interest in \p Fd for \p Events (EPOLLIN/EPOLLOUT) on
  /// behalf of client \p Id, replacing any earlier interest in \p Fd, and
  /// claims \p Fd for \p Id until unclaim(). A set holds one tag per
  /// descriptor, so a claim held by another client is a fatal error —
  /// unless the descriptor was closed since (epoll dropped it), in which
  /// case the claim passes to \p Id.
  void arm(std::uint32_t Id, int Fd, std::uint32_t Events);

  /// Gives up \p Id's claim on \p Fd (its client has no waiter left on
  /// \p Fd here). A no-op if another client holds the claim.
  void unclaim(std::uint32_t Id, int Fd);

  /// Waits up to \p TimeoutMs (-1: until a descriptor or the wake fd is
  /// ready; 0: poll) and hands every ready descriptor to its client. The
  /// wake fd is left for the sleeper to drain (EventCount::endSleep).
  void wait(int TimeoutMs);

  /// Waiter records clients currently hold on this set. A busy PP polls
  /// only while it is non-zero.
  void addArmed(int Delta) {
    Armed.fetch_add(Delta, std::memory_order_relaxed);
  }
  bool hasArmed() const { return Armed.load(std::memory_order_relaxed) > 0; }

private:
  friend class RefCounted<PollSet>;
  PollSet();
  ~PollSet();

  int EpollFd = -1;
  int WakeFd = -1;
  std::atomic<int> Armed{0};
  /// Attached clients by id; guarded by ClientLock, which dispatch holds
  /// across each ready() call.
  SpinLock ClientLock;
  std::vector<std::pair<std::uint32_t, Client *>> Clients;
  /// Id of the client holding each descriptor's claim (0: none), indexed
  /// by descriptor number; guarded by ClaimLock.
  SpinLock ClaimLock;
  std::vector<std::uint32_t> Claims;
};

} // namespace sting

#endif // STING_CORE_POLLSET_H
