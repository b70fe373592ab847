//===- io/IoService.cpp - Non-blocking I/O for threads -----------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "io/IoService.h"

#include "core/Current.h"
#include "core/PhysicalProcessor.h"
#include "core/Tcb.h"
#include "core/ThreadController.h"
#include "core/VirtualProcessor.h"
#include "support/Clock.h"

#include <cerrno>
#include <mutex>

#include <fcntl.h>
#include <sys/epoll.h>
#include <unistd.h>

namespace sting {

namespace {
std::atomic<std::uint32_t> NextServiceId{1}; // 0 tags a PP's wake fd
} // namespace

IoService::IoService()
    : Id(NextServiceId.fetch_add(1, std::memory_order_relaxed)) {}

IoService::~IoService() {
  Stopping.store(true, std::memory_order_release);
  // Waiters may still be parked (their descriptors never became ready).
  // Unpark every parked one until all awaitUntil frames have exited: a
  // woken waiter re-checks Stopping before re-parking and retracts its own
  // record, so repeated unparks are harmless and the spin below cannot
  // strand a thread that raced its registration with the shutdown flag.
  while (ActiveAwaits.load(std::memory_order_acquire) != 0) {
    {
      std::lock_guard<SpinLock> Guard(Lock);
      for (auto &[Fd, List] : Waiters)
        for (Waiter &W : List)
          if (W.Parked)
            ThreadController::unparkTcb(*W.Parked, EnqueueReason::KernelBlock);
    }
    spinForNanos(1000);
  }
  // Only callbacks are left. Detaching waits out any ready() in flight on
  // a PP, and drops events still armed under this service's id. Pending
  // onReadable callbacks are dropped — the service that would have forked
  // them is gone.
  for (const IntrusivePtr<PollSet> &Set : Sets)
    Set->detach(Id);
  for (auto &[Fd, List] : Waiters)
    for (Waiter &W : List)
      W.Set->addArmed(-1);
}

std::size_t IoService::waiterCount() const {
  std::lock_guard<SpinLock> Guard(Lock);
  std::size_t N = 0;
  for (const auto &[Fd, List] : Waiters)
    N += List.size();
  return N;
}

bool IoService::makeNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  return fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

void IoService::arm(int Fd, PollSet &Set) {
  std::uint32_t Events = 0;
  if (auto It = Waiters.find(Fd); It != Waiters.end())
    for (const Waiter &W : It->second)
      if (W.Set == &Set)
        Events |= W.Event == IoEvent::Readable ? EPOLLIN : EPOLLOUT;
  if (Events != 0)
    Set.arm(Id, Fd, Events);
  else
    Set.unclaim(Id, Fd);
}

void IoService::addWaiter(int Fd, Waiter W) {
  // A VP is pinned to one PP for life, so the PP running this thread is
  // the one that will run it again: arm the descriptor in its set.
  PollSet &Set = currentVp()->physicalProcessor()->pollSet();
  W.Set = &Set;
  // Attach outside Lock: the PP holds the set's client lock while it runs
  // ready(), which takes Lock.
  const bool New = Set.attach(Id, *this);
  std::lock_guard<SpinLock> Guard(Lock);
  if (New)
    Sets.emplace_back(&Set);
  Waiters[Fd].push_back(std::move(W));
  Set.addArmed(1);
  arm(Fd, Set);
}

void IoService::await(int Fd, IoEvent Event) {
  awaitUntil(Fd, Event, Deadline::never());
}

WaitResult IoService::awaitUntil(int Fd, IoEvent Event, Deadline D) {
  STING_CHECK(onStingThread(), "IoService::await outside a sting thread");
  Tcb &Self = *currentTcb();
  // Visible to the destructor before our record is: a teardown that starts
  // now will keep unparking until this frame has left.
  ActiveAwaits.fetch_add(1, std::memory_order_acq_rel);
  struct AwaitScope {
    std::atomic<std::size_t> &Counter;
    ~AwaitScope() { Counter.fetch_sub(1, std::memory_order_acq_rel); }
  } Scope{ActiveAwaits};
  if (Stopping.load(std::memory_order_acquire))
    return WaitResult::Timeout;
  IoWaitState State;
  {
    Waiter W;
    W.Parked = &Self;
    W.State = &State;
    W.Event = Event;
    addWaiter(Fd, std::move(W));
  }
  Stats.Waits.fetch_add(1, std::memory_order_relaxed);

  // Retracts this wait's record. \returns false if a PP already extracted
  // it (a wake is in flight or landed).
  auto Retract = [&] {
    std::lock_guard<SpinLock> Guard(Lock);
    auto It = Waiters.find(Fd);
    if (It == Waiters.end())
      return false;
    auto &List = It->second;
    for (std::size_t J = 0; J != List.size(); ++J) {
      if (List[J].State != &State)
        continue;
      PollSet &Set = *List[J].Set;
      Set.addArmed(-1);
      List.erase(List.begin() + static_cast<std::ptrdiff_t>(J));
      if (List.empty())
        Waiters.erase(It);
      arm(Fd, Set); // narrow the interest, or give up the claim
      return true;
    }
    return false;
  };
  // Once a PP has our record, its unpark must land before the
  // stack-resident State dies. Pure spin: a controller call here could
  // itself throw and abandon the record mid-store.
  auto DrainInFlightWake = [&] {
    while (!State.UnparkDone.load(std::memory_order_acquire))
      spinForNanos(100);
  };

  try {
    // Ready is checked *before* the deadline each pass, so a readiness
    // notification racing the deadline is never reported as a timeout.
    // Shutdown is checked like an expired deadline: the destructor keeps
    // unparking registered waiters, so this loop always gets a pass in
    // which to retract and leave.
    while (!State.Ready.load(std::memory_order_acquire)) {
      if (D.expired() || Stopping.load(std::memory_order_acquire)) {
        if (Retract())
          return WaitResult::Timeout;
        DrainInFlightWake(); // the wake won the race
        return WaitResult::Ready;
      }
      ThreadController::parkCurrent(ParkClass::Kernel, this, D);
    }
  } catch (...) {
    // Async cancellation mid-wait: leave no record behind; if a PP beat
    // us to it, absorb its unpark before unwinding further.
    if (!Retract())
      DrainInFlightWake();
    throw;
  }
  DrainInFlightWake();
  return WaitResult::Ready;
}

void IoService::onReadable(int Fd, UniqueFunction<void()> Callback) {
  STING_CHECK(onStingThread(),
              "IoService::onReadable outside a sting thread");
  Waiter W;
  W.Callback = std::move(Callback);
  W.Vp = currentVp();
  W.Event = IoEvent::Readable;
  addWaiter(Fd, std::move(W));
}

void IoService::ready(PollSet &Set, int Fd, std::uint32_t Events) {
  const bool Readable = Events & (EPOLLIN | EPOLLHUP | EPOLLERR);
  const bool Writable = Events & (EPOLLOUT | EPOLLHUP | EPOLLERR);
  // Wakes under Lock, as the destructor does; the set's client lock, held
  // by our caller, keeps the service alive.
  std::lock_guard<SpinLock> Guard(Lock);
  auto It = Waiters.find(Fd);
  if (It == Waiters.end())
    return;
  auto &List = It->second;
  for (std::size_t J = 0; J != List.size();) {
    Waiter &W = List[J];
    if (W.Set != &Set ||
        !(W.Event == IoEvent::Readable ? Readable : Writable)) {
      ++J;
      continue;
    }
    if (W.Parked) {
      Stats.Wakeups.fetch_add(1, std::memory_order_relaxed);
      W.State->Ready.store(true, std::memory_order_release);
      ThreadController::unparkTcb(*W.Parked, EnqueueReason::KernelBlock);
      // After this store the waiter may return and destroy its State.
      W.State->UnparkDone.store(true, std::memory_order_release);
    } else {
      Stats.Callbacks.fetch_add(1, std::memory_order_relaxed);
      SpawnOptions Opts;
      Opts.Vp = W.Vp;
      ThreadController::forkThread(
          [Cb = std::move(W.Callback)]() mutable -> AnyValue {
            Cb();
            return AnyValue();
          },
          Opts);
    }
    Set.addArmed(-1);
    List.erase(List.begin() + static_cast<std::ptrdiff_t>(J));
  }
  if (List.empty())
    Waiters.erase(It);
  arm(Fd, Set); // re-arm for waiters left here, or give up the claim
}

ssize_t IoService::read(int Fd, void *Buf, std::size_t N) {
  for (;;) {
    ssize_t Rc = ::read(Fd, Buf, N);
    if (Rc >= 0)
      return Rc;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    // Timeout with no deadline means the service is stopping; ask the
    // await, not the service, which may be gone once the await returns.
    if (awaitUntil(Fd, IoEvent::Readable, Deadline::never()) ==
        WaitResult::Timeout) {
      errno = ECANCELED;
      return -1;
    }
  }
}

ssize_t IoService::write(int Fd, const void *Buf, std::size_t N) {
  for (;;) {
    ssize_t Rc = ::write(Fd, Buf, N);
    if (Rc >= 0)
      return Rc;
    if (errno != EAGAIN && errno != EWOULDBLOCK)
      return -1;
    // Timeout with no deadline means the service is stopping; ask the
    // await, not the service, which may be gone once the await returns.
    if (awaitUntil(Fd, IoEvent::Writable, Deadline::never()) ==
        WaitResult::Timeout) {
      errno = ECANCELED;
      return -1;
    }
  }
}

bool IoService::writeAll(int Fd, const void *Buf, std::size_t N) {
  const char *P = static_cast<const char *>(Buf);
  std::size_t Left = N;
  while (Left != 0) {
    ssize_t Rc = write(Fd, P, Left);
    if (Rc <= 0)
      return false;
    P += Rc;
    Left -= static_cast<std::size_t>(Rc);
  }
  return true;
}

} // namespace sting
