//===- tests/support/EventCountTest.cpp ------------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The eventcount is the idle protocol of the scheduling fast path
// (DESIGN.md section 8); the stress test here drives the exact handshake
// the physical processors use — publish work, notifyAll — against waiters
// doing prepare / re-check / commitSleep on an eventfd of their own, and
// fails by hanging if a wakeup is ever lost.
//
//===----------------------------------------------------------------------===//

#include "support/EventCount.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cerrno>
#include <thread>

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace {

using sting::EventCount;

/// A sleeper's wake descriptor, as each physical processor owns one.
struct WakeFd {
  int Fd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  WakeFd() { EXPECT_GE(Fd, 0); }
  ~WakeFd() { close(Fd); }
};

bool readable(int Fd, int TimeoutMs = 0) {
  pollfd P{Fd, POLLIN, 0};
  int N;
  while ((N = ::poll(&P, 1, TimeoutMs)) < 0 && errno == EINTR) {
  }
  return N == 1;
}

/// A physical processor's sleep, with poll() standing in for epoll_wait:
/// commit, wait until \p Fd is readable (or \p TimeoutMs passes; -1 =
/// never), end the sleep and drain if written. \returns endSleep's answer,
/// or false if commitSleep refused.
bool sleepOn(EventCount &Ec, EventCount::Key K, int Fd, int TimeoutMs = -1) {
  if (!Ec.commitSleep(K, Fd))
    return false;
  readable(Fd, TimeoutMs);
  bool Written = Ec.endSleep(Fd);
  if (Written)
    EventCount::drainWake(Fd);
  return Written;
}

TEST(EventCountTest, NotifyWithNoWaitersIsANoOp) {
  EventCount Ec;
  Ec.notifyAll(); // must not touch the mutex path or block
  EXPECT_EQ(Ec.waiters(), 0u);
}

TEST(EventCountTest, PrepareAndCancelBalanceTheWaiterCount) {
  EventCount Ec;
  auto K = Ec.prepareWait();
  (void)K;
  EXPECT_EQ(Ec.waiters(), 1u);
  Ec.cancelWait();
  EXPECT_EQ(Ec.waiters(), 0u);
}

TEST(EventCountTest, NotifyBeforeCommitDoesNotBlock) {
  EventCount Ec;
  WakeFd W;
  auto K = Ec.prepareWait();
  Ec.notifyAll(); // bumps the epoch: a registered waiter exists
  EXPECT_FALSE(Ec.commitSleep(K, W.Fd));
  EXPECT_EQ(Ec.waiters(), 0u);
  EXPECT_FALSE(readable(W.Fd)); // an unlisted descriptor is never written
}

TEST(EventCountTest, TimeoutExpires) {
  EventCount Ec;
  WakeFd W;
  auto K = Ec.prepareWait();
  EXPECT_FALSE(sleepOn(Ec, K, W.Fd, 1)); // 1ms; nobody will notify
  EXPECT_EQ(Ec.waiters(), 0u);
}

// The exact sequence a physical processor runs around epoll_wait: a
// notification writes the listed descriptor, endSleep reports the write,
// and the drain leaves no token for the next sleep.
TEST(EventCountTest, NotifyWritesListedDescriptor) {
  EventCount Ec;
  WakeFd W;
  auto K = Ec.prepareWait();
  ASSERT_TRUE(Ec.commitSleep(K, W.Fd));
  EXPECT_FALSE(readable(W.Fd));
  Ec.notifyAll();
  EXPECT_TRUE(readable(W.Fd));
  EXPECT_TRUE(Ec.endSleep(W.Fd));
  EventCount::drainWake(W.Fd);
  EXPECT_FALSE(readable(W.Fd));
  EXPECT_EQ(Ec.waiters(), 0u);
  Ec.notifyAll(); // unlisted now: no write
  EXPECT_FALSE(readable(W.Fd));
}

TEST(EventCountTest, WakesSleeper) {
  EventCount Ec;
  std::atomic<bool> Woke{false};

  std::thread Sleeper([&] {
    WakeFd W;
    auto K = Ec.prepareWait();
    sleepOn(Ec, K, W.Fd);
    Woke.store(true);
  });

  while (!Woke.load()) {
    Ec.notifyAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Sleeper.join();
}

// The no-lost-wakeup direction, in the scheduler's exact shape: the
// notifier publishes (a release store) before notifyAll; the waiter
// re-checks the condition between prepareWait and commitSleep. If the
// eventcount ever dropped the race where publish lands between the
// re-check and the sleep, a round would hang (the sleep has no timeout).
TEST(EventCountTest, NoLostWakeupStress) {
  EventCount Ec;
  std::atomic<bool> Work{false};
  std::atomic<bool> Stop{false};
  constexpr int Rounds = 2000;

  std::thread Waiter([&] {
    WakeFd W;
    for (int R = 0; R != Rounds; ++R) {
      for (;;) {
        if (Work.load(std::memory_order_acquire))
          break;
        auto K = Ec.prepareWait();
        if (Work.load(std::memory_order_acquire) ||
            Stop.load(std::memory_order_acquire)) {
          Ec.cancelWait();
          break;
        }
        sleepOn(Ec, K, W.Fd); // untimed: a lost wakeup hangs the test
      }
      Work.store(false, std::memory_order_release);
    }
  });

  for (int R = 0; R != Rounds; ++R) {
    Work.store(true, std::memory_order_release);
    Ec.notifyAll();
    // Wait for the round to be consumed before publishing the next one.
    while (Work.load(std::memory_order_acquire))
      std::this_thread::yield();
  }
  Stop.store(true, std::memory_order_release);
  Ec.notifyAll();
  Waiter.join();
  EXPECT_EQ(Ec.waiters(), 0u);
}

TEST(EventCountTest, NotifyWakesAllWaiters) {
  EventCount Ec;
  constexpr int N = 4;
  std::atomic<int> Awake{0};
  std::vector<std::thread> Sleepers;
  for (int I = 0; I != N; ++I)
    Sleepers.emplace_back([&] {
      WakeFd W;
      auto K = Ec.prepareWait();
      sleepOn(Ec, K, W.Fd);
      Awake.fetch_add(1);
    });

  while (Awake.load() != N) {
    Ec.notifyAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto &T : Sleepers)
    T.join();
  EXPECT_EQ(Ec.waiters(), 0u);
}

} // namespace
