//===- tests/io/IoServiceTest.cpp - Non-blocking I/O --------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "io/IoService.h"

#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

namespace {

using namespace sting;
using TC = ThreadController;

struct Pipe {
  int Fds[2];
  Pipe() {
    int Rc = pipe(Fds);
    EXPECT_EQ(Rc, 0);
    IoService::makeNonBlocking(Fds[0]);
    IoService::makeNonBlocking(Fds[1]);
  }
  ~Pipe() {
    close(Fds[0]);
    close(Fds[1]);
  }
  int readEnd() const { return Fds[0]; }
  int writeEnd() const { return Fds[1]; }
};

struct SocketPair {
  int Fds[2];
  SocketPair() {
    int Rc = socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, Fds);
    EXPECT_EQ(Rc, 0);
  }
  ~SocketPair() {
    close(Fds[0]);
    close(Fds[1]);
  }
};

std::uint64_t ppWakeups(const VirtualMachine &Vm) {
  return Vm.aggregateStats().PpWakeups;
}

void sleepMs(int Ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

TEST(IoServiceTest, ReadParksThreadNotProcessor) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;

  std::atomic<bool> ReaderWaiting{false};
  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char Buf[16];
    ReaderWaiting.store(true);
    ssize_t N = Io.read(P.readEnd(), Buf, sizeof(Buf));
    return AnyValue(std::string(Buf, static_cast<std::size_t>(N)));
  });

  // While the reader is parked on the pipe, the VP still runs others.
  ThreadRef Other = Vm.fork([]() -> AnyValue { return AnyValue(5); });
  Other->join();
  EXPECT_EQ(Other->valueAs<int>(), 5);
  EXPECT_FALSE(Reader->isDetermined());

  while (!ReaderWaiting.load())
    sched_yield();
  ssize_t W = ::write(P.writeEnd(), "hello", 5);
  EXPECT_EQ(W, 5);
  Reader->join();
  EXPECT_EQ(Reader->valueAs<std::string>(), "hello");
  EXPECT_GE(Io.stats().Wakeups.load(), 0u);
}

TEST(IoServiceTest, ImmediateDataNeedsNoWait) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;
  ssize_t W = ::write(P.writeEnd(), "x", 1);
  EXPECT_EQ(W, 1);
  AnyValue V = Vm.run([&]() -> AnyValue {
    char C;
    return AnyValue(Io.read(P.readEnd(), &C, 1) == 1 && C == 'x');
  });
  EXPECT_TRUE(V.as<bool>());
  EXPECT_EQ(Io.stats().Waits.load(), 0u);
}

TEST(IoServiceTest, ReadReturnsZeroOnEof) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;
  close(P.Fds[1]);
  P.Fds[1] = -1;
  AnyValue V = Vm.run([&]() -> AnyValue {
    char C;
    return AnyValue(Io.read(P.readEnd(), &C, 1));
  });
  EXPECT_EQ(V.as<ssize_t>(), 0);
  P.Fds[1] = ::open("/dev/null", O_RDONLY); // restore for dtor close
}

TEST(IoServiceTest, WriteParksUntilDrained) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;

  // Fill the pipe to capacity.
  char Chunk[4096];
  std::memset(Chunk, 'a', sizeof(Chunk));
  while (::write(P.writeEnd(), Chunk, sizeof(Chunk)) > 0) {
  }

  std::atomic<bool> WriterDone{false};
  ThreadRef Writer = Vm.fork([&]() -> AnyValue {
    bool Ok = Io.writeAll(P.writeEnd(), "tail", 4);
    WriterDone.store(true);
    return AnyValue(Ok);
  });

  for (int I = 0; I != 50; ++I)
    sched_yield();
  EXPECT_FALSE(WriterDone.load());

  // Drain the pipe from outside; the writer must complete.
  char Sink[4096];
  while (!WriterDone.load()) {
    ssize_t Rc = ::read(P.readEnd(), Sink, sizeof(Sink));
    if (Rc < 0)
      sched_yield();
  }
  Writer->join();
  EXPECT_TRUE(Writer->valueAs<bool>());
}

TEST(IoServiceTest, CallbackForksThreadOnReadiness) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;

  std::atomic<int> CallbackRuns{0};
  Vm.run([&]() -> AnyValue {
    Io.onReadable(P.readEnd(), [&] { CallbackRuns.fetch_add(1); });
    return AnyValue();
  });

  EXPECT_EQ(CallbackRuns.load(), 0);
  ssize_t W = ::write(P.writeEnd(), "!", 1);
  EXPECT_EQ(W, 1);
  for (int I = 0; I != 2000 && CallbackRuns.load() == 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(CallbackRuns.load(), 1);
  EXPECT_EQ(Io.stats().Callbacks.load(), 1u);
}

TEST(IoServiceTest, ManyReadersOnDistinctPipes) {
  VirtualMachine Vm(VmConfig{.NumVps = 2});
  IoService Io;
  constexpr int N = 8;
  std::vector<std::unique_ptr<Pipe>> Pipes;
  for (int I = 0; I != N; ++I)
    Pipes.push_back(std::make_unique<Pipe>());

  std::vector<ThreadRef> Readers;
  for (int I = 0; I != N; ++I)
    Readers.push_back(Vm.fork([&, I]() -> AnyValue {
      char C;
      Io.read(Pipes[I]->readEnd(), &C, 1);
      return AnyValue(static_cast<int>(C));
    }));

  // Release them in reverse order.
  for (int I = N - 1; I >= 0; --I) {
    char C = static_cast<char>('A' + I);
    ssize_t W = ::write(Pipes[I]->writeEnd(), &C, 1);
    EXPECT_EQ(W, 1);
  }
  for (int I = 0; I != N; ++I) {
    Readers[I]->join();
    EXPECT_EQ(Readers[I]->valueAs<int>(), 'A' + I);
  }
}

TEST(IoServiceTest, PingPongThroughPipes) {
  VirtualMachine Vm;
  IoService Io;
  Pipe AtoB, BtoA;

  ThreadRef Echo = Vm.fork([&]() -> AnyValue {
    for (int I = 0; I != 20; ++I) {
      char C;
      if (Io.read(AtoB.readEnd(), &C, 1) != 1)
        return AnyValue(false);
      ++C;
      if (!Io.writeAll(BtoA.writeEnd(), &C, 1))
        return AnyValue(false);
    }
    return AnyValue(true);
  });

  ThreadRef Driver = Vm.fork([&]() -> AnyValue {
    char C = 0;
    for (int I = 0; I != 20; ++I) {
      if (!Io.writeAll(AtoB.writeEnd(), &C, 1))
        return AnyValue(-1);
      if (Io.read(BtoA.readEnd(), &C, 1) != 1)
        return AnyValue(-1);
    }
    return AnyValue(static_cast<int>(C));
  });

  Echo->join();
  Driver->join();
  EXPECT_TRUE(Echo->valueAs<bool>());
  EXPECT_EQ(Driver->valueAs<int>(), 20);
}

TEST(IoServiceTest, TerminateRetractsParkedWaiter) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;

  std::atomic<bool> Parked{false};
  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char C;
    Parked.store(true);
    (void)Io.read(P.readEnd(), &C, 1); // nobody ever writes
    return AnyValue(false);
  });
  while (!Parked.load() || Io.waiterCount() == 0)
    sched_yield();

  // Async cancellation lands while the thread is parked on the descriptor:
  // the unwind must retract the waiter record, leaving no queue residue
  // and no dangling pointer into the dead thread's stack.
  AnyValue Ok = Vm.run([&]() -> AnyValue {
    TC::threadTerminate(*Reader);
    TC::threadWait(*Reader);
    return AnyValue(Reader->wasTerminated());
  });
  EXPECT_TRUE(Ok.as<bool>());
  EXPECT_EQ(Io.waiterCount(), 0u);

  // The pipe still works for a fresh waiter afterwards.
  ssize_t W = ::write(P.writeEnd(), "z", 1);
  EXPECT_EQ(W, 1);
  AnyValue V = Vm.run([&]() -> AnyValue {
    char C;
    return AnyValue(Io.read(P.readEnd(), &C, 1) == 1 && C == 'z');
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(IoServiceTest, DeadlineRacingReadinessNeverLosesData) {
  VirtualMachine Vm;
  IoService Io;
  Pipe P;

  // Drive the deadline through the readiness window: short deadlines
  // mostly time out, longer ones mostly see the byte. Whatever the
  // interleaving, every written byte is observed exactly once and the
  // waiter table is empty between rounds.
  int SeenNow = 0, SeenLate = 0;
  for (int Round = 0; Round != 60; ++Round) {
    std::int64_t Nanos = 1 + (Round % 20) * 100'000; // 1ns .. ~2ms
    ThreadRef Waiter = Vm.fork([&, Nanos]() -> AnyValue {
      WaitResult R =
          Io.awaitUntil(P.readEnd(), IoEvent::Readable, Deadline::in(Nanos));
      return AnyValue(R == WaitResult::Ready);
    });
    ssize_t W = ::write(P.writeEnd(), "r", 1);
    EXPECT_EQ(W, 1);
    Waiter->join();

    // Win or lose, the byte is still in the pipe (awaitUntil does not
    // consume) and must be drained before the next round.
    char C = 0;
    AnyValue Got = Vm.run(
        [&]() -> AnyValue { return AnyValue(Io.read(P.readEnd(), &C, 1)); });
    EXPECT_EQ(Got.as<ssize_t>(), 1);
    EXPECT_EQ(C, 'r');
    ++(Waiter->valueAs<bool>() ? SeenNow : SeenLate);
    EXPECT_EQ(Io.waiterCount(), 0u) << "round " << Round;
  }
  EXPECT_EQ(SeenNow + SeenLate, 60);
}

TEST(IoServiceTest, DestructionDrainsQueuedWaiters) {
  VirtualMachine Vm(VmConfig{.NumVps = 2});
  auto Io = std::make_unique<IoService>();
  constexpr int N = 4;
  std::vector<std::unique_ptr<Pipe>> Pipes;
  for (int I = 0; I != N; ++I)
    Pipes.push_back(std::make_unique<Pipe>());

  std::vector<ThreadRef> Readers;
  for (int I = 0; I != N; ++I)
    Readers.push_back(Vm.fork([&, I]() -> AnyValue {
      char C;
      ssize_t Rc = Io->read(Pipes[I]->readEnd(), &C, 1);
      return AnyValue(Rc == -1 && errno == ECANCELED);
    }));
  while (Io->waiterCount() != static_cast<std::size_t>(N))
    sched_yield();

  // Tearing the service down with threads parked inside it must eject
  // every waiter with ECANCELED rather than leaving them parked forever
  // (or letting them touch freed poller state).
  Io.reset();
  for (ThreadRef &R : Readers) {
    R->join();
    EXPECT_TRUE(R->valueAs<bool>());
  }
}

// An idle physical processor sleeps untimed in epoll_wait on its own set:
// with a reader parked on a socket and nothing else to do, the machine
// makes no PP wakeups at all, and the socket turning readable is what
// wakes the PP that runs the reader.
TEST(IoServiceTest, IdleMachineWithParkedReaderMakesNoPpWakeups) {
  VirtualMachine Vm;
  IoService Io;
  SocketPair S;

  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char C = 0;
    return AnyValue(Io.read(S.Fds[0], &C, 1) == 1 && C == 'w');
  });
  while (Io.waiterCount() != 1)
    sched_yield();
  sleepMs(10); // let the PP finish the wakeups the fork itself caused

  const std::uint64_t Before = ppWakeups(Vm);
  sleepMs(50);
  EXPECT_EQ(ppWakeups(Vm), Before) << "an idle PP woke without cause";
  EXPECT_FALSE(Reader->isDetermined());

  ASSERT_EQ(::write(S.Fds[1], "w", 1), 1);
  Reader->join();
  EXPECT_TRUE(Reader->valueAs<bool>());
  EXPECT_GT(ppWakeups(Vm), Before);
  EXPECT_EQ(Io.stats().Wakeups.load(), 1u);
}

// On one VP and one PP the processor never idles while a thread spins
// through checkpoints, so readiness must come from the busy PP's poll of
// its set, once per pass of its loop (bounded by a quantum and a VP
// slice). Without it the reader would stay parked until the spinner
// quits.
TEST(IoServiceTest, SpinningThreadDoesNotStarveReaderOnSameVp) {
  VmConfig C;
  C.NumVps = 1;
  C.NumPps = 1;
  C.EnablePreemption = true;
  VirtualMachine Vm(C);
  IoService Io;
  SocketPair S;

  std::atomic<bool> ReaderDone{false};
  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char Ch = 0;
    bool Ok = Io.read(S.Fds[0], &Ch, 1) == 1 && Ch == 'r';
    ReaderDone.store(true, std::memory_order_release);
    return AnyValue(Ok);
  });
  while (Io.waiterCount() != 1)
    sched_yield();

  // The spinner gives up after 5 s so a starved reader fails the test
  // instead of hanging it; it reports whether the reader beat it.
  std::atomic<bool> Spinning{false};
  ThreadRef Spinner = Vm.fork([&]() -> AnyValue {
    Spinning.store(true, std::memory_order_release);
    const auto GiveUp = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!ReaderDone.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > GiveUp)
        return AnyValue(false);
      TC::checkpoint();
    }
    return AnyValue(true);
  });
  while (!Spinning.load(std::memory_order_acquire))
    sched_yield();
  sleepMs(5); // the spinner now owns the VP

  const auto Written = std::chrono::steady_clock::now();
  ASSERT_EQ(::write(S.Fds[1], "r", 1), 1);
  Reader->join();
  const auto Latency = std::chrono::steady_clock::now() - Written;
  Spinner->join();
  EXPECT_TRUE(Reader->valueAs<bool>());
  EXPECT_TRUE(Spinner->valueAs<bool>()) << "reader starved behind the spinner";
  // A few slices (1 ms VP slice, 2 ms quantum), with room for a loaded
  // or sanitized host.
  EXPECT_LT(Latency, std::chrono::milliseconds(500));
}

/// Leaves \p Io with every kind of registration a PP set can hold when a
/// teardown starts: a descriptor re-armed by a completed read, a
/// registration abandoned by a timed-out await, and a pending callback.
void leaveRegistrations(VirtualMachine &Vm, IoService &Io, Pipe &Served,
                        Pipe &TimedOut, Pipe &Callback) {
  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char C = 0;
    return AnyValue(Io.read(Served.readEnd(), &C, 1));
  });
  while (Io.waiterCount() == 0)
    sched_yield();
  ASSERT_EQ(::write(Served.writeEnd(), "s", 1), 1);
  Reader->join();
  EXPECT_EQ(Reader->valueAs<ssize_t>(), 1);

  AnyValue R = Vm.run([&]() -> AnyValue {
    return AnyValue(Io.awaitUntil(TimedOut.readEnd(), IoEvent::Readable,
                                  Deadline::in(1'000'000)) ==
                    WaitResult::Timeout);
  });
  EXPECT_TRUE(R.as<bool>());
  Vm.run([&]() -> AnyValue {
    Io.onReadable(Callback.readEnd(), [] { ADD_FAILURE() << "late callback"; });
    return AnyValue();
  });
  EXPECT_EQ(Io.waiterCount(), 1u);
}

// perfbench's order: the service dies first. Descriptors it left armed in
// the live PP sets must not reach the dead service when they turn ready.
TEST(IoServiceTest, ServiceDestroyedBeforeMachineIsClean) {
  VirtualMachine Vm;
  Pipe Served, TimedOut, Callback;
  auto Io = std::make_unique<IoService>();
  leaveRegistrations(Vm, *Io, Served, TimedOut, Callback);
  Io.reset();

  ASSERT_EQ(::write(TimedOut.writeEnd(), "t", 1), 1);
  ASSERT_EQ(::write(Callback.writeEnd(), "c", 1), 1);
  ASSERT_EQ(::write(Served.writeEnd(), "s", 1), 1);
  sleepMs(20); // let the PPs take (and drop) the stale readiness
  EXPECT_EQ(Vm.run([]() -> AnyValue { return AnyValue(7); }).as<int>(), 7);
}

// The reverse: the machine and its PPs die while the service still holds
// registrations in their sets; the service's references keep the sets
// (and their epoll descriptors) alive until it detaches.
TEST(IoServiceTest, MachineDestroyedBeforeServiceIsClean) {
  IoService Io;
  Pipe Served, TimedOut, Callback;
  {
    VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
    leaveRegistrations(Vm, Io, Served, TimedOut, Callback);
  }
  ASSERT_EQ(::write(TimedOut.writeEnd(), "t", 1), 1);
  ASSERT_EQ(::write(Callback.writeEnd(), "c", 1), 1);
  EXPECT_EQ(Io.waiterCount(), 1u); // the callback nobody will fork
  EXPECT_EQ(Io.stats().Callbacks.load(), 0u);
}

// Two live services share the PPs' sets; each descriptor's readiness goes
// to the service that armed it, and only to it.
TEST(IoServiceTest, TwoServicesInOneMachineGetTheirOwnWakeups) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  IoService A, B;
  Pipe PA, PB;

  auto ReadOne = [](IoService &Io, Pipe &P) {
    return [&Io, &P]() -> AnyValue {
      char C = 0;
      return AnyValue(Io.read(P.readEnd(), &C, 1) == 1 ? C : '?');
    };
  };
  ThreadRef ReaderA = Vm.fork(ReadOne(A, PA));
  ThreadRef ReaderB = Vm.fork(ReadOne(B, PB));
  while (A.waiterCount() != 1 || B.waiterCount() != 1)
    sched_yield();

  ASSERT_EQ(::write(PB.writeEnd(), "b", 1), 1);
  ReaderB->join();
  EXPECT_EQ(ReaderB->valueAs<char>(), 'b');
  EXPECT_EQ(B.stats().Wakeups.load(), 1u);
  EXPECT_EQ(A.stats().Wakeups.load(), 0u);
  EXPECT_FALSE(ReaderA->isDetermined());
  EXPECT_EQ(A.waiterCount(), 1u);

  ASSERT_EQ(::write(PA.writeEnd(), "a", 1), 1);
  ReaderA->join();
  EXPECT_EQ(ReaderA->valueAs<char>(), 'a');
  EXPECT_EQ(A.stats().Wakeups.load(), 1u);
  EXPECT_EQ(B.stats().Wakeups.load(), 1u);
  EXPECT_EQ(A.waiterCount() + B.waiterCount(), 0u);
}

// One PP, one descriptor, two services in turn: once the first service's
// waiter is woken, the descriptor's claim in the PP's set is released and
// the second service can wait on it (the set holds one tag per descriptor).
TEST(IoServiceTest, DescriptorPassesBetweenServicesOnOnePp) {
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  IoService A, B;
  Pipe P;

  std::atomic<int> Phase{0};
  ThreadRef Reader = Vm.fork([&]() -> AnyValue {
    char Got[2] = {};
    Phase.store(1);
    if (A.read(P.readEnd(), &Got[0], 1) != 1)
      return AnyValue(std::string("A failed"));
    Phase.store(2);
    if (B.read(P.readEnd(), &Got[1], 1) != 1)
      return AnyValue(std::string("B failed"));
    return AnyValue(std::string(Got, 2));
  });
  while (Phase.load() != 1 || A.waiterCount() != 1)
    sched_yield();
  ASSERT_EQ(::write(P.writeEnd(), "a", 1), 1);
  while (Phase.load() != 2 || B.waiterCount() != 1)
    sched_yield();
  ASSERT_EQ(::write(P.writeEnd(), "b", 1), 1);
  Reader->join();
  EXPECT_EQ(Reader->valueAs<std::string>(), "ab");
  EXPECT_EQ(A.stats().Wakeups.load(), 1u);
  EXPECT_EQ(B.stats().Wakeups.load(), 1u);
  EXPECT_EQ(A.waiterCount() + B.waiterCount(), 0u);
}

} // namespace
