//===- tests/tuple/TupleHandoffTest.cpp - put→waiter direct handoff -----------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The contended-path contract from DESIGN.md §12: a deposit with parked
// compatible waiters transfers the tuple straight into their slots and
// wakes exactly those threads (counter-asserted, not eyeballed), and the
// registration/consume/unwind state machine conserves tuples — a take
// delivery racing a timeout or a terminate is either kept or re-deposited,
// never dropped and never duplicated.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/Current.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <thread>

namespace {

using namespace sting;
using TC = ThreadController;

Tuple takeAll() {
  Tuple T;
  T.push_back(formal(0));
  return T;
}

/// Spins until \p Ts has seen at least \p N blocking episodes — i.e. N
/// waiters have registered and are parked or about to park (Blocks is
/// charged after registration, so deposits past this point hand off).
void awaitBlocked(const TupleSpaceRef &Ts, std::uint64_t N) {
  while (Ts->stats().Blocks.load(std::memory_order_acquire) < N)
    TC::yieldProcessor();
}

TEST(TupleHandoffTest, PutWakesExactlyOneParkedTaker) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int N = 8;
    std::atomic<long> Sum{0};
    std::vector<ThreadRef> Takers;
    for (int I = 0; I != N; ++I)
      Takers.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        Match M = Ts->take(makeTuple("job", formal(0)));
        Sum.fetch_add(M.binding(0).asFixnum());
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    for (int I = 0; I != N; ++I)
      Ts->put(makeTuple("job", I));
    for (auto &T : Takers)
      TC::threadWait(*T);

    // Every put landed in a registered taker's slot: one handoff and one
    // wakeup per put, never a broadcast to the other N-1 waiters.
    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->stats().Wakeups.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == N * (N - 1) / 2);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, ReadersAllReceiveTheDepositWhichStaysPut) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int N = 3;
    std::atomic<int> Got{0};
    std::vector<ThreadRef> Readers;
    for (int I = 0; I != N; ++I)
      Readers.push_back(TC::forkThread([Ts, &Got]() -> AnyValue {
        Match M = Ts->read(makeTuple("shared", formal(0)));
        if (M.binding(0).asFixnum() == 9)
          Got.fetch_add(1);
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    Ts->put(makeTuple("shared", 9));
    for (auto &T : Readers)
      TC::threadWait(*T);

    // rd waiters each receive a reference; the tuple itself stays in the
    // space (no take waiter consumed it).
    EXPECT_EQ(Got.load(), N);
    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 1u);
    return AnyValue(Got.load() == N);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, ConservationUnderManyPuttersAndTakers) {
  // M putters race N takers with no phase separation: every deposited
  // value is consumed exactly once whether it travels through the bin
  // (insert then scan) or through a handoff slot.
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int Putters = 4, Takers = 4, PerPutter = 64;
    constexpr int Total = Putters * PerPutter;
    static_assert(Total % Takers == 0, "takers must drain the space");
    std::vector<ThreadRef> All;
    for (int P = 0; P != Putters; ++P)
      All.push_back(TC::forkThread([Ts, P]() -> AnyValue {
        for (int I = 0; I != PerPutter; ++I)
          Ts->put(makeTuple("work", P * PerPutter + I));
        return AnyValue();
      }));
    std::atomic<long> Sum{0};
    for (int C = 0; C != Takers; ++C)
      All.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        for (int I = 0; I != Total / Takers; ++I) {
          Match M = Ts->take(makeTuple("work", formal(0)));
          Sum.fetch_add(M.binding(0).asFixnum());
        }
        return AnyValue();
      }));
    for (auto &T : All)
      TC::threadWait(*T);
    long Expect = static_cast<long>(Total) * (Total - 1) / 2;
    EXPECT_EQ(Sum.load(), Expect);
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == Expect && Ts->size() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, TimedTakerRacingPutNeverDropsTheTuple) {
  // A timed waiter expiring concurrently with an in-flight handoff: the
  // tuple is either delivered (waiter returns it) or re-deposited (the
  // leftover take finds it) — exactly one of the two, every round.
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    bool Ok = true;
    for (int Round = 0; Round != 200 && Ok; ++Round) {
      // Sweep the deadline through the registration/park window.
      std::uint64_t Nanos = 200u * static_cast<std::uint64_t>(Round % 40);
      ThreadRef Taker = TC::forkThread([Ts, Nanos]() -> AnyValue {
        auto M = Ts->takeFor(makeTuple("race", formal(0)), Nanos);
        return AnyValue(M.has_value());
      });
      for (int Y = 0; Y != Round % 4; ++Y)
        TC::yieldProcessor();
      Ts->put(makeTuple("race", Round));
      bool Delivered = TC::threadValue(*Taker).as<bool>();
      auto Leftover = Ts->tryTake(makeTuple("race", formal(0)));
      Ok = Delivered != Leftover.has_value();
      EXPECT_TRUE(Ok) << "round " << Round << ": delivered=" << Delivered
                      << " leftover=" << Leftover.has_value();
    }
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Ok && Ts->size() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, TerminateUnwindsRegisteredWaiterWithoutResidue) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    ThreadRef Taker = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple("doomed", formal(0)));
      return AnyValue();
    });
    awaitBlocked(Ts, 1);
    TC::threadTerminate(*Taker);
    TC::threadWait(*Taker);
    EXPECT_TRUE(Taker->wasTerminated());

    // The unwind retracted the registration: a later put must not try to
    // deliver into the dead waiter's frame — it inserts, and a live
    // matcher finds it.
    Ts->put(makeTuple("doomed", 5));
    EXPECT_EQ(Ts->stats().Handoffs.load(), 0u);
    auto M = Ts->tryTake(makeTuple("doomed", formal(0)));
    EXPECT_TRUE(M.has_value());
    return AnyValue(M.has_value() && M->binding(0).asFixnum() == 5);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, QueuePutHandsOffToExactlyOneTaker) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Queue);
    constexpr int N = 6;
    std::atomic<long> Sum{0};
    std::vector<ThreadRef> Takers;
    for (int I = 0; I != N; ++I)
      Takers.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        Match M = Ts->take(takeAll());
        Sum.fetch_add(M.binding(0).asFixnum());
        return AnyValue();
      }));
    awaitBlocked(Ts, N);

    for (int I = 0; I != N; ++I)
      Ts->put(makeTuple(I));
    for (auto &T : Takers)
      TC::threadWait(*T);

    EXPECT_EQ(Ts->stats().Handoffs.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->stats().Wakeups.load(), static_cast<std::uint64_t>(N));
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(Sum.load() == N * (N - 1) / 2);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleHandoffTest, BagDeliversOnlyToValueCompatibleWaiters) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Bag);
    // Two takers parked on distinct value templates: each deposit must
    // satisfy its matching waiter only.
    ThreadRef WantsFive = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple(5));
      return AnyValue(true);
    });
    ThreadRef WantsSeven = TC::forkThread([Ts]() -> AnyValue {
      Ts->take(makeTuple(7));
      return AnyValue(true);
    });
    awaitBlocked(Ts, 2);

    Ts->put(makeTuple(7));
    TC::threadWait(*WantsSeven);
    EXPECT_FALSE(WantsFive->isDetermined());
    Ts->put(makeTuple(5));
    TC::threadWait(*WantsFive);

    EXPECT_EQ(Ts->stats().Handoffs.load(), 2u);
    EXPECT_EQ(Ts->stats().Wakeups.load(), 2u);
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

// threadValue on a worker that has not started steals it onto the
// joiner's TCB. When the stolen worker then parks in a take, the waiter
// record must bind the joiner (which owns the TCB) — binding the stolen
// thread, which has none, made the delivery's wake a stale skip and
// parked the joiner forever. A hang here exits the process after 5 s
// rather than wedging the suite.
TEST(TupleHandoffTest, StolenTakerIsWokenThroughItsToucher) {
  std::promise<bool> Done;
  std::future<bool> Result = Done.get_future();
  std::thread Runner([&Done] {
    VmConfig C;
    C.NumVps = 1;
    C.NumPps = 1;
    VirtualMachine Vm(C);
    AnyValue V = Vm.run([&]() -> AnyValue {
      auto S = TupleSpace::create(TupleSpaceRep::Hashed);
      ThreadRef Responder = TC::forkThread([&]() -> AnyValue {
        Match M = S->take(makeTuple(1, "ping", formal(0)));
        S->put(makeTuple(1, "pong", M.binding(0).asFixnum() + 1));
        return AnyValue(true);
      });
      ThreadRef Client = TC::forkThread([&]() -> AnyValue {
        S->put(makeTuple(1, "ping", 41));
        Match M = S->take(makeTuple(1, "pong", formal(0)));
        return AnyValue(M.binding(0).asFixnum() == 42);
      });
      bool Got = TC::threadValue(*Client).as<bool>();
      TC::threadWait(*Responder);
      return AnyValue(Got);
    });
    Done.set_value(V.as<bool>());
  });
  if (Result.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    std::fprintf(stderr, "threadValue on a stolen taker hung for 5 s\n");
    std::fflush(stderr);
    std::_Exit(1);
  }
  EXPECT_TRUE(Result.get());
  Runner.join();
}

} // namespace
