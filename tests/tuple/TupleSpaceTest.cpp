//===- tests/tuple/TupleSpaceTest.cpp - Tuple spaces (paper 4.2) --------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "tuple/TupleSpace.h"

#include "core/Current.h"
#include "core/Gc.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "gc/GlobalHeap.h"
#include "gc/Object.h"
#include "obs/Flow.h"
#include "gtest/gtest.h"

#include <atomic>
#include <optional>
#include <string>
#include <utility>

namespace {

using namespace sting;
using TC = ThreadController;

Tuple tup(std::initializer_list<int> Xs) {
  Tuple T;
  for (int X : Xs)
    T.emplace_back(X);
  return T;
}

/// Fills \p Heap with garbage strings as long as \p Bytes, collects, then
/// allocates as many again: the second batch reuses the swept space first
/// fit, so a value the collection wrongly freed has its bytes overwritten.
void collectAndReuse(gc::GlobalHeap &Heap, const std::string &Bytes) {
  const std::string Junk(Bytes.size(), '#');
  for (int I = 0; I != 200; ++I)
    Heap.makeStringShared(Junk);
  Heap.collectFull({});
  for (int I = 0; I != 200; ++I)
    Heap.makeStringShared(Junk);
}

TEST(TupleSpaceTest, PutThenTryTake) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({1, 2}));
    EXPECT_EQ(Ts->size(), 1u);
    auto M = Ts->tryTake(tup({1, 2}));
    EXPECT_TRUE(M.has_value());
    EXPECT_EQ(Ts->size(), 0u);
    return AnyValue();
  });
}

TEST(TupleSpaceTest, FormalsAcquireBindings) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(makeTuple("point", 3, 4));
    Tuple Template;
    Template.emplace_back("point");
    Template.push_back(formal(0));
    Template.push_back(formal(1));
    Match M = Ts->take(std::move(Template));
    EXPECT_EQ(M.binding(0).asFixnum(), 3);
    EXPECT_EQ(M.binding(1).asFixnum(), 4);
    return AnyValue();
  });
}

TEST(TupleSpaceTest, ReadDoesNotRemove) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({7}));
    Tuple T1;
    T1.push_back(formal(0));
    Match M = Ts->read(std::move(T1));
    EXPECT_EQ(M.binding(0).asFixnum(), 7);
    EXPECT_EQ(Ts->size(), 1u);
    return AnyValue();
  });
}

TEST(TupleSpaceTest, MismatchedTuplesDoNotMatch) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({1, 2}));
    EXPECT_FALSE(Ts->tryTake(tup({1, 3})).has_value());
    EXPECT_FALSE(Ts->tryTake(tup({1})).has_value()); // arity differs
    EXPECT_TRUE(Ts->tryTake(tup({1, 2})).has_value());
    return AnyValue();
  });
}

TEST(TupleSpaceTest, SymbolsMatchByContent) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(makeTuple("job", 1));
    Tuple Template;
    Template.emplace_back("job");
    Template.push_back(formal(0));
    auto M = Ts->tryTake(std::move(Template));
    EXPECT_TRUE(M.has_value());
    return AnyValue();
  });
}

TEST(TupleSpaceTest, TakeBlocksUntilPut) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    ThreadRef Consumer = TC::forkThread([Ts]() -> AnyValue {
      Tuple Template;
      Template.emplace_back("answer");
      Template.push_back(formal(0));
      Match M = Ts->take(std::move(Template));
      return AnyValue(M.binding(0).asFixnum());
    });
    for (int I = 0; I != 30; ++I)
      TC::yieldProcessor();
    EXPECT_FALSE(Consumer->isDetermined());
    Ts->put(makeTuple("answer", 42));
    return AnyValue(TC::threadValue(*Consumer).as<std::int64_t>());
  });
  EXPECT_EQ(V.as<std::int64_t>(), 42);
}

TEST(TupleSpaceTest, GetIncrementPutCycle) {
  // The paper's counter idiom:
  //   (get TS [?x] (put TS [(+ x 1)]))
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({0}));
    std::vector<ThreadRef> Workers;
    for (int W = 0; W != 4; ++W)
      Workers.push_back(TC::forkThread([Ts]() -> AnyValue {
        for (int I = 0; I != 50; ++I) {
          Tuple Template;
          Template.push_back(formal(0));
          Match M = Ts->take(std::move(Template));
          Ts->put(makeTuple(M.binding(0).asFixnum() + 1));
        }
        return AnyValue();
      }));
    for (auto &W : Workers)
      TC::threadWait(*W);
    Tuple Template;
    Template.push_back(formal(0));
    Match M = Ts->take(std::move(Template));
    return AnyValue(M.binding(0).asFixnum());
  });
  EXPECT_EQ(V.as<std::int64_t>(), 200);
}

TEST(TupleSpaceTest, SpawnDepositsActiveTuple) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Tuple Active;
    Active.emplace_back("result");
    Active.emplace_back(UniqueFunction<gc::Value()>(
        [] { return gc::Value::fixnum(123); }));
    auto Threads = Ts->spawn(std::move(Active));
    EXPECT_EQ(Threads.size(), 1u);
    Tuple Template;
    Template.emplace_back("result");
    Template.push_back(formal(0));
    Match M = Ts->take(std::move(Template));
    return AnyValue(M.binding(0).asFixnum());
  });
  EXPECT_EQ(V.as<std::int64_t>(), 123);
}

TEST(TupleSpaceTest, SpawnedScheduledThreadIsStolenByMatcher) {
  // One VP, the spawned thread sits scheduled; the matcher's take steals
  // it (the paper's fine-grained synchronization via tuple threads).
  VirtualMachine Vm(VmConfig{.NumVps = 1, .NumPps = 1});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Tuple Active;
    Active.emplace_back("v");
    Active.emplace_back(UniqueFunction<gc::Value()>(
        [] { return gc::Value::fixnum(7); }));
    Ts->spawn(std::move(Active));
    Tuple Template;
    Template.emplace_back("v");
    Template.push_back(formal(0));
    Match M = Ts->take(std::move(Template));
    return AnyValue(M.binding(0).asFixnum());
  });
  EXPECT_EQ(V.as<std::int64_t>(), 7);
  EXPECT_GE(Vm.stats().Steals.load(), 1u);
}

TEST(TupleSpaceTest, HeapValuesEscapeOnPut) {
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    gc::LocalHeap &Heap = mutatorHeap();
    gc::HandleScope Scope(Heap);
    gc::Value Young = Heap.cons(gc::Value::fixnum(1), gc::Value::nil());
    Ts->put(makeTuple("list", Young));
    Tuple Template;
    Template.emplace_back("list");
    Template.push_back(formal(0));
    Match M = Ts->take(std::move(Template));
    gc::Value Stored = M.binding(0);
    bool IsOld = Stored.asObject()->isInOld();
    return AnyValue(IsOld && gc::car(Stored).asFixnum() == 1);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleSpaceTest, MultipleYoungValuesAllSurviveOnePut) {
  // prepare() escapes young fields one at a time, and every escape is a
  // full scavenge of the caller's young heap (rooted at handle scopes,
  // external roots and the remembered set only). The space must root the
  // sibling datum slots for the duration, or escaping the first value
  // strands the second in from-space — a silent use-after-free once the
  // semispace is reused.
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    gc::LocalHeap &Heap = mutatorHeap();
    gc::HandleScope Scope(Heap);
    gc::Value *A = Scope.pin(Heap.makeString("alpha-payload"));
    gc::Value *B = Scope.pin(Heap.makeString("beta-payload"));
    EXPECT_FALSE(A->asObject()->isInOld());
    EXPECT_FALSE(B->asObject()->isInOld());
    Ts->put(makeTuple("pair", *A, *B));

    Tuple Template;
    Template.emplace_back("pair");
    Template.push_back(formal(0));
    Template.push_back(formal(1));
    Match M = Ts->take(std::move(Template));
    gc::Value SA = M.binding(0), SB = M.binding(1);
    bool Ok = SA.isObject() && SA.asObject()->isInOld() && SB.isObject() &&
              SB.asObject()->isInOld();
    Ok = Ok &&
         std::string_view(SA.asObject()->bytes(),
                          SA.asObject()->byteLength()) == "alpha-payload" &&
         std::string_view(SB.asObject()->bytes(),
                          SB.asObject()->byteLength()) == "beta-payload";
    EXPECT_TRUE(Ok);
    return AnyValue(Ok);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleSpaceTest, ProducersAndConsumersConcurrently) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    constexpr int Producers = 3, PerProducer = 100;
    std::vector<ThreadRef> All;
    for (int P = 0; P != Producers; ++P)
      All.push_back(TC::forkThread([Ts, P]() -> AnyValue {
        for (int I = 0; I != PerProducer; ++I)
          Ts->put(makeTuple("item", P * PerProducer + I));
        return AnyValue();
      }));
    std::atomic<long> Sum{0};
    for (int C = 0; C != 3; ++C)
      All.push_back(TC::forkThread([Ts, &Sum]() -> AnyValue {
        for (int I = 0; I != PerProducer; ++I) {
          Tuple Template;
          Template.emplace_back("item");
          Template.push_back(formal(0));
          Match M = Ts->take(std::move(Template));
          Sum.fetch_add(M.binding(0).asFixnum());
        }
        return AnyValue();
      }));
    for (auto &T : All)
      TC::threadWait(*T);
    long Expect = 0;
    for (int I = 0; I != Producers * PerProducer; ++I)
      Expect += I;
    return AnyValue(Sum.load() == Expect && Ts->size() == 0);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(TupleSpaceTest, FormalFirstFieldScansAllBins) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({31, 1}));
    Tuple Template;
    Template.push_back(formal(0));
    Template.emplace_back(1);
    auto M = Ts->tryTake(std::move(Template));
    EXPECT_TRUE(M.has_value());
    if (M) {
      EXPECT_EQ(M->binding(0).asFixnum(), 31);
    }
    return AnyValue();
  });
}

TEST(TupleSpaceTest, StatsTrackOperations) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    Ts->put(tup({1}));
    Tuple T1;
    T1.push_back(formal(0));
    Ts->read(std::move(T1));
    Tuple T2;
    T2.push_back(formal(0));
    Ts->take(std::move(T2));
    EXPECT_EQ(Ts->stats().Puts.load(), 1u);
    EXPECT_EQ(Ts->stats().Reads.load(), 1u);
    EXPECT_EQ(Ts->stats().Takes.load(), 1u);
    return AnyValue();
  });
}

TEST(TupleSpaceTest, TryVariantsCountAttempts) {
  // The stats contract: Puts/Reads/Takes count *attempts* for every
  // variant — a failed tryRead/tryTake bumps its counter just like a
  // blocking read/take that had to wait would.
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();
    EXPECT_FALSE(Ts->tryRead(tup({1})).has_value());
    EXPECT_FALSE(Ts->tryTake(tup({1})).has_value());
    EXPECT_EQ(Ts->stats().Reads.load(), 1u);
    EXPECT_EQ(Ts->stats().Takes.load(), 1u);
    Ts->put(tup({1}));
    EXPECT_TRUE(Ts->tryRead(tup({1})).has_value());
    EXPECT_TRUE(Ts->tryTake(tup({1})).has_value());
    EXPECT_EQ(Ts->stats().Reads.load(), 2u);
    EXPECT_EQ(Ts->stats().Takes.load(), 2u);
    return AnyValue();
  });
}

// The space roots only collectable field values (DESIGN.md §5). These pin
// the two halves of that rule on a private heap, which nothing else in the
// machine touches, so collectFull runs quiescent.

TEST(TupleSpaceTest, ResidentStringFieldSurvivesFullCollection) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    gc::GlobalHeap Heap(4096);
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Hashed, &Heap);
    const std::string Bytes = "resident string payload";
    Tuple T = makeTuple(7);
    T.push_back(Field::blob(Bytes));
    Ts->put(std::move(T));
    collectAndReuse(Heap, Bytes);
    auto M = Ts->tryTake(makeTuple(7, formal(0)));
    EXPECT_TRUE(M.has_value());
    if (M) {
      EXPECT_EQ(M->binding(0).asObject()->kind(), gc::ObjectKind::String);
      EXPECT_EQ(gc::textOf(M->binding(0)), Bytes);
    }
    return AnyValue();
  });
}

TEST(TupleSpaceTest, ProxyTemplateStringSurvivesFullCollection) {
  VirtualMachine Vm;
  Vm.run([]() -> AnyValue {
    gc::GlobalHeap Heap(4096);
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Hashed, &Heap);
    const std::string Bytes = "proxied template string";
    std::optional<Match> Got;
    Tuple Template = makeTuple(9);
    Template.push_back(Field::blob(Bytes));
    Template.push_back(formal(0));
    EXPECT_TRUE(Ts->registerProxy(
        1, std::move(Template), /*Remove=*/true,
        [&](std::uint64_t, Match M) { Got = std::move(M); }));
    collectAndReuse(Heap, Bytes);
    Tuple T = makeTuple(9);
    T.push_back(Field::blob(Bytes));
    T.emplace_back(5);
    Ts->put(std::move(T));
    EXPECT_TRUE(Got.has_value()) << "the template no longer matches";
    if (Got) {
      EXPECT_EQ(Got->binding(0).asFixnum(), 5);
    }
    return AnyValue();
  });
}

TEST(TupleSpaceTest, ImmediateAndSymbolTuplesRegisterNoRoots) {
  VirtualMachine Vm(VmConfig{.NumVps = 2, .NumPps = 2});
  Vm.run([]() -> AnyValue {
    gc::GlobalHeap Heap;
    TupleSpaceRef Ts = TupleSpace::create(TupleSpaceRep::Hashed, &Heap);
    const std::size_t Before = Heap.rootCount();

    Ts->put(makeTuple(1, "tok", 2, true));
    EXPECT_EQ(Heap.rootCount(), Before) << "resident fixnum/symbol tuple";
    EXPECT_EQ(Ts->take(makeTuple(1, "tok", formal(0), formal(1)))
                  .binding(0)
                  .asFixnum(),
              2);
    EXPECT_EQ(Heap.rootCount(), Before);

    // The handoff path: a parked taker receives the entry directly.
    ThreadRef Taker = ThreadController::forkThread([Ts]() -> AnyValue {
      return AnyValue(
          Ts->take(makeTuple(3, "tok", formal(0))).binding(0).asFixnum());
    });
    while (Ts->stats().Blocks.load() == 0)
      ThreadController::yieldProcessor();
    Ts->put(makeTuple(3, "tok", 4));
    EXPECT_EQ(ThreadController::threadValue(*Taker).as<std::int64_t>(), 4);
    EXPECT_EQ(Heap.rootCount(), Before);

    // A string is collectable: rooted while resident, unrooted by the take.
    Tuple S = makeTuple(5);
    S.push_back(Field::blob("collectable"));
    Ts->put(std::move(S));
    EXPECT_EQ(Heap.rootCount(), Before + 1);
    Ts->take(makeTuple(5, formal(0)));
    EXPECT_EQ(Heap.rootCount(), Before);
    return AnyValue();
  });
}

TEST(TupleSpaceTest, TakeAdoptsDepositorFlow) {
  // put -> take is a causal handoff: the matcher continues the
  // depositor's flow, so a request's journey through the space renders
  // as one connected path in exported traces.
  VirtualMachine Vm;
  AnyValue V = Vm.run([]() -> AnyValue {
    TupleSpaceRef Ts = TupleSpace::create();

    ThreadRef Producer = ThreadController::forkThread([Ts]() -> AnyValue {
      obs::FlowId Mine = obs::newFlowId();
      obs::setCurrentFlowId(Mine);
      currentThread()->setFlowId(Mine);
      Ts->put(makeTuple("flow-key", 1));
      return AnyValue(static_cast<std::uint64_t>(Mine));
    });
    std::uint64_t DepositorFlow =
        ThreadController::threadValue(*Producer).as<std::uint64_t>();

    ThreadRef Consumer = ThreadController::forkThread([Ts]() -> AnyValue {
      std::uint64_t Before = obs::currentFlowId();
      Ts->take(makeTuple("flow-key", formal(0)));
      // The take rebound this thread to the depositor's flow.
      return AnyValue(
          std::make_pair(Before, static_cast<std::uint64_t>(
                                     obs::currentFlowId())));
    });
    auto [Before, After] =
        ThreadController::threadValue(*Consumer)
            .as<std::pair<std::uint64_t, std::uint64_t>>();
    EXPECT_NE(Before, DepositorFlow) << "consumer started on its own flow";
    EXPECT_EQ(After, DepositorFlow);
    return AnyValue(After == DepositorFlow);
  });
  EXPECT_TRUE(V.as<bool>());
}

} // namespace
