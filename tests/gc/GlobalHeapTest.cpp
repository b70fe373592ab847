//===- tests/gc/GlobalHeapTest.cpp - Shared old generation -------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "gc/GlobalHeap.h"

#include "gc/LocalHeap.h"
#include "gc/Object.h"
#include "gtest/gtest.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace sting::gc;

TEST(GlobalHeapTest, AllocatesAcrossBlocks) {
  GlobalHeap Heap(4096);
  std::vector<Value> Keep;
  for (int I = 0; I != 1000; ++I)
    Keep.push_back(Heap.consShared(Value::fixnum(I), Value::nil()));
  for (int I = 0; I != 1000; ++I)
    EXPECT_EQ(car(Keep[I]).asFixnum(), I);
  EXPECT_GE(Heap.stats().ObjectsAllocated, 1000u);
}

TEST(GlobalHeapTest, ContainsTracksOwnership) {
  GlobalHeap A, B;
  Value V = A.consShared(Value::fixnum(1), Value::nil());
  EXPECT_TRUE(A.contains(V.asObject()));
  EXPECT_FALSE(B.contains(V.asObject()));
}

TEST(GlobalHeapTest, FullCollectionFreesGarbage) {
  GlobalHeap Heap(4096);
  Value Root = Value::nil();
  Heap.addRoot(&Root);
  Root = Heap.consShared(Value::fixnum(1), Value::nil());
  for (int I = 0; I != 500; ++I)
    Heap.consShared(Value::fixnum(I), Value::nil()); // garbage

  Heap.collectFull({});
  auto Stats = Heap.stats();
  EXPECT_EQ(Stats.FullCollections, 1u);
  EXPECT_GT(Stats.BytesSwept, 0u);
  EXPECT_EQ(car(Root).asFixnum(), 1);
  Heap.removeRoot(&Root);
}

TEST(GlobalHeapTest, SweptSpaceIsReused) {
  GlobalHeap Heap(4096);
  for (int I = 0; I != 500; ++I)
    Heap.consShared(Value::fixnum(I), Value::nil());
  Heap.collectFull({});
  auto Before = Heap.stats().BytesAllocated;
  (void)Before;
  std::uint64_t BlocksBefore = 0;
  // Allocate the same amount again: the free list must absorb it without
  // (many) new blocks. We approximate by checking live bytes stay bounded.
  for (int I = 0; I != 500; ++I)
    Heap.consShared(Value::fixnum(I), Value::nil());
  Heap.collectFull({});
  EXPECT_LE(Heap.stats().LiveBytesAfterLastGc, 4096u * 4);
  (void)BlocksBefore;
}

TEST(GlobalHeapTest, MarkTracesDeepStructures) {
  GlobalHeap Heap;
  Value Root = Value::nil();
  Heap.addRoot(&Root);
  for (int I = 0; I != 200; ++I)
    Root = Heap.consShared(Value::fixnum(I), Root);
  Heap.collectFull({});
  EXPECT_EQ(listLength(Root), 200u);
  EXPECT_EQ(car(Root).asFixnum(), 199);
  Heap.removeRoot(&Root);
}

TEST(GlobalHeapTest, SymbolsSurviveCollection) {
  GlobalHeap Heap;
  Value S = Heap.intern("persistent");
  Heap.collectFull({});
  EXPECT_TRUE(Heap.intern("persistent") == S);
}

TEST(GlobalHeapTest, SymbolsSurviveCollectionAcrossTableGrowth) {
  // Enough names to grow the symbol table several times; every later
  // lookup is a lock-free hit, and each symbol must keep its identity and
  // its bytes through a collection whose freed space is then reused.
  GlobalHeap Heap(4096);
  constexpr int Names = 1000;
  std::vector<Value> Syms;
  for (int I = 0; I != Names; ++I)
    Syms.push_back(Heap.intern("sym-" + std::to_string(I)));
  for (int I = 0; I != Names; ++I)
    ASSERT_TRUE(Heap.intern("sym-" + std::to_string(I)) == Syms[I]);
  for (int I = 0; I != 500; ++I)
    Heap.makeStringShared("garbage-string"); // garbage
  Heap.collectFull({});
  for (int I = 0; I != 500; ++I)
    Heap.makeStringShared("reused-chunk!!"); // refills swept space
  for (int I = 0; I != Names; ++I) {
    const std::string Name = "sym-" + std::to_string(I);
    ASSERT_EQ(Syms[I].asObject()->kind(), ObjectKind::Symbol);
    ASSERT_EQ(textOf(Syms[I]), Name);
    ASSERT_TRUE(Heap.intern(Name) == Syms[I]);
  }
}

TEST(GlobalHeapTest, EachHeapInternsIntoItsOwnTable) {
  GlobalHeap A, B;
  Value SA = A.intern("same-name");
  Value SB = B.intern("same-name");
  EXPECT_FALSE(SA == SB);
  EXPECT_TRUE(A.contains(SA.asObject()));
  EXPECT_TRUE(B.contains(SB.asObject()));
  EXPECT_TRUE(A.intern("same-name") == SA);
  EXPECT_TRUE(B.intern("same-name") == SB);
}

TEST(GlobalHeapTest, RemovingHalfOfManyRootsKeepsTheRest) {
  GlobalHeap Heap(4096);
  constexpr int N = 10000;
  std::vector<Value> Slots(N);
  for (int I = 0; I != N; ++I) {
    Slots[I] = Heap.consShared(Value::fixnum(I), Value::nil());
    Heap.addRoot(&Slots[I]);
  }
  EXPECT_EQ(Heap.rootCount(), std::size_t(N));

  std::vector<int> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  std::shuffle(Order.begin(), Order.end(), std::mt19937(7));
  std::vector<bool> Kept(N, true);
  for (int K = 0; K != N / 2; ++K) {
    Heap.removeRoot(&Slots[Order[K]]);
    Kept[Order[K]] = false;
  }
  EXPECT_EQ(Heap.rootCount(), std::size_t(N / 2));

  Heap.collectFull({});
  // Exactly the kept pairs (16-byte header + two slots each) stay live.
  EXPECT_EQ(Heap.stats().LiveBytesAfterLastGc, std::uint64_t(N / 2) * 32);
  for (int I = 0; I != N; ++I)
    Heap.consShared(Value::fixnum(-1), Value::nil()); // reuses swept pairs
  int Broken = 0;
  for (int I = 0; I != N; ++I)
    if (Kept[I] && car(Slots[I]).asFixnum() != I)
      ++Broken;
  EXPECT_EQ(Broken, 0);
  for (int I = 0; I != N; ++I)
    if (Kept[I])
      Heap.removeRoot(&Slots[I]);
  EXPECT_EQ(Heap.rootCount(), 0u);
}

TEST(GlobalHeapTest, YoungAreasActAsRoots) {
  // An old object referenced only from a mutator's young area must
  // survive a full collection.
  GlobalHeap Heap;
  LocalHeap Mutator(Heap, 64 * 1024);
  HandleScope Scope(Mutator);
  Value Old = Heap.consShared(Value::fixnum(42), Value::nil());
  Handle Young(Scope, Mutator.cons(Value::fixnum(0), Old));
  Heap.collectFull({&Mutator});
  EXPECT_EQ(car(cdr(Young.get())).asFixnum(), 42);
}

TEST(GlobalHeapTest, HandleScopesActAsRoots) {
  GlobalHeap Heap;
  LocalHeap Mutator(Heap, 64 * 1024);
  HandleScope Scope(Mutator);
  Handle H(Scope, Heap.consShared(Value::fixnum(8), Value::nil()));
  Heap.collectFull({&Mutator});
  EXPECT_EQ(car(H.get()).asFixnum(), 8);
}

TEST(GlobalHeapTest, RememberedSetPrunedWhenContainerDies) {
  GlobalHeap Heap;
  LocalHeap Mutator(Heap, 64 * 1024);
  {
    HandleScope Scope(Mutator);
    Handle Container(Scope, Heap.makeVectorShared(2, Value::nil()));
    Value Young = Mutator.cons(Value::fixnum(5), Value::nil());
    Mutator.write(Container.get().asObject(), 0, Young);
  }
  // Container is now garbage; the full GC must drop the remembered entry
  // rather than leave it dangling into reused memory.
  Heap.collectFull({&Mutator});
  Mutator.scavenge(); // must not crash on stale entries
  SUCCEED();
}

TEST(GlobalHeapTest, ConcurrentSharedAllocation) {
  GlobalHeap Heap;
  constexpr int PerThread = 2000;
  std::vector<std::thread> Workers;
  std::vector<std::vector<Value>> Results(4);
  for (int T = 0; T != 4; ++T)
    Workers.emplace_back([&, T] {
      for (int I = 0; I != PerThread; ++I)
        Results[T].push_back(
            Heap.consShared(Value::fixnum(T * PerThread + I), Value::nil()));
    });
  for (auto &W : Workers)
    W.join();
  for (int T = 0; T != 4; ++T)
    for (int I = 0; I != PerThread; ++I)
      EXPECT_EQ(car(Results[T][I]).asFixnum(), T * PerThread + I);
}

} // namespace
