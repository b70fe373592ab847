//===- tests/dist/ReplicaTest.cpp - Chain-of-two shard replication ------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The replication contracts (DESIGN.md section 14): a replicated put is
// copied to the backup before it is observable; a delivered tuple is
// tombstoned on the backup before the delivery flushes, so a promotion
// never resurrects it; retracts and puts commute through tombstones; a
// dead primary's backup is promoted and serves every tuple (zero loss);
// and a stale primary waking after a promotion is fenced with a clean
// epoch rejection — never split-brain double-delivery.
//
//===----------------------------------------------------------------------===//

#include "dist/Replica.h"

#include "core/Gc.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "dist/Shard.h"
#include "dist/SpaceRouter.h"
#include "sync/ParkList.h"
#include "gtest/gtest.h"

#include <memory>
#include <string>
#include <vector>

namespace {

using namespace sting;
using namespace sting::dist;
using TC = ThreadController;

#define REQUIRE_OK(Cond)                                                       \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      ADD_FAILURE() << #Cond;                                                  \
      return AnyValue(false);                                                  \
    }                                                                          \
  } while (0)

/// N shards, each running a bound Replica, plus a replicated router
/// (factor 2) over them. Must be constructed (and live) inside Vm.run.
struct ReplicatedSpace {
  std::vector<TupleSpaceRef> Spaces;
  std::vector<ReplicaRef> Reps;
  std::vector<std::unique_ptr<net::Server>> Servers;
  std::unique_ptr<SpaceRouter> Router;

  ReplicatedSpace(VirtualMachine &Vm, IoService &Io, std::size_t N,
                  RouterConfig RC = {}, ReplicaConfig RepC = {}) {
    std::vector<net::ClientConfig> Ring;
    for (std::size_t S = 0; S != N; ++S) {
      Spaces.push_back(TupleSpace::create());
      Reps.push_back(std::make_shared<Replica>(Vm, Io, Spaces[S], S, RepC));
      ShardConfig SC;
      SC.Rep = Reps[S];
      Servers.push_back(
          net::Server::start(Vm, Io, shardHandler(Spaces[S], SC)));
      net::ClientConfig CC;
      CC.Port = Servers[S] ? Servers[S]->port() : 0;
      CC.MaxAttempts = 2;
      CC.ConnectTimeoutNanos = 200'000'000;
      CC.RequestTimeoutNanos = 2'000'000'000;
      Ring.push_back(CC);
      RC.Shards.push_back(CC);
    }
    for (auto &R : Reps)
      R->bind(Ring);
    RC.ReplicationFactor = 2;
    Router = std::make_unique<SpaceRouter>(Vm, Io, std::move(RC));
  }

  bool valid() const {
    for (const auto &S : Servers)
      if (!S)
        return false;
    return true;
  }

  void teardown() {
    Router->shutdown();
    for (auto &S : Servers)
      S->shutdown();
    for (auto &R : Reps)
      R->shutdown();
  }

  bool quiesce(Deadline D = Deadline::in(5'000'000'000)) {
    for (;;) {
      RouterStatsSnapshot S = Router->statsSnapshot();
      if (S.Fanouts <= S.Deliveries + S.Retracts + S.Orphans)
        return true;
      if (D.expired())
        return false;
      TC::yieldProcessor();
    }
  }

  bool noLegs(Deadline D = Deadline::in(5'000'000'000)) {
    while (Router->pendingLegs() != 0) {
      if (D.expired())
        return false;
      TC::yieldProcessor();
    }
    return true;
  }

  /// Tuples at rest across every *serving* space — backup copies live in
  /// the side stores and must never show up here.
  std::size_t servingSize() const {
    std::size_t Total = 0;
    for (auto &Sp : Spaces)
      Total += Sp->size();
    return Total;
  }
};

/// The first \p Count fixnum keys whose home slot (routeKey % Shards) is
/// \p Want, for arity-\p Arity tuples. Placement is a stable hash, not
/// something a test may assume — scan for it.
std::vector<std::int64_t> keysHomedOn(std::size_t Want, std::size_t Shards,
                                      std::size_t Arity, std::size_t Count) {
  std::vector<std::int64_t> Keys;
  for (std::int64_t K = 0; Keys.size() != Count; ++K) {
    Tuple T;
    T.emplace_back(K);
    for (std::size_t I = 1; I < Arity; ++I)
      T.emplace_back(0);
    auto H = routeKey(T);
    if (H && *H % Shards == Want)
      Keys.push_back(K);
  }
  return Keys;
}

TEST(ReplicaTest, ReplicatedPutForwardsBackupCopyOffTheServingSpace) {
  VirtualMachine Vm;
  IoService Io;
  std::uint64_t SnapForwards = 0;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    const int N = 8;
    for (int I = 0; I != N; ++I)
      REQUIRE_OK(RS.Router->put(makeTuple(I, 100 + I)) == Status::Ok);

    // Every tuple is at rest in exactly one *serving* space (its slot's
    // primary); the backup copies live in the side stores, invisible to
    // matching — so a wildcard drain sees each tuple exactly once.
    EXPECT_EQ(RS.servingSize(), static_cast<std::size_t>(N));

    std::int64_t Sum = 0;
    int Count = 0;
    for (;; ++Count) {
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.push_back(formal(1));
      Match M;
      if (RS.Router->tryTake(std::move(Tmpl), M) != Status::Ok)
        break;
      Sum += M.binding(1).asFixnum();
      REQUIRE_OK(RS.noLegs());
      // A losing take leg's re-deposit is async: wait for the remaining
      // tuples to be at rest so the next probe cannot miss one in flight.
      Deadline AtRest = Deadline::in(5'000'000'000);
      while (RS.servingSize() != static_cast<std::size_t>(N - Count - 1) &&
             !AtRest.expired())
        TC::yieldProcessor();
    }
    EXPECT_EQ(Count, N) << "a backup copy leaked into matching, or a "
                           "tuple was lost";
    std::int64_t Want = 0;
    for (int I = 0; I != N; ++I)
      Want += 100 + I;
    EXPECT_EQ(Sum, Want);

    std::uint64_t Forwards = 0, Unackd = 0;
    for (auto &R : RS.Reps) {
      ReplicaStatsSnapshot S = R->statsSnapshot();
      Forwards += S.Forwards;
      Unackd += S.ForwardFailures;
    }
    SnapForwards = Forwards;
    EXPECT_GE(Forwards, static_cast<std::uint64_t>(N))
        << "puts were acked without a backup copy";
    EXPECT_EQ(Unackd, 0u) << "healthy backup, but forwards failed";
    EXPECT_EQ(RS.Router->statsSnapshot().Unreplicated, 0u);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
  // The obs counter tells the same story as the replica tallies.
  EXPECT_GE(Vm.aggregateStats().ReplForwards, SnapForwards);
}

TEST(ReplicaTest, DeliveredTupleIsTombstonedBeforePromotionCanResurrectIt) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    const std::int64_t K = keysHomedOn(0, 2, 2, 1)[0];
    REQUIRE_OK(RS.Router->put(makeTuple(K, 7)) == Status::Ok);

    Tuple Tmpl;
    Tmpl.emplace_back(K);
    Tmpl.push_back(formal(0));
    Match M;
    REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(0).asFixnum(), 7);

    // The delivery above was preceded by an acknowledged RepRetract, so
    // the backup's copy is already gone: promoting the backup now must
    // materialize *nothing* — the delivered tuple stays delivered.
    Replica::Ack A = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(A.Ok);
    EXPECT_EQ(A.Info, 0) << "promotion resurrected a delivered tuple";
    EXPECT_EQ(RS.servingSize(), 0u);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, RetractOutrunningItsPutAnnihilatesThroughATombstone) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    // Backup member of slot 0 at epoch 0 is shard 1. A retract for bytes
    // it has never stored must tombstone, and the late-arriving forwarded
    // put must annihilate against it — the pair commutes.
    Replica::Ack R1 =
        RS.Reps[1]->onRetract(0, 0, makeTuple(std::int64_t(3), 9));
    EXPECT_TRUE(R1.Ok);
    EXPECT_GE(RS.Reps[1]->statsSnapshot().Tombstones, 1u);

    Replica::Ack R2 = RS.Reps[1]->onPut(0, 0, /*Forwarded=*/true,
                                        makeTuple(std::int64_t(3), 9));
    EXPECT_TRUE(R2.Ok);

    // Nothing survives into a promotion: the copy was consumed before it
    // arrived.
    Replica::Ack P = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(P.Ok);
    EXPECT_EQ(P.Info, 0) << "tombstoned copy resurrected by promotion";
    EXPECT_EQ(RS.Spaces[1]->size(), 0u);
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, KillPrimaryPromotesBackupWithZeroTupleLoss) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    RouterConfig RC;
    RC.PutTimeoutNanos = 1'000'000'000;
    ReplicatedSpace RS(Vm, Io, 3, std::move(RC));
    REQUIRE_OK(RS.valid());

    // Seed slot 0 (replica group {0, 1}) through the replicated path,
    // then kill its primary dead — no drain, no goodbye.
    const int N = 6;
    std::vector<std::int64_t> Keys = keysHomedOn(0, 3, 2, N);
    std::int64_t Want = 0;
    for (int I = 0; I != N; ++I) {
      REQUIRE_OK(RS.Router->put(makeTuple(Keys[I], 100 + I)) == Status::Ok);
      Want += 100 + I;
    }
    RS.Servers[0]->shutdown();

    // Every take must still find its tuple: the router promotes shard 1
    // (slot 0's backup), which materializes the forwarded copies, and
    // re-arms the registration there. Zero loss, exact sum.
    std::int64_t Sum = 0;
    for (int I = 0; I != N; ++I) {
      Tuple Tmpl;
      Tmpl.emplace_back(Keys[I]);
      Tmpl.push_back(formal(0));
      Match M;
      REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
      Sum += M.binding(0).asFixnum();
    }
    EXPECT_EQ(Sum, Want) << "tuples lost or duplicated across the failover";

    RouterStatsSnapshot S = RS.Router->statsSnapshot();
    EXPECT_GE(S.Promotions, 1u);
    EXPECT_GE(RS.Reps[1]->statsSnapshot().Materialized,
              static_cast<std::uint64_t>(N));
    EXPECT_GE(RS.Reps[1]->statsSnapshot().Promotions, 1u);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
  EXPECT_GE(Vm.aggregateStats().ReplPromotions, 1u);
}

TEST(ReplicaTest, StalePrimaryIsFencedNotSplitBrained) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    const std::int64_t K = keysHomedOn(0, 2, 2, 1)[0];
    REQUIRE_OK(RS.Router->put(makeTuple(K, 7)) == Status::Ok);
    EXPECT_EQ(RS.Spaces[0]->size(), 1u);

    // Shard 0 goes "merely slow": its router breaker opens but the
    // process — and its resident copy of the tuple — lives on. The take
    // promotes shard 1, which materializes its backup copy and delivers.
    for (int I = 0; I != 5; ++I)
      RS.Router->pool().breaker(0).recordFailure();
    Tuple Tmpl;
    Tmpl.emplace_back(K);
    Tmpl.push_back(formal(0));
    Match M;
    REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(0).asFixnum(), 7);
    EXPECT_GE(RS.Router->statsSnapshot().Promotions, 1u);

    // The delivery's retract forward reached the old primary (the
    // replica plane never tripped), carrying the new epoch: shard 0 must
    // have demoted itself and discarded its stale resident — the
    // split-brain copy is gone before any wildcard could find it.
    Deadline Settle = Deadline::in(5'000'000'000);
    while (RS.Spaces[0]->size() != 0 && !Settle.expired())
      TC::yieldProcessor();
    EXPECT_EQ(RS.Spaces[0]->size(), 0u)
        << "stale primary still serves a delivered tuple";
    EXPECT_GE(RS.Reps[0]->statsSnapshot().Discarded, 1u);

    // The stale primary wakes and tries to serve a put at its old epoch:
    // a clean epoch rejection, nothing deposited.
    Replica::Ack A = RS.Reps[0]->onPut(0, 0, /*Forwarded=*/false,
                                       makeTuple(K, 8));
    EXPECT_FALSE(A.Ok);
    EXPECT_TRUE(A.Err != nullptr &&
                std::string(A.Err) == "stale epoch");
    EXPECT_GE(RS.Reps[0]->statsSnapshot().StaleRejections, 1u);
    EXPECT_EQ(RS.servingSize(), 0u) << "exactly-once broke: a copy "
                                       "survived the fence";

    // The fenced member owes (and completes) an anti-entropy pull, after
    // which it is promotable again — the full epoch cycle conserves the
    // (now empty) slot.
    Deadline Caught = Deadline::in(5'000'000'000);
    while (RS.Reps[0]->needsCatchup(0) && !Caught.expired())
      TC::yieldProcessor();
    EXPECT_FALSE(RS.Reps[0]->needsCatchup(0)) << "catch-up never completed";
    Replica::Ack P = RS.Reps[0]->onPromote(0, 2);
    EXPECT_TRUE(P.Ok);
    EXPECT_EQ(P.Info, 0);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, DemotedShardCatchesUpBeforeRepromotion) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    // Seed two tuples on slot 0's primary (shard 0), then flip the slot
    // to epoch 1: shard 1 materializes, shard 0 — demoted — discards its
    // residents and pulls them back as backup copies.
    std::vector<std::int64_t> Keys = keysHomedOn(0, 2, 2, 2);
    REQUIRE_OK(RS.Router->put(makeTuple(Keys[0], 1)) == Status::Ok);
    REQUIRE_OK(RS.Router->put(makeTuple(Keys[1], 2)) == Status::Ok);

    Replica::Ack P = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(P.Ok);
    EXPECT_EQ(P.Info, 2);
    Replica::Ack D = RS.Reps[0]->onDemote(0, 1);
    EXPECT_TRUE(D.Ok);
    EXPECT_EQ(D.Info, 2) << "demotion must discard both residents";
    EXPECT_EQ(RS.Spaces[0]->size(), 0u);
    EXPECT_EQ(RS.Spaces[1]->size(), 2u);

    // Until the pull lands, a premature re-promotion is refused; after
    // it, the cycle closes — and still exactly two copies serve.
    Deadline Caught = Deadline::in(5'000'000'000);
    while (RS.Reps[0]->needsCatchup(0) && !Caught.expired())
      TC::yieldProcessor();
    EXPECT_FALSE(RS.Reps[0]->needsCatchup(0)) << "catch-up never completed";
    EXPECT_GE(RS.Reps[0]->statsSnapshot().CatchupTuples, 2u);

    Replica::Ack P2 = RS.Reps[0]->onPromote(0, 2);
    EXPECT_TRUE(P2.Ok);
    EXPECT_EQ(P2.Info, 2) << "re-promotion must serve the caught-up copies";
    Replica::Ack D2 = RS.Reps[1]->onDemote(0, 2);
    EXPECT_TRUE(D2.Ok);
    EXPECT_EQ(RS.servingSize(), 2u);

    // The tuples are still takeable through the router at the new epoch.
    std::int64_t Sum = 0;
    for (std::int64_t K : Keys) {
      Tuple Tmpl;
      Tmpl.emplace_back(K);
      Tmpl.push_back(formal(0));
      Match M;
      REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
      Sum += M.binding(0).asFixnum();
    }
    EXPECT_EQ(Sum, 3);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, CatchupInstallsAuthoritativelyNotAdditively) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    // One tuple on slot 0's primary, backup copy on shard 1.
    const std::int64_t K = keysHomedOn(0, 2, 2, 1)[0];
    REQUIRE_OK(RS.Router->put(makeTuple(K, 7)) == Status::Ok);

    // Shard 1 is promoted, and the *same copy* reaches the demoting
    // shard 0 twice: once as a live forwarded RepPut at the new epoch
    // (which is also what demotes it and starts its catch-up pull), and
    // once inside the anti-entropy snapshot — the primary's ledger still
    // lists it. The install must reconcile the overlap, not sum it.
    Replica::Ack P1 = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(P1.Ok);
    EXPECT_EQ(P1.Info, 1);
    Replica::Ack F = RS.Reps[0]->onPut(0, 1, /*Forwarded=*/true,
                                       makeTuple(K, 7));
    EXPECT_TRUE(F.Ok);

    Deadline Caught = Deadline::in(5'000'000'000);
    while (RS.Reps[0]->needsCatchup(0) && !Caught.expired())
      TC::yieldProcessor();
    EXPECT_FALSE(RS.Reps[0]->needsCatchup(0)) << "catch-up never completed";

    // The caught-up side store holds exactly one copy: a promotion
    // materializes one tuple, not a duplicate per delivery channel.
    Replica::Ack P2 = RS.Reps[0]->onPromote(0, 2);
    EXPECT_TRUE(P2.Ok);
    EXPECT_EQ(P2.Info, 1)
        << "snapshot install double-counted a live-forwarded copy";
    Replica::Ack D = RS.Reps[1]->onDemote(0, 2);
    EXPECT_TRUE(D.Ok);
    EXPECT_EQ(RS.servingSize(), 1u);

    Tuple Tmpl;
    Tmpl.emplace_back(K);
    Tmpl.push_back(formal(0));
    Match M;
    REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(0).asFixnum(), 7);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, TruncatedCatchupResumesThroughTheChunkCursor) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    // One tuple per RepState chunk: a three-tuple slot needs three
    // cursor-linked pulls, and the assembled snapshot must install each
    // copy exactly once — re-pulling the same prefix per retry (the old
    // truncation behavior) would triple the first tuple.
    ReplicaConfig RepC;
    RepC.PullMaxTuples = 1;
    ReplicatedSpace RS(Vm, Io, 2, {}, RepC);
    REQUIRE_OK(RS.valid());

    const int N = 3;
    std::vector<std::int64_t> Keys = keysHomedOn(0, 2, 2, N);
    std::int64_t Want = 0;
    for (int I = 0; I != N; ++I) {
      REQUIRE_OK(RS.Router->put(makeTuple(Keys[I], 1 + I)) == Status::Ok);
      Want += 1 + I;
    }

    Replica::Ack P1 = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(P1.Ok);
    EXPECT_EQ(P1.Info, N);
    Replica::Ack D1 = RS.Reps[0]->onDemote(0, 1);
    EXPECT_TRUE(D1.Ok);

    Deadline Caught = Deadline::in(5'000'000'000);
    while (RS.Reps[0]->needsCatchup(0) && !Caught.expired())
      TC::yieldProcessor();
    EXPECT_FALSE(RS.Reps[0]->needsCatchup(0))
        << "chunked catch-up never completed";
    EXPECT_GE(RS.Reps[0]->statsSnapshot().CatchupTuples,
              static_cast<std::uint64_t>(N));

    Replica::Ack P2 = RS.Reps[0]->onPromote(0, 2);
    EXPECT_TRUE(P2.Ok);
    EXPECT_EQ(P2.Info, N) << "chunked transfer lost or duplicated a copy";
    Replica::Ack D2 = RS.Reps[1]->onDemote(0, 2);
    EXPECT_TRUE(D2.Ok);
    EXPECT_EQ(RS.servingSize(), static_cast<std::size_t>(N));

    std::int64_t Sum = 0;
    for (std::int64_t K : Keys) {
      Tuple Tmpl;
      Tmpl.emplace_back(K);
      Tmpl.push_back(formal(0));
      Match M;
      REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
      Sum += M.binding(0).asFixnum();
    }
    EXPECT_EQ(Sum, Want);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, StaleRefusalCarriesTheEpochSoARouterFarBehindConverges) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    // The cluster has failover history the router never saw: slot 0 sits
    // at epoch 20, far past the router's 2N+2 retry budget. The first
    // refused put must deliver the real epoch so the router adopts it in
    // one lap — counting up one epoch per retry would exhaust the budget
    // and surface a spurious error.
    RS.Reps[0]->observeEpoch(0, 20);
    RS.Reps[1]->observeEpoch(0, 20);

    const std::int64_t K = keysHomedOn(0, 2, 2, 1)[0];
    EXPECT_EQ(RS.Router->put(makeTuple(K, 7)), Status::Ok)
        << "router could not absorb a 20-epoch gap from the refusal";

    Tuple Tmpl;
    Tmpl.emplace_back(K);
    Tmpl.push_back(formal(0));
    Match M;
    REQUIRE_OK(RS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(0).asFixnum(), 7);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(ReplicaTest, TakeArmedBeforeItsPutIsTombstonedBeforeDelivery) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ReplicatedSpace RS(Vm, Io, 2);
    REQUIRE_OK(RS.valid());

    const std::int64_t K = keysHomedOn(0, 2, 2, 1)[0];
    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.emplace_back(K);
      Tmpl.push_back(formal(0));
      Match M;
      if (RS.Router->take(std::move(Tmpl), M) != Status::Ok)
        return AnyValue(static_cast<std::int64_t>(-1));
      return AnyValue(M.binding(0).asFixnum());
    });
    // Registered (and armed) on slot 0's primary before the put exists.
    Deadline Armed = Deadline::in(5'000'000'000);
    while (RS.Spaces[0]->stats().Takes.load() == 0 && !Armed.expired())
      TC::yieldProcessor();
    REQUIRE_OK(RS.Spaces[0]->stats().Takes.load() != 0);
    ParkList Nap;
    (void)Nap.awaitUntil([] { return false; }, &Nap, Deadline::in(10'000'000));

    // The RepPut lands on a pooled connection: its thread deposits, the
    // registration's push writer forwards the RepRetract and then writes
    // the Deliver — never the depositor.
    REQUIRE_OK(RS.Router->put(makeTuple(K, 9)) == Status::Ok);
    EXPECT_EQ(TC::threadValue(*Taker).as<std::int64_t>(), 9);

    // Delivered ⇒ tombstoned: the backup dropped its copy before the
    // taker could see the tuple, so promoting it now materializes nothing.
    Replica::Ack A = RS.Reps[1]->onPromote(0, 1);
    EXPECT_TRUE(A.Ok);
    EXPECT_EQ(A.Info, 0) << "promotion resurrected a delivered tuple";
    EXPECT_EQ(RS.servingSize(), 0u);
    EXPECT_EQ(RS.Reps[0]->statsSnapshot().ForwardFailures, 0u);
    EXPECT_TRUE(RS.quiesce());
    RS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

} // namespace
