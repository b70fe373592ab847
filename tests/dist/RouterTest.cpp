//===- tests/dist/RouterTest.cpp - Sharded tuple-space router -----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// The router's contracts (DESIGN.md section 13): puts and concrete-key
// takes meet on the same home shard; wildcard templates fan out and the
// losing legs are retracted exactly-once (the ledger Fanouts ==
// Deliveries + Retracts + Orphans); a dead home shard fails puts over in
// ring order and reroutes registrations to survivors; Unavailable is
// reported only when every candidate shard's breaker is open; and a
// version-mismatched shard answers with a clean Err, never a hang. The
// registration channel is event-driven at both ends: an armed take idles
// without a single timed wakeup, shutdown wakes it, and several routers
// can share one ring.
//
//===----------------------------------------------------------------------===//

#include "dist/SpaceRouter.h"

#include "core/Gc.h"
#include "core/ThreadController.h"
#include "core/VirtualMachine.h"
#include "dist/Shard.h"
#include "net/Wire.h"
#include "sync/ParkList.h"
#include "gtest/gtest.h"

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <sys/socket.h>

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

/// Three in-process shards plus a router over them. Must be constructed
/// (and live) inside Vm.run — every blocking member parks.
struct ShardedSpace {
  std::vector<TupleSpaceRef> Spaces;
  std::vector<std::unique_ptr<net::Server>> Servers;
  std::unique_ptr<SpaceRouter> Router;
  std::vector<net::ClientConfig> Ring; ///< for a second router

  ShardedSpace(VirtualMachine &Vm, IoService &Io, std::size_t N,
               RouterConfig RC = {}) {
    for (std::size_t S = 0; S != N; ++S) {
      Spaces.push_back(TupleSpace::create());
      Servers.push_back(net::Server::start(Vm, Io, shardHandler(Spaces[S])));
      net::ClientConfig CC;
      CC.Port = Servers[S]->port();
      CC.MaxAttempts = 2;
      CC.ConnectTimeoutNanos = 200'000'000;
      CC.RequestTimeoutNanos = 2'000'000'000;
      RC.Shards.push_back(CC);
    }
    Ring = RC.Shards;
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
  }

  /// Spins until the exactly-once ledger balances (losing-leg Retracted
  /// replies arrive asynchronously after the winning match returns).
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

  /// Strict settle: waits for the ledger to balance *exactly*, i.e. no
  /// fan-out leg is still armed anywhere. Between settled points a new put
  /// cannot be swallowed by a stale losing leg from an earlier match, so a
  /// test can reason round-by-round.
  bool settle(Deadline D = Deadline::in(5'000'000'000)) {
    for (;;) {
      RouterStatsSnapshot S = Router->statsSnapshot();
      if (S.Fanouts == S.Deliveries + S.Retracts + S.Orphans)
        return true;
      if (D.expired())
        return false;
      TC::yieldProcessor();
    }
  }

  /// Waits until no registration leg is unresolved anywhere: after this,
  /// no shard holds an armed registration, so no in-flight Retract can
  /// still consume a tuple at rest.
  bool noLegs(Deadline D = Deadline::in(5'000'000'000)) {
    while (Router->pendingLegs() != 0) {
      if (D.expired())
        return false;
      TC::yieldProcessor();
    }
    return true;
  }

  /// Waits until exactly \p Want tuples are at rest across all shard
  /// spaces — i.e. no tuple is mid-flight in a Deliver frame or an async
  /// redeposit helper. Needs a quiesced ledger to be meaningful.
  bool allDeposited(std::size_t Want,
                    Deadline D = Deadline::in(5'000'000'000)) {
    for (;;) {
      std::size_t Total = 0;
      for (auto &Sp : Spaces)
        Total += Sp->size();
      if (Total == Want)
        return true;
      if (D.expired())
        return false;
      TC::yieldProcessor();
    }
  }
};

/// Yields until \p Done() holds or \p D expires. \returns Done().
template <typename Pred>
bool waitUntil(Pred Done, Deadline D = Deadline::in(5'000'000'000)) {
  while (!Done()) {
    if (D.expired())
      return false;
    TC::yieldProcessor();
  }
  return true;
}

/// Parks the calling sting thread for \p Nanos: a timed wait nobody
/// wakes, so it costs no I/O wait.
void napFor(std::uint64_t Nanos) {
  ParkList Never;
  (void)Never.awaitUntil([] { return false; }, &Never, Deadline::in(Nanos));
}

/// A fixnum key whose home shard (routeKey % Shards) is \p Want, found by
/// scanning — placement is a stable hash, not something a test may assume.
std::int64_t keyHomedOn(std::size_t Want, std::size_t Shards,
                        std::size_t Arity) {
  for (std::int64_t K = 0;; ++K) {
    Tuple T;
    T.emplace_back(K);
    for (std::size_t I = 1; I < Arity; ++I)
      T.emplace_back(0);
    auto H = routeKey(T);
    if (H && *H % Shards == Want)
      return K;
  }
}

TEST(RouterTest, PutAndTakeMeetOnTheHomeShard) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    const int N = 12;
    for (int I = 0; I != N; ++I)
      REQUIRE_OK(SS.Router->put(makeTuple(I, "job", 100 + I)) == Status::Ok);

    // Placement is real: with 12 consecutive fixnum keys over 3 shards
    // the spread must hit more than one shard.
    std::size_t Populated = 0;
    for (auto &Sp : SS.Spaces)
      Populated += Sp->size() != 0;
    EXPECT_GE(Populated, 2u) << "hash sent every key to one shard";

    for (int I = 0; I != N; ++I) {
      Tuple Tmpl;
      Tmpl.emplace_back(I);
      Tmpl.emplace_back("job");
      Tmpl.push_back(formal(0));
      Match M;
      REQUIRE_OK(SS.Router->take(std::move(Tmpl), M) == Status::Ok);
      EXPECT_EQ(M.binding(0).asFixnum(), 100 + I);
    }
    for (auto &Sp : SS.Spaces)
      EXPECT_EQ(Sp->size(), 0u);

    RouterStatsSnapshot S = SS.Router->statsSnapshot();
    EXPECT_EQ(S.Routes, static_cast<std::uint64_t>(2 * N));
    EXPECT_EQ(S.Fanouts, 0u) << "concrete keys must not fan out";
    EXPECT_EQ(S.Failovers, 0u);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, BlockingTakeWakesOnLaterPut) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.emplace_back("result");
      Tmpl.push_back(formal(0));
      Match M;
      if (SS.Router->take(std::move(Tmpl), M) != Status::Ok)
        return AnyValue(static_cast<std::int64_t>(-1));
      return AnyValue(M.binding(0).asFixnum());
    });
    // No way to observe "registration armed" from here without reaching
    // into the shard; the put below is legal either way (registration
    // first -> push delivery; put first -> immediate match on register).
    REQUIRE_OK(SS.Router->put(makeTuple("result", 42)) == Status::Ok);
    EXPECT_EQ(TC::threadValue(*Taker).as<std::int64_t>(), 42);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, WildcardFanoutRetractsLosersExactlyOnce) {
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  VirtualMachine Vm(Config);
  IoService Io;
  std::uint64_t SnapRetracts = 0, SnapFanouts = 0;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    const int Rounds = 16;
    for (int I = 0; I != Rounds; ++I) {
      REQUIRE_OK(SS.Router->put(makeTuple(I, "fan", I * 10)) == Status::Ok);
      // Leading formal: no route key, so the take registers on all three
      // shards; exactly one delivers, the other two legs retract.
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back("fan");
      Tmpl.push_back(formal(1));
      Match M;
      REQUIRE_OK(SS.Router->take(std::move(Tmpl), M) == Status::Ok);
      EXPECT_EQ(M.binding(1).asFixnum(), M.binding(0).asFixnum() * 10);
      // Settle before the next round: the take returns on the winning
      // delivery without waiting for the losers' Retracted acks, and a
      // still-armed loser would swallow (and re-deposit) the next round's
      // tuple — conserved, but off-ledger for the strict counts below.
      REQUIRE_OK(SS.settle());
    }

    EXPECT_TRUE(SS.quiesce()) << "losing legs never finished retracting";
    RouterStatsSnapshot S = SS.Router->statsSnapshot();
    EXPECT_EQ(S.Fanouts, static_cast<std::uint64_t>(3 * Rounds));
    EXPECT_EQ(S.Deliveries, static_cast<std::uint64_t>(Rounds));
    // The exactly-once ledger: every armed leg resolved as a delivery, a
    // retract, or an orphan — and with healthy shards, no orphans.
    EXPECT_EQ(S.Fanouts, S.Deliveries + S.Retracts + S.Orphans);
    EXPECT_EQ(S.Orphans, 0u);
    EXPECT_EQ(S.Redeposits, 0u) << "a lost take race with only one tuple?";
    SnapRetracts = S.Retracts;
    SnapFanouts = S.Fanouts;
    for (auto &Sp : SS.Spaces)
      EXPECT_EQ(Sp->size(), 0u) << "a consumed tuple reappeared";
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
  // The obs counters tell the same story as the router's ledger.
  obs::SchedStatsSnapshot S = Vm.aggregateStats();
  EXPECT_EQ(S.RouterRetracts, SnapRetracts);
  EXPECT_EQ(S.RouterFanouts, SnapFanouts);
  EXPECT_EQ(S.RouterRetracts, SnapFanouts - 16 /* deliveries */);
}

TEST(RouterTest, PutFailsOverInRingOrderWhenHomeShardDies) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    RouterConfig RC;
    RC.PutTimeoutNanos = 1'000'000'000;
    ShardedSpace SS(Vm, Io, 3, std::move(RC));
    REQUIRE_OK(SS.valid());

    const std::int64_t K = keyHomedOn(0, 3, 2);
    SS.Servers[0]->shutdown(); // kill the home shard

    REQUIRE_OK(SS.Router->put(makeTuple(K, 7)) == Status::Ok);
    EXPECT_EQ(SS.Spaces[0]->size(), 0u);
    EXPECT_EQ(SS.Spaces[1]->size() + SS.Spaces[2]->size(), 1u)
        << "failed-over put landed nowhere (or twice)";

    RouterStatsSnapshot S = SS.Router->statsSnapshot();
    EXPECT_GE(S.Failovers, 1u);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
  EXPECT_GE(Vm.aggregateStats().RouterFailovers, 1u);
}

TEST(RouterTest, OpenHomeBreakerReroutesRegistrationsToSurvivors) {
  VmConfig Config;
  Config.NumVps = 2;
  Config.NumPps = 2;
  VirtualMachine Vm(Config);
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    const std::int64_t K = keyHomedOn(0, 3, 2);
    // Trip shard 0's breaker (threshold is 5 by default): the router must
    // now treat a shard-0-homed template as "home down" and register on
    // both survivors instead.
    for (int I = 0; I != 5; ++I)
      SS.Router->pool().breaker(0).recordFailure();
    REQUIRE_OK(SS.Router->pool().breaker(0).state() ==
               net::BreakerState::Open);

    // Seed both survivors with a matching tuple, then take: the rerouted
    // registration arms on shards 1 and 2, both deliver (immediate match
    // at register time), one wins and the losing take delivery must be
    // re-deposited — conservation survives the reroute race.
    SS.Spaces[1]->put(makeTuple(K, 21));
    SS.Spaces[2]->put(makeTuple(K, 21));
    Tuple Tmpl;
    Tmpl.emplace_back(K);
    Tmpl.push_back(formal(0));
    Match M;
    REQUIRE_OK(SS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(0).asFixnum(), 21);

    // Exactly one of the two seeded tuples survives; a losing delivery's
    // re-deposit may still be in flight, so poll for the steady state.
    Deadline Settle = Deadline::in(5'000'000'000);
    std::size_t Left;
    do {
      Left = SS.Spaces[0]->size() + SS.Spaces[1]->size() + SS.Spaces[2]->size();
    } while (Left != 1 && !Settle.expired() && (TC::yieldProcessor(), true));
    EXPECT_EQ(Left, 1u) << "reroute race lost or duplicated a tuple";

    RouterStatsSnapshot S = SS.Router->statsSnapshot();
    EXPECT_GE(S.Failovers, 1u) << "reroute must count as a failover";
    EXPECT_GE(S.Fanouts, 2u) << "reroute must arm every survivor";
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, UnavailableOnlyWhenEveryCandidateBreakerIsOpen) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    // Two of three open: wildcard waits degrade gracefully to the
    // survivor rather than failing.
    for (std::size_t Shard : {0u, 1u})
      for (int I = 0; I != 5; ++I)
        SS.Router->pool().breaker(Shard).recordFailure();
    REQUIRE_OK(SS.Router->put(makeTuple(std::int64_t(1), 5)) == Status::Ok);
    Tuple Tmpl;
    Tmpl.push_back(formal(0));
    Tmpl.push_back(formal(1));
    Match M;
    // The surviving shard may or may not hold the tuple (the put failed
    // over to *some* live shard = shard 2, the only candidate): it must.
    REQUIRE_OK(SS.Router->take(std::move(Tmpl), M) == Status::Ok);
    EXPECT_EQ(M.binding(1).asFixnum(), 5);

    // All three open: now — and only now — Unavailable.
    for (int I = 0; I != 5; ++I)
      SS.Router->pool().breaker(2).recordFailure();
    Tuple T2;
    T2.push_back(formal(0));
    Match M2;
    EXPECT_EQ(SS.Router->take(std::move(T2), M2), Status::Unavailable);
    EXPECT_EQ(SS.Router->put(makeTuple(std::int64_t(9), 9)),
              Status::Unavailable);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, TryTakeReportsTimeoutOnNoMatch) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    RouterConfig RC;
    // Wide enough that a cold channel (first-leg fork, connect, handshake,
    // register) fits a match well inside the window; the miss probe below
    // pays it once, so keep it far under the suite timeout.
    RC.TryWindowNanos = 200'000'000;
    ShardedSpace SS(Vm, Io, 3, std::move(RC));
    REQUIRE_OK(SS.valid());

    Tuple Tmpl;
    Tmpl.emplace_back("absent");
    Match M;
    EXPECT_EQ(SS.Router->tryTake(std::move(Tmpl), M), Status::Timeout);

    REQUIRE_OK(SS.Router->put(makeTuple("present", 3)) == Status::Ok);
    Tuple T2;
    T2.emplace_back("present");
    T2.push_back(formal(0));
    Status St = SS.Router->tryTake(std::move(T2), M);
    EXPECT_EQ(St, Status::Ok);
    if (St == Status::Ok) {
      EXPECT_EQ(M.binding(0).asFixnum(), 3);
    }
    EXPECT_TRUE(SS.quiesce());
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, SwarmConservesTuplesAcrossMixedTemplates) {
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 4;
  VirtualMachine Vm(Config);
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    // Token id leads the tuple so placement spreads across shards — the
    // route key hashes field 0. [id, "tok", value].
    const int Tokens = 6, Workers = 6, Iters = 20;
    for (int T = 0; T != Tokens; ++T)
      REQUIRE_OK(SS.Router->put(makeTuple(T, "tok", 0)) == Status::Ok);

    // Even workers take by concrete token id (single-leg, home-routed);
    // odd workers lead with a formal, so every take registers on all
    // three shards. Every take increments the value and puts the token
    // back, so the token count and the sum are both conserved.
    std::vector<ThreadRef> Ws;
    for (int W = 0; W != Workers; ++W)
      Ws.push_back(TC::forkThread([&, W]() -> AnyValue {
        for (int I = 0; I != Iters; ++I) {
          Match M;
          std::int64_t Id, Val;
          if (W % 2 == 0) {
            Tuple Tmpl;
            Tmpl.emplace_back(W % Tokens);
            Tmpl.emplace_back("tok");
            Tmpl.push_back(formal(0));
            if (SS.Router->take(std::move(Tmpl), M) != Status::Ok)
              return AnyValue(false);
            Id = W % Tokens;
            Val = M.binding(0).asFixnum();
          } else {
            Tuple Tmpl;
            Tmpl.push_back(formal(0));
            Tmpl.emplace_back("tok");
            Tmpl.push_back(formal(1));
            if (SS.Router->take(std::move(Tmpl), M) != Status::Ok)
              return AnyValue(false);
            Id = M.binding(0).asFixnum();
            Val = M.binding(1).asFixnum();
          }
          if (SS.Router->put(makeTuple(Id, "tok", Val + 1)) != Status::Ok)
            return AnyValue(false);
        }
        return AnyValue(true);
      }));
    bool AllOk = true;
    for (ThreadRef &T : Ws)
      AllOk = AllOk && TC::threadValue(*T).as<bool>();
    REQUIRE_OK(AllOk);

    // Settle before counting: a losing fan-out leg whose Retract is still
    // in flight can consume a token at rest and re-deposit it through an
    // async helper, so wait until every leg resolved and all six tokens
    // are back at rest.
    EXPECT_TRUE(SS.noLegs());
    EXPECT_TRUE(SS.allDeposited(Tokens));

    // Exactly Tokens tuples survive, and their values sum to the number
    // of increments — nothing lost, nothing duplicated.
    std::int64_t Sum = 0;
    int Count = 0;
    for (;; ++Count) {
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back("tok");
      Tmpl.push_back(formal(1));
      Match M;
      if (SS.Router->tryTake(std::move(Tmpl), M) != Status::Ok)
        break;
      Sum += M.binding(1).asFixnum();
      // Each drain take fans out too; let its losing legs retract before
      // the next probe so they cannot briefly hide a token in flight.
      EXPECT_TRUE(SS.noLegs());
    }
    EXPECT_EQ(Count, Tokens);
    EXPECT_EQ(Sum, static_cast<std::int64_t>(Workers) * Iters);

    EXPECT_TRUE(SS.quiesce());
    // Single-leg (concrete-key) registrations count Deliveries but not
    // Fanouts, so the global ledger is an inequality; each wildcard take
    // (Workers/2 odd workers × Iters rounds) fanned out to all 3 shards.
    RouterStatsSnapshot S = SS.Router->statsSnapshot();
    EXPECT_LE(S.Fanouts, S.Deliveries + S.Retracts + S.Orphans);
    EXPECT_GE(S.Fanouts, 3u * (Workers / 2) * Iters);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, RouterHandlerServesRemoteClientsAndStats) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    namespace wire = net::wire;
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());
    auto Front = net::Server::start(Vm, Io, routerHandler(*SS.Router));
    REQUIRE_OK(Front != nullptr);

    net::BufferedConn C(
        net::Socket::connectTo(Io, "127.0.0.1", Front->port()));
    REQUIRE_OK(C.valid());
    auto Send = [&C](const wire::Writer &W) {
      return C.writeFrame(W.payload().data(), W.payload().size()) &&
             C.flush();
    };

    wire::Writer Out(wire::Op::TsOut);
    Out.text("remote");
    Out.fixnum(11);
    REQUIRE_OK(Send(Out));
    std::vector<std::uint8_t> Frame;
    REQUIRE_OK(C.readFrame(Frame));
    EXPECT_EQ(wire::Reader(Frame.data(), Frame.size()).op(),
              wire::Op::TsAck);

    wire::Writer In(wire::Op::TsIn);
    In.text("remote");
    In.formal(0);
    REQUIRE_OK(Send(In));
    REQUIRE_OK(C.readFrame(Frame));
    wire::Reader R(Frame.data(), Frame.size());
    EXPECT_EQ(R.op(), wire::Op::TsMatch);
    R.takeFlow();
    wire::ReadField F;
    REQUIRE_OK(R.next(F) && F.T == wire::Tag::Text);
    REQUIRE_OK(R.next(F) && F.T == wire::Tag::Fixnum);
    EXPECT_EQ(F.Num, 11);

    wire::Writer Stats(wire::Op::RouterStats);
    REQUIRE_OK(Send(Stats));
    REQUIRE_OK(C.readFrame(Frame));
    wire::Reader SR(Frame.data(), Frame.size());
    EXPECT_EQ(SR.op(), wire::Op::StatsReply);
    SR.takeFlow();
    std::int64_t Routes = -1;
    wire::ReadField Name, Value;
    while (SR.next(Name) && SR.next(Value))
      if (Name.T == wire::Tag::Text && Name.Bytes == "sting_router_routes_total")
        Routes = Value.Num;
    EXPECT_GE(Routes, 2) << "router counters missing from RouterStats";
    SS.teardown();
    Front->shutdown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, ShardAnswersVersionMismatchWithErrNotHang) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    namespace wire = net::wire;
    TupleSpaceRef Space = TupleSpace::create();
    auto Server = net::Server::start(Vm, Io, shardHandler(Space));
    REQUIRE_OK(Server != nullptr);

    net::BufferedConn C(
        net::Socket::connectTo(Io, "127.0.0.1", Server->port()));
    REQUIRE_OK(C.valid());
    wire::Writer Hello(wire::Op::Hello);
    Hello.fixnum(WireVersion + 41);
    REQUIRE_OK(C.writeFrame(Hello.payload().data(), Hello.payload().size()) &&
               C.flush());
    std::vector<std::uint8_t> Frame;
    REQUIRE_OK(C.readFrame(Frame, Deadline::in(2'000'000'000)));
    wire::Reader R(Frame.data(), Frame.size());
    EXPECT_EQ(R.op(), wire::Op::Err);
    // The shard closes after the refusal: the next read sees EOF, not a
    // hang (a second Hello would go nowhere).
    EXPECT_FALSE(C.readFrame(Frame, Deadline::in(2'000'000'000)));
    Server->shutdown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, ArmedTakeIdlesWithoutTimedWakeups) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    // A wildcard take with nothing to match: one leg armed on every shard.
    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back("idle");
      Match M;
      Status St =
          SS.Router->takeUntil(std::move(Tmpl), Deadline::in(20'000'000'000), M);
      return AnyValue(St == Status::Ok && M.binding(0).asFixnum() == 5);
    });
    REQUIRE_OK(waitUntil([&] {
      for (auto &Sp : SS.Spaces)
        if (Sp->stats().Takes.load() == 0)
          return false;
      return true;
    }));
    napFor(20'000'000); // every registration lands; the readers re-park

    // Idle: the pumps and the shard readers sit in untimed reads and the
    // push writers on their wake lists. A poll lap would re-arm a timed
    // read (one I/O wait) per channel per period.
    std::uint64_t Before = Io.stats().Waits.load();
    napFor(50'000'000);
    std::uint64_t After = Io.stats().Waits.load();
    EXPECT_EQ(After, Before) << "an idle armed take is polling";

    REQUIRE_OK(SS.Router->put(makeTuple(5, "idle")) == Status::Ok);
    EXPECT_TRUE(TC::threadValue(*Taker).as<bool>());
    EXPECT_TRUE(SS.noLegs());
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, ShutdownCancelsAnArmedTakeWithoutHanging) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back("never");
      Match M;
      return AnyValue(static_cast<int>(SS.Router->take(std::move(Tmpl), M)));
    });
    REQUIRE_OK(waitUntil([&] {
      for (auto &Sp : SS.Spaces)
        if (Sp->stats().Takes.load() == 0)
          return false;
      return true;
    }));

    // Every pump is parked in an untimed read: shutdown must wake them
    // (socket shutdown), fail the legs, and let the caller report
    // Canceled — promptly, not after some timeout.
    SS.Router->shutdown();
    REQUIRE_OK(TC::threadWaitFor(*Taker, Deadline::in(5'000'000'000)));
    EXPECT_EQ(TC::threadValue(*Taker).as<int>(),
              static_cast<int>(Status::Canceled));
    EXPECT_EQ(SS.Router->pendingLegs(), 0u);
    for (auto &S : SS.Servers)
      S->shutdown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, TakeArmedBeforeItsPutIsDeliveredFromAPoolConnection) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    const std::int64_t K = keyHomedOn(0, 3, 2);
    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.emplace_back(K);
      Tmpl.push_back(formal(0));
      Match M;
      if (SS.Router->take(std::move(Tmpl), M) != Status::Ok)
        return AnyValue(static_cast<std::int64_t>(-1));
      return AnyValue(M.binding(0).asFixnum());
    });
    REQUIRE_OK(waitUntil([&] { return SS.Spaces[0]->stats().Takes.load() != 0; }));
    napFor(10'000'000); // the registration is armed, not mid-register

    // The put arrives on a pooled unary connection: its connection thread
    // is the depositor, a stranger to the registration's connection, and
    // the match must still reach the taker through that connection's
    // push writer.
    REQUIRE_OK(SS.Router->put(makeTuple(K, 77)) == Status::Ok);
    EXPECT_EQ(TC::threadValue(*Taker).as<std::int64_t>(), 77);
    EXPECT_EQ(SS.Spaces[0]->size(), 0u);
    EXPECT_EQ(SS.Router->statsSnapshot().Deliveries, 1u);
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, TerminatedTakerRetractsItsLegs) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());

    const std::int64_t K = keyHomedOn(0, 3, 2);
    ThreadRef Taker = TC::forkThread([&]() -> AnyValue {
      Tuple Tmpl;
      Tmpl.emplace_back(K);
      Tmpl.push_back(formal(0));
      Match M;
      (void)SS.Router->take(std::move(Tmpl), M);
      return AnyValue(true);
    });
    REQUIRE_OK(waitUntil([&] { return SS.Spaces[0]->stats().Takes.load() != 0; }));
    napFor(10'000'000);

    // Async cancellation unwinds the taker out of its wait. Its match
    // record dies with its stack frame, so every leg must be unhooked and
    // retracted on the way out — none may linger pointing at the frame.
    TC::threadTerminate(*Taker);
    REQUIRE_OK(TC::threadWaitFor(*Taker, Deadline::in(5'000'000'000)));
    EXPECT_TRUE(Taker->wasTerminated());
    EXPECT_TRUE(SS.noLegs()) << "a dead taker's leg is still armed";

    // With the registration gone, a matching put comes to rest.
    REQUIRE_OK(SS.Router->put(makeTuple(K, 5)) == Status::Ok);
    EXPECT_TRUE(SS.allDeposited(1));
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, TwoRoutersShareOneRing) {
  VmConfig Config;
  Config.NumVps = 4;
  Config.NumPps = 4;
  VirtualMachine Vm(Config);
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    ShardedSpace SS(Vm, Io, 3);
    REQUIRE_OK(SS.valid());
    // A second router over the same shards. Both number registrations
    // from 1, so their ids collide on every shard from the first take.
    RouterConfig RC2;
    RC2.Shards = SS.Ring;
    SpaceRouter Other(Vm, Io, std::move(RC2));
    SpaceRouter *Routers[2] = {SS.Router.get(), &Other};

    const int Tokens = 4, Workers = 4, Iters = 15;
    for (int T = 0; T != Tokens; ++T)
      REQUIRE_OK(Routers[T % 2]->put(makeTuple(T, "tok", 0)) == Status::Ok);

    // Worker W uses router W % 2; workers 0 and 1 take by concrete id,
    // workers 2 and 3 by wildcard (a leg on every shard).
    std::vector<ThreadRef> Ws;
    for (int W = 0; W != Workers; ++W)
      Ws.push_back(TC::forkThread([&, W]() -> AnyValue {
        SpaceRouter &R = *Routers[W % 2];
        for (int I = 0; I != Iters; ++I) {
          Match M;
          Tuple Tmpl;
          if (W < 2)
            Tmpl.emplace_back(W % Tokens);
          else
            Tmpl.push_back(formal(1));
          Tmpl.emplace_back("tok");
          Tmpl.push_back(formal(0));
          if (R.take(std::move(Tmpl), M) != Status::Ok)
            return AnyValue(false);
          std::int64_t Id = W < 2 ? W % Tokens : M.binding(1).asFixnum();
          if (R.put(makeTuple(Id, "tok", M.binding(0).asFixnum() + 1)) !=
              Status::Ok)
            return AnyValue(false);
        }
        return AnyValue(true);
      }));
    bool AllOk = true;
    for (ThreadRef &T : Ws)
      AllOk = TC::threadValue(*T).as<bool>() && AllOk;
    REQUIRE_OK(AllOk);

    // Conservation across both routers: every token back at rest, and the
    // values sum to the number of increments.
    REQUIRE_OK(waitUntil([&] {
      return SS.Router->pendingLegs() == 0 && Other.pendingLegs() == 0;
    }));
    EXPECT_TRUE(SS.allDeposited(Tokens));
    std::int64_t Sum = 0;
    int Count = 0;
    for (;; ++Count) {
      Tuple Tmpl;
      Tmpl.push_back(formal(0));
      Tmpl.emplace_back("tok");
      Tmpl.push_back(formal(1));
      Match M;
      if (Routers[Count % 2]->tryTake(std::move(Tmpl), M) != Status::Ok)
        break;
      Sum += M.binding(1).asFixnum();
      EXPECT_TRUE(waitUntil([&] {
        return SS.Router->pendingLegs() == 0 && Other.pendingLegs() == 0;
      }));
    }
    EXPECT_EQ(Count, Tokens);
    EXPECT_EQ(Sum, static_cast<std::int64_t>(Workers) * Iters);
    for (SpaceRouter *R : Routers)
      EXPECT_EQ(R->statsSnapshot().Orphans, 0u)
          << "a registration was refused (colliding ids?)";
    Other.shutdown();
    SS.teardown();
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

TEST(RouterTest, ShardShutdownReturnsTheFrameAKilledPushWriterHeld) {
  VirtualMachine Vm;
  IoService Io;
  AnyValue V = Vm.run([&]() -> AnyValue {
    namespace wire = net::wire;
    TupleSpaceRef Space = TupleSpace::create();
    auto Server = net::Server::start(Vm, Io, shardHandler(Space));
    REQUIRE_OK(Server != nullptr);

    net::BufferedConn C(
        net::Socket::connectTo(Io, "127.0.0.1", Server->port()));
    REQUIRE_OK(C.valid());
    // A small receive window, so the shard's socket fills with a few MB.
    int Small = 64 * 1024;
    setsockopt(C.socket().fd(), SOL_SOCKET, SO_RCVBUF, &Small, sizeof(Small));
    auto Send = [&C](const wire::Writer &W) {
      return C.writeFrame(W.payload().data(), W.payload().size()) &&
             C.flush();
    };
    wire::Writer Hello(wire::Op::Hello);
    Hello.fixnum(WireVersion);
    REQUIRE_OK(Send(Hello));
    std::vector<std::uint8_t> Frame;
    REQUIRE_OK(C.readFrame(Frame, Deadline::in(2'000'000'000)));

    // One take registration per key, then a big matching tuple per key:
    // every put consumes its tuple into a Deliver frame at once, and the
    // frames outgrow what the socket can hold, because this peer never
    // reads. The push writer parks mid-write holding one frame.
    const int N = 40;
    const std::string Big(128 * 1024, 'x');
    for (int I = 0; I != N; ++I) {
      wire::Writer W(wire::Op::Register);
      W.fixnum(I + 1);
      W.fixnum(1); // take
      REQUIRE_OK(writeTupleFields(W, makeTuple(I, formal(0))));
      REQUIRE_OK(Send(W));
    }
    REQUIRE_OK(waitUntil([&] {
      return Space->stats().Takes.load() == static_cast<std::uint64_t>(N);
    }));
    for (int I = 0; I != N; ++I) {
      Tuple T;
      T.emplace_back(I);
      T.push_back(Field::blob(Big));
      Space->put(std::move(T));
    }
    EXPECT_EQ(Space->size(), 0u) << "every put should have been consumed";
    napFor(100'000'000);

    // Kill-group: the parked writer unwinds. Its frame, and every frame
    // still queued, must put its tuple back.
    Server->shutdown();

    // What the shard did flush is readable up to a truncated tail frame.
    int Delivered = 0;
    while (C.readFrame(Frame, Deadline::in(2'000'000'000))) {
      wire::Reader R(Frame.data(), Frame.size());
      if (R.ok() && R.op() == wire::Op::Deliver)
        ++Delivered;
    }
    EXPECT_LT(Delivered, N) << "the socket never filled; nothing tested";
    EXPECT_EQ(static_cast<std::size_t>(Delivered) + Space->size(),
              static_cast<std::size_t>(N))
        << "a consumed tuple was neither delivered nor put back";
    return AnyValue(true);
  });
  EXPECT_TRUE(V.as<bool>());
}

} // namespace
