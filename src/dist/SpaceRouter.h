//===- dist/SpaceRouter.h - Sharded tuple-space router ----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One logical tuple space over many shard VMs (DESIGN.md §13). A
/// SpaceRouter presents the TupleSpace blocking API — put/take/rd with
/// timed and try variants — against a set of shard endpoints, each
/// running dist::shardHandler over its own space:
///
///  - Placement: a tuple's home shard is routeKey(tuple) % N, hashed
///    over wire bytes so placement is stable across processes. Puts go
///    home; an open breaker or transport failure fails the put over to
///    the next live shard in ring order (RouterFailovers).
///
///  - Matching: blocking reads become *registrations*. A template with a
///    concrete key registers on its home shard (or, home breaker open,
///    on every surviving shard — the reroute half of the failover
///    matrix); a wildcard template fans out to every live shard. First
///    delivery wins; every losing leg is retracted, and the shard's
///    wasArmed answer mirrors HandoffList's Armed→Delivered discipline
///    on the wire: a leg resolves exactly once, as a delivery or as a
///    retract, never both. A losing *take* delivery (the race between a
///    deposit and our retract) is re-deposited through the router, so
///    tuples are conserved exactly-once.
///
///  - Health: shard health lives in the multi-endpoint pool's
///    per-endpoint breakers, shared by the unary plane (puts) and the
///    registration plane (channel connects). Unavailable is reported
///    only when every candidate shard is open or dead.
///
///  - Replication (ReplicationFactor = 2, DESIGN.md §14): puts become
///    RepPut against the slot's current *primary* — elected by the
///    slot's epoch, which this router tracks — and the primary copies to
///    its backup before acking. When the primary's breaker opens or a
///    request dies, the router promotes the backup (RepPromote at
///    epoch+1) and retries; keyed matches register on the primary only
///    and re-arm across promotions until their deadline. The epochs ride
///    the Hello handshake so a rejoining stale primary is fenced before
///    any registration can arm on resurrected state.
///
/// Unary requests ride the pool's net::Clients (retry/backoff/breaker);
/// registrations ride one dedicated channel per shard. The calling thread
/// writes its own Register and Retract frames (in order, under the
/// channel's write lock); a pump thread owns the connection — it dials,
/// runs the Hello/HelloOk version handshake, re-arms live registrations
/// after a reconnect — and otherwise only blocks in an untimed read for
/// Deliver/Retracted frames. Nothing polls: a match wakes on the Deliver's
/// arrival, and shutdown wakes the pump by shutting its socket down.
///
//===----------------------------------------------------------------------===//

#ifndef STING_DIST_SPACEROUTER_H
#define STING_DIST_SPACEROUTER_H

#include "dist/Route.h"
#include "net/Pool.h"
#include "net/Server.h"
#include "tuple/Tuple.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace sting {
class VirtualMachine;
} // namespace sting

namespace sting::dist {

struct RouterConfig {
  /// One entry per shard; order defines the hash ring. Breaker/timeout
  /// fields configure both the pooled unary clients and the channel.
  std::vector<net::ClientConfig> Shards;
  /// Pooled unary connections per shard.
  std::size_t MaxConnectionsPerShard = 4;
  /// Pause between failed channel connect rounds (each failed round also
  /// fails the legs queued on that channel, so callers are never gated on
  /// this pause — it only paces the dials).
  std::uint64_t ChannelRetryNanos = 10'000'000;
  /// Per-shard budget for one put attempt (the pool client retries
  /// within it).
  std::uint64_t PutTimeoutNanos = 2'000'000'000;
  /// tryRead/tryTake are one bounded registration round-trip: the probe
  /// window before the registration is retracted and "no match" returned.
  std::uint64_t TryWindowNanos = 50'000'000;
  /// Copies per hash slot. 1 is the single-copy router of DESIGN.md §13;
  /// 2 enables chain-of-two replication (DESIGN.md §14) — every shard
  /// must then run a bound dist::Replica. Values above 2 are refused.
  std::size_t ReplicationFactor = 1;
  /// Budget for one RepPromote/RepDemote round-trip during a failover.
  std::uint64_t PromoteTimeoutNanos = 1'000'000'000;
};

/// Router-side tallies, finer-grained than the four obs counters. The
/// exactly-once ledger: every fan-out leg ever armed resolves exactly
/// once, so Fanouts == Deliveries + Retracts + Orphans once quiescent
/// (single-leg registrations count Deliveries/Orphans but not Fanouts,
/// and their retracts — plain timeouts — count Retracts).
struct RouterStatsSnapshot {
  std::uint64_t Routes = 0;     ///< operations routed (puts + matches)
  std::uint64_t Fanouts = 0;    ///< legs armed by multi-shard registrations
  std::uint64_t Retracts = 0;   ///< legs retracted while armed (wasArmed)
  std::uint64_t Failovers = 0;  ///< ops that left their home shard
  std::uint64_t Deliveries = 0; ///< Deliver frames dispatched to legs
  std::uint64_t Redeposits = 0; ///< losing take deliveries re-deposited
  std::uint64_t Orphans = 0;    ///< legs failed by channel death/refusal
  std::uint64_t Promotions = 0; ///< slot epoch bumps this router won
  std::uint64_t Unreplicated = 0; ///< puts acked single-copy (backup down)
};

/// One logical tuple space routed over shard endpoints. Thread-safe; all
/// blocking members must run on sting threads (they park).
class SpaceRouter {
public:
  /// \p Vm hosts the router's pump/helper threads (in its root group, so
  /// they survive any server group the caller tears down); \p Io carries
  /// the sockets. Both must outlive the router.
  SpaceRouter(VirtualMachine &Vm, IoService &Io, RouterConfig Config);
  ~SpaceRouter();

  SpaceRouter(const SpaceRouter &) = delete;
  SpaceRouter &operator=(const SpaceRouter &) = delete;

  /// Stops the channels, fails outstanding registrations (their callers
  /// return Canceled) and joins the router's threads. Idempotent.
  void shutdown();

  // --- The TupleSpace surface, with distribution-visible statuses --------

  /// Deposits \p T on its home shard (replicated mode: on its slot's
  /// current primary, two-copy — §14). Blocks for at most the per-shard
  /// put budget times the failover laps; an open home breaker fails over
  /// in ring order (single-copy) or promotes the backup (replicated).
  /// Ok means some shard durably holds the tuple; Unavailable means no
  /// candidate admitted it (the tuple was NOT deposited).
  Status put(Tuple T);

  /// read/take block until a match is delivered (registration proxy on
  /// the candidate shards — no connection thread parks per waiter);
  /// *Until variants return Timeout when \p D expires first, with the
  /// registration retracted exactly-once. Canceled reports router
  /// shutdown or IoService teardown. All must run on sting threads.
  Status read(Tuple Template, Match &Out) {
    return matchUntil(std::move(Template), false, Deadline::never(), Out);
  }
  Status take(Tuple Template, Match &Out) {
    return matchUntil(std::move(Template), true, Deadline::never(), Out);
  }
  Status readUntil(Tuple Template, Deadline D, Match &Out) {
    return matchUntil(std::move(Template), false, D, Out);
  }
  Status takeUntil(Tuple Template, Deadline D, Match &Out) {
    return matchUntil(std::move(Template), true, D, Out);
  }
  /// try* is one bounded round-trip (TryWindowNanos): Timeout means "no
  /// match right now" — a remote try cannot be instantaneous.
  Status tryRead(Tuple Template, Match &Out) {
    return matchUntil(std::move(Template), false,
                      Deadline::in(Config.TryWindowNanos), Out);
  }
  Status tryTake(Tuple Template, Match &Out) {
    return matchUntil(std::move(Template), true,
                      Deadline::in(Config.TryWindowNanos), Out);
  }

  /// Ring size (fixed at construction — resharding is a roadmap item).
  std::size_t shardCount() const { return Config.Shards.size(); }

  /// The multi-endpoint pool (per-shard breakers live here). Thread-safe;
  /// tests trip breakers through it to simulate gray failures.
  net::ConnectionPool &pool() { return Pool; }

  /// Relaxed-atomic tallies; exact only at quiescence. Thread-safe.
  RouterStatsSnapshot statsSnapshot() const;

  /// Registration legs not yet resolved, summed over every channel. Zero
  /// means no shard holds an armed registration for this router — no
  /// in-flight Retract can still consume a deposited tuple — which is the
  /// settle point drain/teardown sequences should wait for.
  std::size_t pendingLegs() const;

  /// Replication enabled (factor ≥ 2 over a multi-shard ring)? Pure.
  bool replicated() const {
    return Config.ReplicationFactor >= 2 && Config.Shards.size() >= 2;
  }

  /// The router's view of \p Slot's epoch (monotonic; shard refusals and
  /// acks raise it). Thread-safe.
  std::uint64_t slotEpoch(std::size_t Slot) const {
    return SlotEpochs[Slot].load(std::memory_order_acquire);
  }

private:
  class Channel;
  struct RouterOp;
  struct Leg;

  Status matchUntil(Tuple Template, bool Remove, Deadline D, Match &Out);

  /// One arm/await/detach round against \p Cands. Factored out so the
  /// replicated keyed path can retry across promotions.
  Status matchOnce(const std::vector<std::size_t> &Cands, const Tuple &Template,
                   const std::vector<std::uint8_t> &RegFrame, std::uint64_t Id,
                   bool Remove, Deadline D, Match &Out);

  Status putReplicated(const Tuple &T, std::uint64_t Key);

  /// Promotes \p Slot's backup to primary at FromEpoch+1 (idempotent,
  /// concurrent-safe: the shard applies the max epoch, this router CAS-
  /// raises its view). \returns false when the backup refused or is
  /// unreachable. Best-effort demotes the old primary afterwards.
  bool tryPromote(std::size_t Slot, std::uint64_t FromEpoch);

  /// Raises the slot-view epoch to at least \p E (monotonic CAS).
  void raiseEpoch(std::size_t Slot, std::uint64_t E);

  /// Candidate shards for a registration/put given the breaker view;
  /// empty means Unavailable. Sets \p LeftHome when the home shard was
  /// skipped (concrete key, breaker open).
  std::vector<std::size_t> candidates(const std::optional<std::uint64_t> &Key,
                                      bool &LeftHome);

  /// Re-deposits a losing take delivery on a forked thread (the pump
  /// must not block on a unary request).
  void redeposit(Tuple T);

  VirtualMachine *Vm;
  IoService *Io;
  RouterConfig Config;
  net::ConnectionPool Pool;
  std::vector<std::unique_ptr<Channel>> Channels;
  /// Per-slot promotion epochs (replicated mode; all zero otherwise).
  /// Monotonic — concurrent promoters race benignly via raiseEpoch.
  std::unique_ptr<std::atomic<std::uint64_t>[]> SlotEpochs;
  std::atomic<bool> Closing{false};
  std::atomic<std::uint64_t> NextId{1};

  mutable SpinLock HelperLock;
  std::vector<ThreadRef> Helpers; ///< redeposit threads, joined at shutdown

  struct {
    std::atomic<std::uint64_t> Routes{0}, Fanouts{0}, Retracts{0},
        Failovers{0}, Deliveries{0}, Redeposits{0}, Orphans{0},
        Promotions{0}, Unreplicated{0};
  } Stats;
};

/// \returns a handler exposing \p Router to remote clients with the plain
/// tuple-service ops (TsOut/TsRd/TsIn) plus RouterStats (a StatsReply of
/// the snapshot above) — the client→router→shard hop for quickstarts and
/// flow traces. \p Router must outlive the server.
net::Server::Handler routerHandler(SpaceRouter &Router);

} // namespace sting::dist

#endif // STING_DIST_SPACEROUTER_H
