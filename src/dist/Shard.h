//===- dist/Shard.h - Shard-side tuple-space service ------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shard half of the sharded tuple-space router (DESIGN.md §13): a
/// net::Server handler that serves one shard's slice of the logical space.
/// It is a superset of net::tupleSpaceHandler — TsOut/TsRd/TsIn behave
/// identically — plus the registration protocol:
///
///  - Hello/HelloOk: version handshake opening a registration connection;
///    a version mismatch gets an Err reply and a close, never a hang. The
///    router may append (slot, epoch) pairs after the version — its view
///    of slot promotions — which fence a stale primary at reconnect time
///    (DESIGN.md §14).
///
///  - Register(id, flags, template): arms a registration *proxy* in the
///    space (TupleSpace::registerProxy) on behalf of a remote waiter. No
///    connection thread parks per blocked take — the registration is an
///    entry in the space's blocked-reader table, and a matching deposit's
///    callback enqueues a Deliver(id, fields) push frame. The id names the
///    registration on this connection only; the space sees a shard-minted
///    proxy id, so several routers can share one shard.
///
///  - Retract(id): retracts the registration, answering Retracted(id,
///    wasArmed). wasArmed=true is the HandoffList retract-or-observe
///    guarantee on the wire: no delivery fired and none will. wasArmed=
///    false means a delivery owns the registration — its Deliver frame is
///    already on this connection or still in flight from the depositor's
///    callback, so the router must keep the registration record until the
///    Deliver arrives (frames from the two sources are NOT ordered).
///
///  - RepPut/RepRetract/RepPromote/RepDemote/RepPull (with a Replica
///    wired): the replication protocol of DESIGN.md §14, dispatched into
///    dist::Replica. A take's Deliver frame (and a unary TsIn's TsMatch)
///    is preceded by a forwarded, acknowledged RepRetract to the backup,
///    so every observed delivery already has a tombstoned copy.
///
/// Threads per connection: the connection thread only blocks in an untimed
/// read and writes the replies; the connection's first Register forks a
/// push writer that parks until a delivery callback queues a frame (on
/// whatever thread deposited the match) and wakes it. The push writer runs
/// the replication forward and the Deliver write, so a depositor never
/// blocks on another connection's socket. Replies and pushes share one
/// write lock. Nothing polls: an idle registration connection costs two
/// parked threads and no timer.
///
/// Exactly-once conservation across connection death: teardown retracts
/// every armed registration (the tuple never left the space) and
/// re-deposits the tuple of every *take* delivery whose Deliver frame was
/// never flushed to the socket — a consumed tuple is either observably
/// delivered or back in the space, never silently dropped. Under
/// replication the re-deposit first restores the backup copy
/// (Replica::noteRestored), keeping copy counts balanced. A frame the push
/// writer holds when the server's kill-group unwinds it is settled the
/// same way before the unwind continues.
///
//===----------------------------------------------------------------------===//

#ifndef STING_DIST_SHARD_H
#define STING_DIST_SHARD_H

#include "net/Server.h"
#include "net/Services.h"

#include <cstdint>
#include <memory>

namespace sting::dist {

class Replica;

struct ShardConfig {
  /// This shard's replication brain (DESIGN.md §14), shared by every
  /// connection the handler serves. Null runs the shard single-copy: the
  /// Rep* ops answer Err("no replica") and takes skip the retract
  /// forward. The Replica must outlive the server (keep the shared_ptr
  /// alive until net::Server::stop returns).
  std::shared_ptr<Replica> Rep;
};

/// \returns a handler serving \p Space as one shard: the tuple service
/// ops plus the registration (and, with Config.Rep, replication)
/// protocols above. Blocking TsRd/TsIn still park the connection thread
/// (pool connections); routers keep registrations on a dedicated
/// connection and never mix the two. Handlers run on sting threads and
/// may park on socket writes and replication forwards. \p Space must
/// outlive the server.
net::Server::Handler shardHandler(TupleSpaceRef Space, ShardConfig Config = {});

} // namespace sting::dist

#endif // STING_DIST_SHARD_H
