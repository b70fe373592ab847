//===- dist/Shard.cpp - Shard-side tuple-space service ------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "dist/Shard.h"

#include "core/Gc.h"
#include "core/PreemptionClock.h"
#include "core/ThreadController.h"
#include "dist/Replica.h"
#include "dist/Route.h"
#include "gc/GlobalHeap.h"
#include "net/Wire.h"
#include "obs/Flow.h"
#include "support/SpinLock.h"
#include "sync/Mutex.h"
#include "sync/ParkList.h"

#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace sting::dist {

namespace {

using net::BufferedConn;
namespace wire = net::wire;
using TC = ThreadController;

/// Proxy ids are minted here, process-wide, not taken from the wire: each
/// router numbers its registrations from 1, so a router's id only names a
/// registration on its own connection, and several routers can share one
/// shard space.
std::atomic<std::uint64_t> NextProxyId{1};

void adoptFlow(std::uint64_t F) {
  if (!F)
    return;
  obs::setCurrentFlowId(F);
  if (Thread *T = currentThread())
    T->setFlowId(F);
}

void stampReplyFlow(wire::Writer &W) {
  if (obs::FlowId F = obs::currentFlowId())
    W.flow(F);
}

/// One queued push frame (a Deliver). For a *take* delivery the consumed
/// tuple's values ride along, GC-rooted, so a frame the connection dies
/// before flushing can re-deposit its tuple — the exactly-once half the
/// shard owes (the router owes the other half for frames that *were*
/// flushed).
struct OutFrame {
  std::vector<std::uint8_t> Payload;
  std::uint64_t Id = 0;             ///< owning registration (router's id)
  std::vector<gc::Value> Redeposit; ///< non-empty only for take deliveries
  bool Taken = false; ///< noteTaken ran (the push writer popped the frame);
                      ///< only then does a dropped frame owe a
                      ///< noteRestored — teardown-dropped frames never told
                      ///< the backup and must just re-deposit locally.
};

/// Per-connection registration state. The connection thread reads every
/// request and writes its replies; a push writer thread, forked at the
/// connection's first Register, writes the Deliver frames that delivery
/// callbacks queue (on whatever thread made the matching deposit). Both
/// writers serialize on WriteLock, so frames never interleave.
class ShardConn {
public:
  ShardConn(TupleSpaceRef Space, BufferedConn &C, const ShardConfig &Cfg)
      : Space(std::move(Space)), C(C), Cfg(Cfg) {}
  ShardConn(const ShardConn &) = delete; // the push writer holds `this`
  ShardConn &operator=(const ShardConn &) = delete;

  /// Runs on the connection thread on every exit path, kill-group unwind
  /// included: the push writer is joined before teardown, so teardown owns
  /// the queue alone. Both park; interrupts stay deferred so a terminate
  /// landing meanwhile (the server's kill-group after a client EOF) cannot
  /// throw out of a destructor or cut the settling short.
  ~ShardConn() {
    WithoutInterrupts NoKill;
    stopWriter();
    teardown();
  }

  TupleSpaceRef Space;
  BufferedConn &C;
  ShardConfig Cfg;

  enum class RegState : std::uint8_t {
    Armed,    ///< registered in the space, no delivery yet
    Enqueued, ///< delivery callback ran; its frame is in (or past) Out
  };
  struct Reg {
    RegState State = RegState::Armed;
    std::uint64_t ProxyId = 0; ///< the registration's id in the space
  };

  SpinLock Lock;
  /// Keyed by the router's registration id.
  std::unordered_map<std::uint64_t, Reg> Regs;
  std::deque<std::unique_ptr<OutFrame>> Out;
  bool ConnDead = false;   ///< a write failed; stop sending
  bool StopWriter = false; ///< the connection thread is leaving

  /// Serializes every write on C (replies and pushes). The read side of C
  /// belongs to the connection thread alone.
  Mutex WriteLock;
  /// The push writer parks here until Kick is set.
  ParkList WriterWake;
  std::atomic<bool> Kick{false};
  ThreadRef Writer; ///< connection thread only

  /// Writes one frame under WriteLock. \returns false once the connection
  /// is dead (this write failed, or an earlier one did).
  bool send(const wire::Writer &W) {
    return sendBytes(W.payload().data(), W.payload().size());
  }

  bool sendBytes(const std::uint8_t *P, std::size_t N) {
    std::lock_guard<Mutex> G(WriteLock);
    {
      std::lock_guard<SpinLock> L(Lock);
      if (ConnDead)
        return false;
    }
    if (C.writeFrame(P, N) && C.flush())
      return true;
    {
      std::lock_guard<SpinLock> L(Lock);
      ConnDead = true;
    }
    // A failed write leaves a partial frame behind: the stream is lost.
    // Wake the connection thread's read so it leaves too.
    C.socket().shutdown();
    return false;
  }

  /// Sets Kick and wakes the push writer. Caller holds Lock — once it
  /// drops, teardown may observe the state that caller published and
  /// destroy this connection. (ParkList wakes never take Lock, and the
  /// writer's condition reads only Kick, so this nests safely.)
  void kickLocked() {
    Kick.store(true, std::memory_order_release);
    WriterWake.wakeOne();
  }

  /// Forks the push writer (connection thread, first Register only). It
  /// joins the connection thread's group, so the server's kill-group
  /// reaches it too.
  void startWriter() {
    if (Writer)
      return;
    SpawnOptions Opts;
    Opts.Stealable = false; // never run inline on a joiner's stack
    Writer = TC::forkThread(
        [this]() -> AnyValue {
          pushLoop();
          return AnyValue();
        },
        Opts);
  }

  /// Stops and joins the push writer: frames it has not popped stay in Out
  /// for teardown. The socket shutdown wakes a writer parked on a peer
  /// that stopped reading; the connection is ending either way.
  void stopWriter() {
    if (!Writer)
      return;
    {
      std::lock_guard<SpinLock> G(Lock);
      StopWriter = true;
      kickLocked();
    }
    C.socket().shutdown();
    TC::threadWaitFor(*Writer, Deadline::never());
  }

  /// The proxy delivery callback (depositor thread, outside all space
  /// locks): serialize the match now — values may be unreachable from the
  /// space once consumed — queue the frame and wake the push writer.
  void onDeliver(std::uint64_t Id, Match M, bool Remove) {
    wire::Writer W(wire::Op::Deliver);
    if (std::uint64_t F = M.Flow ? M.Flow : obs::currentFlowId())
      W.flow(F);
    W.fixnum(static_cast<std::int64_t>(Id));
    for (gc::Value V : M.Fields)
      W.value(V);
    auto Fr = std::make_unique<OutFrame>();
    Fr->Payload = W.payload();
    Fr->Id = Id;
    if (Remove) {
      Fr->Redeposit = std::move(M.Fields);
      for (gc::Value &Slot : Fr->Redeposit)
        Space->heap().addRoot(&Slot);
    }
    std::lock_guard<SpinLock> G(Lock);
    auto It = Regs.find(Id);
    if (It != Regs.end())
      It->second.State = RegState::Enqueued;
    Out.push_back(std::move(Fr));
    kickLocked();
  }

  /// Releases \p Fr. \p Sent distinguishes a flushed frame (roots only)
  /// from a dropped one (re-deposit a consumed tuple first). Under
  /// replication a dropped frame whose noteTaken ran (Fr->Taken) restores
  /// the backup copy — or re-routes the tuple to the slot's current
  /// primary — before (or instead of) the local put. A frame dropped
  /// before the push writer ever popped it never decremented the ledger
  /// or told the backup anything, so it only re-deposits locally: an
  /// unpaired noteRestored would over-count the resident and forward a
  /// second backup copy, materializing a duplicate at the next promotion.
  void dispose(std::unique_ptr<OutFrame> Fr, bool Sent) {
    if (!Fr->Redeposit.empty()) {
      bool Local = true;
      if (!Sent && Fr->Taken && Cfg.Rep)
        Local = Cfg.Rep->noteRestored(Fr->Redeposit);
      for (gc::Value &Slot : Fr->Redeposit)
        Space->heap().removeRoot(&Slot);
      if (!Sent && Local) {
        Tuple T;
        T.reserve(Fr->Redeposit.size());
        for (gc::Value V : Fr->Redeposit)
          T.emplace_back(V);
        Space->put(std::move(T));
      }
    }
  }

  /// The push writer: parks until kicked, then sends every queued frame.
  /// Exits when the connection thread stops it or a write fails; frames
  /// still queued then drain through teardown.
  void pushLoop() {
    for (;;) {
      WriterWake.await(
          [this] { return Kick.exchange(false, std::memory_order_acq_rel); },
          this);
      for (;;) {
        std::unique_ptr<OutFrame> Fr;
        {
          std::lock_guard<SpinLock> G(Lock);
          if (StopWriter || ConnDead)
            return;
          if (Out.empty())
            break;
          Fr = std::move(Out.front());
          Out.pop_front();
        }
        if (!push(std::move(Fr)))
          return;
      }
    }
  }

  /// Sends one popped frame and settles it. \returns false once the
  /// connection is dead.
  bool push(std::unique_ptr<OutFrame> Fr) {
    bool Sent;
    try {
      // Replication's delivered⇒tombstoned invariant: the backup learns
      // the take *before* the Deliver frame can be observed, so a
      // promotion never resurrects a tuple someone already received. If
      // the write below fails, dispose() restores the copy — Taken marks
      // that there is a tombstone to undo.
      if (!Fr->Redeposit.empty() && Cfg.Rep) {
        Cfg.Rep->noteTaken(Fr->Redeposit);
        Fr->Taken = true;
      }
      Sent = sendBytes(Fr->Payload.data(), Fr->Payload.size());
    } catch (...) {
      // Server shutdown's kill-group unwinding through a parked write or
      // forward: the frame never flushed, so its consumed tuple goes back
      // (and its heap roots are released) before the unwind continues.
      {
        WithoutInterrupts NoKill;
        dispose(std::move(Fr), /*Sent=*/false);
      }
      throw;
    }
    std::uint64_t Id = Fr->Id;
    dispose(std::move(Fr), Sent);
    if (!Sent)
      return false;
    // The registration completed observably; forget it. (A later Retract
    // for it answers wasArmed=false via the unknown-id path.)
    std::lock_guard<SpinLock> G(Lock);
    auto It = Regs.find(Id);
    if (It != Regs.end() && It->second.State == RegState::Enqueued)
      Regs.erase(It);
    return true;
  }

  /// Connection exit: every registration resolves exactly once. Armed ones
  /// retract (their tuples never left the space); delivered ones either
  /// flushed their frame (the router owns the tuple) or re-deposit it.
  void teardown() {
    for (;;) {
      std::uint64_t Id = 0, ProxyId = 0;
      {
        std::lock_guard<SpinLock> G(Lock);
        if (Regs.empty())
          break;
        Id = Regs.begin()->first;
        ProxyId = Regs.begin()->second.ProxyId;
      }
      if (Space->retractProxy(ProxyId)) {
        std::lock_guard<SpinLock> G(Lock);
        Regs.erase(Id);
        continue;
      }
      // A delivery owns the registration. Its callback may still be
      // running on the depositor thread; wait for the frame to reach the
      // queue (it always does — the callback fires exactly once and
      // cannot block on the space).
      for (;;) {
        {
          std::lock_guard<SpinLock> G(Lock);
          auto It = Regs.find(Id);
          if (It == Regs.end() || It->second.State == RegState::Enqueued) {
            Regs.erase(Id);
            break;
          }
        }
        TC::yieldProcessor();
      }
    }
    // No registration remains, so no further callback can enqueue: the
    // queue is final. Drop every unsent frame, re-depositing consumed
    // tuples.
    std::deque<std::unique_ptr<OutFrame>> Dropped;
    {
      std::lock_guard<SpinLock> G(Lock);
      Dropped.swap(Out);
      ConnDead = true;
    }
    for (auto &Fr : Dropped)
      dispose(std::move(Fr), /*Sent=*/false);
  }
};

bool sendError(ShardConn &S, const char *Reason) {
  wire::Writer W(wire::Op::Err);
  W.text(Reason);
  return S.send(W);
}

/// Marshals a replication outcome: RepAck on success, Err(reason, epoch)
/// on a fenced/refused op — the clean-refusal discipline Hello set the
/// tone for, so a stale primary gets told, never hung up on. The trailing
/// epoch lets a peer arbitrarily far behind (a fresh router against a
/// cluster with failover history) adopt the receiver's view in one hop
/// instead of inching forward an epoch per retry.
bool sendRepAck(ShardConn &S, const Replica::Ack &A) {
  if (!A.Ok) {
    wire::Writer W(wire::Op::Err);
    stampReplyFlow(W);
    W.text(A.Err ? A.Err : "replication error");
    W.fixnum(static_cast<std::int64_t>(A.Epoch));
    return S.send(W);
  }
  wire::Writer W(wire::Op::RepAck);
  stampReplyFlow(W);
  W.fixnum(static_cast<std::int64_t>(A.Epoch));
  W.fixnum(A.Info);
  return S.send(W);
}

void serveShardConn(ShardConn &S) {
  BufferedConn &C = S.C;
  std::vector<std::uint8_t> Frame;
  for (;;) {
    // Block until the client speaks: pushes never need this thread.
    if (!C.readFrame(Frame))
      return; // EOF or connection error
    wire::Reader R(Frame.data(), Frame.size());
    if (!R.ok()) {
      if (!sendError(S, "malformed frame"))
        return;
      continue;
    }
    adoptFlow(R.takeFlow());
    switch (R.op()) {
    case wire::Op::Hello: {
      wire::ReadField F;
      if (!R.next(F) || F.T != wire::Tag::Fixnum) {
        if (!sendError(S, "malformed hello"))
          return;
        break;
      }
      if (F.Num != WireVersion) {
        // Clean refusal, then close: the router surfaces this as a leg
        // failure instead of hanging on a silent peer.
        sendError(S, "version mismatch");
        return;
      }
      // Optional (slot, epoch) pairs: the router's promotion view. A
      // reconnecting stale primary learns its fencing here, before any
      // registration can arm against resurrected state.
      if (S.Cfg.Rep) {
        wire::ReadField SlotF, EpochF;
        while (R.next(SlotF) && SlotF.T == wire::Tag::Fixnum &&
               R.next(EpochF) && EpochF.T == wire::Tag::Fixnum)
          S.Cfg.Rep->observeEpoch(static_cast<std::uint64_t>(SlotF.Num),
                                  static_cast<std::uint64_t>(EpochF.Num));
      }
      wire::Writer W(wire::Op::HelloOk);
      stampReplyFlow(W);
      W.fixnum(WireVersion);
      if (!S.send(W))
        return;
      break;
    }
    case wire::Op::Register: {
      wire::ReadField IdF, FlagsF;
      Tuple Template;
      if (!R.next(IdF) || IdF.T != wire::Tag::Fixnum || !R.next(FlagsF) ||
          FlagsF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, Template)) {
        if (!sendError(S, "malformed register"))
          return;
        break;
      }
      std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
      bool Remove = (FlagsF.Num & 1) != 0;
      const std::uint64_t ProxyId =
          NextProxyId.fetch_add(1, std::memory_order_relaxed);
      bool Duplicate;
      {
        std::lock_guard<SpinLock> G(S.Lock);
        Duplicate = S.Regs.count(Id) != 0;
        // Insert before arming so the callback (which can fire inside
        // registerProxy on an immediate match) finds the entry.
        if (!Duplicate)
          S.Regs.emplace(Id, ShardConn::Reg{ShardConn::RegState::Armed,
                                            ProxyId});
      }
      if (Duplicate) {
        // Reply outside the lock: a socket write can park, and SpinLock
        // holders must never park.
        if (!sendError(S, "duplicate registration id"))
          return;
        break;
      }
      S.startWriter();
      bool Ok = S.Space->registerProxy(
          ProxyId, std::move(Template), Remove,
          [&S, Id, Remove](std::uint64_t, Match M) {
            S.onDeliver(Id, std::move(M), Remove);
          });
      if (!Ok) {
        {
          std::lock_guard<SpinLock> G(S.Lock);
          S.Regs.erase(Id);
        }
        // "Dead on arrival": never armed, no delivery will ever fire —
        // the same promise a successful while-armed retract makes.
        wire::Writer W(wire::Op::Retracted);
        stampReplyFlow(W);
        W.fixnum(static_cast<std::int64_t>(Id));
        W.boolean(true);
        if (!S.send(W))
          return;
      }
      break;
    }
    case wire::Op::Retract: {
      wire::ReadField IdF;
      if (!R.next(IdF) || IdF.T != wire::Tag::Fixnum) {
        if (!sendError(S, "malformed retract"))
          return;
        break;
      }
      std::uint64_t Id = static_cast<std::uint64_t>(IdF.Num);
      std::uint64_t ProxyId = 0; // 0 is never minted: unknown id
      {
        std::lock_guard<SpinLock> G(S.Lock);
        auto It = S.Regs.find(Id);
        if (It != S.Regs.end())
          ProxyId = It->second.ProxyId;
      }
      bool WasArmed = ProxyId != 0 && S.Space->retractProxy(ProxyId);
      if (WasArmed) {
        std::lock_guard<SpinLock> G(S.Lock);
        S.Regs.erase(Id);
      }
      STING_TRACE_EVENT(RouterRetract, 0,
                        WasArmed ? (1u << 16) : 0u);
      wire::Writer W(wire::Op::Retracted);
      stampReplyFlow(W);
      W.fixnum(static_cast<std::int64_t>(Id));
      W.boolean(WasArmed);
      if (!S.send(W))
        return;
      break;
    }
    case wire::Op::TsOut: {
      Tuple T;
      if (!wire::readTuple(R, T)) {
        if (!sendError(S, "malformed tuple"))
          return;
        break;
      }
      S.Space->put(std::move(T));
      wire::Writer W(wire::Op::TsAck);
      stampReplyFlow(W);
      if (!S.send(W))
        return;
      break;
    }
    case wire::Op::TsRd:
    case wire::Op::TsIn: {
      bool Destructive = R.op() == wire::Op::TsIn;
      Tuple T;
      if (!wire::readTuple(R, T)) {
        if (!sendError(S, "malformed template"))
          return;
        break;
      }
      // Parks the connection thread like net::tupleSpaceHandler — the
      // unary path for pool connections. Registration connections never
      // send these.
      Match M = Destructive ? S.Space->take(std::move(T))
                            : S.Space->read(std::move(T));
      // Delivered⇒tombstoned: the backup hears about the take before the
      // caller can observe the TsMatch.
      if (Destructive && S.Cfg.Rep)
        S.Cfg.Rep->noteTaken(M.Fields);
      wire::Writer W(wire::Op::TsMatch);
      stampReplyFlow(W);
      wire::writeMatch(W, M);
      if (!S.send(W))
        return;
      break;
    }
    case wire::Op::RepPut: {
      wire::ReadField SlotF, EpochF, FlagsF;
      Tuple T;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum ||
          !R.next(FlagsF) || FlagsF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, T)) {
        if (!sendError(S, "malformed repput"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(S, "no replica"))
          return;
        break;
      }
      Replica::Ack A = S.Cfg.Rep->onPut(
          static_cast<std::uint64_t>(SlotF.Num),
          static_cast<std::uint64_t>(EpochF.Num), (FlagsF.Num & 1) != 0,
          std::move(T));
      if (!sendRepAck(S, A))
        return;
      break;
    }
    case wire::Op::RepRetract: {
      wire::ReadField SlotF, EpochF;
      Tuple T;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum ||
          !wire::readTuple(R, T)) {
        if (!sendError(S, "malformed repretract"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(S, "no replica"))
          return;
        break;
      }
      Replica::Ack A =
          S.Cfg.Rep->onRetract(static_cast<std::uint64_t>(SlotF.Num),
                               static_cast<std::uint64_t>(EpochF.Num), T);
      if (!sendRepAck(S, A))
        return;
      break;
    }
    case wire::Op::RepPromote:
    case wire::Op::RepDemote: {
      bool Promote = R.op() == wire::Op::RepPromote;
      wire::ReadField SlotF, EpochF;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum) {
        if (!sendError(S, "malformed promote"))
          return;
        break;
      }
      if (!S.Cfg.Rep) {
        if (!sendError(S, "no replica"))
          return;
        break;
      }
      std::uint64_t Slot = static_cast<std::uint64_t>(SlotF.Num);
      std::uint64_t Epoch = static_cast<std::uint64_t>(EpochF.Num);
      Replica::Ack A = Promote ? S.Cfg.Rep->onPromote(Slot, Epoch)
                               : S.Cfg.Rep->onDemote(Slot, Epoch);
      if (!sendRepAck(S, A))
        return;
      break;
    }
    case wire::Op::RepPull: {
      wire::ReadField SlotF, EpochF, OffsetF;
      if (!R.next(SlotF) || SlotF.T != wire::Tag::Fixnum ||
          !R.next(EpochF) || EpochF.T != wire::Tag::Fixnum) {
        if (!sendError(S, "malformed pull"))
          return;
        break;
      }
      // Chunk cursor; absent means a whole-snapshot request from the top.
      std::uint64_t Offset = 0;
      if (R.next(OffsetF) && OffsetF.T == wire::Tag::Fixnum)
        Offset = static_cast<std::uint64_t>(OffsetF.Num);
      if (!S.Cfg.Rep) {
        if (!sendError(S, "no replica"))
          return;
        break;
      }
      Replica::PullReply P =
          S.Cfg.Rep->onPull(static_cast<std::uint64_t>(SlotF.Num),
                            static_cast<std::uint64_t>(EpochF.Num), Offset);
      if (!P.Ok) {
        if (!sendError(S, P.Err ? P.Err : "pull refused"))
          return;
        break;
      }
      wire::Writer W(wire::Op::RepState);
      stampReplyFlow(W);
      W.fixnum(SlotF.Num);
      W.fixnum(static_cast<std::int64_t>(P.Epoch));
      W.fixnum(P.Complete ? 1 : 0);
      W.fixnum(static_cast<std::int64_t>(P.Version));
      for (const std::string &B : P.Tuples)
        W.blob(B);
      if (!S.send(W))
        return;
      break;
    }
    default:
      if (!sendError(S, "unknown op"))
        return;
      break;
    }
  }
}

} // namespace

net::Server::Handler shardHandler(TupleSpaceRef Space, ShardConfig Config) {
  return [Space, Config](BufferedConn &C) {
    ShardConn S(Space, C, Config);
    serveShardConn(S);
    // ~ShardConn retracts/re-deposits; it must run before the server
    // closes the socket, which the handler-returns-then-close order
    // guarantees.
  };
}

} // namespace sting::dist
