//===- net/Wire.h - Length-prefixed binary protocol -------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol spoken by net::Server services: u32-LE
/// length-prefixed frames whose payload is one opcode byte followed by a
/// sequence of tagged fields. The field vocabulary mirrors the substrate's
/// tagged gc::Value plus the tuple-template formal, so a remote client can
/// express exactly the out/rd/in requests a local thread can:
///
///   frame   := u32 payload-length, payload
///   payload := u8 opcode, field*
///   field   := u8 tag, body
///     Fixnum(0): i64 LE          True(1)/False(2)/Nil(3): empty
///     Text(4):   u32 len, bytes  -- interned as a Symbol on arrival
///     Formal(5): u32 index       -- template binding slot (?x)
///     Blob(6):   u32 len, bytes  -- carried as pending bytes; the tuple
///                                   space's prepare() allocates it as a
///                                   String in the shared old generation
///     Flow(7):   u64 LE          -- causal flow id (obs/Flow.h); request
///                                   metadata, sent first when present.
///                                   Handlers adopt it so server-side
///                                   trace events join the client's flow,
///                                   and echo it ahead of reply fields.
///
/// Opcodes: requests Echo/TsOut/TsRd/TsIn/Metrics/StatsSnap; replies
/// EchoReply/TsAck/TsMatch/Err/MetricsText/StatsReply. TsMatch carries the
/// matched tuple's resolved fields in positional order (bindings are
/// recovered client-side from the request's formal positions).
///
//===----------------------------------------------------------------------===//

#ifndef STING_NET_WIRE_H
#define STING_NET_WIRE_H

#include "gc/Value.h"
#include "tuple/Tuple.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sting::net::wire {

enum class Op : std::uint8_t {
  // Requests.
  Echo = 0,      ///< fields echoed back verbatim
  TsOut = 1,     ///< deposit the fields as a tuple
  TsRd = 2,      ///< blocking read of a template (formals allowed)
  TsIn = 3,      ///< blocking take of a template (formals allowed)
  Metrics = 4,   ///< no fields: request a Prometheus text scrape
  StatsSnap = 5, ///< no fields: request a binary stats snapshot
  // Replies.
  EchoReply = 16,
  TsAck = 17,       ///< out accepted
  TsMatch = 18,     ///< rd/in matched; fields are the resolved tuple
  Err = 19,         ///< one Text field: human-readable reason
  MetricsText = 20, ///< one Blob field: Prometheus text exposition
  StatsReply = 21,  ///< (Text name, Fixnum value) pairs, aggregate totals
  Overload = 22,    ///< no fields: the server shed this connection before
                    ///< serving it (admission budget exceeded). Sent by the
                    ///< listener, not a handler; the connection closes right
                    ///< after. net::Client treats it as retryable.

  // Router protocol (src/dist). A registration connection opens with a
  // Hello/HelloOk version handshake, then the router arms registrations
  // (proxied blocking rd/in waiters) on shards and the shard pushes
  // Deliver frames when a deposit matches. The Armed→Delivered discipline
  // of sync::HandoffList is mirrored on the wire: a registration is
  // delivered at most once, and Retract reports whether it won the race
  // (wasArmed) so fan-out losers conserve tuples exactly-once.
  Hello = 23,       ///< one Fixnum field: protocol version (dist::WireVersion)
  Register = 24,    ///< Fixnum id, Fixnum flags (bit0 = take), template fields
  Retract = 25,     ///< one Fixnum field: registration id to cancel
  RouterStats = 26, ///< no fields: router-side stats snapshot (StatsReply)
  HelloOk = 27,     ///< one Fixnum field: the version the shard speaks
  Deliver = 28,     ///< Fixnum id, then the resolved tuple fields; pushed by
                    ///< the shard when a registration matches. For a take
                    ///< registration the tuple has been consumed shard-side;
                    ///< the router must hand it to exactly one caller or
                    ///< re-deposit it.
  Retracted = 29,   ///< Fixnum id, bool wasArmed. wasArmed=false means a
                    ///< delivery owns the registration: its Deliver frame is
                    ///< on this connection but may arrive *after* this reply
                    ///< (the depositor's callback and the Retract reply are
                    ///< queued by different shard threads), so the router
                    ///< keeps the registration record until the Deliver lands.

  // Replication protocol (src/dist, DESIGN.md §14). Each hash slot maps to
  // a two-member replica group; every Rep* request names the slot and the
  // sender's slot epoch, and the receiver fences on that epoch: an op
  // carrying a smaller epoch than the receiver's gets Err("stale epoch"),
  // an op carrying a larger one advances the receiver (with the role
  // change's side effects) before applying. Success replies are RepAck;
  // refusals are ordinary Err frames (so old peers fail cleanly) with the
  // receiver's current epoch as a trailing Fixnum, letting a peer
  // arbitrarily far behind adopt the fresh view in one hop.
  RepPut = 30,     ///< Fixnum slot, Fixnum epoch, Fixnum flags (bit0 =
                   ///< forwarded: primary→backup copy; clear = router→primary
                   ///< deposit), then the tuple fields. The primary forwards
                   ///< to its backup and waits for the RepAck *before*
                   ///< depositing locally, so a matched tuple always has a
                   ///< backup copy older than any delivery of it.
  RepAck = 31,     ///< Fixnum epoch (receiver's slot epoch), Fixnum info —
                   ///< for a primary put, bit0 = the backup holds a copy
                   ///< (clear = degraded single-copy ack, backup down); for
                   ///< promote/demote, the tuples materialized/discarded.
  RepRetract = 32, ///< Fixnum slot, Fixnum epoch, then the tuple fields:
                   ///< primary→backup "a copy of these bytes was consumed".
                   ///< Retracting bytes with no stored copy records a
                   ///< tombstone that eats the next RepPut of equal bytes, so
                   ///< put/retract commute across unordered connections.
  RepPromote = 33, ///< Fixnum slot, Fixnum epoch: "become primary at epoch
                   ///< ≥ this; reply your epoch". Idempotent; refused with
                   ///< Err("not caught up") while the member still owes an
                   ///< anti-entropy pull, and Err("wrong member") when the
                   ///< epoch's parity does not elect the receiver.
  RepDemote = 34,  ///< Fixnum slot, Fixnum epoch: fence a stale primary —
                   ///< it discards its replicated residents for the slot and
                   ///< starts a catch-up pull as the new backup.
  RepPull = 35,    ///< Fixnum slot, Fixnum epoch, Fixnum offset: catch-up
                   ///< request; the primary answers RepState with a chunk
                   ///< of its resident ledger starting \c offset copies in.
  RepState = 36,   ///< Fixnum slot, Fixnum epoch, Fixnum complete (0/1),
                   ///< Fixnum version, then one Blob per resident tuple
                   ///< (its encoded field bytes). complete=0 means more
                   ///< copies remain past this chunk; \c version is the
                   ///< ledger version the chunk was cut at — chunks only
                   ///< tile one coherent snapshot while it holds still,
                   ///< and the puller installs the whole snapshot as a
                   ///< *replacement* for its side store (never additively)
                   ///< once a complete, version-stable, unraced sequence
                   ///< has been assembled.
};

enum class Tag : std::uint8_t {
  Fixnum = 0,
  True = 1,
  False = 2,
  Nil = 3,
  Text = 4,
  Formal = 5,
  Blob = 6,
  Flow = 7,
};

/// Serializes one frame payload (opcode + fields). The payload is handed
/// to BufferedConn::writeFrame, which adds the length prefix.
class Writer {
public:
  explicit Writer(Op O) {
    Buf.reserve(64); // a routed op's frames fit, so they never reallocate
    Buf.push_back(static_cast<std::uint8_t>(O));
  }

  void fixnum(std::int64_t N);
  void boolean(bool B) {
    Buf.push_back(static_cast<std::uint8_t>(B ? Tag::True : Tag::False));
  }
  void nil() { Buf.push_back(static_cast<std::uint8_t>(Tag::Nil)); }
  void text(std::string_view S) { bytesField(Tag::Text, S); }
  void blob(std::string_view S) { bytesField(Tag::Blob, S); }
  void formal(std::uint32_t Index);
  /// Causal flow id; by convention the first field when present.
  void flow(std::uint64_t F);

  /// Marshals a resolved gc::Value: fixnum/bool/nil map to their tags,
  /// Symbols to Text, Strings and Bytes to Blob. Anything else (foreign
  /// pointers, pairs, live threads' unboxed slots) degrades to Nil — the
  /// wire carries data, not references into the server heap.
  void value(gc::Value V);

  const std::vector<std::uint8_t> &payload() const & { return Buf; }
  /// Hands the buffer over without copying: `std::move(W).payload()`.
  std::vector<std::uint8_t> payload() && { return std::move(Buf); }

private:
  void bytesField(Tag T, std::string_view S);
  /// Appends \p T and the low \p Bytes bytes of \p N, little-endian.
  void tagged(Tag T, std::uint64_t N, unsigned Bytes);

  std::vector<std::uint8_t> Buf;
};

/// One decoded field. Bytes-backed kinds (Text/Blob) view into the frame
/// buffer the Reader was constructed over.
struct ReadField {
  Tag T = Tag::Nil;
  std::int64_t Num = 0;          ///< Fixnum payload
  std::string_view Bytes;        ///< Text/Blob payload
  std::uint32_t FormalIndex = 0; ///< Formal payload
  std::uint64_t Flow = 0;        ///< Flow payload
};

/// Decodes one frame payload. Malformed input flips ok() to false and
/// stops iteration; it never reads out of bounds.
class Reader {
public:
  Reader(const std::uint8_t *Data, std::size_t N);

  bool ok() const { return Ok; }
  Op op() const { return TheOp; }

  /// Decodes the next field into \p F. \returns false at end of payload
  /// or on malformed input (distinguish via ok()).
  bool next(ReadField &F);

  /// If the next field is a Flow tag, consumes it and \returns its value;
  /// otherwise leaves the position untouched and \returns 0. Handlers call
  /// this once after construction to peel request metadata before the
  /// payload fields.
  std::uint64_t takeFlow();

  bool atEnd() const { return Pos == Len; }

private:
  bool take(std::size_t N, const std::uint8_t *&P);

  const std::uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  Op TheOp = Op::Err;
  bool Ok = false;
};

/// Rebuilds a Tuple (or template) from the remaining fields of \p R. Text
/// fields become pending-intern symbol fields, Blob fields become
/// pending-bytes fields (TupleSpace::prepare allocates them as shared-heap
/// Strings on deposit — decode itself never allocates GC objects, so no
/// young value sits unrooted while later fields are read), Formal fields
/// become template formals. \returns false on malformed input.
bool readTuple(Reader &R, Tuple &Out);

/// Marshals \p M's resolved fields into \p W (positional order).
void writeMatch(Writer &W, const Match &M);

} // namespace sting::net::wire

#endif // STING_NET_WIRE_H
