//===- net/Wire.cpp - Length-prefixed binary protocol ------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "gc/Object.h"

#include <cstring>

namespace sting::net::wire {

void Writer::tagged(Tag T, std::uint64_t N, unsigned Bytes) {
  std::uint8_t Out[9] = {static_cast<std::uint8_t>(T)};
  for (unsigned I = 0; I != Bytes; ++I)
    Out[1 + I] = static_cast<std::uint8_t>((N >> (8 * I)) & 0xff);
  Buf.insert(Buf.end(), Out, Out + 1 + Bytes);
}

void Writer::fixnum(std::int64_t N) {
  tagged(Tag::Fixnum, static_cast<std::uint64_t>(N), 8);
}

void Writer::formal(std::uint32_t Index) { tagged(Tag::Formal, Index, 4); }

void Writer::flow(std::uint64_t F) { tagged(Tag::Flow, F, 8); }

void Writer::bytesField(Tag T, std::string_view S) {
  tagged(T, static_cast<std::uint32_t>(S.size()), 4);
  Buf.insert(Buf.end(), S.begin(), S.end());
}

void Writer::value(gc::Value V) {
  if (V.isFixnum())
    return fixnum(V.asFixnum());
  if (V.isTrue())
    return boolean(true);
  if (V.isFalse())
    return boolean(false);
  if (V.isObject()) {
    gc::Object *O = V.asObject();
    switch (O->kind()) {
    case gc::ObjectKind::Symbol:
      return text({O->bytes(), O->byteLength()});
    case gc::ObjectKind::String:
    case gc::ObjectKind::Bytes:
      return blob({O->bytes(), O->byteLength()});
    default:
      break;
    }
  }
  nil();
}

Reader::Reader(const std::uint8_t *Data, std::size_t N)
    : Data(Data), Len(N) {
  if (N == 0)
    return;
  TheOp = static_cast<Op>(Data[0]);
  Pos = 1;
  Ok = true;
}

bool Reader::take(std::size_t N, const std::uint8_t *&P) {
  if (Len - Pos < N) {
    Ok = false;
    return false;
  }
  P = Data + Pos;
  Pos += N;
  return true;
}

bool Reader::next(ReadField &F) {
  if (!Ok || atEnd())
    return false;
  const std::uint8_t *P = nullptr;
  if (!take(1, P))
    return false;
  F = ReadField();
  F.T = static_cast<Tag>(*P);
  switch (F.T) {
  case Tag::Fixnum: {
    if (!take(8, P))
      return false;
    std::uint64_t U = 0;
    for (int I = 0; I != 8; ++I)
      U |= static_cast<std::uint64_t>(P[I]) << (8 * I);
    F.Num = static_cast<std::int64_t>(U);
    return true;
  }
  case Tag::True:
  case Tag::False:
  case Tag::Nil:
    return true;
  case Tag::Formal: {
    if (!take(4, P))
      return false;
    F.FormalIndex = static_cast<std::uint32_t>(P[0]) |
                    static_cast<std::uint32_t>(P[1]) << 8 |
                    static_cast<std::uint32_t>(P[2]) << 16 |
                    static_cast<std::uint32_t>(P[3]) << 24;
    return true;
  }
  case Tag::Flow: {
    if (!take(8, P))
      return false;
    for (int I = 0; I != 8; ++I)
      F.Flow |= static_cast<std::uint64_t>(P[I]) << (8 * I);
    return true;
  }
  case Tag::Text:
  case Tag::Blob: {
    if (!take(4, P))
      return false;
    std::uint32_t N = static_cast<std::uint32_t>(P[0]) |
                      static_cast<std::uint32_t>(P[1]) << 8 |
                      static_cast<std::uint32_t>(P[2]) << 16 |
                      static_cast<std::uint32_t>(P[3]) << 24;
    const std::uint8_t *Body = nullptr;
    if (!take(N, Body))
      return false;
    F.Bytes = {reinterpret_cast<const char *>(Body), N};
    return true;
  }
  }
  Ok = false; // unknown tag
  return false;
}

std::uint64_t Reader::takeFlow() {
  if (!Ok || atEnd() || static_cast<Tag>(Data[Pos]) != Tag::Flow)
    return 0;
  ReadField F;
  if (!next(F))
    return 0;
  return F.Flow;
}

bool readTuple(Reader &R, Tuple &Out) {
  ReadField F;
  while (R.next(F)) {
    switch (F.T) {
    case Tag::Fixnum:
      Out.emplace_back(static_cast<long long>(F.Num));
      break;
    case Tag::True:
      Out.emplace_back(true);
      break;
    case Tag::False:
      Out.emplace_back(false);
      break;
    case Tag::Nil:
      Out.emplace_back(gc::Value::nil());
      break;
    case Tag::Text:
      // Pending text: TupleSpace::prepare interns it as a Symbol, so
      // remote keys get the same identity as local string literals.
      Out.emplace_back(std::string_view(F.Bytes));
      break;
    case Tag::Formal:
      Out.emplace_back(Field::formal(F.FormalIndex));
      break;
    case Tag::Blob:
      // Pending bytes: TupleSpace::prepare allocates the String directly
      // in the shared heap. Decode must not allocate GC objects — a young
      // String held unrooted in the half-built tuple would be moved or
      // reclaimed by any scavenge a later field's allocation triggers.
      Out.emplace_back(Field::blob(F.Bytes));
      break;
    case Tag::Flow:
      // Request metadata, not a tuple field; tolerated mid-payload so a
      // client that tags late still round-trips.
      break;
    }
  }
  return R.ok();
}

void writeMatch(Writer &W, const Match &M) {
  for (gc::Value V : M.Fields)
    W.value(V);
}

} // namespace sting::net::wire
