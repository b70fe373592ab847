//===- gc/GlobalHeap.cpp - Shared older generation --------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "gc/GlobalHeap.h"

#include "gc/LocalHeap.h"
#include "support/Clock.h"

#include <cstring>
#include <functional>
#include <mutex>

namespace sting {
namespace gc {

namespace {
constexpr std::size_t InitialSymbolSlots = 64;
} // namespace

GlobalHeap::GlobalHeap(std::size_t BlockBytes)
    : BlockBytes(BlockBytes < 4096 ? 4096 : BlockBytes) {
  SymbolTables.push_back(std::make_unique<SymbolTable>(InitialSymbolSlots));
  Symbols.store(SymbolTables.back().get(), std::memory_order_relaxed);
}

GlobalHeap::~GlobalHeap() = default;

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

Object *GlobalHeap::allocateFromFreeList(std::size_t Bytes) {
  for (auto It = FreeList.begin(); It != FreeList.end(); ++It) {
    Object *Chunk = *It;
    std::size_t ChunkBytes = Chunk->sizeInBytes();
    if (ChunkBytes < Bytes)
      continue;
    FreeList.erase(It);
    std::size_t Leftover = ChunkBytes - Bytes;
    if (Leftover >= sizeof(Object)) {
      // Split: the tail remains a free chunk (possibly header-only).
      auto *Tail = reinterpret_cast<Object *>(
          reinterpret_cast<char *>(Chunk) + Bytes);
      Tail->initHeader(ObjectKind::FreeChunk,
                       static_cast<std::uint32_t>(
                           (Leftover - sizeof(Object)) / 8));
      FreeList.push_back(Tail);
    }
    return Chunk;
  }
  return nullptr;
}

Object *GlobalHeap::allocateLocked(ObjectKind Kind, std::uint32_t SlotCount) {
  const std::size_t Bytes = sizeof(Object) + std::size_t(SlotCount) * 8;

  Object *O = allocateFromFreeList(Bytes);
  if (!O) {
    if (Blocks.empty() || !Blocks.back()->remaining() ||
        Blocks.back()->remaining() < Bytes) {
      std::size_t NewBlock = BlockBytes > Bytes + 16 ? BlockBytes : Bytes + 16;
      Blocks.push_back(std::make_unique<Area>(NewBlock));
    }
    O = static_cast<Object *>(Blocks.back()->allocate(Bytes));
    STING_CHECK(O, "old-generation block allocation failed");
  }

  O->initHeader(Kind, SlotCount);
  O->setInOld();
  if (O->hasTracedSlots()) {
    for (std::uint32_t I = 0; I != SlotCount; ++I)
      O->slots()[I] = Value::nil();
  } else {
    std::memset(static_cast<void *>(O->slots()), 0,
                std::size_t(SlotCount) * 8);
  }

  ++Stats.ObjectsAllocated;
  Stats.BytesAllocated += Bytes;
  return O;
}

Object *GlobalHeap::allocate(ObjectKind Kind, std::uint32_t SlotCount) {
  std::lock_guard<SpinLock> Guard(Lock);
  return allocateLocked(Kind, SlotCount);
}

Value GlobalHeap::consShared(Value Car, Value Cdr) {
  STING_DCHECK((!Car.isObject() || Car.asObject()->isInOld()) &&
                   (!Cdr.isObject() || Cdr.asObject()->isInOld()),
               "shared cons over unescaped young values");
  Object *O = allocate(ObjectKind::Pair, 2);
  O->setSlotRaw(0, Car);
  O->setSlotRaw(1, Cdr);
  return Value::object(O);
}

Value GlobalHeap::makeVectorShared(std::uint32_t Length, Value Fill) {
  Object *O = allocate(ObjectKind::Vector, Length);
  for (std::uint32_t I = 0; I != Length; ++I)
    O->setSlotRaw(I, Fill);
  return Value::object(O);
}

Value GlobalHeap::makeStringShared(std::string_view Text) {
  const auto Words = static_cast<std::uint32_t>((Text.size() + 7) / 8);
  Object *O = allocate(ObjectKind::String, Words);
  O->setByteLength(Text.size());
  std::memcpy(O->bytes(), Text.data(), Text.size());
  return Value::object(O);
}

Value GlobalHeap::makeBoxShared(Value V) {
  Object *O = allocate(ObjectKind::Box, 1);
  O->setSlotRaw(0, V);
  return Value::object(O);
}

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

Object *GlobalHeap::SymbolTable::find(std::string_view Name,
                                      std::uint64_t Hash) const {
  // Loads are at most half the capacity, so every probe ends at an empty
  // slot. Slots only ever go from empty to a symbol, never back.
  for (std::size_t I = Hash & Mask;; I = (I + 1) & Mask) {
    Object *Sym = Slots[I].Sym.load(std::memory_order_acquire);
    if (!Sym)
      return nullptr;
    if (Slots[I].Hash == Hash && Sym->byteLength() == Name.size() &&
        std::memcmp(Sym->bytes(), Name.data(), Name.size()) == 0)
      return Sym;
  }
}

void GlobalHeap::SymbolTable::insert(Object *Sym, std::uint64_t Hash) {
  std::size_t I = Hash & Mask;
  while (Slots[I].Sym.load(std::memory_order_relaxed))
    I = (I + 1) & Mask;
  Slots[I].Hash = Hash;
  Slots[I].Sym.store(Sym, std::memory_order_release);
}

Value GlobalHeap::intern(std::string_view Name) {
  const std::uint64_t Hash = std::hash<std::string_view>{}(Name);
  if (Object *Sym = Symbols.load(std::memory_order_acquire)->find(Name, Hash))
    return Value::object(Sym);

  std::lock_guard<SpinLock> Guard(SymbolLock);
  SymbolTable *Table = Symbols.load(std::memory_order_relaxed);
  if (Object *Sym = Table->find(Name, Hash))
    return Value::object(Sym); // interned since the lock-free miss

  if (2 * (SymbolCount + 1) > Table->Mask + 1) {
    // Grow into a fresh table and publish it whole; readers still walking
    // the old one see a complete (if older) set and fall back to this lock
    // on a miss.
    auto Grown = std::make_unique<SymbolTable>(2 * (Table->Mask + 1));
    for (std::size_t I = 0; I <= Table->Mask; ++I)
      if (Object *Sym = Table->Slots[I].Sym.load(std::memory_order_relaxed))
        Grown->insert(Sym, Table->Slots[I].Hash);
    Table = Grown.get();
    SymbolTables.push_back(std::move(Grown));
    Symbols.store(Table, std::memory_order_release);
  }

  const auto Words = static_cast<std::uint32_t>((Name.size() + 7) / 8);
  Object *O = allocate(ObjectKind::Symbol, Words);
  O->setByteLength(Name.size());
  std::memcpy(O->bytes(), Name.data(), Name.size());
  Table->insert(O, Hash);
  ++SymbolCount;
  return Value::object(O);
}

//===----------------------------------------------------------------------===//
// Roots
//===----------------------------------------------------------------------===//

void GlobalHeap::addRoot(Value *Slot) {
  std::lock_guard<SpinLock> Guard(Lock);
  const bool Inserted = Roots.insert(Slot).second;
  STING_DCHECK(Inserted, "root slot registered twice");
  (void)Inserted;
}

void GlobalHeap::removeRoot(Value *Slot) {
  std::lock_guard<SpinLock> Guard(Lock);
  Roots.erase(Slot);
}

std::size_t GlobalHeap::rootCount() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Roots.size();
}

bool GlobalHeap::contains(const void *P) const {
  std::lock_guard<SpinLock> Guard(Lock);
  for (const auto &Block : Blocks)
    if (Block->contains(P))
      return true;
  return false;
}

GlobalHeapStats GlobalHeap::stats() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Full collection
//===----------------------------------------------------------------------===//

void GlobalHeap::markValue(Value V, std::vector<Object *> &Gray) {
  if (!V.isObject())
    return;
  Object *O = V.asObject();
  if (!O->isInOld() || O->isMarked())
    return;
  O->setMarked(true);
  Gray.push_back(O);
}

void GlobalHeap::collectFull(const std::vector<LocalHeap *> &Mutators) {
  std::lock_guard<SpinLock> SymbolGuard(SymbolLock);
  std::lock_guard<SpinLock> Guard(Lock);
  ++Stats.FullCollections;
  std::uint64_t PauseStart = nowNanos();

  // --- Mark -------------------------------------------------------------
  std::vector<Object *> Gray;
  for (Value *Slot : Roots)
    markValue(*Slot, Gray);
  const SymbolTable &Table = *Symbols.load(std::memory_order_relaxed);
  for (std::size_t I = 0; I <= Table.Mask; ++I) {
    Object *Sym = Table.Slots[I].Sym.load(std::memory_order_relaxed);
    if (Sym && !Sym->isMarked()) {
      Sym->setMarked(true);
      Gray.push_back(Sym);
    }
  }
  for (LocalHeap *Mutator : Mutators) {
    // Young objects may hold the only references into the old generation;
    // scanning the whole young area (live or not) conservatively retains
    // some floating garbage for one cycle, which is sound.
    Mutator->From->forEachObject([&](Object &O) {
      if (O.isForwarded() || !O.hasTracedSlots())
        return;
      for (std::uint32_t I = 0, E = O.slotCount(); I != E; ++I)
        markValue(O.slots()[I], Gray);
    });
    for (HandleScope *Scope = Mutator->Scopes; Scope;
         Scope = Scope->previous())
      for (Value *Slot = Scope->begin(); Slot != Scope->end(); ++Slot)
        markValue(*Slot, Gray);
    for (Value *Slot : Mutator->ExternalRoots)
      markValue(*Slot, Gray);
  }

  while (!Gray.empty()) {
    Object *O = Gray.back();
    Gray.pop_back();
    if (!O->hasTracedSlots())
      continue;
    for (std::uint32_t I = 0, E = O->slotCount(); I != E; ++I)
      markValue(O->slots()[I], Gray);
  }

  // --- Prune remembered sets whose containers died ------------------------
  for (LocalHeap *Mutator : Mutators) {
    auto &Entries = Mutator->Remembered;
    std::size_t Keep = 0;
    for (std::size_t I = 0; I != Entries.size(); ++I)
      if (Entries[I].Container->isMarked())
        Entries[Keep++] = Entries[I];
    Entries.resize(Keep);
  }

  // --- Sweep --------------------------------------------------------------
  FreeList.clear();
  std::uint64_t Live = 0;
  std::uint64_t Swept = 0;
  for (const auto &Block : Blocks) {
    Object *PendingFree = nullptr;
    Block->forEachObject([&](Object &O) {
      const std::size_t Bytes = O.sizeInBytes();
      const bool IsGarbage =
          O.kind() == ObjectKind::FreeChunk || !O.isMarked();
      if (!IsGarbage) {
        O.setMarked(false);
        Live += Bytes;
        PendingFree = nullptr;
        return;
      }
      if (O.kind() != ObjectKind::FreeChunk)
        Swept += Bytes;
      if (PendingFree) {
        // Coalesce with the preceding free chunk.
        PendingFree->initHeader(
            ObjectKind::FreeChunk,
            static_cast<std::uint32_t>(
                (PendingFree->sizeInBytes() + Bytes - sizeof(Object)) / 8));
        return;
      }
      O.initHeader(ObjectKind::FreeChunk,
                   static_cast<std::uint32_t>((Bytes - sizeof(Object)) / 8));
      O.setInOld();
      PendingFree = &O;
      FreeList.push_back(&O);
    });
  }

  Stats.BytesSwept += Swept;
  Stats.LiveBytesAfterLastGc = Live;
  Stats.PauseNanos.record(nowNanos() - PauseStart);
}

} // namespace gc
} // namespace sting
