//===- gc/GlobalHeap.h - Shared older generation -----------------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine's shared older generation (paper Fig. 1: "Shared
/// older generation" inside the VM address space): "long-lived or
/// persistent data allocated by a thread is accessible to other threads in
/// the same virtual machine." Non-moving block allocator with mark-sweep
/// full collection; promotion targets and cross-thread data live here so
/// per-thread scavenges never need to touch another thread's young area.
///
//===----------------------------------------------------------------------===//

#ifndef STING_GC_GLOBALHEAP_H
#define STING_GC_GLOBALHEAP_H

#include "gc/Area.h"
#include "support/Histogram.h"
#include "support/SpinLock.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace sting {
namespace gc {

class LocalHeap;

/// Statistics surfaced to tests and benchmarks.
struct GlobalHeapStats {
  std::uint64_t BytesAllocated = 0;
  std::uint64_t ObjectsAllocated = 0;
  std::uint64_t FullCollections = 0;
  std::uint64_t BytesSwept = 0;
  std::uint64_t LiveBytesAfterLastGc = 0;
  /// Stop-the-world duration of each full collection, in ns.
  Histogram PauseNanos;
};

/// The shared older generation of one virtual machine.
class GlobalHeap {
public:
  explicit GlobalHeap(std::size_t BlockBytes = 256 * 1024);
  ~GlobalHeap();

  GlobalHeap(const GlobalHeap &) = delete;
  GlobalHeap &operator=(const GlobalHeap &) = delete;

  /// Allocates an old-generation object. Thread-safe (per-heap lock on the
  /// refill and free-list paths).
  Object *allocate(ObjectKind Kind, std::uint32_t SlotCount);

  /// Shared-allocation helpers for runtime structures whose data must be
  /// visible across threads (tuple spaces, streams, thread results).
  Value consShared(Value Car, Value Cdr);
  Value makeVectorShared(std::uint32_t Length, Value Fill);
  Value makeStringShared(std::string_view Text);
  Value makeBoxShared(Value V);

  /// Interns \p Name, returning the unique symbol object. Symbols are
  /// permanent (treated as roots by full collections). A name already
  /// interned is found without locking or allocating (DESIGN.md §5).
  Value intern(std::string_view Name);

  // --- Root registry -----------------------------------------------------

  /// Registers \p Slot as a root (e.g. a runtime structure's table
  /// pointer). The slot must stay valid until removeRoot, and may be
  /// registered only once at a time. Both are O(1).
  void addRoot(Value *Slot);
  void removeRoot(Value *Slot);

  /// True when a full collection could reclaim \p V: an old-generation
  /// object other than a symbol. Fixnums, immediates and foreign pointers
  /// are not heap objects, and symbols are permanent. A slot whose value
  /// stays fixed while it is held registers only when this holds, and
  /// unregisters by the same test on the same value.
  static bool isCollectable(Value V) {
    return V.isObject() && V.asObject()->isInOld() &&
           V.asObject()->kind() != ObjectKind::Symbol;
  }

  /// Number of registered roots (for tests).
  std::size_t rootCount() const;

  // --- Full collection ----------------------------------------------------

  /// Mark-sweep collection of the older generation. Requires mutator
  /// quiescence for the duration (the paper's full collections are likewise
  /// global; only *young* collections are per-thread and unsynchronized).
  /// \p Mutators are the live local heaps whose young areas and handle
  /// scopes are scanned as additional roots.
  void collectFull(const std::vector<LocalHeap *> &Mutators);

  bool contains(const void *P) const;

  GlobalHeapStats stats() const;

private:
  Object *allocateLocked(ObjectKind Kind, std::uint32_t SlotCount);
  Object *allocateFromFreeList(std::size_t Bytes);
  void markValue(Value V, std::vector<Object *> &Gray);

  /// An insert-only open-addressing table of interned symbols. A slot's
  /// Hash is written before its symbol is published (release), and a
  /// table's slots are filled before the table itself is published, so a
  /// reader that acquires a symbol also sees its hash and its bytes.
  struct SymbolTable {
    struct Slot {
      std::atomic<Object *> Sym{nullptr};
      std::uint64_t Hash = 0;
    };
    explicit SymbolTable(std::size_t Capacity)
        : Mask(Capacity - 1), Slots(new Slot[Capacity]) {}
    /// \returns the symbol named \p Name, or null. Lock-free.
    Object *find(std::string_view Name, std::uint64_t Hash) const;
    /// Stores \p Sym in the first empty slot of its probe (SymbolLock held).
    void insert(Object *Sym, std::uint64_t Hash);

    std::size_t Mask;
    std::unique_ptr<Slot[]> Slots;
  };

  mutable SpinLock Lock;
  std::size_t BlockBytes;
  std::vector<std::unique_ptr<Area>> Blocks;
  /// First-fit free list of swept chunks (addresses of FreeChunk objects).
  std::vector<Object *> FreeList;
  std::unordered_set<Value *> Roots;
  GlobalHeapStats Stats;

  /// Serializes symbol inserts; taken before Lock, never after it.
  SpinLock SymbolLock;
  /// The current symbol table, read without locking.
  std::atomic<SymbolTable *> Symbols;
  /// Every table ever published, the current one last: a reader may still
  /// walk a table a resize replaced, so none is freed before the heap.
  std::vector<std::unique_ptr<SymbolTable>> SymbolTables;
  std::size_t SymbolCount = 0;
};

} // namespace gc
} // namespace sting

#endif // STING_GC_GLOBALHEAP_H
