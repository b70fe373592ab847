//===- core/policy/ReadyQueue.h - Locked ready queue -----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The building block of the built-in policy managers: an intrusive list of
/// Schedulable items with a spin lock and a lock-free emptiness probe. The
/// paper's "Serialization" policy axis is about where instances of this
/// structure sit (per VP vs. machine-global) and which operations bypass
/// the lock.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_POLICY_READYQUEUE_H
#define STING_CORE_POLICY_READYQUEUE_H

#include "core/Schedulable.h"
#include "support/SpinLock.h"

#include <atomic>
#include <functional>
#include <mutex>

namespace sting {

/// A locked FIFO ready queue.
class ReadyQueue {
public:
  void pushBack(Schedulable &Item) {
    std::lock_guard<SpinLock> Guard(Lock);
    Items.pushBack(Item);
    Size.fetch_add(1, std::memory_order_release);
  }

  Schedulable *popFront() {
    if (empty())
      return nullptr;
    std::lock_guard<SpinLock> Guard(Lock);
    if (Items.empty())
      return nullptr;
    Size.fetch_sub(1, std::memory_order_release);
    return &Items.popFront();
  }

  bool empty() const { return Size.load(std::memory_order_acquire) == 0; }
  std::size_t size() const { return Size.load(std::memory_order_acquire); }

  void drainInto(const std::function<void(Schedulable &)> &Drop) {
    std::lock_guard<SpinLock> Guard(Lock);
    while (!Items.empty()) {
      Size.fetch_sub(1, std::memory_order_release);
      Drop(Items.popFront());
    }
  }

private:
  SpinLock Lock;
  IntrusiveList<Schedulable, ReadyQueueTag> Items;
  /// Own line: the lock-free emptiness probe is hammered by idle PPs and
  /// the watchdog, and must not contend with the lock word above.
  alignas(64) std::atomic<std::size_t> Size{0};
};

} // namespace sting

#endif // STING_CORE_POLICY_READYQUEUE_H
