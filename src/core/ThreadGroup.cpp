//===- core/ThreadGroup.cpp - Thread groups --------------------------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadGroup.h"

#include "core/ThreadController.h"

#include <atomic>

namespace sting {

static std::atomic<std::uint64_t> NextGroupId{1};

/// Process-wide registry of live groups ("listing all groups").
namespace {
struct GroupRegistry {
  SpinLock Lock;
  IntrusiveList<ThreadGroup, GroupRegistryTag> Groups;
};
GroupRegistry &registry() {
  static GroupRegistry R;
  return R;
}
} // namespace

ThreadGroup::ThreadGroup(ThreadGroup *Parent)
    : Id(NextGroupId.fetch_add(1, std::memory_order_relaxed)),
      Parent(Parent) {
  GroupRegistry &R = registry();
  std::lock_guard<SpinLock> Guard(R.Lock);
  R.Groups.pushBack(*this);
}

ThreadGroup::~ThreadGroup() {
  // Members hold a reference to the group, so the group can only die after
  // every member left.
  STING_DCHECK(Members.empty(), "destroying a group with live members");
  GroupRegistry &R = registry();
  std::lock_guard<SpinLock> Guard(R.Lock);
  IntrusiveList<ThreadGroup, GroupRegistryTag>::erase(*this);
}

std::vector<ThreadGroupRef> ThreadGroup::allGroups() {
  GroupRegistry &R = registry();
  std::vector<ThreadGroupRef> Out;
  std::lock_guard<SpinLock> Guard(R.Lock);
  for (ThreadGroup &G : R.Groups) {
    // A group whose final release already committed is mid-destruction
    // (its destructor is blocked on our lock); skip it rather than
    // resurrect it.
    if (G.retainIfAlive())
      Out.push_back(ThreadGroupRef::adopt(&G));
  }
  return Out;
}

ThreadGroupRef ThreadGroup::create(ThreadGroup *Parent) {
  return ThreadGroupRef::adopt(new ThreadGroup(Parent));
}

void ThreadGroup::addMember(Thread &T) {
  Created.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<SpinLock> Guard(Lock);
  Members.pushBack(T);
}

void ThreadGroup::removeMember(Thread &T) {
  std::lock_guard<SpinLock> Guard(Lock);
  IntrusiveList<Thread, GroupMemberTag>::erase(T);
}

std::size_t ThreadGroup::liveCount() const {
  std::lock_guard<SpinLock> Guard(Lock);
  return Members.size();
}

std::vector<ThreadRef> ThreadGroup::threads() const {
  std::vector<ThreadRef> Snapshot;
  std::lock_guard<SpinLock> Guard(Lock);
  for (Thread &T : const_cast<IntrusiveList<Thread, GroupMemberTag> &>(
           Members)) {
    // A member whose final release already committed is mid-destruction
    // (its destructor is blocked on our lock to leave); skip it rather
    // than resurrect it.
    if (T.retainIfAlive())
      Snapshot.push_back(ThreadRef::adopt(&T));
  }
  return Snapshot;
}

void ThreadGroup::terminateAll() {
  // Snapshot first: threadTerminate may determine members, which mutates
  // the member list under our lock.
  for (const ThreadRef &T : threads())
    ThreadController::threadTerminate(*T);
}

void ThreadGroup::suspendAll() {
  for (const ThreadRef &T : threads())
    ThreadController::threadSuspend(*T, /*QuantumNanos=*/0);
}

void ThreadGroup::resumeAll() {
  for (const ThreadRef &T : threads())
    ThreadController::threadRun(*T);
}

} // namespace sting
