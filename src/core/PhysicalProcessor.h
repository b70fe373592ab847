//===- core/PhysicalProcessor.h - Physical processors -----------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A physical processor: one OS thread multiplexing virtual processors "in
/// the same way that threads are multiplexed on virtual processors"
/// (paper section 2). The paper maps each node of its 8-processor SGI to a
/// lightweight Unix thread; we map each PP to a POSIX thread (see the
/// substitution table in DESIGN.md).
///
/// Each PP owns a VP-level scheduling policy (round-robin over its assigned
/// VPs, skipping VPs with no ready work) and an epoll set (core/PollSet.h).
/// When no VP anywhere has work it sleeps in epoll_wait on that set, listed
/// with the machine's idle event count, so an enqueue or the readiness of
/// a descriptor a thread on its VPs waits for wakes it.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_PHYSICALPROCESSOR_H
#define STING_CORE_PHYSICALPROCESSOR_H

#include "arch/Context.h"
#include "core/PhysicalPolicy.h"
#include "core/PollSet.h"

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

namespace sting {

class VirtualMachine;
class VirtualProcessor;

/// One OS thread executing virtual processors.
class PhysicalProcessor {
public:
  PhysicalProcessor(VirtualMachine &Vm, unsigned Index,
                    std::unique_ptr<PhysicalPolicy> Policy);
  ~PhysicalProcessor();

  PhysicalProcessor(const PhysicalProcessor &) = delete;
  PhysicalProcessor &operator=(const PhysicalProcessor &) = delete;

  unsigned index() const { return Index; }
  VirtualMachine &vm() const { return *Vm; }

  /// VPs assigned to this processor.
  const std::vector<VirtualProcessor *> &assignedVps() const { return Vps; }

  /// Assigns \p Vp to this processor; called by the VM during construction
  /// (before start()).
  void assignVp(VirtualProcessor &Vp);

  /// Starts the underlying OS thread.
  void start();

  /// Joins the OS thread; the VM must already be shutting down.
  void stop();

  /// Number of VP switch-ins performed (for tests/benches).
  std::uint64_t vpSwitches() const { return Switches; }

  /// The VP-scheduling policy this processor is closed over.
  PhysicalPolicy &policy() { return *Policy; }

  /// The epoll set this processor sleeps on; I/O clients arm descriptors
  /// here for threads running on its VPs.
  PollSet &pollSet() const { return *Poll; }

private:
  friend class VirtualProcessor;

  void run();

  VirtualMachine *Vm;
  unsigned Index;
  std::unique_ptr<PhysicalPolicy> Policy;
  IntrusivePtr<PollSet> Poll;
  std::vector<VirtualProcessor *> Vps;
  std::thread Os;
  Context PpCtx;
  std::uint64_t Switches = 0;
};

} // namespace sting

#endif // STING_CORE_PHYSICALPROCESSOR_H
