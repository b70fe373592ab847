//===- core/PhysicalPolicy.h - VP-on-PP scheduling policies ------*- C++ -*-===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The second level of the paper's two-level scheduling architecture:
/// "associated with each physical processor is a policy manager that
/// dictates the scheduling of the virtual processors which execute on it"
/// (section 2), and the program model "permits the scheduling of virtual
/// processors on physical processors to be customizable in the same way
/// that the scheduling of threads on a virtual processor is customizable"
/// (section 2 item 4).
///
/// A PhysicalPolicy picks which assigned VP a physical processor enters
/// next. Returning null sends the PP to sleep in epoll_wait on its own set
/// until new work is published or a descriptor armed there turns ready.
///
//===----------------------------------------------------------------------===//

#ifndef STING_CORE_PHYSICALPOLICY_H
#define STING_CORE_PHYSICALPOLICY_H

#include <functional>
#include <memory>

namespace sting {

class PhysicalProcessor;
class VirtualMachine;
class VirtualProcessor;

/// Abstract VP-scheduling policy for one physical processor.
class PhysicalPolicy {
public:
  virtual ~PhysicalPolicy();

  /// Chooses the next VP for \p Pp to execute, or null to sleep. Called
  /// every time the PP regains control (a VP exhausted its slice or went
  /// idle). Implementations may probe workless VPs (their pm-vp-idle hook
  /// can migrate threads in), but must eventually return null when no VP
  /// anywhere has work, or the PP will spin.
  virtual VirtualProcessor *nextVp(PhysicalProcessor &Pp) = 0;

  /// Notification that new work was published somewhere in the machine
  /// (resets any "everything is idle" bookkeeping).
  virtual void workPublished(PhysicalProcessor &Pp);
};

/// Factory invoked once per physical processor at machine construction.
using PhysicalPolicyFactory = std::function<std::unique_ptr<PhysicalPolicy>(
    VirtualMachine &Vm, unsigned PpIndex)>;

/// The default: round-robin over the PP's assigned VPs, skipping VPs
/// without ready work but probing each workless VP once per idle episode
/// so its policy manager can migrate threads from loaded siblings.
PhysicalPolicyFactory makeRoundRobinPhysicalPolicy();

/// Dedicated-first: always runs the lowest-indexed assigned VP that has
/// work. Gives earlier VPs strict priority over later ones — the shape
/// used to keep a "foreground" VP responsive while background VPs soak up
/// leftover processor time.
PhysicalPolicyFactory makeDedicatedFirstPhysicalPolicy();

} // namespace sting

#endif // STING_CORE_PHYSICALPOLICY_H
