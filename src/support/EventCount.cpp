//===- support/EventCount.cpp - Waiter-counting event count ----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "support/EventCount.h"

#include <unistd.h>

namespace sting {

void EventCount::writeWake(int Fd) {
  std::uint64_t One = 1;
  [[maybe_unused]] ssize_t Rc = ::write(Fd, &One, sizeof(One));
}

void EventCount::drainWake(int Fd) {
  std::uint64_t Count;
  [[maybe_unused]] ssize_t Rc = ::read(Fd, &Count, sizeof(Count));
}

} // namespace sting
