//===- core/PollSet.cpp - A physical processor's epoll set -----------------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
//===----------------------------------------------------------------------===//

#include "core/PollSet.h"

#include "support/Debug.h"

#include <cerrno>
#include <mutex>

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

namespace sting {

namespace {
std::uint64_t tag(std::uint32_t Id, int Fd) {
  return (std::uint64_t(Id) << 32) | static_cast<std::uint32_t>(Fd);
}
} // namespace

PollSet::PollSet() {
  EpollFd = epoll_create1(EPOLL_CLOEXEC);
  STING_CHECK(EpollFd >= 0, "epoll_create1 failed");
  WakeFd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  STING_CHECK(WakeFd >= 0, "eventfd failed");
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = tag(0, WakeFd);
  int Rc = epoll_ctl(EpollFd, EPOLL_CTL_ADD, WakeFd, &Ev);
  STING_CHECK(Rc == 0, "epoll_ctl(wake) failed");
}

PollSet::~PollSet() {
  close(WakeFd);
  close(EpollFd);
}

bool PollSet::attach(std::uint32_t Id, Client &C) {
  std::lock_guard<SpinLock> Guard(ClientLock);
  for (const auto &[Key, Ptr] : Clients)
    if (Key == Id)
      return false;
  Clients.emplace_back(Id, &C);
  return true;
}

void PollSet::detach(std::uint32_t Id) {
  {
    std::lock_guard<SpinLock> Guard(ClientLock);
    for (std::size_t I = 0; I != Clients.size(); ++I)
      if (Clients[I].first == Id) {
        Clients[I] = Clients.back();
        Clients.pop_back();
        break;
      }
  }
  std::lock_guard<SpinLock> Guard(ClaimLock);
  for (std::uint32_t &Holder : Claims)
    if (Holder == Id)
      Holder = 0;
}

void PollSet::arm(std::uint32_t Id, int Fd, std::uint32_t Events) {
  epoll_event Ev{};
  Ev.events = Events | EPOLLONESHOT;
  Ev.data.u64 = tag(Id, Fd);
  std::lock_guard<SpinLock> Guard(ClaimLock);
  const auto Index = static_cast<std::size_t>(Fd);
  if (Index >= Claims.size())
    Claims.resize(Index + 1, 0);
  std::uint32_t &Holder = Claims[Index];
  if (Holder != 0 && Holder != Id) {
    // Another client's waiters are armed on Fd here. Only a close since
    // (which drops the registration) frees the descriptor: then ADD works.
    STING_CHECK(epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) == 0,
                "descriptor awaited through two IoServices on one "
                "physical processor");
    Holder = Id;
    return;
  }
  Holder = Id;
  if (epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev) == 0)
    return;
  int Rc = epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  STING_CHECK(Rc == 0 || errno == EEXIST, "epoll_ctl(add) failed");
}

void PollSet::unclaim(std::uint32_t Id, int Fd) {
  std::lock_guard<SpinLock> Guard(ClaimLock);
  const auto Index = static_cast<std::size_t>(Fd);
  if (Index < Claims.size() && Claims[Index] == Id)
    Claims[Index] = 0;
}

void PollSet::wait(int TimeoutMs) {
  epoll_event Events[16];
  int N = epoll_wait(EpollFd, Events, 16, TimeoutMs);
  for (int I = 0; I < N; ++I) {
    const auto Id = static_cast<std::uint32_t>(Events[I].data.u64 >> 32);
    if (Id == 0)
      continue; // the wake fd: its sleeper drains it
    const int Fd = static_cast<int>(Events[I].data.u64 & 0xffffffffu);
    std::lock_guard<SpinLock> Guard(ClientLock);
    for (const auto &[Key, C] : Clients)
      if (Key == Id) {
        C->ready(*this, Fd, Events[I].events);
        break;
      }
  }
}

} // namespace sting
