//===- tests/core/PollSetTest.cpp - A physical processor's epoll set ------===//
//
// Part of libsting. See DESIGN.md for the system overview.
//
// A PP's set holds one tag per descriptor, so it records which client
// armed each one. These tests drive the claims directly, with no machine.
//
//===----------------------------------------------------------------------===//

#include "core/PollSet.h"

#include "gtest/gtest.h"

#include <sys/epoll.h>
#include <unistd.h>

namespace {

using namespace sting;

/// Counts the readiness a set hands it.
struct CountingClient final : PollSet::Client {
  int Calls = 0;
  void ready(PollSet &, int, std::uint32_t) override { ++Calls; }
};

struct Pipe {
  int Fds[2];
  Pipe() { EXPECT_EQ(pipe(Fds), 0); }
  ~Pipe() {
    close(Fds[0]);
    close(Fds[1]);
  }
};

TEST(PollSetTest, UnclaimedDescriptorCanBeArmedByAnotherClient) {
  auto Set = PollSet::create();
  CountingClient A, B;
  Set->attach(1, A);
  Set->attach(2, B);
  Pipe P;
  Set->arm(1, P.Fds[0], EPOLLIN);
  Set->unclaim(2, P.Fds[0]); // not the holder: no effect
  Set->unclaim(1, P.Fds[0]);
  Set->arm(2, P.Fds[0], EPOLLIN); // re-tags the registration
  ASSERT_EQ(::write(P.Fds[1], "x", 1), 1);
  Set->wait(1000);
  EXPECT_EQ(A.Calls, 0);
  EXPECT_EQ(B.Calls, 1);
  Set->detach(1);
  Set->detach(2);
}

TEST(PollSetTest, DetachDropsTheClientsClaims) {
  auto Set = PollSet::create();
  CountingClient A, B;
  Set->attach(1, A);
  Set->attach(2, B);
  Pipe P;
  Set->arm(1, P.Fds[0], EPOLLIN);
  Set->detach(1);
  Set->arm(2, P.Fds[0], EPOLLIN);
  ASSERT_EQ(::write(P.Fds[1], "x", 1), 1);
  Set->wait(1000);
  EXPECT_EQ(B.Calls, 1);
  Set->detach(2);
}

// A close drops the descriptor from the set, so a claim left on a closed
// descriptor number does not block the number's next owner.
TEST(PollSetTest, ClaimOnAClosedDescriptorPassesOn) {
  auto Set = PollSet::create();
  CountingClient A, B;
  Set->attach(1, A);
  Set->attach(2, B);
  int Stale[2];
  ASSERT_EQ(pipe(Stale), 0);
  Set->arm(1, Stale[0], EPOLLIN);
  const int Number = Stale[0];
  close(Stale[0]);
  close(Stale[1]);
  Pipe P; // takes the lowest free numbers: the closed ones
  ASSERT_EQ(P.Fds[0], Number);
  Set->arm(2, P.Fds[0], EPOLLIN);
  ASSERT_EQ(::write(P.Fds[1], "x", 1), 1);
  Set->wait(1000);
  EXPECT_EQ(A.Calls, 0);
  EXPECT_EQ(B.Calls, 1);
  Set->detach(1);
  Set->detach(2);
}

TEST(PollSetDeathTest, TwoClientsArmingOneDescriptorIsFatal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto Set = PollSet::create();
  CountingClient A, B;
  Set->attach(1, A);
  Set->attach(2, B);
  Pipe P;
  Set->arm(1, P.Fds[0], EPOLLIN);
  EXPECT_DEATH(Set->arm(2, P.Fds[0], EPOLLIN), "two IoServices");
  Set->detach(1);
  Set->detach(2);
}

} // namespace
