// Tests for the runtime lock-order checker (lockdep.hpp, DESIGN.md §15).
// The full suite only exists in RELDEV_LOCKDEP builds; without the macro
// the checker collapses to no-ops and only the inert-API contract is
// verified, so this file compiles and passes in every configuration.
#include "reldev/util/lockdep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "reldev/util/thread_annotations.hpp"

namespace reldev::lockdep {
namespace {

#if !defined(RELDEV_LOCKDEP)

TEST(LockdepDisabledTest, ApiIsInertWithoutTheMacro) {
  EXPECT_FALSE(enabled());
  EXPECT_EQ(held_count(), 0);
  check_blocking("fsync");  // no-op, must not report or abort
  EXPECT_EQ(violation_count(), 0u);
  {
    const AllowBlocking allow("inert");
    check_blocking("recv");
  }
  {
    const ForbidBlocking forbid("inert-loop");
    check_blocking("send");
  }
  EXPECT_EQ(violation_count(), 0u);
  reset();
  EXPECT_EQ(violation_count(), 0u);
}

#else  // RELDEV_LOCKDEP

/// Installs a capturing handler (so violations do not abort) and wipes the
/// global graph before and after each test.
class LockdepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    reset();
    set_handler([this](const Violation& violation) {
      violations_.push_back(violation);
    });
  }

  void TearDown() override {
    set_handler(nullptr);
    reset();
  }

  /// Reports of the given kind captured so far.
  [[nodiscard]] std::vector<Violation> of_kind(ViolationKind kind) const {
    std::vector<Violation> out;
    for (const Violation& v : violations_) {
      if (v.kind == kind) out.push_back(v);
    }
    return out;
  }

  std::vector<Violation> violations_;
};

TEST_F(LockdepTest, EnabledAndInitiallyClean) {
  EXPECT_TRUE(enabled());
  EXPECT_EQ(held_count(), 0);
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(LockdepTest, HeldCountTracksNestedLocks) {
  Mutex a("ld-test.held.a");
  Mutex b("ld-test.held.b");
  EXPECT_EQ(held_count(), 0);
  {
    const MutexLock lock_a(a);
    EXPECT_EQ(held_count(), 1);
    {
      const MutexLock lock_b(b);
      EXPECT_EQ(held_count(), 2);
    }
    EXPECT_EQ(held_count(), 1);
  }
  EXPECT_EQ(held_count(), 0);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, ConsistentOrderIsClean) {
  Mutex a("ld-test.consistent.a");
  Mutex b("ld-test.consistent.b");
  for (int i = 0; i < 3; ++i) {
    const MutexLock lock_a(a);
    const MutexLock lock_b(b);
  }
  EXPECT_TRUE(violations_.empty());
  EXPECT_EQ(violation_count(), 0u);
}

TEST_F(LockdepTest, AbbaOrderIsReportedWithBothStacks) {
  Mutex a("ld-test.abba.a");
  Mutex b("ld-test.abba.b");
  {
    const MutexLock lock_a(a);
    const MutexLock lock_b(b);  // records a -> b
  }
  {
    const MutexLock lock_b(b);
    const MutexLock lock_a(a);  // closes the cycle: inversion
  }
  const auto inversions = of_kind(ViolationKind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  const std::string& text = inversions[0].text;
  EXPECT_NE(text.find("ORDER INVERSION"), std::string::npos) << text;
  // Both class names, and both acquisition stacks: the acquiring side and
  // the previously recorded conflicting edge.
  EXPECT_NE(text.find("ld-test.abba.a"), std::string::npos) << text;
  EXPECT_NE(text.find("ld-test.abba.b"), std::string::npos) << text;
  EXPECT_NE(text.find("this acquisition stack"), std::string::npos) << text;
  EXPECT_NE(text.find("recorded acquisition stack"), std::string::npos)
      << text;
  // The held-chain lines carry the MutexLock construction site (this file).
  EXPECT_NE(text.find("lockdep_test.cpp"), std::string::npos) << text;
}

TEST_F(LockdepTest, InversionIsReportedOncePerClassPair) {
  Mutex a("ld-test.dedup.a");
  Mutex b("ld-test.dedup.b");
  {
    const MutexLock lock_a(a);
    const MutexLock lock_b(b);
  }
  for (int i = 0; i < 4; ++i) {
    const MutexLock lock_b(b);
    const MutexLock lock_a(a);
  }
  EXPECT_EQ(of_kind(ViolationKind::kOrderInversion).size(), 1u);
  EXPECT_EQ(violation_count(), 1u);
}

TEST_F(LockdepTest, TransitiveCycleIsReported) {
  Mutex a("ld-test.transitive.a");
  Mutex b("ld-test.transitive.b");
  Mutex c("ld-test.transitive.c");
  {
    const MutexLock lock_a(a);
    const MutexLock lock_b(b);  // a -> b
  }
  {
    const MutexLock lock_b(b);
    const MutexLock lock_c(c);  // b -> c
  }
  {
    const MutexLock lock_c(c);
    const MutexLock lock_a(a);  // a ->* c already known: cycle
  }
  const auto inversions = of_kind(ViolationKind::kOrderInversion);
  ASSERT_EQ(inversions.size(), 1u);
  const std::string& text = inversions[0].text;
  // The report spells out the recorded path a -> b -> c.
  EXPECT_NE(text.find("ld-test.transitive.a -> ld-test.transitive.b"),
            std::string::npos)
      << text;
}

TEST_F(LockdepTest, OrderingGeneralizesAcrossInstancesOfAClass) {
  // Two mutexes constructed with the same explicit name are one class:
  // an ordering recorded through instance #1 applies to instance #2.
  Mutex pool_a("ld-test.pool");
  Mutex pool_b("ld-test.pool");
  Mutex other("ld-test.other");
  {
    const MutexLock lock_pool(pool_a);
    const MutexLock lock_other(other);  // pool -> other
  }
  {
    const MutexLock lock_other(other);
    const MutexLock lock_pool(pool_b);  // other -> pool: inversion via #2
  }
  EXPECT_EQ(of_kind(ViolationKind::kOrderInversion).size(), 1u);
}

TEST_F(LockdepTest, SameClassNestingIsNotAnOrdering) {
  // Nesting two instances of one class is deliberately exempt from edge
  // recording (it would be a self-loop); the annotation layer's
  // ACQUIRED_AFTER is the tool for intra-class order.
  Mutex first("ld-test.same-class");
  Mutex second("ld-test.same-class");
  {
    const MutexLock lock_1(first);
    const MutexLock lock_2(second);
  }
  {
    const MutexLock lock_2(second);
    const MutexLock lock_1(first);
  }
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, OrderingFactsSurviveAcrossThreads) {
  Mutex a("ld-test.threads.a");
  Mutex b("ld-test.threads.b");
  std::thread recorder([&] {
    const MutexLock lock_a(a);
    const MutexLock lock_b(b);  // a -> b, recorded by another thread
  });
  recorder.join();
  {
    const MutexLock lock_b(b);
    const MutexLock lock_a(a);  // this thread closes the cycle
  }
  EXPECT_EQ(of_kind(ViolationKind::kOrderInversion).size(), 1u);
}

TEST_F(LockdepTest, TryLockDoesNotRecordAnEdgeButCountsAsHeld) {
  Mutex a("ld-test.trylock.a");
  Mutex b("ld-test.trylock.b");
  {
    const MutexLock lock_a(a);
    ASSERT_TRUE(b.try_lock());  // no pre_acquire: no a -> b edge
    EXPECT_EQ(held_count(), 2);
    b.unlock();
  }
  {
    const MutexLock lock_b(b);
    const MutexLock lock_a(a);  // b -> a is the only recorded order: clean
  }
  EXPECT_TRUE(of_kind(ViolationKind::kOrderInversion).empty());
}

TEST_F(LockdepTest, BlockingCallUnderLockIsReported) {
  Mutex a("ld-test.blocking.a");
  {
    const MutexLock lock_a(a);
    check_blocking("fsync");
  }
  const auto blocking = of_kind(ViolationKind::kBlockingUnderLock);
  ASSERT_EQ(blocking.size(), 1u);
  EXPECT_NE(blocking[0].text.find("fsync"), std::string::npos);
  EXPECT_NE(blocking[0].text.find("ld-test.blocking.a"), std::string::npos);
  EXPECT_NE(blocking[0].text.find("blocking call stack"), std::string::npos);
}

TEST_F(LockdepTest, BlockingReportsAreDedupedPerOperationAndClass) {
  Mutex a("ld-test.blocking-dedup.a");
  const MutexLock lock_a(a);
  check_blocking("recv");
  check_blocking("recv");  // same (op, top class): collapsed
  check_blocking("send");  // different op: fresh report
  EXPECT_EQ(of_kind(ViolationKind::kBlockingUnderLock).size(), 2u);
}

TEST_F(LockdepTest, BlockingWithNoLockHeldIsClean) {
  check_blocking("fsync");
  check_blocking("recv");
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, AllowBlockingSuppressesTheReport) {
  Mutex a("ld-test.allow.a");
  const MutexLock lock_a(a);
  {
    const AllowBlocking allow("test: blocking here is the point");
    check_blocking("fsync");
  }
  EXPECT_TRUE(violations_.empty());
  check_blocking("fsync");  // scope ended: reported again
  EXPECT_EQ(of_kind(ViolationKind::kBlockingUnderLock).size(), 1u);
}

TEST_F(LockdepTest, BlockingInsideForbidScopeIsReportedWithoutALock) {
  {
    const ForbidBlocking forbid("ld-test.loop");
    check_blocking("recv");
    check_blocking("recv");  // same (op, owner): collapsed
    {
      // The loop's contract is stricter than the under-lock one: an
      // AllowBlocking excuse does not silence it.
      const AllowBlocking allow("test: excuses do not apply on the loop");
      check_blocking("pread");
    }
  }
  const auto on_loop = of_kind(ViolationKind::kBlockingOnLoop);
  ASSERT_EQ(on_loop.size(), 2u);
  EXPECT_NE(on_loop[0].text.find("recv"), std::string::npos);
  EXPECT_NE(on_loop[0].text.find("ld-test.loop"), std::string::npos);
  EXPECT_NE(on_loop[1].text.find("pread"), std::string::npos);
  EXPECT_TRUE(of_kind(ViolationKind::kBlockingUnderLock).empty());
  EXPECT_STREQ(violation_kind_name(ViolationKind::kBlockingOnLoop),
               "blocking-on-loop");

  check_blocking("recv");  // scope ended, no lock held: clean again
  EXPECT_EQ(violations_.size(), 2u);
}

TEST_F(LockdepTest, ForbidScopeIsPerThread) {
  const ForbidBlocking forbid("ld-test.loop-thread");
  std::thread other([] { check_blocking("fsync"); });
  other.join();
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, CondVarWaitWithOnlyItsMutexIsClean) {
  Mutex m("ld-test.wait.clean");
  CondVar cv;
  {
    const MutexLock lock(m);
    EXPECT_FALSE(cv.wait_for(m, std::chrono::milliseconds(5)));
    // The wait released and reacquired without corrupting the held stack.
    EXPECT_EQ(held_count(), 1);
    EXPECT_TRUE(m.held_by_caller());
  }
  EXPECT_EQ(held_count(), 0);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, CondVarWaitThroughNotifyKeepsHeldStackIntact) {
  Mutex m("ld-test.wait.notify");
  CondVar cv;
  bool ready = false;
  std::thread waker([&] {
    const MutexLock lock(m);
    ready = true;
    cv.notify_one();
  });
  {
    const MutexLock lock(m);
    while (!ready) cv.wait(m);
    EXPECT_EQ(held_count(), 1);
    EXPECT_TRUE(m.held_by_caller());
  }
  waker.join();
  EXPECT_EQ(held_count(), 0);
  EXPECT_TRUE(violations_.empty());
}

TEST_F(LockdepTest, CondVarWaitWithAnotherLockHeldIsReported) {
  Mutex outer("ld-test.wait.outer");
  Mutex inner("ld-test.wait.inner");
  CondVar cv;
  {
    const MutexLock lock_outer(outer);
    const MutexLock lock_inner(inner);
    EXPECT_FALSE(cv.wait_for(inner, std::chrono::milliseconds(5)));
    // Both locks are held again after the wake.
    EXPECT_EQ(held_count(), 2);
  }
  const auto waits = of_kind(ViolationKind::kWaitWithLocksHeld);
  ASSERT_EQ(waits.size(), 1u);
  EXPECT_NE(waits[0].text.find("ld-test.wait.inner"), std::string::npos);
  EXPECT_NE(waits[0].text.find("ld-test.wait.outer"), std::string::npos);
  EXPECT_EQ(held_count(), 0);
}

TEST_F(LockdepTest, ViolationCountAndResetRoundTrip) {
  Mutex a("ld-test.reset.a");
  {
    const MutexLock lock_a(a);
    check_blocking("fsync");
  }
  EXPECT_EQ(violation_count(), 1u);
  reset();
  EXPECT_EQ(violation_count(), 0u);
  // The dedup table was cleared too: the same report can fire again.
  {
    const MutexLock lock_a(a);
    check_blocking("fsync");
  }
  EXPECT_EQ(violation_count(), 1u);
}

#endif  // RELDEV_LOCKDEP

}  // namespace
}  // namespace reldev::lockdep
