// Chaos soak: every engine (MCV / AC / NAC) run through randomized fault
// schedules — link loss, corruption, duplication, delay, site crashes and
// partial recoveries — at fixed seeds, with invariants asserted at every
// heal point.
//
// Fault placement respects each scheme's model. Majority-consensus voting
// tolerates lost and garbled messages between replicas (version discovery
// plus quorums), so voting runs inject loss and corruption on every link.
// The available-copy schemes ASSUME reliable delivery between live sites
// (§3 of the paper) — for them, loss and corruption are injected only on
// client links, while replica links get the faults their model does admit:
// duplication, delay, and fail-stop crashes.
//
// Invariants checked after each heal:
//   * the group converges: every site recovers to `available`;
//   * a sealing vectored write through the driver stub succeeds, and every
//     site then serves the sealed bytes;
//   * no torn vectored batch: a dedicated block range only ever written by
//     whole-batch messages stays uniform per site (AC/NAC stores);
//   * per-site, per-block version monotonicity across rounds;
//   * the fault layer really injected faults (stats counters moved).
// An AC-only blackout coda replays the §4.4 total failure and asserts the
// closure-based restart ordering site by site.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "scheme_seed_name.hpp"
#include "reldev/core/driver_stub.hpp"
#include "reldev/core/group.hpp"
#include "reldev/util/rng.hpp"

namespace reldev::core {
namespace {

constexpr SiteId kClient = 100;
constexpr std::size_t kSites = 5;
constexpr std::size_t kBlocks = 16;
constexpr std::size_t kBlockSize = 64;
// Blocks written only by whole-batch messages (and sealing writes): the
// torn-batch invariant watches these.
constexpr BlockId kBatchFirst = 8;
constexpr std::size_t kBatchCount = 4;
constexpr int kRounds = 5;
constexpr int kOpsPerRound = 14;

storage::BlockData payload(std::size_t size, std::uint8_t tag) {
  return storage::BlockData(size, static_cast<std::byte>(tag));
}

class ChaosSoakTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, std::uint64_t>> {
 protected:
  ChaosSoakTest()
      : scheme_(std::get<0>(GetParam())),
        seed_(std::get<1>(GetParam())),
        group_(scheme_, GroupConfig::majority(kSites, kBlocks, kBlockSize)),
        schedule_(seed_ ^ 0xc4a05ull) {
    group_.faults().reseed(seed_);
  }

  RetryPolicy stub_policy() const {
    RetryPolicy policy;
    policy.max_rounds = 3;
    policy.initial_backoff = std::chrono::milliseconds{0};
    policy.max_backoff = std::chrono::milliseconds{0};
    policy.op_deadline = std::chrono::milliseconds{2000};
    policy.jitter_seed = seed_;
    return policy;
  }

  bool all_available() {
    for (SiteId site = 0; site < kSites; ++site) {
      if (group_.replica(site).state() != SiteState::kAvailable) return false;
    }
    return true;
  }

  /// Program this round's fault schedule. Loss/corruption between replicas
  /// only for voting (see the header comment); client links always get the
  /// full menu so the stub's retry policy is exercised everywhere.
  void inject_faults(int round) {
    auto& faults = group_.faults();
    for (SiteId site = 0; site < kSites; ++site) {
      if (!schedule_.bernoulli(0.6)) continue;
      net::FaultRule rule;
      rule.drop = schedule_.uniform(0.0, 0.3);
      rule.corrupt = schedule_.uniform(0.0, 0.2);
      rule.duplicate = schedule_.uniform(0.0, 0.2);
      faults.set_link_rule(kClient, site, rule);
    }
    // Guaranteed hot links so the stats assertions never depend on luck.
    const auto hot = static_cast<std::size_t>(round);
    net::FaultRule corrupting;
    corrupting.corrupt = 0.5;
    faults.set_link_rule(kClient, static_cast<SiteId>(hot % kSites),
                         corrupting);
    net::FaultRule lossy;
    lossy.drop = 0.5;
    faults.set_link_rule(kClient, static_cast<SiteId>((hot + 1) % kSites),
                         lossy);
    for (int i = 0; i < 4; ++i) {
      const auto from = static_cast<SiteId>(schedule_.uniform_u64(0, 4));
      const auto to = static_cast<SiteId>(schedule_.uniform_u64(0, 4));
      if (from == to) continue;
      net::FaultRule rule;
      rule.duplicate = schedule_.uniform(0.0, 0.5);
      if (schedule_.bernoulli(0.2)) rule.delay = std::chrono::milliseconds{1};
      if (scheme_ == SchemeKind::kVoting) {
        rule.drop = schedule_.uniform(0.0, 0.3);
        rule.corrupt = schedule_.uniform(0.0, 0.3);
      }
      faults.set_link_rule(from, to, rule);
    }
  }

  /// Best-effort traffic while the network misbehaves: client ops through
  /// the stub, coordinator ops straight at replicas, whole-batch writes to
  /// the watched range, and crashes/returns of random sites.
  void churn(DriverStub& stub, int round) {
    for (int op = 0; op < kOpsPerRound; ++op) {
      const auto tag =
          static_cast<std::uint8_t>(1 + ((round * kOpsPerRound + op) % 200));
      switch (schedule_.uniform_u64(0, 6)) {
        case 0:
          (void)stub.read_block(schedule_.uniform_u64(0, kBlocks - 1));
          break;
        case 1:
          (void)stub.write_block(schedule_.uniform_u64(0, kBatchFirst - 1),
                                 payload(kBlockSize, tag));
          break;
        case 2: {
          const BlockId first = schedule_.uniform_u64(0, kBlocks - 4);
          (void)stub.read_blocks(first, schedule_.uniform_u64(1, 4));
          break;
        }
        case 3: {
          // Vectored client writes stay below the batch-only range.
          const BlockId first = schedule_.uniform_u64(0, 4);
          const std::size_t count = schedule_.uniform_u64(1, 4);
          (void)stub.write_blocks(first,
                                  payload(count * kBlockSize, tag));
          break;
        }
        case 4:
          // The watched range: only ever written as one whole batch, only
          // ever through site 0, so per-site application is all-or-none.
          if (group_.transport().is_up(0) &&
              group_.replica(0).state() == SiteState::kAvailable) {
            (void)group_.write_range(0, kBatchFirst,
                                     payload(kBatchCount * kBlockSize, tag));
          }
          break;
        case 5:
          (void)group_.read(
              static_cast<SiteId>(schedule_.uniform_u64(0, kSites - 1)),
              schedule_.uniform_u64(0, kBlocks - 1));
          break;
        case 6: {
          const auto site =
              static_cast<SiteId>(schedule_.uniform_u64(0, kSites - 1));
          if (group_.transport().is_up(site)) {
            if (schedule_.bernoulli(0.35)) group_.crash_site(site);
          } else if (schedule_.bernoulli(0.5)) {
            (void)group_.recover_site(site);  // may stay comatose
          }
          break;
        }
      }
    }
  }

  /// Heal the network and drive every site back to `available`.
  void heal_and_converge() {
    group_.faults().heal();
    group_.transport().clear_partitions();
    for (int pass = 0; pass < 10 && !all_available(); ++pass) {
      for (SiteId site = 0; site < kSites; ++site) {
        group_.transport().set_up(site, true);
        if (group_.replica(site).state() != SiteState::kAvailable) {
          (void)group_.replica(site).recover();
        }
      }
      group_.retry_comatose();
    }
    ASSERT_TRUE(all_available()) << "group failed to converge after heal";
  }

  void check_no_torn_batch() {
    if (scheme_ == SchemeKind::kVoting) return;  // store check is AC/NAC's
    for (SiteId site = 0; site < kSites; ++site) {
      const auto first = group_.store(site).read(kBatchFirst);
      ASSERT_TRUE(first.is_ok());
      const std::byte tag = first.value().data[0];
      for (std::size_t i = 1; i < kBatchCount; ++i) {
        const auto block = group_.store(site).read(kBatchFirst + i);
        ASSERT_TRUE(block.is_ok());
        EXPECT_EQ(block.value().data[0], tag)
            << "torn batch at site " << site << ", block "
            << kBatchFirst + i;
      }
    }
  }

  void check_version_monotonicity() {
    for (SiteId site = 0; site < kSites; ++site) {
      for (const BlockId block : {BlockId{0}, kBatchFirst, kBlocks - 1}) {
        const auto version = group_.store(site).version_of(block);
        ASSERT_TRUE(version.is_ok());
        const auto key = std::make_pair(site, block);
        const auto previous = last_versions_.find(key);
        if (previous != last_versions_.end()) {
          EXPECT_GE(version.value(), previous->second)
              << "version went backwards at site " << site << ", block "
              << block;
        }
        last_versions_[key] = version.value();
      }
    }
  }

  void seal_and_verify(DriverStub& stub, int round) {
    storage::BlockData sealed(kBlocks * kBlockSize);
    for (std::size_t i = 0; i < sealed.size(); ++i) {
      // Per-block pattern, except uniform across the batch-only range so
      // the torn-batch store check keeps holding after the seal.
      std::size_t block = i / kBlockSize;
      if (block >= kBatchFirst && block < kBatchFirst + kBatchCount) {
        block = kBatchFirst;
      }
      sealed[i] = static_cast<std::byte>(
          (static_cast<std::size_t>(round) * 31 + block) & 0xff);
    }
    ASSERT_TRUE(stub.write_blocks(0, sealed).is_ok())
        << stub.last_failure().last_error.to_string();
    EXPECT_EQ(stub.read_blocks(0, kBlocks).value(), sealed);
    // Every site serves the sealed value — local copies for AC/NAC,
    // quorum-latest for voting.
    for (SiteId site = 0; site < kSites; ++site) {
      for (const BlockId block : {BlockId{0}, kBatchFirst, kBlocks - 1}) {
        const auto data = group_.read(site, block);
        ASSERT_TRUE(data.is_ok()) << data.status().to_string();
        const storage::BlockData want(
            sealed.begin() + static_cast<std::ptrdiff_t>(block * kBlockSize),
            sealed.begin() +
                static_cast<std::ptrdiff_t>((block + 1) * kBlockSize));
        EXPECT_EQ(data.value(), want)
            << "site " << site << " diverges on block " << block;
      }
    }
  }

  SchemeKind scheme_;
  std::uint64_t seed_;
  ReplicaGroup group_;
  Rng schedule_;
  std::map<std::pair<SiteId, BlockId>, storage::VersionNumber> last_versions_;
};

TEST_P(ChaosSoakTest, SurvivesRandomizedFaultSchedule) {
  DriverStub stub(group_.faults(), kClient, {0, 1, 2, 3, 4}, kBlocks,
                  kBlockSize, stub_policy());
  for (int round = 0; round < kRounds; ++round) {
    inject_faults(round);
    churn(stub, round);
    heal_and_converge();
    if (HasFatalFailure()) return;
    check_no_torn_batch();
    check_version_monotonicity();
    seal_and_verify(stub, round);
  }
  const auto stats = group_.faults().stats();
  EXPECT_GT(stats.delivered, 0u);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.duplicated, 0u);
}

TEST_P(ChaosSoakTest, AcBlackoutRestartsInClosureOrder) {
  if (scheme_ != SchemeKind::kAvailableCopy) {
    GTEST_SKIP() << "closure-based restart is the AC rule";
  }
  // A clean §4.4 total failure (crashes only — no message faults) on top
  // of whatever state the seed left behind.
  ASSERT_TRUE(group_.write(0, 0, payload(kBlockSize, 0xA1)).is_ok());
  group_.crash_site(3);
  group_.crash_site(4);
  ASSERT_TRUE(group_.write(0, 0, payload(kBlockSize, 0xA2)).is_ok());
  group_.crash_site(2);
  ASSERT_TRUE(group_.write(0, 0, payload(kBlockSize, 0xA3)).is_ok());
  group_.crash_site(1);
  const auto final_data = payload(kBlockSize, 0xA4);
  ASSERT_TRUE(group_.write(0, 0, final_data).is_ok());  // W_0 = {0}
  group_.crash_site(0);

  // Sites that did not fail last must wait, in any return order.
  group_.transport().set_up(2, true);
  EXPECT_FALSE(group_.replica(2).recover().is_ok());
  EXPECT_EQ(group_.replica(2).state(), SiteState::kComatose);
  group_.transport().set_up(4, true);
  EXPECT_FALSE(group_.replica(4).recover().is_ok());
  group_.transport().set_up(1, true);
  EXPECT_FALSE(group_.replica(1).recover().is_ok());
  EXPECT_EQ(group_.retry_comatose(), 0u);  // still no witness for site 0

  // The last-failed site restores service; the fixpoint frees the rest.
  group_.transport().set_up(0, true);
  ASSERT_TRUE(group_.replica(0).recover().is_ok());
  EXPECT_EQ(group_.retry_comatose(), 3u);
  group_.transport().set_up(3, true);
  ASSERT_TRUE(group_.replica(3).recover().is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(group_.replica(site).state(), SiteState::kAvailable);
    EXPECT_EQ(group_.read(site, 0).value(), final_data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEnginesFixedSeeds, ChaosSoakTest,
    ::testing::Combine(::testing::Values(SchemeKind::kVoting,
                                         SchemeKind::kAvailableCopy,
                                         SchemeKind::kNaiveAvailableCopy),
                       ::testing::Values(0xC0FFEEull, 1987ull, 42ull)),
    [](const auto& param_info) { return scheme_seed_name(param_info); });

}  // namespace
}  // namespace reldev::core
