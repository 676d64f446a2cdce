// SCRUB: what the anti-entropy daemon costs and what it buys.
//
// Part A — time-to-heal vs scrub interval (virtual time). Latent damage
// (silent rot or a missed update) lands at a uniformly random point in a
// scrub cycle; the daemon walks the device in paced batches, so the heal
// lands when the cursor next reaches the damaged block. Driving the real
// ScrubDaemon under a virtual clock (one batch = interval / batches_per_
// cycle of virtual time) yields the time-to-heal distribution per
// interval: mean ~ interval/2, worst case ~ one full cycle. The window of
// vulnerability scales linearly with the interval — the knob trades
// detection latency against scrub load.
//
// Part B — foreground overhead (wall time). The same in-process group
// serves foreground writes while scrub batches interleave. Unthrottled
// (a batch whenever the previous one finished) the scrubber steals
// whatever it can; throttled by the byte budget — sized off a calibration
// pass the way a deployment sizes its budget off disk bandwidth — the
// interleaved batches must cost <= 10% foreground throughput. That bound
// is the acceptance gate.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "reldev/core/group.hpp"
#include "reldev/util/flags.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/rng.hpp"
#include "reldev/util/table.hpp"
#include "reldev/util/token_bucket.hpp"

#include "percentile.hpp"

using namespace reldev;
using bench::percentile;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kSites = 3;
constexpr std::size_t kBlocks = 64;
constexpr std::size_t kBlockSize = 512;
constexpr std::size_t kBatchBlocks = 8;  // 8 batches per cycle

storage::BlockData payload(std::uint8_t tag) {
  return storage::BlockData(kBlockSize, static_cast<std::byte>(tag));
}

double mean(const std::vector<double>& samples) {
  double sum = 0;
  for (const double sample : samples) sum += sample;
  return sum / static_cast<double>(std::max<std::size_t>(samples.size(), 1));
}

/// A group with every block written once, so every site holds version >= 1
/// everywhere and digests are comparable.
std::unique_ptr<core::ReplicaGroup> make_group() {
  auto group = std::make_unique<core::ReplicaGroup>(
      core::SchemeKind::kAvailableCopy,
      core::GroupConfig::majority(kSites, kBlocks, kBlockSize));
  core::ScrubOptions options;
  options.batch_blocks = kBatchBlocks;
  group->set_scrub_options(options);
  for (storage::BlockId block = 0; block < kBlocks; ++block) {
    if (!group->write(0, block, payload(0x11)).is_ok()) std::abort();
  }
  return group;
}

/// Part A: inject damage at a random cursor phase, then step the damaged
/// site's daemon counting batches until its copy is whole again. Virtual
/// time per batch = interval / batches_per_cycle (the background loop
/// paces a cycle's batches across the interval).
std::vector<double> time_to_heal_samples(std::size_t trials,
                                         double interval_ms, Rng& rng) {
  auto group = make_group();
  const std::size_t batches_per_cycle = kBlocks / kBatchBlocks;
  const double batch_ms = interval_ms / static_cast<double>(batches_per_cycle);
  std::vector<double> samples;
  samples.reserve(trials);
  for (std::size_t trial = 0; trial < trials; ++trial) {
    // Random phase: damage lands at a uniformly random point in the cycle.
    const auto phase = rng.uniform_u64(0, batches_per_cycle - 1);
    for (std::uint64_t i = 0; i < phase; ++i) {
      if (!group->scrubber(0).step().is_ok()) std::abort();
    }
    const auto block = static_cast<core::BlockId>(
        rng.uniform_u64(0, kBlocks - 1));
    const auto good = group->store(0).read(block);
    if (!good.is_ok()) std::abort();
    // Silent rot at site 0: same version, garbage bytes — invisible to the
    // version mechanism, caught only by the digest exchange.
    if (!group->store(0)
             .write(block, payload(0xBD), good.value().version)
             .is_ok()) {
      std::abort();
    }
    double elapsed_ms = rng.next_double() * batch_ms;  // sub-batch offset
    for (std::size_t batch = 0; batch < 2 * batches_per_cycle; ++batch) {
      if (!group->scrubber(0).step().is_ok()) std::abort();
      elapsed_ms += batch_ms;
      auto copy = group->store(0).read(block);
      if (copy.is_ok() && copy.value().data == good.value().data) break;
    }
    samples.push_back(elapsed_ms);
  }
  return samples;
}

struct ForegroundRow {
  std::string regime;
  double writes_per_sec = 0;
  double overhead_pct = 0;  // vs the no-scrub baseline
  std::uint64_t scrub_batches = 0;
};

/// Part B: `writes` foreground writes through site 0, optionally
/// interleaving scrub batches at site 1. `bytes_per_sec` == 0 means
/// unthrottled (a batch between every write); otherwise the bench's pacing
/// bucket admits a batch only when the byte budget allows, mirroring the
/// daemon's own throttle without sleeping on the foreground thread.
ForegroundRow foreground_run(core::ReplicaGroup& group, std::size_t writes,
                             bool scrub, std::uint64_t bytes_per_sec) {
  TokenBucket pacing(bytes_per_sec, /*burst=*/kBatchBlocks * kBlockSize);
  constexpr std::uint64_t kBatchBytes = kBatchBlocks * kBlockSize;
  std::uint64_t batches = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < writes; ++i) {
    const auto block = static_cast<core::BlockId>(i % kBlocks);
    if (!group.write(0, block, payload(static_cast<std::uint8_t>(i))).is_ok()) {
      std::abort();
    }
    if (!scrub) continue;
    if (bytes_per_sec != 0) {
      // A deployed daemon wakes on a timer, not per foreground op: probe
      // the budget on a stride so the clock reads don't become the tax
      // being measured. Gate on the balance, then charge only for batches
      // actually run — acquire() always grants (debt semantics), so
      // probing with it would drive the bucket negative on every skip.
      if (i % 64 != 0) continue;
      const auto now = Clock::now();
      if (pacing.available(now) < static_cast<double>(kBatchBytes)) {
        continue;  // over budget: the batch waits, the foreground does not
      }
      (void)pacing.acquire(kBatchBytes, now);
    }
    if (group.scrubber(1).step().is_ok()) ++batches;
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  ForegroundRow row;
  row.regime = !scrub              ? "no-scrub"
               : bytes_per_sec == 0 ? "unthrottled"
                                    : "throttled";
  row.writes_per_sec = static_cast<double>(writes) / seconds;
  row.scrub_batches = batches;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags;
  flags.add_int("trials", 200, "damage injections per interval (part A)");
  flags.add_int("writes", 20000, "foreground writes per regime (part B)");
  flags.add_bool("smoke", false, "few trials/writes (CI smoke run)");
  flags.add_bool("csv", false, "emit CSV");
  flags.add_string("json", "", "write a machine-readable summary to this path");
  if (auto status = flags.parse(argc, argv); !status.is_ok()) {
    std::cerr << status.to_string() << '\n';
    return 1;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("scrub_impact");
    return 0;
  }
  // Thousands of deliberate rot injections would each log a heal warning.
  Logger::instance().set_level(LogLevel::kError);
  const bool smoke = flags.get_bool("smoke");
  const auto trials =
      static_cast<std::size_t>(smoke ? 40 : flags.get_int("trials"));
  const auto writes =
      static_cast<std::size_t>(smoke ? 4000 : flags.get_int("writes"));

  // --- Part A: time-to-heal distribution vs scrub interval -----------------
  Rng rng(20260808);
  const std::vector<double> intervals_ms = {250, 1000, 4000};
  TextTable heal_table({"interval (ms)", "mean tth (ms)", "p50 (ms)",
                        "p95 (ms)", "max (ms)", "mean/interval"});
  heal_table.set_title(
      "SCRUB A: virtual time from silent-rot injection to heal, per scrub "
      "interval — the vulnerability window scales with the interval");
  struct HealRow {
    double interval_ms, mean_ms, p50_ms, p95_ms, max_ms;
  };
  std::vector<HealRow> heal_rows;
  for (const double interval : intervals_ms) {
    auto samples = time_to_heal_samples(trials, interval, rng);
    HealRow row{interval, mean(samples), percentile(samples, 0.50),
                percentile(samples, 0.95),
                *std::max_element(samples.begin(), samples.end())};
    heal_table.add_row({TextTable::fmt(row.interval_ms, 0),
                        TextTable::fmt(row.mean_ms, 1),
                        TextTable::fmt(row.p50_ms, 1),
                        TextTable::fmt(row.p95_ms, 1),
                        TextTable::fmt(row.max_ms, 1),
                        TextTable::fmt(row.mean_ms / row.interval_ms, 2)});
    heal_rows.push_back(row);
  }
  // Every heal lands within ~one cycle of the injection, and the mean
  // window tracks the interval linearly (ratio of means ~ ratio of
  // intervals).
  bool heal_bounded = true;
  for (const auto& row : heal_rows) {
    heal_bounded = heal_bounded && row.max_ms <= 1.25 * row.interval_ms;
  }
  const double scaling =
      heal_rows.back().mean_ms / std::max(heal_rows.front().mean_ms, 1e-9);
  const double interval_ratio = intervals_ms.back() / intervals_ms.front();
  const bool heal_scales =
      scaling > 0.5 * interval_ratio && scaling < 2.0 * interval_ratio;

  // --- Part B: throttled scrub cost on foreground throughput ---------------
  auto group = make_group();
  // The first pass over a fresh group pays cold allocators and page
  // faults; warm up so the baseline measures steady state.
  (void)foreground_run(*group, writes / 4, /*scrub=*/false, 0);
  const ForegroundRow baseline =
      foreground_run(*group, writes, /*scrub=*/false, 0);

  const ForegroundRow unthrottled =
      foreground_run(*group, writes, /*scrub=*/true, 0);

  const auto overhead = [&](const ForegroundRow& row) {
    return 100.0 * (baseline.writes_per_sec / row.writes_per_sec - 1.0);
  };

  // Size the byte budget the way a deployment does: start from the
  // interleaved per-batch cost the unthrottled run exposes, target a 5%
  // duty cycle, then trim the budget against the measured overhead (an
  // interleaved batch runs colder than a back-to-back one, so a one-shot
  // estimate lands high).
  const double batch_seconds = std::max(
      1.0 / unthrottled.writes_per_sec - 1.0 / baseline.writes_per_sec, 1e-9);
  constexpr double kDuty = 0.05;  // target: 5% of the core on scrubbing
  auto budget = static_cast<std::uint64_t>(
      kDuty / batch_seconds * static_cast<double>(kBatchBlocks * kBlockSize));
  ForegroundRow throttled;
  double throttled_overhead = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    throttled = foreground_run(*group, writes, /*scrub=*/true, budget);
    throttled_overhead = overhead(throttled);
    if (throttled_overhead <= 100.0 * kDuty * 1.5) break;
    budget = static_cast<std::uint64_t>(
        static_cast<double>(budget) * (100.0 * kDuty) /
        std::max(throttled_overhead, 1.0));
  }

  std::vector<ForegroundRow> fg_rows = {baseline, unthrottled, throttled};
  fg_rows[1].overhead_pct = overhead(unthrottled);
  fg_rows[2].overhead_pct = throttled_overhead;

  TextTable fg_table(
      {"regime", "writes/s", "overhead vs baseline", "scrub batches"});
  fg_table.set_title(
      "SCRUB B: foreground write throughput with interleaved scrub batches "
      "— the byte-budget throttle keeps the tax under 10%");
  for (const auto& row : fg_rows) {
    fg_table.add_row({row.regime, TextTable::fmt(row.writes_per_sec, 0),
                      row.regime == "no-scrub"
                          ? "-"
                          : TextTable::fmt(row.overhead_pct, 1) + "%",
                      std::to_string(row.scrub_batches)});
  }

  if (const std::string path = flags.get_string("json"); !path.empty()) {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write " << path << '\n';
      return 1;
    }
    out << "{\n  \"bench\": \"scrub_impact\",\n  \"trials\": " << trials
        << ",\n  \"writes\": " << writes << ",\n  \"time_to_heal\": [\n";
    for (std::size_t i = 0; i < heal_rows.size(); ++i) {
      const auto& row = heal_rows[i];
      out << "    {\"interval_ms\": " << row.interval_ms
          << ", \"mean_ms\": " << row.mean_ms << ", \"p50_ms\": " << row.p50_ms
          << ", \"p95_ms\": " << row.p95_ms << ", \"max_ms\": " << row.max_ms
          << "}" << (i + 1 < heal_rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"foreground\": [\n";
    for (std::size_t i = 0; i < fg_rows.size(); ++i) {
      const auto& row = fg_rows[i];
      out << "    {\"regime\": \"" << row.regime
          << "\", \"writes_per_sec\": " << row.writes_per_sec
          << ", \"overhead_pct\": " << row.overhead_pct
          << ", \"scrub_batches\": " << row.scrub_batches << "}"
          << (i + 1 < fg_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  if (flags.get_bool("csv")) {
    heal_table.print_csv(std::cout);
    fg_table.print_csv(std::cout);
  } else {
    heal_table.print(std::cout);
    fg_table.print(std::cout);
  }

  const bool overhead_ok = fg_rows[2].overhead_pct <= 10.0;
  std::cout << (heal_bounded ? "PASS" : "FAIL")
            << ": every heal lands within ~one scrub cycle of the damage\n";
  std::cout << (heal_scales ? "PASS" : "FAIL")
            << ": mean time-to-heal scales linearly with the scrub interval\n";
  std::cout << (overhead_ok ? "PASS" : "FAIL")
            << ": throttled scrubbing costs "
            << TextTable::fmt(fg_rows[2].overhead_pct, 1)
            << "% foreground throughput (bar: <= 10%)\n";
  return heal_bounded && heal_scales && overhead_ok ? 0 : 1;
}
