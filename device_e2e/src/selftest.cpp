// Self-tests of the benchmark's own machinery: the read-back oracle (a
// flipped byte must be caught), the zipfian generator (top-rank frequency
// against the analytic value), the span self-time arithmetic on hand-built
// trees, nearest-rank percentiles, the best-second median and the JSON
// writer. Exits non-zero on the first failed check.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace device_e2e {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "selftest FAILED: " << what << '\n';
    ++g_failures;
  }
}

void test_oracle() {
  constexpr std::size_t kBlockSize = 4096;
  Oracle oracle(42, 1, 100, 8, kBlockSize);
  std::vector<std::byte> data(2 * kBlockSize);
  std::string detail;

  // The prefill pattern (counter 0, the zero block) reads back clean.
  oracle.fill(std::span(data).first(kBlockSize), 100, 0);
  oracle.fill(std::span(data).last(kBlockSize), 101, 0);
  expect(oracle.check_read(100, data, detail) == 0, "prefill reads back");

  // One flipped byte anywhere is a mismatch, in the header or the filler.
  for (const std::size_t at : {std::size_t{3}, std::size_t{20},
                               kBlockSize + 777, 2 * kBlockSize - 1}) {
    data[at] ^= std::byte{0x01};
    expect(oracle.check_read(100, data, detail) == 1,
           "flipped byte at " + std::to_string(at) + " is caught");
    data[at] ^= std::byte{0x01};
  }

  // An acknowledged write replaces the expected value.
  std::vector<std::byte> block(kBlockSize);
  auto counters = oracle.prepare_write(102, block);
  oracle.record_write(102, counters, true);
  expect(oracle.accepts(102, block), "acknowledged write reads back");
  std::vector<std::byte> old_value(kBlockSize);
  oracle.fill(old_value, 102, 0);
  expect(!oracle.accepts(102, old_value), "value before an acked write is stale");

  // A failed write leaves both values acceptable until the next ack.
  std::vector<std::byte> failed(kBlockSize);
  const auto failed_counters = oracle.prepare_write(102, failed);
  oracle.record_write(102, failed_counters, false);
  expect(oracle.accepts(102, block) && oracle.accepts(102, failed),
         "after a failed write, old and new values are accepted");
  std::vector<std::byte> next(kBlockSize);
  const auto next_counters = oracle.prepare_write(102, next);
  expect(next_counters[0] == failed_counters[0] + 1,
         "counters are never reused after a failed write");
  oracle.record_write(102, next_counters, true);
  expect(oracle.accepts(102, next) && !oracle.accepts(102, failed) &&
             !oracle.accepts(102, block),
         "the next acknowledged write settles the block");

  // Another block's (or another owner's) payload with the right counter
  // is rejected, and so is the zero block once a write was acknowledged.
  oracle.record_write(104, {1}, true);
  std::vector<std::byte> foreign(kBlockSize);
  oracle.fill(foreign, 103, 1);
  expect(!oracle.accepts(104, foreign), "another block's payload is rejected");
  Oracle other_owner(42, 2, 100, 8, kBlockSize);
  other_owner.fill(foreign, 104, 1);
  expect(!oracle.accepts(104, foreign), "another owner's payload is rejected");
  std::vector<std::byte> zeros(kBlockSize);
  expect(!oracle.accepts(104, zeros),
         "the prefill pattern is stale after a write");
}

void test_zipf() {
  constexpr std::uint64_t kN = 4096;
  constexpr int kDraws = 2'000'000;
  const Zipf zipf(kN, 0.99);
  reldev::Rng rng(7);
  std::vector<std::uint64_t> hits(kN, 0);
  for (int i = 0; i < kDraws; ++i) ++hits[zipf.next(rng)];
  const double p = zipf.top_rank_probability();
  const double observed = static_cast<double>(hits[0]) / kDraws;
  const double sigma = std::sqrt(p * (1 - p) / kDraws);
  expect(std::fabs(observed - p) < 5 * sigma,
         "zipf top-rank frequency " + std::to_string(observed) +
             " vs analytic " + std::to_string(p));
  const double p1 = p * std::pow(0.5, 0.99);
  const double observed1 = static_cast<double>(hits[1]) / kDraws;
  expect(std::fabs(observed1 - p1) < 5 * std::sqrt(p1 * (1 - p1) / kDraws),
         "zipf second-rank frequency " + std::to_string(observed1) +
             " vs analytic " + std::to_string(p1));
  expect(hits[0] > hits[10] && hits[10] > hits[1000],
         "zipf frequencies fall with rank");
}

void test_self_time() {
  const Span parent{0, 100};
  expect(self_ns(parent, {}) == 100, "no children: all self time");
  expect(self_ns(parent, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  expect(self_ns(parent, {{10, 40}, {30, 60}}) == 50,
         "overlapping children count once");
  expect(self_ns(parent, {{30, 60}, {10, 40}}) == 50,
         "child order does not matter");
  expect(self_ns(parent, {{10, 20}, {10, 20}}) == 90, "duplicate children");
  expect(self_ns(parent, {{-10, 10}, {90, 120}}) == 80,
         "children are clipped to the parent");
  expect(self_ns(parent, {{10, 90}, {20, 30}}) == 20, "nested children");
  expect(self_ns(parent, {{0, 100}}) == 0, "a child covering the parent");
  expect(self_ns(parent, {{200, 300}}) == 100, "a child outside the parent");
}

void test_percentile() {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  expect(percentile(values, 0.50) == 50, "p50 of 1..100");
  expect(percentile(values, 0.99) == 99, "p99 of 1..100");
  expect(percentile(values, 1.00) == 100, "p100 of 1..100");
  expect(percentile({7.0}, 0.99) == 7, "percentile of one sample");
  expect(percentile({}, 0.5) == 0, "percentile of no samples");
  expect(median({3, 1, 2}) == 2 && median({4, 1, 2, 3}) == 2.5, "median");
}

void test_best_second_median() {
  // Four whole seconds with medians 40, 10, 30, 20.
  std::vector<TimedSample> samples;
  const double medians[] = {40, 10, 30, 20};
  for (int second = 0; second < 4; ++second) {
    for (const double offset : {-1.0, 0.0, 1.0}) {
      samples.push_back({second + 0.5, medians[second] + offset});
    }
  }
  expect(best_second_median(samples, 4.0, 3) == 10,
         "the lowest median of a second");
  // A partial fifth second joins the fourth, whose median drops to 5.
  for (const double at : {4.2, 4.3, 4.4}) samples.push_back({at, 5});
  expect(best_second_median(samples, 4.5, 3) == 5,
         "a partial last second joins the one before");
  expect(best_second_median(
             {{0.5, 1}, {1.1, 50}, {1.2, 50}, {2.1, 60}, {2.2, 60}}, 3.0, 2) ==
             50,
         "seconds with too few samples are left out");
  expect(best_second_median({{0.1, 3}, {0.2, 1}, {2.5, 2}}, 3.0, 20) == 2,
         "without full seconds, the median of all samples");
}

void test_json() {
  const std::string out =
      JsonObject()
          .boolean("correct", true)
          .integer("attempted", 12)
          .object("metrics",
                  JsonObject().object(
                      "x", JsonObject().number("value", 0.1).text("unit", "us")))
          .text("note", "a \"quoted\"\n")
          .dump();
  expect(out ==
             "{\"correct\": true, \"attempted\": 12, \"metrics\": {\"x\": "
             "{\"value\": 0.1, \"unit\": \"us\"}}, \"note\": \"a "
             "\\\"quoted\\\"\\u000a\"}",
         "json writer output: " + out);
}

}  // namespace
}  // namespace device_e2e

int main() {
  device_e2e::test_oracle();
  device_e2e::test_zipf();
  device_e2e::test_self_time();
  device_e2e::test_percentile();
  device_e2e::test_best_second_median();
  device_e2e::test_json();
  if (device_e2e::g_failures != 0) return 1;
  std::cerr << "device_e2e selftest: all checks passed\n";
  return 0;
}
