// Helpers shared by the device_e2e benchmark and its self-tests:
// nearest-rank percentiles, the best-second median, a zipfian
// rank generator and a small JSON object writer. They live beside the
// benchmark on purpose; the older benches under bench/ keep their own
// copies.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "reldev/util/rng.hpp"

namespace device_e2e {

/// Nearest-rank percentile: the smallest sample such that at least
/// `p` of all samples are <= it. `p` in (0, 1]; 0 for an empty set.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a small set (the mean of the middle pair for even sizes).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// One latency sample and when its operation started, in seconds into
/// the measured window.
struct TimedSample {
  double at_s;
  double us;
};

/// The lowest, over the whole seconds of a window, of each second's median
/// (nearest rank): the median latency of the run's best second. Other
/// tenants of a shared host slow some seconds down; a change to the
/// program slows every second, the best one too. Seconds with fewer than
/// `min_samples` samples are left out; if none is left, the median of all
/// samples.
inline double best_second_median(const std::vector<TimedSample>& samples,
                                 double window_s,
                                 std::size_t min_samples = 20) {
  const auto seconds =
      std::max<std::size_t>(1, static_cast<std::size_t>(window_s));
  std::vector<std::vector<double>> by_second(seconds);
  std::vector<double> all;
  for (const auto& s : samples) {
    const auto second = std::min(
        seconds - 1, static_cast<std::size_t>(std::max(0.0, s.at_s)));
    by_second[second].push_back(s.us);
    all.push_back(s.us);
  }
  std::vector<double> medians;
  for (auto& second : by_second) {
    if (second.size() >= min_samples) {
      medians.push_back(percentile(std::move(second), 0.50));
    }
  }
  if (medians.empty()) return percentile(std::move(all), 0.50);
  return *std::min_element(medians.begin(), medians.end());
}

/// Zipfian ranks in [0, n) with skew `theta` (Gray et al., "Quickly
/// generating billion-record synthetic databases", SIGMOD 1994 — the
/// generator YCSB uses). Rank 0 is the most popular; its probability is
/// exactly 1 / zeta(n, theta).
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta)
      : n_(n),
        zetan_(zeta(n, theta)),
        alpha_(1.0 / (1.0 - theta)),
        eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
             (1.0 - zeta(2, theta) / zetan_)),
        second_(1.0 + std::pow(0.5, theta)) {}

  std::uint64_t next(reldev::Rng& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < second_) return 1;
    const auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(rank, n_ - 1);
  }

  /// The analytic probability of rank 0.
  [[nodiscard]] double top_rank_probability() const { return 1.0 / zetan_; }

 private:
  static double zeta(std::uint64_t n, double theta) {
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  std::uint64_t n_;
  double zetan_;
  double alpha_;
  double eta_;
  double second_;
};

/// One JSON object, built field by field. Numbers are written in the
/// shortest form that reads back to the same double, so no digit of a
/// measurement is lost.
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value) {
    begin(key);
    if (!std::isfinite(value)) {
      body_ += "null";
      return *this;
    }
    char buffer[64];
    const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
    body_.append(buffer, result.ptr);
    return *this;
  }
  JsonObject& integer(std::string_view key, std::uint64_t value) {
    begin(key);
    body_ += std::to_string(value);
    return *this;
  }
  JsonObject& boolean(std::string_view key, bool value) {
    begin(key);
    body_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& text(std::string_view key, std::string_view value) {
    begin(key);
    quote(value);
    return *this;
  }
  JsonObject& object(std::string_view key, const JsonObject& value) {
    begin(key);
    body_ += value.dump();
    return *this;
  }

  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  void begin(std::string_view key) {
    if (!body_.empty()) body_ += ", ";
    quote(key);
    body_ += ": ";
  }
  void quote(std::string_view value) {
    body_ += '"';
    for (const char c : value) {
      if (c == '"' || c == '\\') {
        body_ += '\\';
        body_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char escaped[8];
        std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
        body_ += escaped;
      } else {
        body_ += c;
      }
    }
    body_ += '"';
  }

  std::string body_;
};

}  // namespace device_e2e
