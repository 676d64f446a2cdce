// The read-back oracle. Every payload the benchmark writes is a pure
// function of (seed, block, owner, per-block write counter): a 24-byte
// header naming all three, then seeded filler. Counter 0 is the prefill
// pattern: the zero block a new store is created with. Each client owns one stripe of blocks and is the only writer
// there, with one operation outstanding, so its model holds the exact
// value every read must return: the last acknowledged write. A write that
// failed may or may not have landed; until the next acknowledged write the
// block then accepts either value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "reldev/storage/block.hpp"
#include "reldev/util/rng.hpp"

namespace device_e2e {

using reldev::storage::BlockId;

inline constexpr std::uint32_t kPayloadMagic = 0x44453245;  // "DE2E"
inline constexpr std::size_t kPayloadHeader = 24;

/// Write the payload for (block, owner, counter) into `out`. Counter 0 is
/// the prefill pattern: the zero block a freshly created store holds.
inline void fill_payload(std::span<std::byte> out, std::uint64_t seed,
                         BlockId block, std::uint32_t owner,
                         std::uint64_t counter) {
  if (counter == 0) {
    std::fill(out.begin(), out.end(), std::byte{0});
    return;
  }
  std::memcpy(out.data(), &kPayloadMagic, 4);
  std::memcpy(out.data() + 4, &owner, 4);
  std::memcpy(out.data() + 8, &block, 8);
  std::memcpy(out.data() + 16, &counter, 8);
  std::uint64_t state = seed ^ (block * 0x9e3779b97f4a7c15ull) ^
                        (counter * 0xc2b2ae3d27d4eb4full);
  for (std::size_t offset = kPayloadHeader; offset < out.size(); offset += 8) {
    const std::uint64_t word = reldev::splitmix64(state);
    std::memcpy(out.data() + offset, &word,
                std::min<std::size_t>(8, out.size() - offset));
  }
}

/// One client's model of its stripe.
class Oracle {
 public:
  Oracle(std::uint64_t seed, std::uint32_t owner, BlockId first,
         std::size_t count, std::size_t block_size)
      : seed_(seed),
        owner_(owner),
        first_(first),
        block_size_(block_size),
        blocks_(count),
        scratch_(block_size) {}

  [[nodiscard]] BlockId first() const noexcept { return first_; }
  [[nodiscard]] std::size_t count() const noexcept { return blocks_.size(); }

  /// Write the payload of (block, counter) into `out`.
  void fill(std::span<std::byte> out, BlockId block,
            std::uint64_t counter) const {
    fill_payload(out, seed_, block, owner_, counter);
  }

  /// The counter of the last acknowledged write of `block` (0 = prefill).
  [[nodiscard]] std::uint64_t acked(BlockId block) const {
    return at(block).acked;
  }

  /// Counter for the next write of `block` (never reused, even after a
  /// failed write).
  [[nodiscard]] std::uint64_t next_counter(BlockId block) const {
    return at(block).highest + 1;
  }

  /// Fill `out` (whole blocks starting at `first`) with each block's next
  /// payload and return the counters used.
  std::vector<std::uint64_t> prepare_write(BlockId first,
                                           std::span<std::byte> out) const {
    std::vector<std::uint64_t> counters;
    for (std::size_t i = 0; i * block_size_ < out.size(); ++i) {
      counters.push_back(next_counter(first + i));
      fill(out.subspan(i * block_size_, block_size_), first + i,
           counters.back());
    }
    return counters;
  }

  /// Record a write's outcome for blocks [first, first + counters.size()).
  void record_write(BlockId first, const std::vector<std::uint64_t>& counters,
                    bool acknowledged) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
      Model& model = at(first + i);
      model.highest = counters[i];
      if (acknowledged) {
        model.acked = counters[i];
        model.unknown.clear();
      } else {
        model.unknown.push_back(counters[i]);
      }
    }
  }

  /// Whether `data` is a value block `block` may hold now.
  [[nodiscard]] bool accepts(BlockId block, std::span<const std::byte> data) {
    if (data.size() != block_size_) return false;
    const Model& model = at(block);
    if (matches(block, model.acked, data)) return true;
    for (const std::uint64_t counter : model.unknown) {
      if (matches(block, counter, data)) return true;
    }
    return false;
  }

  /// Check a read of blocks [first, ...) against the model. Returns the
  /// number of mismatching blocks and describes the first in `detail`.
  std::size_t check_read(BlockId first, std::span<const std::byte> data,
                         std::string& detail) {
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i * block_size_ < data.size(); ++i) {
      const auto block_data = data.subspan(i * block_size_, block_size_);
      if (accepts(first + i, block_data)) continue;
      if (mismatches++ == 0) detail = describe(first + i, block_data);
    }
    return mismatches;
  }

  [[nodiscard]] std::string describe(BlockId block,
                                     std::span<const std::byte> data) const {
    std::uint64_t found_block = 0;
    std::uint64_t found_counter = 0;
    if (data.size() >= kPayloadHeader) {
      std::memcpy(&found_block, data.data() + 8, 8);
      std::memcpy(&found_counter, data.data() + 16, 8);
    }
    return "block " + std::to_string(block) + ": expected counter " +
           std::to_string(at(block).acked) + ", read a payload naming block " +
           std::to_string(found_block) + " counter " +
           std::to_string(found_counter);
  }

 private:
  struct Model {
    std::uint64_t acked = 0;    // last acknowledged write (0 = prefill)
    std::uint64_t highest = 0;  // highest counter ever issued
    std::vector<std::uint64_t> unknown;  // failed writes since `acked`
  };

  [[nodiscard]] const Model& at(BlockId block) const {
    return blocks_.at(block - first_);
  }
  Model& at(BlockId block) { return blocks_.at(block - first_); }

  bool matches(BlockId block, std::uint64_t counter,
               std::span<const std::byte> data) {
    // The header decides cheaply; the filler comparison proves the rest.
    std::uint64_t found = 0;
    std::memcpy(&found, data.data() + 16, 8);
    if (found != counter) return false;
    fill(scratch_, block, counter);
    return std::memcmp(scratch_.data(), data.data(), block_size_) == 0;
  }

  std::uint64_t seed_;
  std::uint32_t owner_;
  BlockId first_;
  std::size_t block_size_;
  std::vector<Model> blocks_;
  std::vector<std::byte> scratch_;
};

}  // namespace device_e2e
