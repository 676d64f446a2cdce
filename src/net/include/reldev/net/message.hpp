// Protocol messages: the "high-level transmissions" whose counts §5 of the
// paper analyzes. Every message exchanged by the consistency algorithms —
// vote collection, block transfer, write propagation, recovery — and by the
// client/server pair (driver stub <-> site server) is one of these payloads.
// Encoding is centralized here so the in-process and TCP transports carry
// identical bits.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "reldev/storage/block.hpp"
#include "reldev/storage/site_metadata.hpp"
#include "reldev/storage/version.hpp"
#include "reldev/util/result.hpp"

namespace reldev::net {

using storage::BlockData;
using storage::BlockId;
using storage::SiteId;
using storage::SiteSet;
using storage::VersionNumber;
using storage::VersionVector;

/// The three states of §3.2: failed sites do not answer at all; comatose
/// sites answer state inquiries but hold possibly stale data; available
/// sites hold the most recent version.
enum class SiteState : std::uint8_t { kFailed = 0, kComatose = 1, kAvailable = 2 };

const char* site_state_name(SiteState state) noexcept;

/// Whether a quorum is being collected for a read or a write (voting).
enum class AccessKind : std::uint8_t { kRead = 0, kWrite = 1 };

// --- voting (Figures 3 and 4) ---------------------------------------------

/// Broadcast by the coordinator to collect votes for one block access.
struct VoteRequest {
  AccessKind access;
  BlockId block;
};

/// One site's vote: its version of the block and its assigned weight
/// (weights are fixed-point millivotes so ties can be broken by a small
/// perturbation, as §4.1 prescribes).
struct VoteReply {
  VersionNumber version;
  std::uint32_t weight_millivotes;
};

/// Fetch the payload of a block from the site holding the newest copy.
struct BlockFetchRequest {
  BlockId block;
};
struct BlockFetchReply {
  VersionNumber version;
  BlockData data;
};

/// Voting write push: the new payload and incremented version, sent to
/// every site in the quorum (repairs operational stale copies en passant).
struct BlockUpdate {
  BlockId block;
  VersionNumber version;
  BlockData data;
};

// --- available copy / naive available copy (Figures 5 and 6) --------------

/// Write-all push. Under AC each recipient acknowledges (the coordinator
/// learns the new was-available set from the ack set); under NAC no ack is
/// expected. `was_available` carries the coordinator's W so recipients can
/// adopt it (empty under NAC).
struct WriteAllRequest {
  BlockId block;
  VersionNumber version;
  BlockData data;
  SiteSet was_available;
};
struct WriteAllAck {};

/// Recovery step 1: a repairing site asks everyone who is out there.
struct StateInquiry {};
struct StateInfo {
  SiteState state;
  /// Scalar "version(t)" of Figures 5/6: the sum of the site's per-block
  /// versions. Within a closure set after a total failure the last-failed
  /// site dominates every other member block-wise, so the larger total
  /// always identifies it.
  std::uint64_t version_total;
  /// The responder's persisted W (empty under the naive scheme).
  SiteSet was_available;
};

/// Recovery step 2 (Figure 5): send my version vector; receive the correct
/// vector plus every block that changed while I was down.
struct RepairRequest {
  VersionVector versions;
};
struct RepairReply {
  VersionVector versions;
  /// Blocks the requester must replace, parallel to stale entries.
  std::vector<BlockUpdate> blocks;
};

/// Was-available set maintenance (AC only). With `replace` false the
/// recipient unions the set into its own (recovery step 3 of Figure 5:
/// the repair source learns its W now includes the repaired site). With
/// `replace` true the recipient adopts the set outright — the "atomic
/// broadcast" variant of §3.2, where every write's exact acknowledgement
/// set is pushed to all recipients.
struct WasAvailableUpdate {
  SiteSet was_available;
  bool replace;
};
struct WasAvailableAck {};

// --- client <-> server (the device interface of §2) ------------------------

struct ClientReadRequest {
  BlockId block;
};
struct ClientReadReply {
  /// kOk, or kUnavailable when no quorum / no available copy exists.
  std::uint8_t error_code;
  BlockData data;
};

struct ClientWriteRequest {
  BlockId block;
  BlockData data;
};
struct ClientWriteReply {
  std::uint8_t error_code;
};

struct DeviceInfoRequest {};
struct DeviceInfoReply {
  std::uint64_t block_count;
  std::uint64_t block_size;
};

/// Generic error reply (protocol violations, unbound sites).
struct ErrorReply {
  std::uint8_t error_code;
  std::string message;
};

// --- vectored block I/O (batched multi-block operations) -------------------
// One message per *batch* instead of one per block, so a k-block file read
// or write costs one client round trip and one quorum round. §5's cost
// metric counts high-level transmissions, and a batched message is still a
// single transmission — batching strictly reduces counted traffic.

/// Client read of blocks [first, first + count).
struct MultiBlockReadRequest {
  BlockId first;
  std::uint32_t count;
};
/// Flat payload of count * block_size bytes (empty on error).
struct MultiBlockReadReply {
  std::uint8_t error_code;
  BlockData data;
};

/// Client write of data.size() / block_size consecutive blocks at `first`.
struct MultiBlockWriteRequest {
  BlockId first;
  BlockData data;
};
struct MultiBlockWriteAck {
  std::uint8_t error_code;
};

/// One vote collection covering a whole block range (the batched form of
/// VoteRequest): the reply carries the responder's version of every block
/// in [first, first + count), parallel to the range.
struct RangeVoteRequest {
  AccessKind access;
  BlockId first;
  std::uint32_t count;
};
struct RangeVoteReply {
  std::uint32_t weight_millivotes;
  std::vector<VersionNumber> versions;
};

/// Fetch several (not necessarily consecutive) blocks from one site in one
/// round trip — the batched read repair of stale local copies.
struct BatchFetchRequest {
  std::vector<BlockId> blocks;
};
struct BatchFetchReply {
  std::vector<BlockUpdate> updates;
};

/// Grouped write push: every update in one message, applied together by
/// the recipient (a site receives the whole batch or none of it — no torn
/// multi-block writes). Voting's post-quorum push and NAC's write-all send
/// an empty `was_available`; AC carries the coordinator's W exactly as the
/// scalar WriteAllRequest does. Acknowledged with WriteAllAck.
struct BatchWriteRequest {
  std::vector<BlockUpdate> updates;
  SiteSet was_available;
};

// --- anti-entropy digest exchange (background scrubber) --------------------
// A scrub batch compares replicas by cheap CRC-32C digests instead of
// shipping payloads: one DigestRequest covers a whole run of blocks (the
// batched style of the vectored ops above), and only blocks whose digests
// disagree cost a payload transfer via the existing fetch/repair machinery.

/// Ask a peer for the (version, digest) of every block in
/// [first, first + count).
struct DigestRequest {
  BlockId first;
  std::uint32_t count;
};

/// Parallel vectors over the requested range. A locally unreadable
/// (latently corrupt) block is reported as version 0 with a zero-block
/// digest — the responder demotes it rather than vouching for damage.
struct DigestReply {
  BlockId first;
  std::vector<VersionNumber> versions;
  std::vector<std::uint32_t> digests;
};

using Payload =
    std::variant<VoteRequest, VoteReply, BlockFetchRequest, BlockFetchReply,
                 BlockUpdate, WriteAllRequest, WriteAllAck, StateInquiry,
                 StateInfo, RepairRequest, RepairReply, WasAvailableUpdate,
                 WasAvailableAck, ClientReadRequest, ClientReadReply,
                 ClientWriteRequest, ClientWriteReply, DeviceInfoRequest,
                 DeviceInfoReply, ErrorReply, MultiBlockReadRequest,
                 MultiBlockReadReply, MultiBlockWriteRequest, MultiBlockWriteAck,
                 RangeVoteRequest, RangeVoteReply, BatchFetchRequest,
                 BatchFetchReply, BatchWriteRequest, DigestRequest,
                 DigestReply>;

/// A routed message: who sent it plus its payload.
struct Message {
  SiteId from = 0;
  Payload payload;

  /// Human-readable payload name for logs ("vote-request", ...).
  [[nodiscard]] const char* name() const noexcept;

  /// Convenience accessors; contract violation if the payload is another
  /// alternative (callers must check with holds() first when unsure).
  template <typename T>
  [[nodiscard]] bool holds() const noexcept {
    return std::holds_alternative<T>(payload);
  }
  template <typename T>
  [[nodiscard]] const T& as() const {
    return std::get<T>(payload);
  }

  [[nodiscard]] std::vector<std::byte> encode() const;
  static Result<Message> decode(std::span<const std::byte> raw);

  /// Whether an encoded message is a VoteRequest or RangeVoteRequest, read
  /// from its kind tag alone — the rest of the bytes are not decoded (nor
  /// validated: decode() still does that).
  [[nodiscard]] static bool is_vote_request(
      std::span<const std::byte> raw) noexcept;
};

/// Builds an ErrorReply message from a Status.
Message make_error(SiteId from, const Status& status);

}  // namespace reldev::net
