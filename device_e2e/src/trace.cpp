#include "trace.hpp"

#include <algorithm>
#include <optional>
#include <utility>

namespace device_e2e {

namespace net = reldev::net;
namespace storage = reldev::storage;

thread_local std::vector<Span>* tl_spans = nullptr;

namespace {

// Set by TracingTransport when the current coordinator operation fetched a
// block from a peer (a stale local copy was repaired).
thread_local bool tl_fetched = false;

/// Which peer handler a request lands on, and the block that links it.
std::optional<std::pair<PeerKind, storage::BlockId>> peer_target(
    const net::Message& message) {
  if (message.holds<net::VoteRequest>()) {
    return std::pair{PeerKind::kVote, message.as<net::VoteRequest>().block};
  }
  if (message.holds<net::RangeVoteRequest>()) {
    return std::pair{PeerKind::kVote,
                     message.as<net::RangeVoteRequest>().first};
  }
  if (message.holds<net::BlockUpdate>()) {
    return std::pair{PeerKind::kPush, message.as<net::BlockUpdate>().block};
  }
  if (message.holds<net::BatchWriteRequest>()) {
    const auto& updates = message.as<net::BatchWriteRequest>().updates;
    if (updates.empty()) return std::nullopt;
    return std::pair{PeerKind::kPush, updates.front().block};
  }
  if (message.holds<net::BlockFetchRequest>()) {
    return std::pair{PeerKind::kFetch,
                     message.as<net::BlockFetchRequest>().block};
  }
  if (message.holds<net::BatchFetchRequest>()) {
    const auto& blocks = message.as<net::BatchFetchRequest>().blocks;
    if (blocks.empty()) return std::nullopt;
    return std::pair{PeerKind::kFetch, blocks.front()};
  }
  return std::nullopt;
}

/// A client block operation: whether it reads, and its first block.
std::optional<std::pair<bool, storage::BlockId>> client_op(
    const net::Message& message) {
  if (message.holds<net::ClientReadRequest>()) {
    return std::pair{true, message.as<net::ClientReadRequest>().block};
  }
  if (message.holds<net::ClientWriteRequest>()) {
    return std::pair{false, message.as<net::ClientWriteRequest>().block};
  }
  if (message.holds<net::MultiBlockReadRequest>()) {
    return std::pair{true, message.as<net::MultiBlockReadRequest>().first};
  }
  if (message.holds<net::MultiBlockWriteRequest>()) {
    return std::pair{false, message.as<net::MultiBlockWriteRequest>().first};
  }
  return std::nullopt;
}

void add_child(std::int64_t start_ns, std::int64_t end_ns) {
  if (tl_spans != nullptr) tl_spans->push_back(Span{start_ns, end_ns});
}

}  // namespace

std::int64_t covered_ns(const Span& parent, std::vector<Span> children) {
  for (auto& child : children) {
    child.start_ns = std::max(child.start_ns, parent.start_ns);
    child.end_ns = std::min(child.end_ns, parent.end_ns);
  }
  std::erase_if(children, [](const Span& s) { return s.end_ns <= s.start_ns; });
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  std::int64_t covered = 0;
  std::int64_t reach = parent.start_ns;  // end of the union so far
  for (const auto& child : children) {
    const std::int64_t from = std::max(child.start_ns, reach);
    if (child.end_ns > from) covered += child.end_ns - from;
    reach = std::max(reach, child.end_ns);
  }
  return covered;
}

// --- Tracer -----------------------------------------------------------------

Tracer::Tracer(std::size_t sites, std::size_t blocks)
    : blocks_(blocks),
      peer_handle_(sites * kPeerKinds * blocks),
      coord_handle_(blocks),
      dirty_(sites * blocks) {}

Tracer::Buffers& Tracer::local() {
  // A thread registers its buffers with the process's one Tracer on its
  // first sample.
  thread_local Buffers* tl_buffers = nullptr;
  if (tl_buffers == nullptr) {
    auto owned = std::make_unique<Buffers>();
    tl_buffers = owned.get();
    const reldev::MutexLock lock(mutex_);
    buffers_.push_back(std::move(owned));
  }
  return *tl_buffers;
}

void Tracer::sample(Series series, std::int64_t ns) {
  local().series[static_cast<std::size_t>(series)].push_back(
      static_cast<float>(static_cast<double>(ns) / 1000.0));
}

std::vector<double> Tracer::samples(Series series) const {
  std::vector<double> merged;
  const reldev::MutexLock lock(mutex_);
  for (const auto& buffers : buffers_) {
    const auto& one = buffers->series[static_cast<std::size_t>(series)];
    merged.insert(merged.end(), one.begin(), one.end());
  }
  return merged;
}

void Tracer::set_peer_handle(std::size_t site, PeerKind kind,
                             storage::BlockId block, std::int64_t ns) {
  peer_handle_[(site * kPeerKinds + static_cast<std::size_t>(kind)) * blocks_ +
               block]
      .store(ns, std::memory_order_release);
}

std::int64_t Tracer::peer_handle(std::size_t site, PeerKind kind,
                                 storage::BlockId block) const {
  return peer_handle_[(site * kPeerKinds + static_cast<std::size_t>(kind)) *
                          blocks_ +
                      block]
      .load(std::memory_order_acquire);
}

void Tracer::set_coord_handle(storage::BlockId block, std::int64_t ns) {
  coord_handle_[block].store(ns, std::memory_order_release);
}

std::int64_t Tracer::coord_handle(storage::BlockId block) const {
  return coord_handle_[block].load(std::memory_order_acquire);
}

void Tracer::mark_dirty(std::size_t site, storage::BlockId block) {
  dirty_[site * blocks_ + block].store(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::take_dirty(std::size_t site) {
  std::uint64_t count = 0;
  for (std::size_t b = 0; b < blocks_; ++b) {
    count += dirty_[site * blocks_ + b].exchange(0, std::memory_order_relaxed);
  }
  return count;
}

// --- TracingHandler -----------------------------------------------------------

net::Message TracingHandler::handle(const net::Message& request) {
  if (const auto op = client_op(request)) {
    std::vector<Span> children;
    std::vector<Span>* const saved = tl_spans;
    tl_spans = &children;
    tl_fetched = false;
    const std::int64_t start = now_ns();
    net::Message reply = inner_.handle(request);
    const std::int64_t end = now_ns();
    tl_spans = saved;
    tracer_.set_coord_handle(op->second, end - start);
    if (tracer_.active()) {
      tracer_.sample(Series::kCoordSelf, self_ns(Span{start, end}, children));
      if (op->first) {
        tracer_.coord_reads.fetch_add(1, std::memory_order_relaxed);
        if (tl_fetched) tracer_.fetch_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return reply;
  }
  if (const auto target = peer_target(request)) {
    const std::int64_t start = now_ns();
    net::Message reply = inner_.handle(request);
    const std::int64_t end = now_ns();
    tracer_.set_peer_handle(site_, target->first, target->second, end - start);
    if (tracer_.active()) tracer_.sample(Series::kPeerHandle, end - start);
    return reply;
  }
  return inner_.handle(request);
}

// --- TracingTransport ---------------------------------------------------------

void TracingTransport::count_bytes(const net::Message& message,
                                   std::size_t copies) {
  // Encoding is instrumentation work: its own child span keeps it out of
  // the coordinator's self time.
  const std::int64_t start = now_ns();
  const std::size_t bytes = message.encode().size();
  add_child(start, now_ns());
  tracer_.peer_bytes.fetch_add(bytes * copies, std::memory_order_relaxed);
}

void TracingTransport::record_round(const net::Message& request,
                                    const Span& round,
                                    const std::vector<storage::SiteId>& waited_on,
                                    bool early_stopped) {
  if (!tracer_.active()) return;
  const auto target = peer_target(request);
  if (!target || target->first == PeerKind::kFetch) return;
  if (target->first == PeerKind::kVote) {
    tracer_.vote_rounds.fetch_add(1, std::memory_order_relaxed);
    if (early_stopped) tracer_.early_stops.fetch_add(1, std::memory_order_relaxed);
    tracer_.sample(Series::kVoteRound, round.duration());
  } else {
    tracer_.sample(Series::kPushRound, round.duration());
  }
  std::int64_t slowest = 0;
  for (const auto site : waited_on) {
    slowest = std::max(slowest,
                       tracer_.peer_handle(site, target->first, target->second));
  }
  tracer_.sample(Series::kRoundNet, round.duration() - slowest);
}

reldev::Result<net::Message> TracingTransport::call(storage::SiteId from,
                                                    storage::SiteId to,
                                                    const net::Message& request) {
  const std::int64_t start = now_ns();
  auto reply = inner_.call(from, to, request);
  add_child(start, now_ns());
  if (peer_side_) {
    const auto target = peer_target(request);
    if (target && target->first == PeerKind::kFetch) tl_fetched = true;
    if (tracer_.active()) {
      count_bytes(request, 1);
      if (reply) count_bytes(reply.value(), 1);
    }
  }
  return reply;
}

reldev::Status TracingTransport::send(storage::SiteId from, storage::SiteId to,
                                      const net::Message& message) {
  const std::int64_t start = now_ns();
  auto status = inner_.send(from, to, message);
  add_child(start, now_ns());
  if (peer_side_ && tracer_.active()) count_bytes(message, 1);
  return status;
}

reldev::Status TracingTransport::multicast(storage::SiteId from,
                                           const storage::SiteSet& to,
                                           const net::Message& message) {
  const std::int64_t start = now_ns();
  auto status = inner_.multicast(from, to, message);
  const std::int64_t end = now_ns();
  add_child(start, end);
  if (peer_side_) {
    // The push acks are discarded by the transport, but it returns only
    // once every addressed peer answered: all of them were waited on.
    std::vector<storage::SiteId> targets;
    for (const auto site : to) {
      if (site != from) targets.push_back(site);
    }
    record_round(message, Span{start, end}, targets, false);
    if (tracer_.active()) count_bytes(message, targets.size());
  }
  return status;
}

std::vector<net::GatherReply> TracingTransport::multicast_call(
    storage::SiteId from, const storage::SiteSet& to,
    const net::Message& request, const net::EarlyStop& early_stop) {
  const std::int64_t start = now_ns();
  auto replies = inner_.multicast_call(from, to, request, early_stop);
  const std::int64_t end = now_ns();
  add_child(start, end);
  if (peer_side_) {
    const std::size_t targets = to.size() - (to.contains(from) ? 1 : 0);
    std::vector<storage::SiteId> waited_on;
    for (const auto& [site, reply] : replies) waited_on.push_back(site);
    record_round(request, Span{start, end}, waited_on,
                 early_stop && replies.size() < targets);
    if (tracer_.active()) {
      count_bytes(request, targets);
      for (const auto& [site, reply] : replies) count_bytes(reply, 1);
    }
  }
  return replies;
}

// --- TracingStore -------------------------------------------------------------

void TracingStore::finish(std::int64_t start_ns, Series series) const {
  const std::int64_t end = now_ns();
  add_child(start_ns, end);
  if (!tracer_.active()) return;
  tracer_.store_calls.fetch_add(1, std::memory_order_relaxed);
  if (series != Series::kCount) tracer_.sample(series, end - start_ns);
}

reldev::Result<storage::VersionedBlock> TracingStore::read(
    storage::BlockId block) const {
  const std::int64_t start = now_ns();
  auto result = inner_.read(block);
  finish(start, Series::kStoreRead);
  return result;
}

reldev::Status TracingStore::write(storage::BlockId block,
                                   std::span<const std::byte> data,
                                   storage::VersionNumber version) {
  const std::int64_t start = now_ns();
  auto status = inner_.write(block, data, version);
  finish(start, Series::kStoreWrite);
  tracer_.mark_dirty(site_, block);
  if (tracer_.active()) tracer_.store_writes.fetch_add(1, std::memory_order_relaxed);
  return status;
}

reldev::Result<storage::VersionNumber> TracingStore::version_of(
    storage::BlockId block) const {
  const std::int64_t start = now_ns();
  auto result = inner_.version_of(block);
  finish(start, Series::kCount);
  return result;
}

storage::VersionVector TracingStore::version_vector() const {
  const std::int64_t start = now_ns();
  auto result = inner_.version_vector();
  finish(start, Series::kCount);
  return result;
}

}  // namespace device_e2e
