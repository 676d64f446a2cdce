// Tracing for the per-layer run. Three decorators wrap the public
// interfaces of the stack and record spans in memory; nothing under src/
// changes:
//
//   TracingHandler    TcpServer -> replica      (net::MessageHandler)
//   TracingTransport  replica or stub -> peers  (net::Transport)
//   TracingStore      replica -> journal store  (storage::BlockStore)
//
// A coordinator's handle() runs on one server thread, and its peer rounds
// and store calls run on that same thread, so a thread-local span list
// collects the children of each client operation. Spans on other sites are
// linked by block id: a block has one owner with one operation in flight,
// so (site, kind, block) names exactly one peer handler invocation at a
// time, and (block) names one coordinator invocation.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "reldev/net/transport.hpp"
#include "reldev/storage/block_store.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace device_e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// A closed interval of steady-clock time.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  [[nodiscard]] std::int64_t duration() const { return end_ns - start_ns; }
};

/// Length of `parent` covered by the union of `children` (clipped to the
/// parent; overlapping children count once).
std::int64_t covered_ns(const Span& parent, std::vector<Span> children);

/// A span's self time: its duration minus what its children cover.
inline std::int64_t self_ns(const Span& parent,
                            const std::vector<Span>& children) {
  return parent.duration() - covered_ns(parent, children);
}

/// The span lists a thread is currently collecting into (null = none).
/// The client loop points it at the stub call's list; TracingHandler
/// points it at the coordinator operation's list.
extern thread_local std::vector<Span>* tl_spans;

/// Kinds of peer request, for linking a round to the handlers it waited on.
enum class PeerKind : std::uint8_t { kVote = 0, kPush = 1, kFetch = 2 };
inline constexpr std::size_t kPeerKinds = 3;

/// Latency series the traced run collects, in microseconds.
enum class Series : std::uint8_t {
  kCoordSelf,
  kPeerHandle,
  kVoteRound,
  kPushRound,
  kRoundNet,
  kStoreWrite,
  kStoreRead,
  kCount
};
inline constexpr std::size_t kSeriesCount =
    static_cast<std::size_t>(Series::kCount);

/// Everything the traced run records. Sample buffers are per thread and
/// owned here; read them only after every recording thread has stopped.
/// A process holds at most one Tracer: the per-thread buffer pointer is
/// not keyed by tracer.
class Tracer {
 public:
  Tracer(std::size_t sites, std::size_t blocks);

  /// Recording is on only inside the measured window.
  void set_active(bool active) { active_.store(active); }
  [[nodiscard]] bool active() const { return active_.load(); }

  void sample(Series series, std::int64_t ns) RELDEV_EXCLUDES(mutex_);
  /// Every sample of one series, merged across threads.
  [[nodiscard]] std::vector<double> samples(Series series) const
      RELDEV_EXCLUDES(mutex_);

  // --- cross-site links (written before the reply leaves the server) ---
  void set_peer_handle(std::size_t site, PeerKind kind,
                       reldev::storage::BlockId block, std::int64_t ns);
  [[nodiscard]] std::int64_t peer_handle(std::size_t site, PeerKind kind,
                                         reldev::storage::BlockId block) const;
  void set_coord_handle(reldev::storage::BlockId block, std::int64_t ns);
  [[nodiscard]] std::int64_t coord_handle(reldev::storage::BlockId block) const;

  // --- distinct blocks written since each site's last checkpoint -------
  void mark_dirty(std::size_t site, reldev::storage::BlockId block);
  /// Number of distinct blocks marked on `site`, clearing the marks.
  std::uint64_t take_dirty(std::size_t site);

  // --- counters ---------------------------------------------------------
  std::atomic<std::uint64_t> coord_reads{0};
  std::atomic<std::uint64_t> fetch_reads{0};
  std::atomic<std::uint64_t> vote_rounds{0};
  std::atomic<std::uint64_t> early_stops{0};
  std::atomic<std::uint64_t> store_calls{0};
  std::atomic<std::uint64_t> store_writes{0};
  std::atomic<std::uint64_t> peer_bytes{0};

 private:
  struct Buffers {
    std::array<std::vector<float>, kSeriesCount> series;
  };
  Buffers& local() RELDEV_EXCLUDES(mutex_);

  const std::size_t blocks_;
  std::atomic<bool> active_{false};
  std::vector<std::atomic<std::int64_t>> peer_handle_;
  std::vector<std::atomic<std::int64_t>> coord_handle_;
  std::vector<std::atomic<std::uint8_t>> dirty_;
  mutable reldev::Mutex mutex_{"Tracer.mutex"};
  std::vector<std::unique_ptr<Buffers>> buffers_ RELDEV_GUARDED_BY(mutex_);
};

/// TcpServer -> replica. Coordinator operations (client requests) collect
/// their children and record self time; peer requests record handler time.
class TracingHandler final : public reldev::net::MessageHandler {
 public:
  TracingHandler(reldev::net::MessageHandler& inner, std::size_t site,
                 Tracer& tracer)
      : inner_(inner), site_(site), tracer_(tracer) {}

  reldev::net::Message handle(const reldev::net::Message& request) override;
  void handle_oneway(const reldev::net::Message& message) override {
    inner_.handle_oneway(message);
  }

 private:
  reldev::net::MessageHandler& inner_;
  std::size_t site_;
  Tracer& tracer_;
};

/// Replica -> peers (site side, `peer_side`) or stub -> servers (client
/// side). Every call becomes a child span of the thread's current list;
/// on the site side, rounds are classified and linked to peer handlers.
class TracingTransport final : public reldev::net::Transport {
 public:
  TracingTransport(reldev::net::Transport& inner, Tracer& tracer,
                   bool peer_side)
      : inner_(inner), tracer_(tracer), peer_side_(peer_side) {}

  using Transport::multicast_call;

  [[nodiscard]] reldev::Result<reldev::net::Message> call(
      reldev::storage::SiteId from, reldev::storage::SiteId to,
      const reldev::net::Message& request) override;
  [[nodiscard]] reldev::Status send(
      reldev::storage::SiteId from, reldev::storage::SiteId to,
      const reldev::net::Message& message) override;
  [[nodiscard]] reldev::Status multicast(
      reldev::storage::SiteId from, const reldev::storage::SiteSet& to,
      const reldev::net::Message& message) override;
  std::vector<reldev::net::GatherReply> multicast_call(
      reldev::storage::SiteId from, const reldev::storage::SiteSet& to,
      const reldev::net::Message& request,
      const reldev::net::EarlyStop& early_stop) override;

 private:
  /// Round bookkeeping shared by multicast and multicast_call.
  void record_round(const reldev::net::Message& request, const Span& round,
                    const std::vector<reldev::storage::SiteId>& waited_on,
                    bool early_stopped);
  void count_bytes(const reldev::net::Message& message, std::size_t copies);

  reldev::net::Transport& inner_;
  Tracer& tracer_;
  bool peer_side_;
};

/// Replica -> store. Times reads and writes; counts every store call.
class TracingStore final : public reldev::storage::BlockStore {
 public:
  TracingStore(reldev::storage::BlockStore& inner, std::size_t site,
               Tracer& tracer)
      : inner_(inner), site_(site), tracer_(tracer) {}

  [[nodiscard]] std::size_t block_count() const noexcept override {
    return inner_.block_count();
  }
  [[nodiscard]] std::size_t block_size() const noexcept override {
    return inner_.block_size();
  }
  [[nodiscard]] reldev::Result<reldev::storage::VersionedBlock> read(
      reldev::storage::BlockId block) const override;
  [[nodiscard]] reldev::Status write(
      reldev::storage::BlockId block, std::span<const std::byte> data,
      reldev::storage::VersionNumber version) override;
  [[nodiscard]] reldev::Result<reldev::storage::VersionNumber> version_of(
      reldev::storage::BlockId block) const override;
  [[nodiscard]] reldev::storage::VersionVector version_vector() const override;
  [[nodiscard]] reldev::Status put_metadata(
      std::span<const std::byte> blob) override {
    return inner_.put_metadata(blob);
  }
  [[nodiscard]] reldev::Result<std::vector<std::byte>> get_metadata()
      const override {
    return inner_.get_metadata();
  }
  [[nodiscard]] reldev::Status sync() override { return inner_.sync(); }
  [[nodiscard]] reldev::storage::CommitSequence last_sequence()
      const noexcept override {
    return inner_.last_sequence();
  }
  [[nodiscard]] reldev::storage::CommitSequence durable_sequence()
      const noexcept override {
    return inner_.durable_sequence();
  }
  [[nodiscard]] reldev::Status wait_durable(
      reldev::storage::CommitSequence sequence) override {
    return inner_.wait_durable(sequence);
  }
  [[nodiscard]] reldev::Status demote(reldev::storage::BlockId block) override {
    return inner_.demote(block);
  }

 private:
  /// Close a timed store call: child span plus counters.
  void finish(std::int64_t start_ns, Series series) const;

  reldev::storage::BlockStore& inner_;
  std::size_t site_;
  Tracer& tracer_;
};

}  // namespace device_e2e
