// Client side of the TCP message protocol: a channel that sends one framed
// Message and waits for the framed reply, reconnecting on demand; and a
// Transport implementation that routes per-site over such channels so the
// same protocol engines that run in-process can run across real processes.
//
// Concurrency: a channel keeps a small pool of connections per endpoint, so
// concurrent calls to the same peer each get their own socket instead of
// serializing on one mutex. A multicast is a caller-driven scatter-gather:
// the calling thread writes the request to one socket per peer, then waits
// in one poll() over those sockets until an EarlyStop predicate holds,
// every peer has answered, or the deadline passes — no worker pool, no
// thread hand-off. A straggler left behind by an early stop is parked on
// its channel as *owed*; a later call on that channel (or the transport's
// destructor) reads and meters its reply, and reuses the socket.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "reldev/net/tcp/framing.hpp"
#include "reldev/net/transport.hpp"
#include "reldev/util/thread_annotations.hpp"

namespace reldev::net::tcp {

/// Default per-call deadline: covers connect + request + reply. Generous
/// for a LAN round trip, small enough that a dead peer costs one bounded
/// hiccup rather than an indefinite hang.
inline constexpr std::chrono::milliseconds kDefaultCallTimeout{5000};

/// Bounds on the per-endpoint idle-connection pool.
struct PoolOptions {
  /// Idle sockets kept per endpoint; releases beyond the cap close the
  /// socket. Enough for the fan-out concurrency a small replica group
  /// generates.
  std::size_t max_idle = 8;
  /// Idle sockets older than this are evicted instead of reused — a
  /// connection parked across a server restart or NAT timeout fails its
  /// first write anyway, so don't let them pile up. Zero disables age
  /// eviction.
  std::chrono::milliseconds max_idle_age{30000};
};

/// One logical connection to a server, backed by a pool of sockets so
/// concurrent calls proceed in parallel.
class TcpChannel {
 public:
  TcpChannel(std::string host, std::uint16_t port,
             std::chrono::milliseconds timeout = kDefaultCallTimeout,
             const PoolOptions& pool = PoolOptions{});

  /// Send `request`, wait for the reply, bounded by the channel timeout: a
  /// gather of one over the transport's scatter-gather path. Resends on
  /// another socket ONLY while the request was provably not delivered (a
  /// pooled socket found stale before the write, or a frame write that
  /// failed on one); once the frame is fully written the request may be
  /// executing, so a reply failure is surfaced instead of replayed —
  /// at-most-once per call. Retrying a possibly-executed request is the
  /// caller's decision (see core::RetryPolicy). Deadline overruns are
  /// kUnavailable; a CRC-rejected reply is the typed kCorruption.
  [[nodiscard]] Result<Message> call(const Message& request);

  /// Drop all idle pooled connections (next calls reconnect). Calls in
  /// flight keep their sockets.
  void disconnect() RELDEV_EXCLUDES(mutex_);

  void set_timeout(std::chrono::milliseconds timeout) RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::chrono::milliseconds timeout() const
      RELDEV_EXCLUDES(mutex_);

  /// Replace the pool bounds. Applies to future acquire/release decisions;
  /// surplus idle sockets are trimmed immediately.
  void set_pool_options(const PoolOptions& pool) RELDEV_EXCLUDES(mutex_);

  /// Calls served by a pooled socket vs. a fresh connect. A stale pooled
  /// socket that fails and forces a reconnect counts as both a hit (it was
  /// tried) and a miss (the connect that replaced it).
  [[nodiscard]] std::uint64_t pool_hits() const noexcept {
    return pool_hits_.load();
  }
  [[nodiscard]] std::uint64_t pool_misses() const noexcept {
    return pool_misses_.load();
  }
  /// Idle sockets currently parked.
  [[nodiscard]] std::size_t idle_connections() const RELDEV_EXCLUDES(mutex_);

  /// Wait for every owed reply until its deadline, metering each one that
  /// arrives; closes the sockets. Blocking — for the transport's
  /// destructor.
  void drain_owed() RELDEV_EXCLUDES(mutex_);

 private:
  friend class Gather;

  /// The incremental reader of one reply frame on a non-blocking socket.
  struct ReplyReader {
    std::array<std::byte, kFramePrefixSize> prefix{};
    std::vector<std::byte> body;  // payload + CRC trailer, once sized
    std::size_t got = 0;          // bytes of the current part read so far
    bool in_body = false;
  };

  /// A straggler's socket: its request is written and its reply not yet
  /// read. The meter and operation are the ones active when its round
  /// started, so the late reply lands in the right bucket (DESIGN.md §7).
  struct Owed {
    Socket socket;
    ReplyReader reader;
    std::chrono::steady_clock::time_point deadline;
    TrafficMeter* meter = nullptr;
    OpKind kind = OpKind::kOther;
  };

  /// Settle owed sockets without blocking (meter and reuse the answered,
  /// close the expired), then pop an idle pooled socket if there is one.
  /// The reads run outside the lock — only the pool lists are guarded.
  [[nodiscard]] std::optional<Socket> take_idle() RELDEV_EXCLUDES(mutex_);
  void release(Socket socket) RELDEV_EXCLUDES(mutex_);
  void owe(Owed owed) RELDEV_EXCLUDES(mutex_);
  void count_miss() noexcept { pool_misses_.fetch_add(1); }

  /// An idle pooled socket and when it was parked (for age eviction).
  struct IdleSocket {
    Socket socket;
    std::chrono::steady_clock::time_point since;
  };

  /// Drop idle entries older than the age bound or beyond the size cap.
  void evict_locked() RELDEV_REQUIRES(mutex_);
  /// Evict, then pop the most recently parked idle socket (a pool hit).
  [[nodiscard]] std::optional<Socket> pop_idle_locked() RELDEV_REQUIRES(mutex_);

  std::string host_;
  std::uint16_t port_;
  mutable Mutex mutex_{"TcpChannel.pool"};
  std::chrono::milliseconds timeout_ RELDEV_GUARDED_BY(mutex_);
  PoolOptions pool_ RELDEV_GUARDED_BY(mutex_);
  std::vector<IdleSocket> idle_ RELDEV_GUARDED_BY(mutex_);
  // Closed unmetered if still owed when the channel dies; the transport
  // drains them first (~TcpPeerTransport).
  std::vector<Owed> owed_ RELDEV_GUARDED_BY(mutex_);
  std::atomic<std::uint64_t> pool_hits_{0};
  std::atomic<std::uint64_t> pool_misses_{0};
};

/// Transport over per-site TCP channels. Always unique addressing: real
/// point-to-point links have no broadcast medium, which is exactly §5.2's
/// setting. One-way sends are implemented as calls whose reply is
/// discarded, preserving the engines' semantics (TCP servers always reply).
class TcpPeerTransport final : public Transport {
 public:
  TcpPeerTransport() = default;

  /// Drains every channel's owed sockets (early-stop stragglers) until
  /// their deadlines, so each reply that arrives in time is metered.
  ~TcpPeerTransport() override;

  void set_endpoint(SiteId site, const std::string& host, std::uint16_t port)
      RELDEV_EXCLUDES(mutex_);
  void remove_endpoint(SiteId site) RELDEV_EXCLUDES(mutex_);

  /// Per-call deadline applied to every channel (existing and future).
  void set_call_timeout(std::chrono::milliseconds timeout)
      RELDEV_EXCLUDES(mutex_);

  /// Pool bounds applied to every channel (existing and future).
  void set_pool_options(const PoolOptions& pool) RELDEV_EXCLUDES(mutex_);

  /// Pool hit/miss totals aggregated across all per-site channels.
  [[nodiscard]] std::uint64_t pool_hits() const RELDEV_EXCLUDES(mutex_);
  [[nodiscard]] std::uint64_t pool_misses() const RELDEV_EXCLUDES(mutex_);

  /// The meter must outlive this transport: straggler replies are counted
  /// by later calls and by the destructor's drain. Atomic — concurrent
  /// calls read it while this setter runs.
  void set_traffic_meter(TrafficMeter* meter) noexcept {
    meter_.store(meter, std::memory_order_release);
  }

  using Transport::multicast_call;

  [[nodiscard]] Result<Message> call(SiteId from, SiteId to, const Message& request) override;
  [[nodiscard]] Status send(SiteId from, SiteId to, const Message& message) override;
  [[nodiscard]] Status multicast(SiteId from, const SiteSet& to,
                   const Message& message) override;
  std::vector<GatherReply> multicast_call(SiteId from, const SiteSet& to,
                                          const Message& request,
                                          const EarlyStop& early_stop) override;

 private:
  std::shared_ptr<TcpChannel> channel(SiteId site) RELDEV_EXCLUDES(mutex_);
  /// Channels for every member of `to` except `from` that has an endpoint.
  std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>> channels_for(
      SiteId from, const SiteSet& to) RELDEV_EXCLUDES(mutex_);

  mutable Mutex mutex_{"TcpPeerTransport.mutex"};
  std::map<SiteId, std::shared_ptr<TcpChannel>> channels_
      RELDEV_GUARDED_BY(mutex_);
  std::chrono::milliseconds call_timeout_ RELDEV_GUARDED_BY(mutex_){
      kDefaultCallTimeout};
  PoolOptions pool_options_ RELDEV_GUARDED_BY(mutex_);
  std::atomic<TrafficMeter*> meter_{nullptr};
};

}  // namespace reldev::net::tcp
