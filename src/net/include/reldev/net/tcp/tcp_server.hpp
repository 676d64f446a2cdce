// A TCP message server: accepts connections, reads framed Messages, passes
// them to a MessageHandler, writes the framed reply. This is the process
// boundary of the paper's Figure 1/2 — the "user-state server".
//
// A reactor: N epoll event-loop shards drive non-blocking frame state
// machines; connections are assigned to shards round-robin. Vote
// requests, which only read in-memory versions, are answered right there
// on the shard; every other request runs on a small worker pool (or on
// the shard too, for handlers that never block).
// Connection count does not imply thread count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "reldev/net/tcp/framing.hpp"
#include "reldev/net/transport.hpp"

namespace reldev::net::tcp {

struct ServerOptions {
  /// Event-loop shards. 0 = hardware_concurrency.
  std::size_t loop_shards = 0;
  /// Handler worker threads. 0 = max(8, hardware_concurrency):
  /// handlers may block (storage I/O, fan-out to peers), so the floor is
  /// set by acceptable blocking-handler concurrency, not by core count.
  std::size_t handler_threads = 0;
  /// Run every handler call directly on the owning loop shard instead of
  /// the worker pool. Only for handlers that never block — a blocking
  /// handler stalls every connection on its shard. Skips two cross-thread
  /// hops per request, which is the right trade for cheap CPU-only
  /// handlers; the default pool is the right one for handlers that do
  /// storage I/O or fan out to peers. Vote requests are answered on the
  /// shard whatever this says.
  bool inline_handlers = false;
  /// Close connections idle at a frame boundary for this long. Zero
  /// disables the idle reaper.
  std::chrono::milliseconds idle_timeout{0};
};

/// The server's frame counters. All monotonic except active_connections.
struct ServerCounters {
  /// Frames whose CRC trailer (or magic) failed verification: the request
  /// was rejected before decoding and the connection torn down.
  std::atomic<std::uint64_t> corrupted_frames{0};
  /// Frames rejected for framing-protocol violations (oversized declared
  /// length). Like corrupt frames, these cost the sender its connection.
  std::atomic<std::uint64_t> rejected_frames{0};
  /// Well-formed frames served (decoded and dispatched to the handler).
  std::atomic<std::uint64_t> served_frames{0};
  /// Currently-open connections.
  std::atomic<std::size_t> active_connections{0};
};

class TcpServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and dispatches every inbound
  /// request to `handler`. The handler must be thread-safe or internally
  /// serialized; it must outlive the server.
  static Result<std::unique_ptr<TcpServer>> start(std::uint16_t port,
                                                  MessageHandler* handler,
                                                  const ServerOptions& options);
  static Result<std::unique_ptr<TcpServer>> start(std::uint16_t port,
                                                  MessageHandler* handler) {
    return start(port, handler, ServerOptions{});
  }

  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;

  [[nodiscard]] std::uint64_t corrupted_frames() const noexcept {
    return counters_.corrupted_frames.load();
  }
  [[nodiscard]] std::uint64_t rejected_frames() const noexcept {
    return counters_.rejected_frames.load();
  }
  [[nodiscard]] std::uint64_t served_frames() const noexcept {
    return counters_.served_frames.load();
  }
  [[nodiscard]] std::size_t active_connections() const noexcept {
    return counters_.active_connections.load();
  }

  /// Stop accepting, close every connection — including ones mid-request —
  /// and join all threads. Prompt: does not wait for idle peers to go away.
  void stop();

 private:
  class Impl;

  TcpServer() = default;

  ServerCounters counters_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace reldev::net::tcp
