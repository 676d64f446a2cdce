// Concurrency behaviour of the TCP transport's caller-driven scatter-
// gather: a multicast round overlaps its peers (it costs the slowest, not
// the sum), an early-stop quorum returns before the straggler (whose reply
// is still metered, exactly once, and whose socket is reused), a dead or
// refusing peer costs at most one bounded deadline instead of the round,
// and a request is resent only while it provably never left.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

/// Replies StateInfo after an injected per-call delay, and records how
/// many calls were ever in flight at once. With a rendezvous of k, each
/// call first waits (up to a generous bound) until k calls have been in
/// flight together, so overlap shows as a high-water mark of k and a
/// serialized caller shows as 1 — no wall-clock bound involved.
class DelayHandler : public MessageHandler {
 public:
  explicit DelayHandler(std::chrono::milliseconds delay, int rendezvous = 0)
      : delay_(delay), rendezvous_(rendezvous) {}
  Message handle(const Message&) override {
    calls.fetch_add(1);
    const int now = in_flight_.fetch_add(1) + 1;
    int seen = high_water.load();
    while (now > seen && !high_water.compare_exchange_weak(seen, now)) {
    }
    const auto give_up = Clock::now() + 5s;
    while (high_water.load() < rendezvous_ && Clock::now() < give_up) {
      std::this_thread::sleep_for(1ms);
    }
    std::this_thread::sleep_for(delay_);
    in_flight_.fetch_sub(1);
    completed.fetch_add(1);
    return Message{0, StateInfo{SiteState::kAvailable, 1, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> calls{0};
  std::atomic<int> completed{0};
  std::atomic<int> high_water{0};

 private:
  std::chrono::milliseconds delay_;
  int rendezvous_;
  std::atomic<int> in_flight_{0};
};

std::chrono::milliseconds elapsed_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start);
}

/// Block until `handler` has finished `n` calls and their replies have had
/// time to cross loopback.
void wait_completed(const DelayHandler& handler, int n) {
  const auto give_up = Clock::now() + 10s;
  while (handler.completed.load() < n && Clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
  }
  std::this_thread::sleep_for(100ms);
}

TEST(TcpFanOutTest, MulticastCallOverlapsPerPeerDelays) {
  constexpr int kPeers = 4;
  DelayHandler handler(10ms, /*rendezvous=*/kPeers);
  std::vector<std::unique_ptr<TcpServer>> servers;
  TcpPeerTransport transport;
  SiteSet peers;
  for (SiteId site = 1; site <= kPeers; ++site) {
    servers.push_back(TcpServer::start(0, &handler).value());
    transport.set_endpoint(site, "127.0.0.1", servers.back()->port());
    peers.insert(site);
  }

  auto replies = transport.multicast_call(0, peers, Message{0, StateInquiry{}});

  EXPECT_EQ(replies.size(), static_cast<std::size_t>(kPeers));
  // A peer-by-peer gather never has more than one handler call in flight.
  EXPECT_EQ(handler.high_water.load(), kPeers)
      << "fan-out did not overlap the peers";
}

TEST(TcpFanOutTest, EarlyStopReturnsBeforeStragglerAndStillMetersIt) {
  constexpr auto kStragglerDelay = 1000ms;
  DelayHandler fast(0ms);
  DelayHandler slow(kStragglerDelay);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &fast).value();
  auto s3 = TcpServer::start(0, &slow).value();

  TrafficMeter meter;
  {
    TcpPeerTransport transport;
    transport.set_traffic_meter(&meter);
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());
    transport.set_endpoint(3, "127.0.0.1", s3->port());

    const auto start = Clock::now();
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2, 3}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) {
          return so_far.size() >= 2;
        });
    const auto elapsed = elapsed_since(start);

    EXPECT_EQ(replies.size(), 2u);
    for (const auto& [site, reply] : replies) {
      EXPECT_NE(site, 3u) << "straggler reply should not be gathered";
    }
    EXPECT_LT(elapsed, kStragglerDelay)
        << "early-stop gather waited for the straggler";
    // The transport destructor drains the straggler task before the meter
    // goes out of scope.
  }
  // 3 requests + 3 replies: the straggler's late reply crossed the network
  // and must be metered even though it was never gathered.
  EXPECT_EQ(meter.total(), 6u);
  EXPECT_EQ(slow.calls.load(), 1);
}

TEST(TcpFanOutTest, DeadPeerCostsOneBoundedTimeout) {
  // An acceptor whose backlog takes the connection but which never serves
  // it: the call's recv blocks until the deadline, not forever.
  auto acceptor = Acceptor::listen(0).value();
  DelayHandler fast(0ms);
  auto live = TcpServer::start(0, &fast).value();

  TcpPeerTransport transport;
  transport.set_call_timeout(250ms);
  transport.set_endpoint(1, "127.0.0.1", live->port());
  transport.set_endpoint(2, "127.0.0.1", acceptor.port());

  const auto start = Clock::now();
  auto replies =
      transport.multicast_call(0, SiteSet{1, 2}, Message{0, StateInquiry{}});
  const auto elapsed = elapsed_since(start);

  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 1u);
  EXPECT_LT(elapsed, 2500ms) << "dead peer stalled the whole gather";

  auto direct = transport.call(0, 2, Message{0, StateInquiry{}});
  EXPECT_EQ(direct.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(TcpFanOutTest, ConcurrentCallsToOnePeerDoNotSerialize) {
  constexpr int kCallers = 3;
  DelayHandler handler(10ms, /*rendezvous=*/kCallers);
  auto server = TcpServer::start(0, &handler).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", server->port());

  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&transport, &ok] {
      if (transport.call(0, 1, Message{0, StateInquiry{}}).is_ok()) {
        ok.fetch_add(1);
      }
    });
  }
  for (auto& caller : callers) caller.join();

  EXPECT_EQ(ok.load(), kCallers);
  // One shared socket would serialize the calls (a high-water mark of 1);
  // the per-endpoint pool runs them concurrently.
  EXPECT_EQ(handler.high_water.load(), kCallers)
      << "channel pool serialized concurrent calls";
  EXPECT_EQ(handler.calls.load(), kCallers);
}

TEST(TcpFanOutTest, ChannelPoolReusesConnections) {
  DelayHandler handler(0ms);
  auto server = TcpServer::start(0, &handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(channel.call(Message{0, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(handler.calls.load(), 20);
}

TEST(TcpFanOutTest, MeterSwapDuringConcurrentCallsLosesNoCounts) {
  // Regression: meter_ was a plain pointer, so set_traffic_meter racing
  // with the count() reads in concurrent call()s was a data race (TSan
  // catches the old code on this very test). With the atomic, every
  // transmission lands in whichever meter was installed at count time —
  // the sum across both meters must be exact.
  DelayHandler handler(1ms);
  auto server = TcpServer::start(0, &handler).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", server->port());

  TrafficMeter meter_a;
  TrafficMeter meter_b;
  transport.set_traffic_meter(&meter_a);

  constexpr int kCallers = 4;
  constexpr int kCallsPerCaller = 25;
  std::atomic<bool> done{false};
  std::atomic<int> ok{0};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int i = 0; i < kCallers; ++i) {
    callers.emplace_back([&] {
      for (int call = 0; call < kCallsPerCaller; ++call) {
        if (transport.call(0, 1, Message{0, StateInquiry{}}).is_ok()) {
          ok.fetch_add(1);
        }
      }
    });
  }
  std::thread swapper([&] {
    bool use_a = false;
    while (!done.load()) {
      transport.set_traffic_meter(use_a ? &meter_a : &meter_b);
      use_a = !use_a;
      std::this_thread::sleep_for(1ms);
    }
  });
  for (auto& caller : callers) caller.join();
  done.store(true);
  swapper.join();

  EXPECT_EQ(ok.load(), kCallers * kCallsPerCaller);
  // Every successful call is 1 request + 1 reply transmission; each must
  // have been counted in exactly one of the two meters.
  EXPECT_EQ(meter_a.total() + meter_b.total(),
            2u * static_cast<std::uint64_t>(kCallers) * kCallsPerCaller);
}

TEST(TcpFanOutTest, StragglerMetersIntoTheMeterActiveAtMulticastTime) {
  // The fan-out contract: multicast_call snapshots the meter once, so a
  // straggler's late reply is charged to the meter that was active when
  // the round started — not whatever was installed afterwards.
  constexpr auto kStragglerDelay = 400ms;
  DelayHandler fast(0ms);
  DelayHandler slow(kStragglerDelay);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();

  TrafficMeter round_meter;
  TrafficMeter later_meter;
  {
    TcpPeerTransport transport;
    transport.set_traffic_meter(&round_meter);
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());

    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    ASSERT_EQ(replies.size(), 1u);

    // Gather returned early; the straggler is still in flight. Swapping
    // the meter now must not redirect (or race with) its reply count.
    transport.set_traffic_meter(&later_meter);
    // Destructor drains the straggler.
  }
  EXPECT_EQ(round_meter.total(), 4u);  // 2 requests + 2 replies
  EXPECT_EQ(later_meter.total(), 0u);
  EXPECT_EQ(slow.calls.load(), 1);
}

TEST(TcpFanOutTest, TransportDestructorWaitsForStragglers) {
  DelayHandler fast(0ms);
  DelayHandler slow(400ms);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();
  {
    TcpPeerTransport transport;
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());
    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    EXPECT_EQ(replies.size(), 1u);
  }
  // If the destructor returned early the straggler would still be using
  // freed channels; reaching this line without crashing (and under TSan
  // without a race) is the assertion.
  EXPECT_EQ(slow.calls.load(), 1);
}

TEST(TcpFanOutTest, StragglerSocketIsReusedAndItsReplyMeteredOnce) {
  DelayHandler fast(0ms);
  DelayHandler slow(200ms);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s2 = TcpServer::start(0, &slow).value();

  TrafficMeter meter;
  {
    TcpPeerTransport transport;
    transport.set_traffic_meter(&meter);
    transport.set_endpoint(1, "127.0.0.1", s1->port());
    transport.set_endpoint(2, "127.0.0.1", s2->port());

    auto replies = transport.multicast_call(
        0, SiteSet{1, 2}, Message{0, StateInquiry{}},
        [](const std::vector<GatherReply>& so_far) { return !so_far.empty(); });
    ASSERT_EQ(replies.size(), 1u);
    EXPECT_EQ(replies[0].first, 1u);
    EXPECT_EQ(transport.pool_misses(), 2u);  // one fresh connect per peer
    EXPECT_EQ(meter.total(), 3u);  // 2 requests + the fast reply so far

    // The straggler's reply lands on its owed socket; the next call to
    // that peer reads and meters it, then reuses the socket (a pool hit,
    // no new connect).
    wait_completed(slow, 1);
    ASSERT_TRUE(transport.call(0, 2, Message{0, StateInquiry{}}).is_ok());
    EXPECT_EQ(transport.pool_hits(), 1u);
    EXPECT_EQ(transport.pool_misses(), 2u);
    EXPECT_EQ(meter.total(), 6u);  // + straggler reply + request + reply
  }
  // The destructor found nothing left to drain: no count twice.
  EXPECT_EQ(meter.total(), 6u);
  EXPECT_EQ(slow.calls.load(), 2);
}

/// A hand-rolled peer: answers the first request on a connection, then
/// reads the second and drops the connection without answering — a server
/// that died while executing it. Counts every frame and connection seen.
class DiesMidRequestPeer {
 public:
  DiesMidRequestPeer() : acceptor_(Acceptor::listen(0).value()) {
    thread_ = std::thread([this] { serve(); });
  }
  ~DiesMidRequestPeer() {
    stop_.store(true);
    thread_.join();
  }
  [[nodiscard]] std::uint16_t port() const { return acceptor_.port(); }
  std::atomic<int> frames{0};
  std::atomic<int> connections{0};

 private:
  void serve() {
    while (!stop_.load()) {
      pollfd waiter{acceptor_.fd(), POLLIN, 0};
      if (::poll(&waiter, 1, 20) <= 0) continue;
      Socket conn(::accept(acceptor_.fd(), nullptr, nullptr));
      if (!conn.valid()) continue;
      connections.fetch_add(1);
      if (!read_frame(conn).is_ok()) continue;
      frames.fetch_add(1);
      const auto reply =
          Message{9, StateInfo{SiteState::kAvailable, 1, {}}}.encode();
      if (!write_frame(conn, reply).is_ok()) continue;
      if (read_frame(conn).is_ok()) frames.fetch_add(1);
      // conn closes here, the second request unanswered.
    }
  }

  Acceptor acceptor_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(TcpFanOutTest, GatherAfterPeerRestartResendsOnlyOnAStalePooledSocket) {
  DelayHandler first(0ms);
  DelayHandler second(0ms);
  auto server = TcpServer::start(0, &first).value();
  const std::uint16_t port = server->port();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", port);
  ASSERT_TRUE(transport.call(0, 1, Message{0, StateInquiry{}}).is_ok());

  // Restart the peer on the same port: the pooled socket is now stale. It
  // shows so before anything is written on it, so the round moves to a
  // fresh connection and the restarted peer executes the request once.
  server->stop();
  server.reset();
  server = TcpServer::start(port, &second).value();
  auto replies =
      transport.multicast_call(0, SiteSet{1}, Message{0, StateInquiry{}});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(second.calls.load(), 1);
  EXPECT_EQ(transport.pool_hits(), 1u);    // the stale socket, tried
  EXPECT_EQ(transport.pool_misses(), 2u);  // the first connect + its stand-in

  // A request that did leave is never replayed: this peer reads the
  // second request on a live pooled socket and dies without answering.
  DiesMidRequestPeer dying;
  TcpPeerTransport other;
  other.set_call_timeout(2000ms);
  other.set_endpoint(1, "127.0.0.1", dying.port());
  ASSERT_TRUE(other.call(0, 1, Message{0, StateInquiry{}}).is_ok());
  auto lost = other.multicast_call(0, SiteSet{1}, Message{0, StateInquiry{}});
  EXPECT_TRUE(lost.empty());
  auto direct = other.call(0, 1, Message{0, StateInquiry{}});
  // The failed socket was closed, so this call connects afresh: that is
  // the only extra connection, and the frame count shows the lost request
  // was not resent on it.
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(dying.frames.load(), 3);
  EXPECT_EQ(dying.connections.load(), 2);
}

TEST(TcpFanOutTest, OneRefusedPeerDoesNotFailTheRound) {
  // A port nobody listens on: connects to it are refused.
  std::uint16_t refused_port = 0;
  {
    auto probe = Acceptor::listen(0).value();
    refused_port = probe.port();
  }
  DelayHandler fast(0ms);
  auto s1 = TcpServer::start(0, &fast).value();
  auto s3 = TcpServer::start(0, &fast).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", refused_port);
  transport.set_endpoint(3, "127.0.0.1", s3->port());

  auto replies = transport.multicast_call(0, SiteSet{1, 2, 3},
                                          Message{0, StateInquiry{}});
  ASSERT_EQ(replies.size(), 2u);
  for (const auto& [site, reply] : replies) EXPECT_NE(site, 2u);
  // An early stop that needs all three settles with the two it can get.
  auto partial = transport.multicast_call(
      0, SiteSet{1, 2, 3}, Message{0, StateInquiry{}},
      [](const std::vector<GatherReply>& so_far) { return so_far.size() >= 3; });
  EXPECT_EQ(partial.size(), 2u);
  EXPECT_EQ(transport.call(0, 2, Message{0, StateInquiry{}}).status().code(),
            reldev::ErrorCode::kUnavailable);
  EXPECT_EQ(fast.calls.load(), 4);
}

}  // namespace
}  // namespace reldev::net::tcp
