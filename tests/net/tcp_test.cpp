#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <ostream>
#include <thread>

#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::net::tcp {
namespace {

using namespace std::chrono_literals;

/// Thread-safe counting echo: replies StateInfo to StateInquiry and echoes
/// ClientWriteRequests with an ok ClientWriteReply.
class EchoHandler : public MessageHandler {
 public:
  Message handle(const Message& request) override {
    calls.fetch_add(1);
    if (request.holds<ClientWriteRequest>()) {
      return Message{0, ClientWriteReply{0}};
    }
    return Message{0, StateInfo{SiteState::kAvailable, 7, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> calls{0};
};

TEST(TcpSocketTest, ConnectToClosedPortFails) {
  // Port 1 on localhost is essentially never listening.
  auto socket = Socket::connect("127.0.0.1", 1);
  EXPECT_FALSE(socket.is_ok());
  EXPECT_EQ(socket.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(TcpSocketTest, BadAddressRejected) {
  auto socket = Socket::connect("not-an-address", 80);
  EXPECT_EQ(socket.status().code(), reldev::ErrorCode::kInvalidArgument);
}

/// The two handler placements every server-facing test must hold under:
/// the default worker pool, and inline on the loop shards.
struct ServerConfig {
  const char* name;
  ServerOptions options;
};

/// Test listings show the config's name, not a dump of its bytes (which
/// include a pointer and change from build to build).
void PrintTo(const ServerConfig& config, std::ostream* os) {
  *os << config.name;
}

class TcpServerModeTest : public ::testing::TestWithParam<ServerConfig> {
 protected:
  [[nodiscard]] static Result<std::unique_ptr<TcpServer>> start_server(
      MessageHandler* handler) {
    return TcpServer::start(0, handler, GetParam().options);
  }
};

TEST_P(TcpServerModeTest, EphemeralPortAssigned) {
  EchoHandler handler;
  auto server = start_server(&handler);
  ASSERT_TRUE(server.is_ok());
  EXPECT_GT(server.value()->port(), 0);
}

TEST_P(TcpServerModeTest, RoundTripCall) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  auto reply = channel.call(Message{9, StateInquiry{}});
  ASSERT_TRUE(reply.is_ok()) << reply.status().to_string();
  ASSERT_TRUE(reply.value().holds<StateInfo>());
  EXPECT_EQ(reply.value().as<StateInfo>().version_total, 7u);
  EXPECT_EQ(handler.calls.load(), 1);
  EXPECT_EQ(server->served_frames(), 1u);
}

TEST_P(TcpServerModeTest, ManySequentialCallsOnOneConnection) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  }
  EXPECT_EQ(handler.calls.load(), 50);
}

TEST_P(TcpServerModeTest, LargePayloadSurvives) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  BlockData big(256 * 1024);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::byte>(i & 0xff);
  }
  auto reply = channel.call(Message{1, ClientWriteRequest{0, big}});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_TRUE(reply.value().holds<ClientWriteReply>());
}

TEST_P(TcpServerModeTest, MultipleClients) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel a("127.0.0.1", server->port());
  TcpChannel b("127.0.0.1", server->port());
  EXPECT_TRUE(a.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_TRUE(b.call(Message{2, StateInquiry{}}).is_ok());
  EXPECT_TRUE(a.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_EQ(handler.calls.load(), 3);
}

TEST_P(TcpServerModeTest, ChannelReconnectsAfterDisconnect) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  TcpChannel channel("127.0.0.1", server->port());
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  channel.disconnect();
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  EXPECT_EQ(handler.calls.load(), 2);
}

TEST_P(TcpServerModeTest, CallAfterServerStopFails) {
  EchoHandler handler;
  auto server = start_server(&handler).value();
  const std::uint16_t port = server->port();
  TcpChannel channel("127.0.0.1", port);
  ASSERT_TRUE(channel.call(Message{1, StateInquiry{}}).is_ok());
  server->stop();
  auto reply = channel.call(Message{1, StateInquiry{}});
  EXPECT_FALSE(reply.is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, TcpServerModeTest,
    ::testing::Values(
        ServerConfig{"ReactorPool", ServerOptions{}},
        ServerConfig{"ReactorInline",
                     ServerOptions{.inline_handlers = true}}),
    [](const ::testing::TestParamInfo<ServerConfig>& param) {
      return param.param.name;
    });

TEST(TcpPeerTransportTest, RoutesPerSite) {
  EchoHandler h1;
  EchoHandler h2;
  auto s1 = TcpServer::start(0, &h1).value();
  auto s2 = TcpServer::start(0, &h2).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", s2->port());

  ASSERT_TRUE(transport.call(0, 1, Message{0, StateInquiry{}}).is_ok());
  ASSERT_TRUE(transport.call(0, 2, Message{0, StateInquiry{}}).is_ok());
  EXPECT_EQ(h1.calls.load(), 1);
  EXPECT_EQ(h2.calls.load(), 1);
}

TEST(TcpPeerTransportTest, MulticastCallSkipsDeadPeers) {
  EchoHandler h1;
  auto s1 = TcpServer::start(0, &h1).value();
  TcpPeerTransport transport;
  transport.set_endpoint(1, "127.0.0.1", s1->port());
  transport.set_endpoint(2, "127.0.0.1", 1);  // nothing listens there

  auto replies = transport.multicast_call(0, SiteSet{1, 2},
                                          Message{0, StateInquiry{}});
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, 1u);
}

TEST(TcpPeerTransportTest, UnknownSiteIsUnavailable) {
  TcpPeerTransport transport;
  auto reply = transport.call(0, 5, Message{0, StateInquiry{}});
  EXPECT_EQ(reply.status().code(), reldev::ErrorCode::kUnavailable);
}

/// Answers votes at once; holds every other request until released.
class GatedHandler : public MessageHandler {
 public:
  Message handle(const Message& request) override {
    if (request.holds<VoteRequest>() || request.holds<RangeVoteRequest>()) {
      return Message{0, VoteReply{3, 1000}};
    }
    held.fetch_add(1);
    while (!released.load()) std::this_thread::sleep_for(1ms);
    return Message{0, StateInfo{SiteState::kAvailable, 7, {}}};
  }
  void handle_oneway(const Message&) override {}
  std::atomic<int> held{0};
  std::atomic<bool> released{false};
};

TEST(TcpServerDispatchTest, VotesAreAnsweredWhileEveryPoolWorkerIsBusy) {
  // One loop shard, one pool worker, and that worker stuck in a request:
  // a vote still gets its answer, because the loop answers votes itself.
  GatedHandler handler;
  auto server =
      TcpServer::start(0, &handler,
                       ServerOptions{.loop_shards = 1, .handler_threads = 1})
          .value();
  TcpChannel stuck("127.0.0.1", server->port());
  std::thread blocker(
      [&stuck] { EXPECT_TRUE(stuck.call(Message{1, StateInquiry{}}).is_ok()); });
  while (handler.held.load() == 0) std::this_thread::sleep_for(1ms);

  TcpChannel voter("127.0.0.1", server->port(), 2000ms);
  auto vote = voter.call(Message{2, VoteRequest{AccessKind::kRead, 5}});
  auto range = voter.call(Message{2, RangeVoteRequest{AccessKind::kRead, 0, 2}});
  const int held = handler.held.load();
  handler.released.store(true);
  blocker.join();

  ASSERT_TRUE(vote.is_ok()) << vote.status().to_string();
  EXPECT_TRUE(vote.value().holds<VoteReply>());
  ASSERT_TRUE(range.is_ok()) << range.status().to_string();
  EXPECT_TRUE(range.value().holds<VoteReply>());
  EXPECT_EQ(held, 1);  // nothing else reached the pool
}

/// Builds a connected stream-socket pair for framing tests.
std::pair<Socket, Socket> socket_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(FramingTest, RoundTrip) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2},
                                       std::byte{3}};
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  auto read = read_frame(b);
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value(), payload);
}

TEST(FramingTest, EmptyPayloadFrame) {
  auto [a, b] = socket_pair();
  ASSERT_TRUE(write_frame(a, {}).is_ok());
  auto read = read_frame(b);
  ASSERT_TRUE(read.is_ok());
  EXPECT_TRUE(read.value().empty());
}

TEST(FramingTest, CorruptPayloadRejected) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> payload(100, std::byte{0x42});
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  // Flip a payload byte in flight by reading raw and re-sending garbled.
  std::vector<std::byte> raw(12 + 100);
  ASSERT_TRUE(b.read_exact(raw).is_ok());
  raw[50] ^= std::byte{0xFF};
  auto [c, d] = socket_pair();
  ASSERT_TRUE(c.write_all(raw).is_ok());
  auto read = read_frame(d);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kCorruption);
}

TEST(FramingTest, BadMagicRejected) {
  auto [a, b] = socket_pair();
  const std::vector<std::byte> junk(12, std::byte{0x11});
  ASSERT_TRUE(a.write_all(junk).is_ok());
  auto read = read_frame(b);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kCorruption);
}

TEST(FramingTest, CleanEofIsUnavailable) {
  auto [a, b] = socket_pair();
  a.close();
  auto read = read_frame(b);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kUnavailable);
}

TEST(FramingTest, EofMidFrameIsIoError) {
  auto [a, b] = socket_pair();
  // A valid header promising 100 bytes, then nothing.
  const std::vector<std::byte> payload(100, std::byte{0x01});
  ASSERT_TRUE(write_frame(a, payload).is_ok());
  std::vector<std::byte> partial(12 + 10);
  ASSERT_TRUE(b.read_exact(partial).is_ok());
  auto [c, d] = socket_pair();
  ASSERT_TRUE(c.write_all(partial).is_ok());
  c.close();
  auto read = read_frame(d);
  EXPECT_EQ(read.status().code(), reldev::ErrorCode::kIoError);
}

}  // namespace
}  // namespace reldev::net::tcp
