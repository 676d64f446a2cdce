// A real multi-process-shaped deployment in one test binary: three site
// servers behind TCP, replicas talking to each other through
// TcpPeerTransport, and a client driving block I/O through the DriverStub
// over the same wire protocol — the full Figure 1/2 picture.
#include <gtest/gtest.h>

#include <thread>

#include "reldev/core/driver_stub.hpp"
#include "reldev/core/group.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"

namespace reldev::core {
namespace {

storage::BlockData payload(std::size_t size, std::uint8_t seed) {
  return storage::BlockData(size, static_cast<std::byte>(seed));
}

/// Three AC replicas, each "hosted" behind its own TCP server, with a
/// shared peer transport for inter-site traffic.
class TcpGroupTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBlocks = 4;
  static constexpr std::size_t kBlockSize = 64;

  void SetUp() override {
    config_ = GroupConfig::majority(3, kBlocks, kBlockSize);
    for (SiteId site = 0; site < 3; ++site) {
      stores_.push_back(
          std::make_unique<storage::MemBlockStore>(kBlocks, kBlockSize));
      replicas_.push_back(std::make_unique<AvailableCopyReplica>(
          site, config_, *stores_.back(), transport_));
    }
    for (SiteId site = 0; site < 3; ++site) {
      auto server = net::tcp::TcpServer::start(0, replicas_[site].get());
      ASSERT_TRUE(server.is_ok());
      transport_.set_endpoint(site, "127.0.0.1", server.value()->port());
      servers_.push_back(std::move(server).value());
    }
  }

  GroupConfig config_;
  net::tcp::TcpPeerTransport transport_;
  std::vector<std::unique_ptr<storage::MemBlockStore>> stores_;
  std::vector<std::unique_ptr<AvailableCopyReplica>> replicas_;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers_;
};

TEST_F(TcpGroupTest, WriteReplicatesOverRealSockets) {
  const auto data = payload(kBlockSize, 5);
  ASSERT_TRUE(replicas_[0]->write(1, data).is_ok());
  // Every store received the write through TCP.
  for (SiteId site = 0; site < 3; ++site) {
    EXPECT_EQ(stores_[site]->read(1).value().data, data) << "site " << site;
  }
}

TEST_F(TcpGroupTest, ClientStubOverTcp) {
  auto stub = DriverStub::connect(transport_, 100, {0, 1, 2});
  ASSERT_TRUE(stub.is_ok()) << stub.status().to_string();
  EXPECT_EQ(stub.value().block_count(), kBlocks);
  const auto data = payload(kBlockSize, 6);
  ASSERT_TRUE(stub.value().write_block(2, data).is_ok());
  EXPECT_EQ(stub.value().read_block(2).value(), data);
}

TEST_F(TcpGroupTest, ClientFailsOverWhenServerDies) {
  auto stub = DriverStub::connect(transport_, 100, {0, 1, 2}).value();
  const auto data = payload(kBlockSize, 7);
  ASSERT_TRUE(stub.write_block(0, data).is_ok());
  // Kill server 0's process stand-in.
  replicas_[0]->crash();
  servers_[0]->stop();
  EXPECT_EQ(stub.read_block(0).value(), data);
  EXPECT_NE(stub.last_server(), 0u);
}

TEST_F(TcpGroupTest, SiteRecoversOverTcpAfterMissingWrites) {
  const auto old_data = payload(kBlockSize, 8);
  ASSERT_TRUE(replicas_[0]->write(3, old_data).is_ok());
  // Site 2 "crashes" (stays reachable at the TCP level, but fail-stopped:
  // its replica refuses everything).
  replicas_[2]->crash();
  const auto new_data = payload(kBlockSize, 9);
  ASSERT_TRUE(replicas_[0]->write(3, new_data).is_ok());
  EXPECT_EQ(stores_[2]->read(3).value().data, old_data);  // missed it
  // Recovery over TCP: state inquiry, version vectors, block transfer.
  ASSERT_TRUE(replicas_[2]->recover().is_ok());
  EXPECT_EQ(replicas_[2]->state(), SiteState::kAvailable);
  EXPECT_EQ(stores_[2]->read(3).value().data, new_data);
}

/// Five voting replicas behind TCP: the push after a write travels as a
/// call (request/reply transports have no one-way send), and reads stop
/// gathering votes at the read quorum.
class TcpVotingGroupTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kBlocks = 4;
  static constexpr std::size_t kBlockSize = 64;
  static constexpr std::size_t kSites = 5;

  void SetUp() override {
    config_ = GroupConfig::majority(kSites, kBlocks, kBlockSize);
    for (SiteId site = 0; site < kSites; ++site) {
      stores_.push_back(
          std::make_unique<storage::MemBlockStore>(kBlocks, kBlockSize));
      replicas_.push_back(std::make_unique<VotingReplica>(
          site, config_, *stores_.back(), transport_));
    }
    for (SiteId site = 0; site < kSites; ++site) {
      auto server = net::tcp::TcpServer::start(0, replicas_[site].get());
      ASSERT_TRUE(server.is_ok());
      transport_.set_endpoint(site, "127.0.0.1", server.value()->port());
      servers_.push_back(std::move(server).value());
    }
  }

  GroupConfig config_;
  net::tcp::TcpPeerTransport transport_;
  std::vector<std::unique_ptr<storage::MemBlockStore>> stores_;
  std::vector<std::unique_ptr<VotingReplica>> replicas_;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers_;
};

TEST_F(TcpVotingGroupTest, WritePushReplicatesOverRealSockets) {
  // Regression: the BlockUpdate push used to be dropped over TCP (the
  // server routed it to handle_peer, which rejected it), leaving every
  // peer permanently stale — unnoticed while full-gather reads always
  // polled the coordinator, fatal once early-stopped reads could assemble
  // a quorum that excludes it.
  const auto data = payload(kBlockSize, 11);
  ASSERT_TRUE(replicas_[0]->write(1, data).is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(stores_[site]->read(1).value().data, data) << "site " << site;
  }
}

TEST_F(TcpVotingGroupTest, EarlyStopReadThroughEverySiteSeesNewestVersion) {
  const auto v1 = payload(kBlockSize, 12);
  const auto v2 = payload(kBlockSize, 13);
  ASSERT_TRUE(replicas_[0]->write(2, v1).is_ok());
  ASSERT_TRUE(replicas_[0]->write(2, v2).is_ok());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(replicas_[site]->read(2).value(), v2) << "site " << site;
  }
}

TEST_F(TcpGroupTest, FailedReplicaAnswersNothing) {
  replicas_[1]->crash();
  // Direct client call to the failed site: server responds with an error
  // reply (defense in depth), and the caller treats it as unavailable.
  net::tcp::TcpChannel channel("127.0.0.1", servers_[1]->port());
  auto reply = channel.call(
      net::Message{100, net::ClientReadRequest{0}});
  ASSERT_TRUE(reply.is_ok());
  EXPECT_TRUE(reply.value().holds<net::ErrorReply>());
}

/// Four client threads over a three-site voting group on TCP, each owning
/// its own blocks and each coordinated by a different site first. Reads
/// stop gathering votes at the read quorum, so stragglers' sockets are
/// parked as owed and reused across concurrent rounds, and vote requests
/// are answered on the servers' loops while pushes run on their pools.
/// Whatever the interleaving, a read must return the owner's last
/// acknowledged write.
TEST(TcpVotingClientsTest, ConcurrentOwnersReadTheirLastAcknowledgedWrite) {
  constexpr std::size_t kSites = 3;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kBlocks = 16;
  constexpr std::size_t kBlockSize = 64;
  constexpr int kOpsPerClient = 200;

  const auto config = GroupConfig::majority(kSites, kBlocks, kBlockSize);
  net::tcp::TcpPeerTransport peers;
  std::vector<std::unique_ptr<storage::MemBlockStore>> stores;
  std::vector<std::unique_ptr<VotingReplica>> replicas;
  std::vector<std::unique_ptr<net::tcp::TcpServer>> servers;
  for (SiteId site = 0; site < kSites; ++site) {
    stores.push_back(
        std::make_unique<storage::MemBlockStore>(kBlocks, kBlockSize));
    replicas.push_back(std::make_unique<VotingReplica>(site, config,
                                                       *stores.back(), peers));
  }
  for (SiteId site = 0; site < kSites; ++site) {
    auto server = net::tcp::TcpServer::start(0, replicas[site].get());
    ASSERT_TRUE(server.is_ok());
    peers.set_endpoint(site, "127.0.0.1", server.value()->port());
    servers.push_back(std::move(server).value());
  }

  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::tcp::TcpPeerTransport transport;
      std::vector<SiteId> order;
      for (std::size_t k = 0; k < kSites; ++k) {
        const auto site = static_cast<SiteId>((c + k) % kSites);
        transport.set_endpoint(site, "127.0.0.1", servers[site]->port());
        order.push_back(site);
      }
      auto stub = DriverStub::connect(transport, static_cast<SiteId>(100 + c),
                                      order);
      if (!stub) {
        failures.fetch_add(1);
        return;
      }
      // Blocks c, c + kClients, ...: this client is their only writer.
      std::vector<storage::BlockData> last(kBlocks / kClients,
                                           storage::BlockData(kBlockSize));
      for (int op = 0; op < kOpsPerClient; ++op) {
        const std::size_t slot = static_cast<std::size_t>(op * 7 + 3) %
                                 last.size();
        const BlockId block = c + slot * kClients;
        if (op % 3 == 0) {
          auto data = payload(kBlockSize, static_cast<std::uint8_t>(op));
          data[0] = static_cast<std::byte>(c);
          if (!stub.value().write_block(block, data).is_ok()) {
            failures.fetch_add(1);
            continue;
          }
          last[slot] = std::move(data);
        } else {
          auto read = stub.value().read_block(block);
          if (!read) {
            failures.fetch_add(1);
          } else if (read.value() != last[slot]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  for (auto& server : servers) server->stop();
}

}  // namespace
}  // namespace reldev::core
