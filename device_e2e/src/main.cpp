// device_e2e: closed-loop benchmark of the reliable device over its real
// stack. Four client threads, each with its own DriverStub, drive a 3-site
// majority-voting cluster in this process: reactor TcpServer per site, a
// TcpPeerTransport per site, VotingReplica, JournaledBlockStore files on
// the filesystem holding --dir. A bench-owned flusher group-commits every
// store every 10 ms (replicas never sync on the write path).
//
// Every read is checked against the owner's model (oracle.hpp). After the
// measured window the stores are synced, the servers stopped, the stores
// dropped without a checkpoint and reopened from their journals, and every
// block's last acknowledged payload must sit at the block's maximum
// version on a write quorum of sites.
//
// Usage: device_e2e --workload <write_4k|read_zipf|seq_range16> --seed <n>
//                   --seconds <s> --trace <0|1> --dir <scratch dir>
//                   [--inject-flip]
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics of a second, traced cluster. Stdout carries the run
// header, one line of correctness checks per cluster, and last the result
// object.
#include <fcntl.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "oracle.hpp"
#include "reldev/core/driver_stub.hpp"
#include "reldev/core/voting_replica.hpp"
#include "reldev/net/tcp/tcp_client.hpp"
#include "reldev/net/tcp/tcp_server.hpp"
#include "reldev/storage/journaled_block_store.hpp"
#include "reldev/storage/wal_journal.hpp"
#include "trace.hpp"

namespace device_e2e {
namespace {

namespace core = reldev::core;
namespace net = reldev::net;
namespace storage = reldev::storage;
namespace tcp = reldev::net::tcp;
using reldev::Result;
using reldev::Status;

// Cluster geometry and load, fixed by the benchmark definition.
constexpr std::size_t kSites = 3;
constexpr std::size_t kClients = 4;
constexpr std::size_t kBlocks = 16384;
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kStripe = kBlocks / kClients;
constexpr std::size_t kRangeBlocks = 16;
constexpr double kZipfTheta = 0.99;
constexpr auto kFlushInterval = std::chrono::milliseconds(10);
// Set-up is repeated and its median reported, so one slow start (the first
// opens after provisioning are the slowest) does not decide the figure.
constexpr int kSetups = 9;
constexpr double kWarmupSeconds = 2.0;
constexpr storage::SiteId kFirstClientId = 100;

enum class Workload { kWrite4k, kReadZipf, kSeqRange16 };

struct WorkloadSpec {
  const char* name;
  Workload kind;
  double read_share;
  std::chrono::microseconds think;  // pause after each op, per client
};

// Why each mix exists is in NOTES.md. write_4k carries a small share of
// read-backs so that every workload reports the read metrics, and a think
// time that caps its write rate: the journal applies no back-pressure, so
// saturated writes make the resident set follow the host's speed.
// seq_range16 runs on request but is not one of the benchmark's gated
// workloads.
constexpr WorkloadSpec kWorkloads[] = {
    {"write_4k", Workload::kWrite4k, 0.05, std::chrono::microseconds(1000)},
    {"read_zipf", Workload::kReadZipf, 0.90, std::chrono::microseconds(0)},
    {"seq_range16", Workload::kSeqRange16, 0.75, std::chrono::microseconds(0)},
};

struct Args {
  WorkloadSpec workload{};
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::filesystem::path dir;
  bool inject_flip = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-flip") {
      args.inject_flip = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        for (const auto& spec : kWorkloads) {
          if (value == spec.name) {
            args.workload = spec;
            have_workload = true;
          }
        }
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--dir") {
        args.dir = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || args.seconds <= 0 || args.dir.empty()) {
    return std::nullopt;
  }
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- the cluster --------------------------------------------------------------

struct Site {
  std::unique_ptr<storage::JournaledBlockStore> store;
  std::unique_ptr<TracingStore> traced_store;
  net::TrafficMeter meter;  // outlives the transport that reports to it
  std::unique_ptr<tcp::TcpPeerTransport> transport;
  std::unique_ptr<TracingTransport> traced_transport;
  std::unique_ptr<core::VotingReplica> replica;
  std::unique_ptr<TracingHandler> traced_handler;
  std::unique_ptr<tcp::TcpServer> server;
};

/// What the flusher measured while recording was on.
struct FlushStats {
  std::vector<double> commit_us;
  std::vector<double> checkpoint_us;
  std::uint64_t folded_blocks = 0;
};

std::string store_path(const std::filesystem::path& dir, std::size_t site) {
  return (dir / ("site" + std::to_string(site) + ".rdev")).string();
}

/// Run `fn(site)` for every site on its own thread; the first error wins.
template <typename Fn>
Status for_each_site(Fn fn) {
  std::vector<Status> results(kSites);
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kSites; ++s) {
    threads.emplace_back([&fn, &results, s] { results[s] = fn(s); });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& status : results) {
    if (!status.is_ok()) return status;
  }
  return Status::ok();
}

/// Provision the device: create every site's store (zero-filled and
/// synced, which is the prefill pattern) and close it again. Set-up then
/// reopens the stores, as a restarted daemon does.
Status provision(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  return for_each_site([&dir](std::size_t s) {
    return storage::JournaledBlockStore::create(store_path(dir, s), kBlocks,
                                                kBlockSize)
        .status();
  });
}

class Cluster {
 public:
  static Result<std::unique_ptr<Cluster>> start(
      const std::filesystem::path& dir, Tracer* tracer) {
    auto cluster = std::unique_ptr<Cluster>(new Cluster(dir, tracer));
    if (auto status = cluster->boot(); !status.is_ok()) return status;
    return cluster;
  }

  ~Cluster() {
    stop_flusher();
    stop_servers();
  }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint16_t port(std::size_t site) const {
    return sites_[site]->server->port();
  }
  [[nodiscard]] Site& site(std::size_t index) { return *sites_[index]; }
  [[nodiscard]] std::string store_path(std::size_t site) const {
    return device_e2e::store_path(dir_, site);
  }

  void set_recording(bool on) { recording_.store(on); }
  [[nodiscard]] FlushStats flush_stats() {
    const reldev::MutexLock lock(flush_mutex_);
    return flush_;
  }
  [[nodiscard]] Status flush_error() {
    const reldev::MutexLock lock(flush_mutex_);
    return flush_error_;
  }

  /// Group-commit every store now.
  Status sync_all() {
    for (auto& site : sites_) {
      if (auto status = site->store->sync(); !status.is_ok()) return status;
    }
    return Status::ok();
  }

  void stop_flusher() {
    stop_.store(true);
    if (flusher_.joinable()) flusher_.join();
  }

  /// Stop every server, then drop replicas and transports. The stores stay
  /// open.
  void stop_servers() {
    for (auto& site : sites_) {
      if (site->server) site->server->stop();
    }
    for (auto& site : sites_) {
      site->server.reset();
      site->traced_handler.reset();
      site->replica.reset();
      site->traced_transport.reset();
      site->transport.reset();
    }
  }

  /// Drop the stores as a crash would: no checkpoint, only what the
  /// journal holds survives.
  void drop_stores() {
    for (auto& site : sites_) {
      site->traced_store.reset();
      site->store.reset();
    }
  }

 private:
  Cluster(std::filesystem::path dir, Tracer* tracer)
      : dir_(std::move(dir)), tracer_(tracer) {}

  Status boot() {
    // Opening a store scans its whole file; do the sites in parallel.
    std::vector<std::unique_ptr<storage::JournaledBlockStore>> opened(kSites);
    if (auto status = for_each_site([this, &opened](std::size_t s) {
          auto store = storage::JournaledBlockStore::open(store_path(s));
          if (!store) return store.status();
          opened[s] = std::move(store).value();
          return Status::ok();
        });
        !status.is_ok()) {
      return status;
    }
    const auto config = core::GroupConfig::majority(kSites, kBlocks, kBlockSize);
    for (std::size_t s = 0; s < kSites; ++s) {
      auto site = std::make_unique<Site>();
      site->store = std::move(opened[s]);
      site->transport = std::make_unique<tcp::TcpPeerTransport>();
      storage::BlockStore* store = site->store.get();
      net::Transport* transport = site->transport.get();
      if (tracer_ != nullptr) {
        site->transport->set_traffic_meter(&site->meter);
        site->traced_store =
            std::make_unique<TracingStore>(*site->store, s, *tracer_);
        site->traced_transport = std::make_unique<TracingTransport>(
            *site->transport, *tracer_, /*peer_side=*/true);
        store = site->traced_store.get();
        transport = site->traced_transport.get();
      }
      site->replica = std::make_unique<core::VotingReplica>(
          static_cast<storage::SiteId>(s), config, *store, *transport);
      net::MessageHandler* handler = site->replica.get();
      if (tracer_ != nullptr) {
        site->traced_handler =
            std::make_unique<TracingHandler>(*site->replica, s, *tracer_);
        handler = site->traced_handler.get();
      }
      // The daemon's default server: reactor shards plus a handler pool.
      auto server = tcp::TcpServer::start(0, handler);
      if (!server) return server.status();
      site->server = std::move(server).value();
      sites_.push_back(std::move(site));
    }
    for (std::size_t s = 0; s < kSites; ++s) {
      for (std::size_t peer = 0; peer < kSites; ++peer) {
        if (peer == s) continue;
        sites_[s]->transport->set_endpoint(
            static_cast<storage::SiteId>(peer), "127.0.0.1", port(peer));
      }
    }
    flusher_ = std::thread([this] { flush_loop(); });
    return Status::ok();
  }

  // Group commit on a fixed period: one sync() per store per tick. A sync
  // that folded a checkpoint is timed as a checkpoint, one that committed
  // a batch as a commit, and an idle one is not counted.
  void flush_loop() {
    auto next = Clock::now();
    while (!stop_.load()) {
      next += kFlushInterval;
      for (std::size_t s = 0; s < kSites; ++s) {
        auto& store = *sites_[s]->store;
        const auto batches = store.commit_batches();
        const auto checkpoints = store.checkpoints_taken();
        const auto start = Clock::now();
        const Status status = store.sync();
        const double us =
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count();
        const bool checkpointed = store.checkpoints_taken() > checkpoints;
        const bool committed = store.commit_batches() > batches;
        const std::uint64_t folded =
            checkpointed && tracer_ != nullptr ? tracer_->take_dirty(s) : 0;
        const reldev::MutexLock lock(flush_mutex_);
        if (!status.is_ok() && flush_error_.is_ok()) flush_error_ = status;
        if (!recording_.load()) continue;
        if (checkpointed) {
          flush_.checkpoint_us.push_back(us);
          flush_.folded_blocks += folded;
        } else if (committed) {
          flush_.commit_us.push_back(us);
        }
      }
      const auto now = Clock::now();
      if (next > now) {
        std::this_thread::sleep_until(next);
      } else {
        next = now;
      }
    }
  }

  std::filesystem::path dir_;
  Tracer* tracer_;
  std::vector<std::unique_ptr<Site>> sites_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  reldev::Mutex flush_mutex_{"Cluster.flush_mutex"};
  FlushStats flush_ RELDEV_GUARDED_BY(flush_mutex_);
  Status flush_error_ RELDEV_GUARDED_BY(flush_mutex_);
  std::thread flusher_;  // last: uses everything above
};

// --- the clients ----------------------------------------------------------------

struct Sample {
  double at_s;  // start, in seconds into the measured window
  double us;    // stub latency
  bool read;
  bool ok;
};

struct ClientStats {
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t blocks_read = 0;  // blocks the oracle checked, all phases
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  std::uint64_t written_bytes = 0;  // acknowledged user bytes
  // Traced run only.
  std::vector<double> hop_us;
  std::int64_t stub_ns = 0;
  std::int64_t uncovered_ns = 0;
};

class Client {
 public:
  Client(std::size_t index, Cluster& cluster, const Args& args,
         Tracer* tracer)
      : first_(index * kStripe),
        workload_(args.workload),
        tracer_(tracer),
        stub_(client_transport(cluster, tracer), kFirstClientId + index,
              server_order(index), kBlocks, kBlockSize),
        oracle_(args.seed, static_cast<std::uint32_t>(index), first_, kStripe,
                kBlockSize),
        rng_(args.seed * 0x9e3779b97f4a7c15ull + index + 1),
        zipf_(kStripe, kZipfTheta),
        buffer_(kRangeBlocks * kBlockSize) {
    // Zipf ranks land on a seeded permutation of the stripe, so hot blocks
    // are scattered rather than packed at its start.
    for (std::size_t i = 0; i < kStripe; ++i) hot_order_.push_back(first_ + i);
    rng_.shuffle(hot_order_);
    cursor_ = rng_.uniform_u64(0, kStripe / kRangeBlocks - 1) * kRangeBlocks;
  }

  /// Closed loop until `end`. Ops that start inside [window, end) are
  /// recorded when `window` is set.
  void run(Clock::time_point end, std::optional<Clock::time_point> window,
           bool inject_flip) {
    while (Clock::now() < end) {
      one_op(window, inject_flip);
      if (workload_.think.count() > 0) {
        std::this_thread::sleep_for(workload_.think);
      }
    }
  }

  [[nodiscard]] ClientStats& stats() { return stats_; }
  [[nodiscard]] Oracle& oracle() { return oracle_; }
  [[nodiscard]] std::uint64_t pool_hits() const { return transport_->pool_hits(); }
  [[nodiscard]] std::uint64_t pool_misses() const {
    return transport_->pool_misses();
  }

 private:
  net::Transport& client_transport(Cluster& cluster, Tracer* tracer) {
    transport_ = std::make_unique<tcp::TcpPeerTransport>();
    for (std::size_t s = 0; s < kSites; ++s) {
      transport_->set_endpoint(static_cast<storage::SiteId>(s), "127.0.0.1",
                               cluster.port(s));
    }
    if (tracer == nullptr) return *transport_;
    traced_ = std::make_unique<TracingTransport>(*transport_, *tracer,
                                                 /*peer_side=*/false);
    return *traced_;
  }

  // Client i starts at site i mod 3 and fails over in ring order.
  static std::vector<storage::SiteId> server_order(std::size_t index) {
    std::vector<storage::SiteId> order;
    for (std::size_t k = 0; k < kSites; ++k) {
      order.push_back(static_cast<storage::SiteId>((index + k) % kSites));
    }
    return order;
  }

  storage::BlockId pick_block() {
    switch (workload_.kind) {
      case Workload::kWrite4k:
        return first_ + rng_.uniform_u64(0, kStripe - 1);
      case Workload::kReadZipf:
        return hot_order_[zipf_.next(rng_)];
      case Workload::kSeqRange16: {
        const storage::BlockId block = first_ + cursor_;
        cursor_ = (cursor_ + kRangeBlocks) % kStripe;
        return block;
      }
    }
    return first_;
  }

  void one_op(std::optional<Clock::time_point> window, bool inject_flip) {
    const bool read = rng_.bernoulli(workload_.read_share);
    const storage::BlockId block = pick_block();
    const std::size_t count =
        workload_.kind == Workload::kSeqRange16 ? kRangeBlocks : 1;
    const std::span<std::byte> payload(buffer_.data(), count * kBlockSize);
    std::vector<std::uint64_t> counters;
    if (!read) counters = oracle_.prepare_write(block, payload);

    std::vector<Span> spans;
    if (tracer_ != nullptr) tl_spans = &spans;
    const auto start = Clock::now();
    Result<storage::BlockData> data{storage::BlockData{}};
    Status status;
    if (read) {
      data = count == 1 ? stub_.read_block(block)
                        : stub_.read_blocks(block, count);
      status = data.status();
    } else {
      status = count == 1 ? stub_.write_block(block, payload)
                          : stub_.write_blocks(block, payload);
    }
    const auto end = Clock::now();
    tl_spans = nullptr;

    const bool recorded = window.has_value() && start >= *window;
    if (recorded) {
      ++stats_.attempted;
      if (!status.is_ok()) ++stats_.failed;
      stats_.samples.push_back(Sample{
          std::chrono::duration<double>(start - *window).count(),
          std::chrono::duration<double, std::micro>(end - start).count(), read,
          status.is_ok()});
      if (tracer_ != nullptr) {
        const Span stub_span{
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                start.time_since_epoch())
                .count(),
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                end.time_since_epoch())
                .count()};
        const std::int64_t call_ns = covered_ns(stub_span, spans);
        stats_.hop_us.push_back(
            static_cast<double>(call_ns - tracer_->coord_handle(block)) /
            1000.0);
        stats_.stub_ns += stub_span.duration();
        stats_.uncovered_ns += stub_span.duration() - call_ns;
      }
    }

    if (!read) {
      oracle_.record_write(block, counters, status.is_ok());
      if (recorded && status.is_ok()) stats_.written_bytes += payload.size();
      return;
    }
    if (!status.is_ok()) return;
    storage::BlockData& bytes = data.value();
    if (inject_flip && recorded && !flipped_) {
      bytes[kPayloadHeader + 7] ^= std::byte{0x01};
      flipped_ = true;
    }
    std::string detail;
    stats_.blocks_read += bytes.size() / kBlockSize;
    const std::size_t bad = oracle_.check_read(block, bytes, detail);
    if (bad != 0 && stats_.mismatches == 0) stats_.first_mismatch = detail;
    stats_.mismatches += bad;
  }

  storage::BlockId first_;
  WorkloadSpec workload_;
  Tracer* tracer_;
  std::unique_ptr<tcp::TcpPeerTransport> transport_;
  std::unique_ptr<TracingTransport> traced_;
  core::DriverStub stub_;
  Oracle oracle_;
  reldev::Rng rng_;
  Zipf zipf_;
  std::vector<storage::BlockId> hot_order_;
  std::size_t cursor_ = 0;
  std::vector<std::byte> buffer_;
  bool flipped_ = false;
  ClientStats stats_;
};

using Clients = std::vector<std::unique_ptr<Client>>;

/// Run every client on its own thread until the phase ends.
void run_phase(Clients& clients, double seconds,
               std::optional<Clock::time_point> window, bool inject_flip) {
  const auto begin = window.value_or(Clock::now());
  const auto end = begin + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&clients, i, end, window, inject_flip] {
      clients[i]->run(end, window, inject_flip && i == 0);
    });
  }
  for (auto& thread : threads) thread.join();
}

/// Cumulative counters, read at both edges of the measured window.
struct Counters {
  std::uint64_t frames = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t peer_messages = 0;
  std::uint64_t commits = 0;
  std::uint64_t checkpoints = 0;

  Counters operator-(const Counters& o) const {
    return Counters{frames - o.frames,           pool_hits - o.pool_hits,
                    pool_misses - o.pool_misses, peer_messages - o.peer_messages,
                    commits - o.commits,         checkpoints - o.checkpoints};
  }
};

Counters read_counters(Cluster& cluster, const Clients& clients) {
  Counters c;
  for (std::size_t s = 0; s < kSites; ++s) {
    Site& site = cluster.site(s);
    c.frames += site.server->served_frames();
    c.pool_hits += site.transport->pool_hits();
    c.pool_misses += site.transport->pool_misses();
    c.peer_messages += site.meter.total();
    c.commits += site.store->commit_batches();
    c.checkpoints += site.store->checkpoints_taken();
  }
  for (const auto& client : clients) {
    c.pool_hits += client->pool_hits();
    c.pool_misses += client->pool_misses();
  }
  return c;
}

/// Reopen every site from its files and check that each block's last
/// acknowledged payload is held at the block's maximum version by at least
/// a write quorum of sites. Returns the number of blocks that fail.
std::uint64_t check_durability(const Cluster& cluster, Clients& clients,
                               std::string& detail) {
  std::vector<std::unique_ptr<storage::JournaledBlockStore>> stores;
  for (std::size_t s = 0; s < kSites; ++s) {
    auto opened = storage::JournaledBlockStore::open(cluster.store_path(s));
    if (!opened) {
      detail = "reopen site " + std::to_string(s) + ": " +
               opened.status().to_string();
      return kBlocks;
    }
    stores.push_back(std::move(opened).value());
  }
  constexpr std::size_t kWriteQuorum = kSites / 2 + 1;
  std::uint64_t violations = 0;
  for (auto& client : clients) {
    Oracle& oracle = client->oracle();
    for (storage::BlockId b = oracle.first(); b < oracle.first() + oracle.count();
         ++b) {
      std::vector<storage::VersionedBlock> copies;
      for (auto& store : stores) {
        auto copy = store->read(b);
        if (copy) copies.push_back(std::move(copy).value());
      }
      storage::VersionNumber newest = 0;
      for (const auto& copy : copies) newest = std::max(newest, copy.version);
      std::size_t holders = 0;
      for (const auto& copy : copies) {
        if (copy.version == newest && oracle.accepts(b, copy.data)) ++holders;
      }
      if (holders < kWriteQuorum) {
        if (violations == 0) {
          detail = "block " + std::to_string(b) + " held by " +
                   std::to_string(holders) + " sites at version " +
                   std::to_string(newest);
        }
        ++violations;
      }
    }
  }
  return violations;
}

/// The oracle must reject a read with one flipped byte and accept the
/// same bytes unflipped; checked in every run.
bool oracle_rejects_flip(Oracle& oracle) {
  const storage::BlockId block = oracle.first();
  std::vector<std::byte> data(kBlockSize);
  oracle.fill(data, block, oracle.acked(block));
  const bool accepts_clean = oracle.accepts(block, data);
  data[kBlockSize / 2] ^= std::byte{0x10};
  return accepts_clean && !oracle.accepts(block, data);
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(::sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

/// Samples the resident set every 10 ms on its own thread and keeps the
/// highest value seen.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stop sampling; returns the peak in MiB.
  double stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return peak_;
  }

 private:
  void loop() {
    while (!stop_.load()) {
      peak_ = std::max(peak_, rss_mb());
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    peak_ = std::max(peak_, rss_mb());
  }

  std::atomic<bool> stop_{false};
  double peak_ = 0;  // written by the sampling thread until it is joined
  std::thread thread_;
};

/// Everything one measured cluster produced.
struct RunResult {
  std::vector<double> setup_s;
  double window_s = 0;     // the measured window as it ran
  double peak_rss_mb = 0;  // highest resident set inside the window
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t blocks_read = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t durability_violations = 0;
  std::uint64_t written_bytes = 0;
  bool oracle_self_check = false;
  std::vector<std::string> problems;
  Counters counters;
  FlushStats flush;
  std::vector<double> hop_us;
  std::int64_t stub_ns = 0;
  std::int64_t uncovered_ns = 0;

  [[nodiscard]] bool correct() const {
    return mismatches == 0 && durability_violations == 0 && oracle_self_check &&
           problems.empty();
  }
};

/// A started cluster with its clients.
struct Deployment {
  std::unique_ptr<Cluster> cluster;
  Clients clients;
};

/// Set-up as timed by setup_s: open every site's store (recovery scan and
/// journal replay), start the cluster and connect the clients.
Result<Deployment> deploy(const Args& args, const std::filesystem::path& dir,
                          Tracer* tracer) {
  Deployment d;
  auto started = Cluster::start(dir, tracer);
  if (!started) return started.status();
  d.cluster = std::move(started).value();
  for (std::size_t i = 0; i < kClients; ++i) {
    d.clients.push_back(std::make_unique<Client>(i, *d.cluster, args, tracer));
  }
  return d;
}

/// Provision the stores, set the cluster up `setups` times (the last one
/// is kept), warm it up, measure one window and run the durability check.
Result<RunResult> measure(const Args& args, Tracer* tracer, int setups,
                          const std::string& label) {
  RunResult result;
  const auto dir = args.dir / label;
  if (auto status = provision(dir); !status.is_ok()) return status;
  std::unique_ptr<Cluster> cluster;
  Clients clients;
  for (int k = 0; k < setups; ++k) {
    clients.clear();
    cluster.reset();
    const auto start = Clock::now();
    auto deployed = deploy(args, dir, tracer);
    if (!deployed) return deployed.status();
    result.setup_s.push_back(seconds_since(start));
    cluster = std::move(deployed.value().cluster);
    clients = std::move(deployed.value().clients);
  }

  run_phase(clients, kWarmupSeconds, std::nullopt, false);

  const Counters before = read_counters(*cluster, clients);
  cluster->set_recording(true);
  if (tracer != nullptr) tracer->set_active(true);
  RssSampler rss;
  const auto window = Clock::now();
  run_phase(clients, args.seconds, window, args.inject_flip);
  result.window_s = seconds_since(window);
  result.peak_rss_mb = rss.stop();
  if (tracer != nullptr) tracer->set_active(false);
  cluster->set_recording(false);
  result.counters = read_counters(*cluster, clients) - before;
  result.flush = cluster->flush_stats();

  for (auto& client : clients) {
    ClientStats& stats = client->stats();
    result.samples.insert(result.samples.end(), stats.samples.begin(),
                          stats.samples.end());
    result.attempted += stats.attempted;
    result.failed += stats.failed;
    result.blocks_read += stats.blocks_read;
    result.mismatches += stats.mismatches;
    result.written_bytes += stats.written_bytes;
    result.hop_us.insert(result.hop_us.end(), stats.hop_us.begin(),
                         stats.hop_us.end());
    result.stub_ns += stats.stub_ns;
    result.uncovered_ns += stats.uncovered_ns;
    if (!stats.first_mismatch.empty()) {
      result.problems.push_back("oracle mismatch: " + stats.first_mismatch);
    }
  }
  result.oracle_self_check = oracle_rejects_flip(clients.front()->oracle());
  if (!result.oracle_self_check) {
    result.problems.push_back("oracle accepted a flipped byte");
  }

  // Durability: final group commit, servers down, stores dropped without a
  // checkpoint, then reopen from the files.
  cluster->stop_flusher();
  if (auto status = cluster->flush_error(); !status.is_ok()) {
    result.problems.push_back("flusher: " + status.to_string());
  }
  if (auto status = cluster->sync_all(); !status.is_ok()) {
    result.problems.push_back("final sync: " + status.to_string());
  }
  cluster->stop_servers();
  cluster->drop_stores();
  std::string detail;
  result.durability_violations = check_durability(*cluster, clients, detail);
  if (result.durability_violations != 0) {
    result.problems.push_back("durability: " + detail);
  }
  clients.clear();
  cluster.reset();
  std::filesystem::remove_all(dir);
  return result;
}

// --- reporting ------------------------------------------------------------------

double fsync_latency_us(const std::filesystem::path& dir) {
  const auto path = dir / "fsync_probe";
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) return 0.0;
  std::vector<char> block(kBlockSize, 'x');
  std::vector<double> samples;
  for (int i = 0; i < 32; ++i) {
    const auto start = Clock::now();
    if (::pwrite(fd, block.data(), block.size(), 0) !=
            static_cast<ssize_t>(block.size()) ||
        ::fsync(fd) != 0) {
      break;
    }
    samples.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start).count());
  }
  ::close(fd);
  std::filesystem::remove(path);
  return median(samples);
}

std::string filesystem_type(const std::filesystem::path& dir) {
  struct statfs info {};
  if (::statfs(dir.c_str(), &info) != 0) return "unknown";
  static const std::map<unsigned long, const char*> kNames = {
      {0xEF53, "ext4"},       {0x58465342, "xfs"},     {0x9123683E, "btrfs"},
      {0x01021994, "tmpfs"},  {0x794c7630, "overlay"}, {0x2FC12FC1, "zfs"},
      {0x6969, "nfs"},        {0x65735546, "fuse"}};
  const auto it = kNames.find(static_cast<unsigned long>(info.f_type));
  if (it != kNames.end()) return it->second;
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

/// Bytes one block write appends to the journal, from the journal's own
/// record encoder.
std::size_t journal_record_bytes() {
  reldev::BufferWriter record;
  const std::vector<std::byte> block(kBlockSize);
  storage::wal_encode_block_write(record, 1, 0, 1, block);
  return record.size();
}

class Metrics {
 public:
  void add(const char* name, double value, const char* unit) {
    json_.object(name, JsonObject().number("value", value).text("unit", unit));
  }
  [[nodiscard]] const JsonObject& json() const { return json_; }

 private:
  JsonObject json_;
};

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

double median_latency_us(const RunResult& r) {
  std::vector<double> us;
  us.reserve(r.samples.size());
  for (const auto& s : r.samples) us.push_back(s.us);
  return median(us);
}

/// What one cluster's clients saw in the window, split by operation kind.
struct Latencies {
  std::vector<TimedSample> reads;
  std::vector<TimedSample> writes;
  double completed = 0;

  explicit Latencies(const RunResult& r) {
    for (const auto& s : r.samples) {
      (s.read ? reads : writes).push_back(TimedSample{s.at_s, s.us});
      if (s.ok) ++completed;
    }
  }
  static double p99(const std::vector<TimedSample>& samples) {
    std::vector<double> us;
    us.reserve(samples.size());
    for (const auto& s : samples) us.push_back(s.us);
    return percentile(std::move(us), 0.99);
  }
};

// The gated end-to-end metrics. Throughput and the p99 latencies swing with
// the load of other tenants far more than any bound allows on the hosts
// the benchmark was sized on, so they are reported ungated (see
// add_ungated and NOTES.md).
void add_end_to_end(Metrics& m, const RunResult& r) {
  const Latencies l(r);
  m.add("setup_s", median(r.setup_s), "s");
  m.add("read_p50_us", best_second_median(l.reads, r.window_s), "us");
  m.add("write_p50_us", best_second_median(l.writes, r.window_s), "us");
  m.add("peak_rss_mb", r.peak_rss_mb, "MiB");
}

void add_ungated(Metrics& m, const RunResult& r) {
  const Latencies l(r);
  m.add("e2e.ops_per_s", l.completed / r.window_s, "1/s");
  m.add("e2e.read_p99_us", Latencies::p99(l.reads), "us");
  m.add("e2e.write_p99_us", Latencies::p99(l.writes), "us");
}

void add_per_layer(Metrics& m, const RunResult& r, const Tracer& t,
                   const RunResult& untraced) {
  const double seconds = r.window_s;
  const double ops = static_cast<double>(r.attempted);
  const auto p = [&t](Series series, double q) {
    return percentile(t.samples(series), q);
  };
  const Counters& c = r.counters;
  const auto load = [](const std::atomic<std::uint64_t>& v) {
    return static_cast<double>(v.load());
  };

  m.add("tcp.client_hop_us.p50", percentile(r.hop_us, 0.50), "us");
  m.add("tcp.client_hop_us.p99", percentile(r.hop_us, 0.99), "us");
  m.add("tcp.frames_per_op", ratio(static_cast<double>(c.frames), ops), "count");
  m.add("tcp.pool_hit_ratio",
        ratio(static_cast<double>(c.pool_hits),
              static_cast<double>(c.pool_hits + c.pool_misses)),
        "ratio");

  m.add("core.coord_self_us.p50", p(Series::kCoordSelf, 0.50), "us");
  m.add("core.coord_self_us.p99", p(Series::kCoordSelf, 0.99), "us");
  m.add("core.peer_handle_us.p50", p(Series::kPeerHandle, 0.50), "us");
  m.add("core.peer_handle_us.p99", p(Series::kPeerHandle, 0.99), "us");
  m.add("core.fetch_share", ratio(load(t.fetch_reads), load(t.coord_reads)),
        "ratio");

  m.add("peer.vote_round_us.p50", p(Series::kVoteRound, 0.50), "us");
  m.add("peer.vote_round_us.p99", p(Series::kVoteRound, 0.99), "us");
  m.add("peer.push_round_us.p50", p(Series::kPushRound, 0.50), "us");
  m.add("peer.push_round_us.p99", p(Series::kPushRound, 0.99), "us");
  m.add("peer.round_net_us.p50", p(Series::kRoundNet, 0.50), "us");
  m.add("peer.round_net_us.p99", p(Series::kRoundNet, 0.99), "us");
  m.add("peer.msgs_per_op", ratio(static_cast<double>(c.peer_messages), ops),
        "count");
  m.add("peer.bytes_per_op", ratio(load(t.peer_bytes), ops), "B");
  m.add("peer.early_stop_share", ratio(load(t.early_stops), load(t.vote_rounds)),
        "ratio");

  m.add("store.write_us.p50", p(Series::kStoreWrite, 0.50), "us");
  m.add("store.write_us.p99", p(Series::kStoreWrite, 0.99), "us");
  m.add("store.read_us.p50", p(Series::kStoreRead, 0.50), "us");
  m.add("store.read_us.p99", p(Series::kStoreRead, 0.99), "us");
  m.add("store.calls_per_op", ratio(load(t.store_calls), ops), "count");
  m.add("store.commit_us.p50", percentile(r.flush.commit_us, 0.50), "us");
  m.add("store.commit_us.p99", percentile(r.flush.commit_us, 0.99), "us");
  m.add("store.checkpoint_us.p50", percentile(r.flush.checkpoint_us, 0.50),
        "us");
  m.add("store.writes_per_commit",
        ratio(load(t.store_writes), static_cast<double>(c.commits)), "count");
  m.add("store.checkpoints_per_s", static_cast<double>(c.checkpoints) / seconds,
        "1/s");
  const double journal_bytes =
      load(t.store_writes) * static_cast<double>(journal_record_bytes());
  const double folded_bytes =
      static_cast<double>(r.flush.folded_blocks * kBlockSize);
  m.add("store.bytes_per_user_byte",
        ratio(journal_bytes + folded_bytes,
              static_cast<double>(r.written_bytes)),
        "ratio");

  m.add("trace.unattributed_share",
        ratio(static_cast<double>(r.uncovered_ns),
              static_cast<double>(r.stub_ns)),
        "ratio");
  // Median stub latency of the traced cluster over the untraced one's; the
  // two clusters run one after the other, so host drift between them
  // enters too.
  m.add("trace.overhead",
        ratio(median_latency_us(r), median_latency_us(untraced)) - 1.0,
        "ratio");
}

/// The correctness checks of one cluster, its sample counts and its
/// ungated figures: printed as a stdout line before the result, details of
/// any failure on stderr.
void report_checks(const RunResult& r, const char* label) {
  for (const auto& problem : r.problems) {
    std::cerr << "device_e2e: " << label << " run: " << problem << '\n';
  }
  const JsonObject checks =
      JsonObject()
          .integer("blocks_read_checked", r.blocks_read)
          .integer("oracle_mismatches", r.mismatches)
          .integer("blocks_durability_checked", kBlocks)
          .integer("durability_violations", r.durability_violations)
          .boolean("oracle_rejects_flipped_byte", r.oracle_self_check);
  const Latencies l(r);
  Metrics ungated;
  add_ungated(ungated, r);
  std::cout << JsonObject()
                   .text("cluster", label)
                   .object("checks", checks)
                   .object("samples", JsonObject()
                                          .integer("reads", l.reads.size())
                                          .integer("writes", l.writes.size()))
                   .object("ungated", ungated.json())
                   .dump()
            << std::endl;
}

int run(const Args& args) {
  std::filesystem::create_directories(args.dir);
  JsonObject cluster_info;
  cluster_info.text("scheme", "voting")
      .text("quorum", "majority")
      .integer("sites", kSites)
      .integer("blocks_per_site", kBlocks)
      .integer("block_size", kBlockSize)
      .integer("clients", kClients)
      .integer("stripe_blocks", kStripe)
      .integer("range_blocks", kRangeBlocks)
      .number("zipf_theta", kZipfTheta)
      .text("server", "reactor TcpServer, default ServerOptions")
      .text("journal", "JournaledBlockStore, default JournalOptions");
  JsonObject header;
  header.text("benchmark", "device_e2e")
      .text("workload", args.workload.name)
      .integer("seed", args.seed)
      .number("seconds", args.seconds)
      .boolean("trace", args.trace)
      .number("read_share", args.workload.read_share)
      .integer("think_us",
               static_cast<std::uint64_t>(args.workload.think.count()))
      .text("p50_estimator", "lowest median of a whole second")
      .number("warmup_s", kWarmupSeconds)
      .number("fsync_latency_us", fsync_latency_us(args.dir))
      .integer("nproc", std::thread::hardware_concurrency())
      .text("filesystem", filesystem_type(args.dir))
      .number("flush_interval_ms",
              static_cast<double>(kFlushInterval.count()))
      .object("cluster", cluster_info);
  std::cout << JsonObject().object("header", header).dump() << std::endl;

  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  const auto account = [&](const RunResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    correct = correct && r.correct();
    report_checks(r, label);
  };

  auto untraced = measure(args, nullptr, args.trace ? 1 : kSetups, "plain");
  if (!untraced) {
    std::cerr << "device_e2e: " << untraced.status().to_string() << '\n';
    return 1;
  }
  account(untraced.value(), "untraced");
  if (!args.trace) {
    add_end_to_end(metrics, untraced.value());
  } else {
    Tracer tracer(kSites, kBlocks);
    auto traced = measure(args, &tracer, 1, "traced");
    if (!traced) {
      std::cerr << "device_e2e: " << traced.status().to_string() << '\n';
      return 1;
    }
    account(traced.value(), "traced");
    add_ungated(metrics, untraced.value());
    add_per_layer(metrics, traced.value(), tracer, untraced.value());
  }

  std::cout << JsonObject()
                   .boolean("correct", correct)
                   .integer("attempted", attempted)
                   .integer("failed", failed)
                   .object("metrics", metrics.json())
                   .dump()
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace device_e2e

int main(int argc, char** argv) {
  const auto args = device_e2e::parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: device_e2e --workload <write_4k|read_zipf|seq_range16>"
                 " --seed <n> --seconds <s> --trace <0|1> --dir <path>"
                 " [--inject-flip]\n";
    return 2;
  }
  return device_e2e::run(*args);
}
