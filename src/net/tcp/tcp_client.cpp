#include "reldev/net/tcp/tcp_client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>
#include <span>
#include <utility>

#include "reldev/util/lockdep.hpp"

namespace reldev::net::tcp {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

TcpChannel::TcpChannel(std::string host, std::uint16_t port,
                       std::chrono::milliseconds timeout,
                       const PoolOptions& pool)
    : host_(std::move(host)), port_(port), timeout_(timeout), pool_(pool) {}

void TcpChannel::set_timeout(std::chrono::milliseconds timeout) {
  const MutexLock lock(mutex_);
  timeout_ = timeout;
}

std::chrono::milliseconds TcpChannel::timeout() const {
  const MutexLock lock(mutex_);
  return timeout_;
}

void TcpChannel::disconnect() {
  const MutexLock lock(mutex_);
  idle_.clear();
}

void TcpChannel::set_pool_options(const PoolOptions& pool) {
  const MutexLock lock(mutex_);
  pool_ = pool;
  evict_locked();
}

std::size_t TcpChannel::idle_connections() const {
  const MutexLock lock(mutex_);
  return idle_.size();
}

void TcpChannel::evict_locked() {
  // Age first: entries are LIFO, so the stalest live at the front.
  if (pool_.max_idle_age.count() > 0) {
    const auto cutoff = Clock::now() - pool_.max_idle_age;
    std::size_t expired = 0;
    while (expired < idle_.size() && idle_[expired].since < cutoff) ++expired;
    idle_.erase(idle_.begin(),
                idle_.begin() + static_cast<std::ptrdiff_t>(expired));
  }
  if (idle_.size() > pool_.max_idle) {
    idle_.erase(idle_.begin(),
                idle_.begin() +
                    static_cast<std::ptrdiff_t>(idle_.size() - pool_.max_idle));
  }
}

void TcpChannel::release(Socket socket) {
  if (!socket.valid()) return;
  const MutexLock lock(mutex_);
  if (idle_.size() < pool_.max_idle) {
    idle_.push_back(IdleSocket{std::move(socket), Clock::now()});
  }
}

void TcpChannel::owe(Owed owed) {
  const MutexLock lock(mutex_);
  owed_.push_back(std::move(owed));
}

/// One scatter-gather round, driven by the calling thread: the request
/// frame goes out on one socket per target, then a single poll() loop over
/// those sockets completes connects, finishes partial writes and reads the
/// replies, until the early-stop predicate holds, every target is settled,
/// or each target's deadline passes. Nothing here holds a lock across a
/// syscall: the channel's pool lock guards only list operations.
class Gather {
 public:
  struct Target {
    SiteId site;
    TcpChannel* channel;
  };

  /// One round from the calling thread: the requests are metered at once
  /// and each reply as it lands, all under the meter and operation active
  /// now — a straggler's late reply included.
  static Gather round(std::span<const Target> targets, const Message& request,
                      TrafficMeter* meter, const EarlyStop& early_stop) {
    const OpKind kind =
        meter != nullptr ? meter->current_op() : OpKind::kOther;
    if (meter != nullptr) meter->add_for(kind, targets.size());
    Gather gather(targets, request, meter, kind);
    gather.run(early_stop);
    return gather;
  }

  /// Replies in arrival order.
  std::vector<GatherReply>& replies() { return replies_; }

  /// A gather of one: its reply, or why there is none.
  static Result<Message> call_one(SiteId site, TcpChannel& channel,
                                  const Message& request,
                                  TrafficMeter* meter) {
    const Target target{site, &channel};
    Gather gather = round(std::span<const Target>(&target, 1), request, meter,
                          EarlyStop{});
    if (!gather.replies_.empty()) {
      return std::move(gather.replies_.front().second);
    }
    return gather.legs_.front().error;
  }

  /// Whether a reader finished its frame, is waiting for more bytes, or
  /// (as a Status) failed.
  enum class ReadStep { kMore, kDone };

  /// Read whatever has arrived of one reply frame, without blocking. kDone
  /// once the whole frame is in and its CRC verified (the payload is then
  /// `reader.body` minus the trailer); kMore when the socket ran dry.
  /// Errors: kUnavailable on EOF at the frame boundary, kIoError mid-frame
  /// or on a socket error, kCorruption on bad magic or CRC, kProtocol on an
  /// oversized length.
  static Result<ReadStep> read_some(int fd, TcpChannel::ReplyReader& reader) {
    lockdep::check_blocking("recv");
    for (;;) {
      const std::span<std::byte> part =
          reader.in_body ? std::span<std::byte>(reader.body)
                         : std::span<std::byte>(reader.prefix);
      const ssize_t n = ::recv(fd, part.data() + reader.got,
                               part.size() - reader.got, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStep::kMore;
        return errors::io_error(std::string("recv: ") + std::strerror(errno));
      }
      if (n == 0) {
        if (!reader.in_body && reader.got == 0) {
          return errors::unavailable("peer closed the connection");
        }
        return errors::io_error("connection closed mid-frame");
      }
      reader.got += static_cast<std::size_t>(n);
      if (reader.got < part.size()) continue;
      if (!reader.in_body) {
        auto length = parse_frame_prefix(reader.prefix);
        if (!length) return length.status();
        reader.body.resize(length.value() + kFrameTrailerSize);
        reader.in_body = true;
        reader.got = 0;
        continue;
      }
      const std::size_t length = reader.body.size() - kFrameTrailerSize;
      const std::uint32_t crc = decode_frame_trailer(
          std::span<const std::byte>(reader.body).subspan(length));
      if (frame_crc(reader.prefix,
                    std::span<const std::byte>(reader.body).first(length)) !=
          crc) {
        return errors::corruption("frame CRC mismatch");
      }
      return ReadStep::kDone;
    }
  }

  /// Decode a finished reader's payload.
  static Result<Message> decode(const TcpChannel::ReplyReader& reader) {
    return Message::decode(std::span<const std::byte>(reader.body)
                               .first(reader.body.size() - kFrameTrailerSize));
  }

  /// Read what has arrived of an owed reply, without blocking, and meter
  /// it into its round's meter once it is whole. An error means the
  /// socket is dead and nothing is metered.
  static Result<ReadStep> settle(TcpChannel::Owed& owed) {
    auto step = read_some(owed.socket.fd(), owed.reader);
    if (step && step.value() == ReadStep::kDone && decode(owed.reader) &&
        owed.meter != nullptr) {
      owed.meter->add_for(owed.kind, 1);
    }
    return step;
  }

  /// poll() timeout for the time left, rounded up so a sub-millisecond
  /// remainder waits instead of spinning.
  static int poll_ms(Clock::duration remaining) {
    if (remaining <= Clock::duration::zero()) return 0;
    const auto ms =
        std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
    return static_cast<int>(
        std::min<std::int64_t>(ms, std::numeric_limits<int>::max()));
  }

 private:
  enum class Phase { kStart, kConnecting, kWriting, kReading, kDone };

  struct Leg {
    SiteId site = 0;
    TcpChannel* channel = nullptr;
    Clock::time_point deadline;
    Phase phase = Phase::kStart;
    Socket socket;
    bool pooled = false;
    std::size_t written = 0;
    TcpChannel::ReplyReader reader;
    Status error = Status::ok();
  };

  Gather(std::span<const Target> targets, const Message& request,
         TrafficMeter* meter, OpKind kind)
      : meter_(meter), kind_(kind) {
    auto frame = encode_frame(request.encode());
    const auto now = Clock::now();
    legs_.reserve(targets.size());
    for (const Target& target : targets) {
      Leg& leg = legs_.emplace_back();
      leg.site = target.site;
      leg.channel = target.channel;
      leg.deadline = now + target.channel->timeout();
      if (!frame) {
        leg.error = frame.status();
        leg.phase = Phase::kDone;
      }
    }
    if (frame) frame_ = std::move(frame).value();
  }

  /// Run the round. Targets still unanswered when it ends are parked as
  /// owed on their channel if their frame is fully written (the request
  /// may be executing; its reply is still metered later), else closed
  /// (the request never fully left, so it cannot execute).
  void run(const EarlyStop& early_stop) {
    for (Leg& leg : legs_) {
      if (leg.phase == Phase::kStart) start(leg);
    }
    std::vector<pollfd> fds;
    std::vector<Leg*> polled;
    bool fresh = true;  // replies_ changed since the predicate last ran
    for (;;) {
      if (early_stop && fresh && early_stop(replies_)) break;
      fresh = false;
      fds.clear();
      polled.clear();
      const auto now = Clock::now();
      auto wake = Clock::time_point::max();
      for (Leg& leg : legs_) {
        if (leg.phase == Phase::kDone) continue;
        if (now >= leg.deadline) {
          fail(leg, errors::unavailable("call to " + endpoint(leg) +
                                        " timed out"));
          continue;
        }
        const short events = leg.phase == Phase::kReading ? POLLIN : POLLOUT;
        fds.push_back(pollfd{leg.socket.fd(), events, 0});
        polled.push_back(&leg);
        wake = std::min(wake, leg.deadline);
      }
      if (fds.empty()) break;
      lockdep::check_blocking("poll");
      const int rc = ::poll(fds.data(), fds.size(), poll_ms(wake - now));
      if (rc < 0) {
        if (errno == EINTR) continue;
        const Status status = errors::io_error(
            std::string("poll: ") + std::strerror(errno));
        for (Leg* leg : polled) fail(*leg, status);
        break;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        const std::size_t before = replies_.size();
        advance(*polled[i]);
        fresh = fresh || replies_.size() != before;
      }
    }
    for (Leg& leg : legs_) {
      if (leg.phase == Phase::kReading) {
        leg.channel->owe(TcpChannel::Owed{std::move(leg.socket),
                                          std::move(leg.reader), leg.deadline,
                                          meter_, kind_});
      }
      if (leg.phase != Phase::kDone) {
        fail(leg, errors::unavailable("call to " + endpoint(leg) +
                                      " abandoned after an early stop"));
      }
    }
  }

  static std::string endpoint(const Leg& leg) {
    return leg.channel->host_ + ":" + std::to_string(leg.channel->port_);
  }

  void fail(Leg& leg, Status status) {
    leg.socket.close();
    leg.error = std::move(status);
    leg.phase = Phase::kDone;
  }

  /// Give the leg a socket — a live pooled one, written to at once, or a
  /// fresh non-blocking connect that the poll loop completes.
  void start(Leg& leg) {
    for (;;) {
      if (auto idle = leg.channel->take_idle()) {
        leg.socket = std::move(*idle);
        leg.pooled = true;
        leg.written = 0;
        if (stale(leg.socket)) continue;  // nothing written: try another
        leg.phase = Phase::kWriting;
        write(leg);
        return;
      }
      leg.channel->count_miss();
      auto connected =
          Socket::connect_async(leg.channel->host_, leg.channel->port_);
      if (!connected) {
        fail(leg, connected.status());
        return;
      }
      leg.socket = std::move(connected).value();
      leg.pooled = false;
      leg.written = 0;
      leg.phase = Phase::kConnecting;
      return;
    }
  }

  /// A pooled socket is stale when its peer has closed it (a server
  /// restart, an idle reap) or it holds stray bytes: either way it shows
  /// readable before any request went out on it.
  static bool stale(const Socket& socket) {
    std::byte probe{};
    lockdep::check_blocking("recv");
    const ssize_t n =
        ::recv(socket.fd(), &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    return !(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK));
  }

  void write(Leg& leg) {
    lockdep::check_blocking("send");
    while (leg.written < frame_.size()) {
      const ssize_t n = ::send(leg.socket.fd(), frame_.data() + leg.written,
                               frame_.size() - leg.written, MSG_NOSIGNAL);
      if (n >= 0) {
        leg.written += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;  // poll POLLOUT
      // Not delivered: the server decodes nothing before a complete frame,
      // so a failed write on a pooled socket (stale after a restart) is
      // safely resent on another. A fresh connection failing is real.
      const std::string why = std::strerror(errno);
      if (leg.pooled && Clock::now() < leg.deadline) {
        leg.socket.close();
        start(leg);
        return;
      }
      fail(leg, errors::unavailable("send to " + endpoint(leg) +
                                    " failed: " + why));
      return;
    }
    leg.phase = Phase::kReading;
  }

  void advance(Leg& leg) {
    switch (leg.phase) {
      case Phase::kConnecting: {
        if (auto status = leg.socket.connect_result(); !status.is_ok()) {
          fail(leg, errors::unavailable("connect to " + endpoint(leg) + ": " +
                                        status.message()));
          return;
        }
        leg.phase = Phase::kWriting;
        write(leg);
        return;
      }
      case Phase::kWriting:
        write(leg);
        return;
      case Phase::kReading:
        read(leg);
        return;
      case Phase::kStart:
      case Phase::kDone:
        return;
    }
  }

  void read(Leg& leg) {
    auto step = read_some(leg.socket.fd(), leg.reader);
    if (!step) {
      // Delivered but unanswered: the server may have executed the
      // request. A CRC reject stays the typed kCorruption; the caller's
      // retry policy decides the rest.
      Status status = step.status();
      if (status.code() != ErrorCode::kCorruption) {
        status = errors::unavailable("reply from " + endpoint(leg) +
                                     " failed: " + status.to_string());
      }
      fail(leg, std::move(status));
      return;
    }
    if (step.value() == ReadStep::kMore) return;
    auto reply = decode(leg.reader);
    leg.channel->release(std::move(leg.socket));
    leg.phase = Phase::kDone;
    if (!reply) {
      leg.error = reply.status();
      return;
    }
    if (meter_ != nullptr) meter_->add_for(kind_, 1);
    replies_.emplace_back(leg.site, std::move(reply).value());
  }

  std::vector<std::byte> frame_;  // the encoded request, sent to every leg
  TrafficMeter* meter_;
  OpKind kind_;
  std::vector<Leg> legs_;
  std::vector<GatherReply> replies_;
};

std::optional<Socket> TcpChannel::pop_idle_locked() {
  evict_locked();
  if (idle_.empty()) return std::nullopt;
  Socket socket = std::move(idle_.back().socket);
  idle_.pop_back();
  pool_hits_.fetch_add(1);
  return socket;
}

std::optional<Socket> TcpChannel::take_idle() {
  std::vector<Owed> owed;
  {
    const MutexLock lock(mutex_);
    if (owed_.empty()) return pop_idle_locked();
    owed.swap(owed_);
  }
  // Settle stragglers from earlier rounds: a reply that has arrived is
  // metered into its round's meter and its socket rejoins the pool; one
  // past its deadline is closed unmetered, like a timed-out call.
  std::vector<Socket> answered;
  std::vector<Owed> waiting;
  const auto now = Clock::now();
  for (Owed& entry : owed) {
    auto step = Gather::settle(entry);
    if (!step) continue;  // failed: closed, nothing to meter
    if (step.value() == Gather::ReadStep::kDone) {
      answered.push_back(std::move(entry.socket));
    } else if (now < entry.deadline) {
      waiting.push_back(std::move(entry));
    }
  }
  const MutexLock lock(mutex_);
  for (Owed& entry : waiting) owed_.push_back(std::move(entry));
  for (Socket& socket : answered) {
    if (idle_.size() < pool_.max_idle) {
      idle_.push_back(IdleSocket{std::move(socket), now});
    }
  }
  return pop_idle_locked();
}

void TcpChannel::drain_owed() {
  std::vector<Owed> owed;
  {
    const MutexLock lock(mutex_);
    owed.swap(owed_);
  }
  // Deadlines are absolute and the replies travel in parallel, so waiting
  // for them one after another costs no more than the latest deadline.
  for (Owed& entry : owed) {
    for (;;) {
      auto step = Gather::settle(entry);
      if (!step || step.value() == Gather::ReadStep::kDone) break;
      const auto remaining = entry.deadline - Clock::now();
      if (remaining <= Clock::duration::zero()) break;
      pollfd waiter{entry.socket.fd(), POLLIN, 0};
      lockdep::check_blocking("poll");
      if (::poll(&waiter, 1, Gather::poll_ms(remaining)) < 0 &&
          errno != EINTR) {
        break;
      }
    }
  }
}

Result<Message> TcpChannel::call(const Message& request) {
  return Gather::call_one(0, *this, request, nullptr);
}

TcpPeerTransport::~TcpPeerTransport() {
  std::vector<std::shared_ptr<TcpChannel>> channels;
  {
    const MutexLock lock(mutex_);
    for (const auto& [site, channel] : channels_) channels.push_back(channel);
  }
  for (const auto& channel : channels) channel->drain_owed();
}

void TcpPeerTransport::set_endpoint(SiteId site, const std::string& host,
                                    std::uint16_t port) {
  const MutexLock lock(mutex_);
  channels_[site] =
      std::make_shared<TcpChannel>(host, port, call_timeout_, pool_options_);
}

void TcpPeerTransport::remove_endpoint(SiteId site) {
  const MutexLock lock(mutex_);
  channels_.erase(site);
}

void TcpPeerTransport::set_call_timeout(std::chrono::milliseconds timeout) {
  const MutexLock lock(mutex_);
  call_timeout_ = timeout;
  for (auto& [site, channel] : channels_) channel->set_timeout(timeout);
}

void TcpPeerTransport::set_pool_options(const PoolOptions& pool) {
  const MutexLock lock(mutex_);
  pool_options_ = pool;
  for (auto& [site, channel] : channels_) channel->set_pool_options(pool);
}

std::uint64_t TcpPeerTransport::pool_hits() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, channel] : channels_) total += channel->pool_hits();
  return total;
}

std::uint64_t TcpPeerTransport::pool_misses() const {
  const MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [site, channel] : channels_) {
    total += channel->pool_misses();
  }
  return total;
}

std::shared_ptr<TcpChannel> TcpPeerTransport::channel(SiteId site) {
  const MutexLock lock(mutex_);
  auto it = channels_.find(site);
  return it == channels_.end() ? nullptr : it->second;
}

std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>>
TcpPeerTransport::channels_for(SiteId from, const SiteSet& to) {
  std::vector<std::pair<SiteId, std::shared_ptr<TcpChannel>>> targets;
  const MutexLock lock(mutex_);
  for (const SiteId dest : to) {
    if (dest == from) continue;
    auto it = channels_.find(dest);
    if (it == channels_.end()) continue;
    targets.emplace_back(dest, it->second);
  }
  return targets;
}

Result<Message> TcpPeerTransport::call(SiteId /*from*/, SiteId to,
                                       const Message& request) {
  auto ch = channel(to);
  if (ch == nullptr) {
    return errors::unavailable("no endpoint for site " + std::to_string(to));
  }
  TrafficMeter* const meter = meter_.load(std::memory_order_acquire);
  return Gather::call_one(to, *ch, request, meter);
}

Status TcpPeerTransport::send(SiteId from, SiteId to, const Message& message) {
  // TCP servers always reply; one-way semantics are "call and discard".
  // Unreachable peers are fine: fail-stop peers simply miss the message.
  auto reply = call(from, to, message);
  reply.ignore_error();
  return Status::ok();
}

Status TcpPeerTransport::multicast(SiteId from, const SiteSet& to,
                                   const Message& message) {
  // A full gather with the replies discarded: the round costs the slowest
  // peer's round trip, not the sum, and the acks are in before we return
  // (the engines rely on pushed writes being applied when multicast ends).
  (void)multicast_call(from, to, message, EarlyStop{});
  return Status::ok();
}

std::vector<GatherReply> TcpPeerTransport::multicast_call(
    SiteId from, const SiteSet& to, const Message& request,
    const EarlyStop& early_stop) {
  const auto targets = channels_for(from, to);
  if (targets.empty()) return {};
  std::vector<Gather::Target> legs;
  legs.reserve(targets.size());
  for (const auto& [site, ch] : targets) {
    legs.push_back(Gather::Target{site, ch.get()});
  }
  return std::move(Gather::round(legs, request,
                                 meter_.load(std::memory_order_acquire),
                                 early_stop)
                       .replies());
}

}  // namespace reldev::net::tcp
