#include "reldev/storage/journaled_block_store.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "reldev/util/assert.hpp"
#include "reldev/util/logging.hpp"
#include "reldev/util/serial.hpp"

namespace reldev::storage {

JournaledBlockStore::JournaledBlockStore(std::unique_ptr<FileBlockStore> inner,
                                         std::unique_ptr<WalJournal> journal,
                                         JournalOptions options)
    : block_count_(inner->block_count()),
      block_size_(inner->block_size()),
      options_(options),
      inner_(std::move(inner)),
      journal_(std::move(journal)),
      versions_(block_count_, 0) {
  journal_size_ = journal_->size();
}

JournaledBlockStore::~JournaledBlockStore() = default;

namespace {

/// A checkpoint has just freed its folded generation — up to
/// checkpoint_bytes of block payloads, spread over the heaps of every
/// thread that wrote them. glibc keeps freed heap memory resident until a
/// heap's top is free, so without a trim the process keeps the write-back
/// table's high-water mark (and any other freed memory stranded below live
/// data) for good. Called with no lock held; a no-op off glibc.
void release_folded_memory() {
#if defined(__GLIBC__)
  ::malloc_trim(0);
#endif
}

/// How much zeroed journal to pre-write at creation: the auto-checkpoint
/// threshold (the journal folds before outgrowing it), capped so an
/// outsized checkpoint_bytes cannot turn creation into a gigabyte write.
/// Appends past the preallocation still work — they just grow the file.
std::size_t journal_preallocation(const JournalOptions& options) {
  return std::min<std::size_t>(options.checkpoint_bytes, 16u << 20);
}

}  // namespace

Result<std::unique_ptr<JournaledBlockStore>> JournaledBlockStore::create(
    const std::string& path, std::size_t block_count, std::size_t block_size,
    JournalOptions options) {
  auto inner = FileBlockStore::create(path, block_count, block_size);
  if (!inner) return inner.status();
  auto journal = WalJournal::create(journal_path(path), block_count, block_size,
                                    journal_preallocation(options));
  if (!journal) return journal.status();
  auto store = std::unique_ptr<JournaledBlockStore>(new JournaledBlockStore(
      std::move(inner).value(), std::move(journal).value(), options));
  auto metadata = store->inner_->get_metadata();
  if (!metadata) return metadata.status();
  store->metadata_ = std::move(metadata).value();
  return store;
}

Result<std::unique_ptr<JournaledBlockStore>> JournaledBlockStore::open(
    const std::string& path, JournalOptions options) {
  // Full v2 recovery of the main file first: header check, metadata slot
  // election, torn-record scrub. Whatever the scrub demoted may be
  // resurrected below when the journal holds the committed bytes.
  auto inner = FileBlockStore::open(path);
  if (!inner) return inner.status();
  const std::size_t block_count = inner.value()->block_count();
  const std::size_t block_size = inner.value()->block_size();

  const std::string wal_path = journal_path(path);
  WalJournal::ScanResult scan;
  Result<std::unique_ptr<WalJournal>> journal = errors::internal("unset");
  if (std::filesystem::exists(wal_path)) {
    journal = WalJournal::open(wal_path, block_count, block_size, scan);
  } else {
    // A store that predates journal mode: start an empty journal.
    RELDEV_WARN("wal") << path << ": no journal sidecar; starting empty";
    journal = WalJournal::create(wal_path, block_count, block_size,
                                 journal_preallocation(options));
  }
  if (!journal) return journal.status();

  auto store = std::unique_ptr<JournaledBlockStore>(new JournaledBlockStore(
      std::move(inner).value(), std::move(journal).value(), options));

  // Replay the committed prefix, in sequence order, over the scrubbed main
  // file. Replay is idempotent: every record carries its full payload, so
  // applying the same prefix twice lands on the same bytes and versions.
  for (const WalRecord& record : scan.records) {
    switch (record.type) {
      case WalRecordType::kBlockWrite:
        if (record.block >= block_count) {
          return errors::corruption("journal names block " +
                                    std::to_string(record.block) +
                                    " out of range");
        }
        if (auto status = store->inner_->write(record.block, record.payload,
                                               record.version);
            !status.is_ok()) {
          return status;
        }
        break;
      case WalRecordType::kMetadataPut:
        if (auto status = store->inner_->put_metadata(record.payload);
            !status.is_ok()) {
          return status;
        }
        break;
      case WalRecordType::kDemote:
        if (record.block >= block_count) {
          return errors::corruption("journal demotes block " +
                                    std::to_string(record.block) +
                                    " out of range");
        }
        if (auto status = store->inner_->demote(record.block);
            !status.is_ok()) {
          return status;
        }
        break;
    }
  }
  if (!scan.records.empty()) {
    RELDEV_INFO("wal") << path << ": replayed " << scan.records.size()
                       << " committed journal record(s)"
                       << (scan.torn_tail ? " (torn tail truncated)" : "");
  }
  store->replayed_records_ = scan.records.size();
  store->replay_truncated_tail_ = scan.torn_tail;
  store->next_sequence_ = scan.next_sequence - 1;
  store->durable_sequence_ = store->next_sequence_;

  // Fold the replay into the main file so the journal can shrink: fsync
  // the store FIRST, then cut the journal. Tests disable this to replay
  // the same journal repeatedly (idempotence proof).
  if (options.checkpoint_on_open &&
      store->journal_->size() > WalJournal::kHeaderSize) {
    if (auto status = store->inner_->sync(); !status.is_ok()) return status;
    if (auto status = store->journal_->reset(); !status.is_ok()) {
      return status;
    }
    ++store->checkpoints_taken_;
  }
  store->journal_size_ = store->journal_->size();

  store->versions_ = store->inner_->version_vector().raw();
  auto metadata = store->inner_->get_metadata();
  if (!metadata) return metadata.status();
  store->metadata_ = std::move(metadata).value();
  return store;
}

const VersionedBlock* JournaledBlockStore::dirty_lookup_locked(
    BlockId block) const {
  if (auto it = dirty_.find(block); it != dirty_.end()) return &it->second;
  if (auto it = flushing_.find(block); it != flushing_.end()) {
    return &it->second;
  }
  return nullptr;
}

Result<VersionedBlock> JournaledBlockStore::read(BlockId block) const {
  if (auto status = check_block(block); !status.is_ok()) return status;
  {
    MutexLock lock(mutex_);
    if (const VersionedBlock* hit = dirty_lookup_locked(block)) return *hit;
  }
  // Not dirty at lookup time: serve from the main file. A checkpoint may
  // race this pread, so re-check the write-back table afterwards — if the
  // block shows up there, that copy is authoritative (and the pread may
  // have caught the record mid-rewrite).
  auto stored = inner_->read(block);
  {
    MutexLock lock(mutex_);
    if (const VersionedBlock* hit = dirty_lookup_locked(block)) return *hit;
  }
  return stored;
}

Status JournaledBlockStore::write(BlockId block, std::span<const std::byte> data,
                                  VersionNumber version) {
  if (auto status = check_write(block, data); !status.is_ok()) return status;
  MutexLock lock(mutex_);
  if (!health_.is_ok()) return health_;
  const CommitSequence sequence = ++next_sequence_;
  wal_encode_block_write(pending_, sequence, block, version, data);
  dirty_[block] = VersionedBlock{
      std::vector<std::byte>(data.begin(), data.end()), version};
  versions_[block] = version;
  return Status::ok();
}

Result<VersionNumber> JournaledBlockStore::version_of(BlockId block) const {
  if (auto status = check_block(block); !status.is_ok()) return status;
  MutexLock lock(mutex_);
  return versions_[block];
}

VersionVector JournaledBlockStore::version_vector() const {
  MutexLock lock(mutex_);
  return VersionVector(versions_);
}

Status JournaledBlockStore::put_metadata(std::span<const std::byte> blob) {
  if (blob.size() > FileBlockStore::kMetadataCapacity) {
    return errors::invalid_argument("metadata blob exceeds capacity");
  }
  MutexLock lock(mutex_);
  if (!health_.is_ok()) return health_;
  const CommitSequence sequence = ++next_sequence_;
  wal_encode_metadata_put(pending_, sequence, blob);
  metadata_.assign(blob.begin(), blob.end());
  metadata_dirty_ = true;
  return Status::ok();
}

Result<std::vector<std::byte>> JournaledBlockStore::get_metadata() const {
  MutexLock lock(mutex_);
  return metadata_;
}

Status JournaledBlockStore::demote(BlockId block) {
  if (auto status = check_block(block); !status.is_ok()) return status;
  MutexLock lock(mutex_);
  if (!health_.is_ok()) return health_;
  const CommitSequence sequence = ++next_sequence_;
  wal_encode_demote(pending_, sequence, block);
  dirty_[block] =
      VersionedBlock{std::vector<std::byte>(block_size_, std::byte{0}), 0};
  versions_[block] = 0;
  return Status::ok();
}

CommitSequence JournaledBlockStore::last_sequence() const noexcept {
  MutexLock lock(mutex_);
  return next_sequence_;
}

CommitSequence JournaledBlockStore::durable_sequence() const noexcept {
  MutexLock lock(mutex_);
  return durable_sequence_;
}

Status JournaledBlockStore::sync() { return wait_durable(last_sequence()); }

Status JournaledBlockStore::wait_durable(CommitSequence sequence) {
  mutex_.lock();
  while (true) {
    if (!health_.is_ok()) {
      const Status status = health_;
      mutex_.unlock();
      return status;
    }
    if (durable_sequence_ >= sequence) break;
    if (io_in_flight_) {
      // Another leader is mid-commit (or mid-checkpoint); its fsync may
      // already cover us. Wait for it to publish and re-check. Spin first
      // if configured: a yield round-robins the core to the other
      // runnable writers and picks the publication up within one lap,
      // where a condvar sleep pays a futex wake (a full context switch)
      // per operation.
      if (options_.spin_wait.count() > 0) {
        const auto spin_deadline =
            std::chrono::steady_clock::now() + options_.spin_wait;
        while (io_in_flight_ && durable_sequence_ < sequence &&
               health_.is_ok() &&
               std::chrono::steady_clock::now() < spin_deadline) {
          mutex_.unlock();
          std::this_thread::yield();
          mutex_.lock();
        }
        if (!io_in_flight_ || durable_sequence_ >= sequence ||
            !health_.is_ok()) {
          continue;  // publication (or failure) observed while spinning
        }
      }
      cv_.wait(mutex_);
      continue;
    }
    if (const Status status = commit_locked(); !status.is_ok()) {
      mutex_.unlock();
      return status;
    }
  }
  // Commit done; opportunistically fold the journal once it has outgrown
  // the checkpoint threshold (only when no other I/O leader is active —
  // if one is, it will run this check itself when it finishes).
  Status status = Status::ok();
  bool folded = false;
  if (!io_in_flight_ && journal_size_ > options_.checkpoint_bytes) {
    status = checkpoint_locked();
    folded = true;
  }
  mutex_.unlock();
  if (folded) release_folded_memory();
  return status;
}

Status JournaledBlockStore::commit_locked() {
  io_in_flight_ = true;
  if (options_.max_delay.count() > 0 &&
      pending_.size() < options_.max_batch_bytes) {
    // Group-commit window: linger so concurrent writers can join this
    // batch. Yield the CPU (with the mutex released so writers can
    // enqueue) and flush as soon as the queue stops growing — a quiet
    // round means every runnable writer has already joined, and waiting
    // out the rest of the window would only add latency. Yielding beats a
    // timed sleep here: condvar timeouts carry ~50 µs of timer slack per
    // slice, while a yield hands the core straight to the next runnable
    // writer (the whole point on a small machine). max_delay bounds the
    // total spin.
    const auto deadline =
        std::chrono::steady_clock::now() + options_.max_delay;
    std::size_t joined = pending_.size();
    while (std::chrono::steady_clock::now() < deadline &&
           pending_.size() < options_.max_batch_bytes) {
      mutex_.unlock();
      std::this_thread::yield();
      mutex_.lock();
      if (pending_.size() == joined) break;
      joined = pending_.size();
    }
  }
  std::vector<std::byte> batch = std::move(pending_).take();
  pending_ = BufferWriter();
  const CommitSequence target = next_sequence_;
  mutex_.unlock();

  Status status = Status::ok();
  if (hook_fires(JournalEvent::kBatchAppend)) {
    // The torn tail: the kernel got only the front half of the batch onto
    // disk before the crash. Recovery must replay the records before this
    // batch and truncate the fragment.
    journal_
        ->raw_append(std::span<const std::byte>(batch).first(batch.size() / 2))
        .ignore_error();
    status = errors::io_error("crash injected mid journal append");
  } else {
    for (std::size_t offset = 0; offset < batch.size() && status.is_ok();
         offset += options_.max_batch_bytes) {
      const std::size_t chunk =
          std::min(options_.max_batch_bytes, batch.size() - offset);
      status = journal_->append(
          std::span<const std::byte>(batch).subspan(offset, chunk));
    }
    if (status.is_ok()) {
      if (hook_fires(JournalEvent::kBatchSync)) {
        // Fully appended, never fsynced: the batch may or may not survive
        // the crash; recovery treats whatever validates as committed.
        status = errors::io_error("crash injected before journal sync");
      } else {
        status = journal_->sync();
      }
    }
  }

  mutex_.lock();
  io_in_flight_ = false;
  journal_size_ = journal_->size();
  if (status.is_ok()) {
    durable_sequence_ = std::max(durable_sequence_, target);
    ++commit_batches_;
  } else {
    health_ = status;
  }
  cv_.notify_all();
  return status;
}

Status JournaledBlockStore::checkpoint() {
  mutex_.lock();
  const Status status = checkpoint_locked();
  mutex_.unlock();
  release_folded_memory();
  return status;
}

Status JournaledBlockStore::checkpoint_locked() {
  while (io_in_flight_ && health_.is_ok()) cv_.wait(mutex_);
  if (!health_.is_ok()) return health_;
  if (dirty_.empty() && !metadata_dirty_ &&
      journal_size_ <= WalJournal::kHeaderSize) {
    return Status::ok();  // nothing to fold
  }
  io_in_flight_ = true;
  // Move the live dirty generation to the flushing slot (reads keep
  // consulting it) and list it for the unlocked I/O below. New writes
  // re-dirty on top while we flush. The list holds pointers, not copies:
  // unordered_map nodes never move, and only the io_in_flight_ owner (this
  // thread, until it clears the flag) inserts into or clears flushing_, so
  // every pointee stays put and unchanged until the fold is done.
  for (auto& [block, value] : dirty_) {
    flushing_[block] = std::move(value);
  }
  dirty_.clear();
  std::vector<std::pair<BlockId, const VersionedBlock*>> to_flush;
  to_flush.reserve(flushing_.size());
  for (const auto& [block, value] : flushing_) {
    to_flush.emplace_back(block, &value);
  }
  std::optional<std::vector<std::byte>> metadata_to_flush;
  if (metadata_dirty_) {
    metadata_to_flush = metadata_;
    metadata_dirty_ = false;
  }
  mutex_.unlock();

  Status status = Status::ok();
  const bool flush_crash = hook_fires(JournalEvent::kCheckpointFlush);
  // A crashed flush folds only half the blocks and never reaches the
  // store fsync or the journal truncate — the journal stays authoritative.
  const std::size_t fold_limit =
      flush_crash ? to_flush.size() / 2 : to_flush.size();
  for (std::size_t i = 0; i < fold_limit && status.is_ok(); ++i) {
    const auto& [block, value] = to_flush[i];
    status = inner_->write(block, value->data, value->version);
  }
  if (status.is_ok() && !flush_crash) {
    if (metadata_to_flush) {
      status = inner_->put_metadata(*metadata_to_flush);
    }
    if (status.is_ok()) status = inner_->sync();
  }
  if (flush_crash) {
    status = errors::io_error("crash injected mid checkpoint");
  }
  if (status.is_ok()) {
    if (hook_fires(JournalEvent::kCheckpointTruncate)) {
      // Main file folded AND fsynced, journal left untruncated: replay
      // must be idempotent over records the store already holds.
      status = errors::io_error("crash injected before checkpoint truncate");
    } else {
      status = journal_->reset();
    }
  }

  mutex_.lock();
  io_in_flight_ = false;
  journal_size_ = journal_->size();
  if (status.is_ok()) {
    flushing_.clear();
    ++checkpoints_taken_;
  } else {
    health_ = status;  // fail-stop; flushing_ stays readable for post-mortems
  }
  cv_.notify_all();
  return status;
}

std::uint64_t JournaledBlockStore::journal_bytes() const {
  MutexLock lock(mutex_);
  return journal_size_;
}

std::uint64_t JournaledBlockStore::commit_batches() const {
  MutexLock lock(mutex_);
  return commit_batches_;
}

std::uint64_t JournaledBlockStore::checkpoints_taken() const {
  MutexLock lock(mutex_);
  return checkpoints_taken_;
}

}  // namespace reldev::storage
