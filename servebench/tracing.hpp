// Span recorder for the traced run: name, start, end and parent of every
// call the benchmark makes into a layer's public functions, kept in memory
// and written out when the run ends. Spans are only ever opened on the
// consumer (main) thread, so the recorder needs no synchronization.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "util/fault_file.hpp"

namespace servebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Every span name the benchmark records. The prefix before the dot is the
/// layer (a module of src/) the timed call belongs to.
enum class Name : std::uint32_t {
  kIteration,          // one non-empty consumer iteration: drain .. ack
  kDrain,              // IngestQueue::drain
  kAck,                // IngestQueue::ack
  kWalAppend,          // WalWriter::append
  kWalWrite,           // WritableFile::write under a WAL segment
  kWalSync,            // WritableFile::sync under a WAL segment
  kWalSyncCall,        // WalWriter::sync (the pre-checkpoint sync)
  kCoreApply,          // core::apply_batch
  kCheckpoint,         // MisService::checkpoint, or its composition
  kCheckpointPublish,  // Checkpointer::checkpoint
  kRecovery,           // the RecoveryManager::recover composition
  kRecoveryOpen,       // graph::Snapshot::open
  kRecoveryVerify,     // graph::Snapshot::verify
  kRecoveryBorrow,     // graph::DynamicGraph::borrow
  kRecoveryWarm,       // CascadeEngine warm-start constructor
  kRecoveryReplay,     // WAL segment scan + replay_wal_record
  kServiceApply,       // MisService::apply (restart-cycle tail)
  kShip,               // LogShipper::drain
  kPoll,               // FollowerService::poll
  kPromote,            // FollowerService::promote
  kCount
};

inline const char* name_of(Name name) {
  static const char* const kNames[] = {
      "consumer.iteration", "ingest.drain",       "ingest.ack",
      "wal.append",         "wal.write",          "wal.sync",
      "wal.sync_call",      "core.apply_batch",   "checkpoint.checkpoint",
      "checkpoint.publish",
      "recovery.recover",   "recovery.open",      "recovery.verify",
      "recovery.borrow",    "recovery.warm",      "recovery.replay",
      "service.apply",      "replication.ship",   "replication.poll",
      "replication.promote"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<std::size_t>(Name::kCount));
  return kNames[static_cast<std::uint32_t>(name)];
}

struct SpanRecord {
  static constexpr std::uint32_t kNoParent = ~0u;
  Name name = Name::kIteration;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() { spans_.reserve(1u << 20); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::uint32_t begin(Name name, std::int64_t start_ns) {
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, open_.empty() ? SpanRecord::kNoParent : open_.back(),
                      start_ns, 0});
    open_.push_back(index);
    return index;
  }
  std::uint32_t begin(Name name) { return begin(name, now_ns()); }
  void end(std::uint32_t index) {
    spans_[index].end_ns = now_ns();
    open_.pop_back();
  }
  /// A span that already ended, as a child of the innermost open span.
  void record(Name name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, open_.empty() ? SpanRecord::kNoParent : open_.back(),
                      start_ns, end_ns});
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept { return spans_; }

  /// One line per span: index, parent (-1 for roots), name, start, end.
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "index,parent,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f, "%zu,%lld,%s,%lld,%lld\n", i,
                   s.parent == SpanRecord::kNoParent ? -1LL
                                                     : static_cast<long long>(s.parent),
                   name_of(s.name), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span; a null tracer (the untraced run) records nothing.
class Span {
 public:
  Span(Tracer* tracer, Name name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// WritableFile that times write() and sync() of a WAL segment, so the
/// WAL's I/O shows up as children of the call that issued it.
class TimedFile final : public dmis::util::WritableFile {
 public:
  TimedFile(std::unique_ptr<dmis::util::WritableFile> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool write(const void* data, std::size_t bytes, std::string* error) override {
    Span span(tracer_, Name::kWalWrite);
    return inner_->write(data, bytes, error);
  }
  bool sync(std::string* error) override {
    Span span(tracer_, Name::kWalSync);
    return inner_->sync(error);
  }
  bool close(std::string* error) override { return inner_->close(error); }
  [[nodiscard]] std::uint64_t bytes_written() const noexcept override {
    return inner_->bytes_written();
  }
  [[nodiscard]] const std::string& path() const noexcept override {
    return inner_->path();
  }

 private:
  std::unique_ptr<dmis::util::WritableFile> inner_;
  Tracer* tracer_;
};

inline dmis::util::FileFactory timed_factory(Tracer* tracer) {
  return [tracer](const std::string& path, std::string* error)
             -> std::unique_ptr<dmis::util::WritableFile> {
    std::unique_ptr<dmis::util::WritableFile> file =
        dmis::util::open_writable(path, error);
    if (file == nullptr) return nullptr;
    return std::make_unique<TimedFile>(std::move(file), tracer);
  };
}

}  // namespace servebench
