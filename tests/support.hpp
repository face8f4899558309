// Shared test scaffolding.
//
// Scratch paths: every suite is its own executable and `ctest -j` runs
// suites concurrently, so each path carries the suite's name
// (DMIS_TEST_SUITE, set per executable in CMakeLists.txt) and two suites
// can never collide on a name.
//
// Service streams: the service and replication suites drive the same
// deterministic batch stream, check it against the same never-persisted
// reference engine, and compare with the same identity check. The service
// and kill -9 suites hold a background checkpoint publish open with the
// same PublishGate.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "core/identity.hpp"
#include "graph/generators.hpp"
#include "graph/snapshot.hpp"
#include "util/binary_io.hpp"
#include "util/fault_file.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"

namespace dmis::test {

/// `<system temp>/dmis_<suite>_<name>`.
inline std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("dmis_" DMIS_TEST_SUITE "_" + name))
      .string();
}

/// A file path removed when the scope ends.
struct TempFile {
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::filesystem::remove(path); }
  std::string path;
};

/// A fresh, empty directory removed with its contents when the scope ends.
struct TempDir {
  explicit TempDir(const std::string& name) : path(temp_path(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

inline std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

inline void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

/// Recompute a snapshot's payload checksum (FNV-1a 64 over [104, size),
/// stored at header offset 96) after an edit, so only the structural checks
/// of open() and verify() can reject it.
inline void reseal_snapshot(std::vector<std::uint8_t>& bytes) {
  const std::size_t header = sizeof(graph::SnapshotHeader);
  const std::uint64_t sum = util::fnv1a64(bytes.data() + header, bytes.size() - header);
  std::memcpy(bytes.data() + offsetof(graph::SnapshotHeader, payload_checksum), &sum,
              sizeof sum);
}

/// Redirect one adjacency entry of the snapshot at `path` — the first entry
/// of the first live node from id_bound / 2 on that has one — to the
/// lowest live id the node is not adjacent to, and reseal the checksum.
/// open() accepts the result (every id stays in range); only verify()'s
/// symmetry check can reject it.
inline void redirect_one_neighbor(const std::string& path) {
  std::vector<std::uint8_t> bytes = read_bytes(path);
  graph::SnapshotHeader h{};
  std::memcpy(&h, bytes.data(), sizeof h);
  const auto offset = [&](graph::NodeId v) {
    std::uint64_t off = 0;
    std::memcpy(&off, bytes.data() + h.offsets_off + 8 * std::uint64_t{v}, sizeof off);
    return off;
  };
  const auto entry = [&](std::uint64_t i) { return h.neighbors_off + 4 * i; };
  const auto live = [&](graph::NodeId v) { return bytes[h.alive_off + v] != 0; };
  graph::NodeId victim = h.id_bound / 2;
  while (victim < h.id_bound && (!live(victim) || offset(victim + 1) == offset(victim)))
    ++victim;
  ASSERT_LT(victim, h.id_bound) << path << ": no live node with a neighbor";
  const auto adjacent = [&](graph::NodeId w) {
    for (std::uint64_t i = offset(victim); i < offset(victim + 1); ++i) {
      graph::NodeId u = 0;
      std::memcpy(&u, bytes.data() + entry(i), sizeof u);
      if (u == w) return true;
    }
    return false;
  };
  graph::NodeId target = 0;
  while (target < h.id_bound && (target == victim || !live(target) || adjacent(target)))
    ++target;
  ASSERT_LT(target, h.id_bound) << path << ": node " << victim << " is adjacent to all";
  std::memcpy(bytes.data() + entry(offset(victim)), &target, sizeof target);
  reseal_snapshot(bytes);
  write_bytes(path, bytes);
}

/// The service suites' drill stream (workload::drill_stream at n = 120).
/// The service under test (from lsn 0) and the in-memory reference apply
/// exactly these batches, so positional node ids line up.
inline std::vector<core::Batch> make_stream(std::uint64_t seed, std::size_t total_ops,
                                            std::size_t ops_per_batch) {
  return workload::drill_stream(120, 6.0, seed, total_ops, ops_per_batch);
}

/// The engine a service must equal after applying the first `first` batches.
inline core::CascadeEngine reference(const std::vector<core::Batch>& batches,
                                     std::size_t first, std::uint64_t priority_seed) {
  core::CascadeEngine engine(priority_seed);
  for (std::size_t i = 0; i < first; ++i) (void)core::apply_batch(engine, batches[i]);
  return engine;
}

/// Identity equality (core/identity.hpp), RNG included — the property that
/// makes a recovered or promoted replica behave bit-for-bit like the
/// pre-crash process.
inline void expect_same(const core::CascadeEngine& got, const core::CascadeEngine& want,
                        const std::string& where) {
  EXPECT_EQ(core::state_diff(got, want), "") << where;
}

/// A checkpoint_file_factory that holds one publish open: the `nth` file it
/// opens blocks in sync() until release(). The publisher thread blocks
/// there while the test thread waits for that (wait_held) and lets it go.
/// Declare a gate after the service it holds: its destructor releases, so
/// a failed assertion never leaves the service's destructor joining a
/// publish that nothing will let go.
class PublishGate {
 public:
  PublishGate() = default;
  PublishGate(const PublishGate&) = delete;
  PublishGate& operator=(const PublishGate&) = delete;
  ~PublishGate() { release(); }

  [[nodiscard]] util::FileFactory factory(std::uint64_t nth = 0) const {
    return [state = state_, nth, opened = std::make_shared<std::uint64_t>(0)](
               const std::string& path,
               std::string* error) -> std::unique_ptr<util::WritableFile> {
      std::unique_ptr<util::WritableFile> inner = util::open_writable(path, error);
      if (inner == nullptr || (*opened)++ != nth) return inner;
      return std::make_unique<HeldFile>(std::move(inner), state);
    };
  }

  /// True once a publish is blocked in the held file's sync().
  [[nodiscard]] bool held() const {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->held;
  }

  /// Wait (up to a minute) until a publish is held; false on timeout.
  [[nodiscard]] bool wait_held() const {
    std::unique_lock<std::mutex> lock(state_->mutex);
    return state_->cv.wait_for(lock, std::chrono::minutes(1),
                               [&] { return state_->held; });
  }

  void release() {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    state_->released = true;
    state_->cv.notify_all();
  }

 private:
  struct State {
    std::mutex mutex;
    std::condition_variable cv;
    bool held = false;
    bool released = false;
  };

  class HeldFile final : public util::WritableFile {
   public:
    HeldFile(std::unique_ptr<util::WritableFile> inner, std::shared_ptr<State> state)
        : inner_(std::move(inner)), state_(std::move(state)) {}

    bool write(const void* data, std::size_t bytes, std::string* error) override {
      return inner_->write(data, bytes, error);
    }
    bool sync(std::string* error) override {
      {
        std::unique_lock<std::mutex> lock(state_->mutex);
        state_->held = true;
        state_->cv.notify_all();
        state_->cv.wait(lock, [&] { return state_->released; });
      }
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
    std::unique_ptr<util::WritableFile> inner_;
    std::shared_ptr<State> state_;
  };

  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// A graph with dead ids, spilled adjacency records and edge-table
/// tombstones: G(n, avg degree 8) after `churn_ops` churn ops — the churned
/// shape a production snapshot has, not a fresh clean CSR.
inline graph::DynamicGraph churned_graph(graph::NodeId n, std::uint64_t seed,
                                         std::size_t churn_ops) {
  util::Rng rng(seed);
  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(graph::random_avg_degree(n, 8.0, rng), config, seed + 1);
  (void)gen.generate(churn_ops);
  return gen.graph();
}

}  // namespace dmis::test
