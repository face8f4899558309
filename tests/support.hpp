// Shared test scaffolding.
//
// Scratch paths: every suite is its own executable and `ctest -j` runs
// suites concurrently, so each path carries the suite's name
// (DMIS_TEST_SUITE, set per executable in CMakeLists.txt) and two suites
// can never collide on a name.
//
// Service streams: the service and replication suites drive the same
// deterministic batch stream, check it against the same never-persisted
// reference engine, and compare with the same full-state equality.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/cascade_engine.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "workload/batched.hpp"
#include "workload/churn.hpp"
#include "workload/trace.hpp"

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

/// Deterministic batch stream from an empty graph: grow a random graph op
/// by op, then mixed churn. The service under test (from lsn 0) and the
/// in-memory reference apply exactly these batches, so positional node ids
/// line up.
inline std::vector<core::Batch> make_stream(std::uint64_t seed, std::size_t total_ops,
                                            std::size_t ops_per_batch) {
  util::Rng rng(seed);
  graph::DynamicGraph g = graph::random_avg_degree(120, 6.0, rng);
  const workload::Trace grow = workload::grow_trace(g);
  workload::ChurnConfig config;
  config.p_abrupt = 0.4;
  workload::ChurnGenerator gen(g, config, seed + 1);

  std::vector<core::Batch> out;
  core::Batch current;
  const auto flush = [&] {
    if (!current.empty()) {
      out.push_back(current);
      current.clear();
    }
  };
  std::size_t ops = 0;
  for (const workload::GraphOp& op : grow) {
    workload::append_op(current, op);
    ++ops;
    if (current.size() >= ops_per_batch) flush();
  }
  while (ops < total_ops) {
    workload::append_op(current, gen.next());
    ++ops;
    if (current.size() >= ops_per_batch) flush();
  }
  flush();
  return out;
}

/// The engine a service must equal after applying the first `first` batches.
inline core::CascadeEngine reference(const std::vector<core::Batch>& batches,
                                     std::size_t first, std::uint64_t priority_seed) {
  core::CascadeEngine engine(priority_seed);
  for (std::size_t i = 0; i < first; ++i) (void)core::apply_batch(engine, batches[i]);
  return engine;
}

/// Full-state equality, including the RNG — the property that makes a
/// recovered or promoted replica behave bit-for-bit like the pre-crash
/// process.
inline void expect_same(const core::CascadeEngine& got, const core::CascadeEngine& want,
                        const std::string& where) {
  EXPECT_TRUE(got.graph() == want.graph()) << where;
  EXPECT_TRUE(got.membership() == want.membership()) << where;
  EXPECT_EQ(got.mis_size(), want.mis_size()) << where;
  EXPECT_TRUE(got.priorities().rng_state() == want.priorities().rng_state())
      << where << ": RNG diverged — future draws would differ";
}

}  // namespace dmis::test
