// util::MmapFile — the mapped path and the owned-buffer fallback must be
// observationally identical through data()/size(), and resident_bytes()
// must stay a safe, bounded report wherever the platform cannot measure
// residency. The borrowed-snapshot machinery leans on both:
// DynamicGraph::borrow reads the mapped bytes in place and the stats
// tooling reports resident vs mapped, so these contracts get their own
// tests instead of riding along in test_snapshot.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "util/mmap_file.hpp"

namespace {

using dmis::util::MmapFile;

class MmapFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "dmis_mmap_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string write_file(const std::string& name, const std::vector<std::uint8_t>& bytes) {
    const std::string path = (dir_ / name).string();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr);
    if (!bytes.empty()) {
      EXPECT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    }
    std::fclose(f);
    return path;
  }

  std::filesystem::path dir_;
};

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  std::iota(bytes.begin(), bytes.end(), static_cast<std::uint8_t>(7));
  return bytes;
}

TEST_F(MmapFileTest, BothPathsSeeIdenticalBytes) {
  const auto bytes = pattern(3 * 4096 + 123);  // straddles page boundaries
  const std::string path = write_file("data.bin", bytes);
  for (const bool force_read : {false, true}) {
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error, force_read)) << error;
    EXPECT_TRUE(file.is_open());
    if (force_read) {
      EXPECT_FALSE(file.is_mapped());
    }
    ASSERT_EQ(file.size(), bytes.size());
    EXPECT_EQ(std::memcmp(file.data(), bytes.data(), bytes.size()), 0);
  }
}

TEST_F(MmapFileTest, ClosedFileHasNothingResident) {
  MmapFile file;
  EXPECT_EQ(file.resident_bytes(), 0U);
}

TEST_F(MmapFileTest, ResidentBytesIsBoundedAndGrowsWithTouches) {
  const std::size_t n = 64 * 4096;
  const std::string path = write_file("resident.bin", pattern(n));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error)) << error;
  EXPECT_LE(file.resident_bytes(), file.size());
  // Touch every page; afterwards the whole view must be resident (on the
  // fallback path it already was — the owned buffer is heap memory).
  std::size_t sink = 0;
  for (std::size_t i = 0; i < n; i += 512) sink += file.data()[i];
  EXPECT_GT(sink, 0U);
  EXPECT_EQ(file.resident_bytes(), file.size());
}

TEST_F(MmapFileTest, FallbackReportsBufferFullyResident) {
  const std::string path = write_file("fallback.bin", pattern(4096 + 17));
  MmapFile file;
  std::string error;
  ASSERT_TRUE(file.open(path, &error, /*force_read=*/true)) << error;
  EXPECT_FALSE(file.is_mapped());
  EXPECT_EQ(file.resident_bytes(), file.size());
}

TEST_F(MmapFileTest, ZeroLengthFileOpensEmpty) {
  const std::string path = write_file("empty.bin", {});
  for (const bool force_read : {false, true}) {
    MmapFile file;
    std::string error;
    ASSERT_TRUE(file.open(path, &error, force_read)) << error;
    EXPECT_EQ(file.size(), 0U);
    EXPECT_EQ(file.resident_bytes(), 0U);
  }
}

}  // namespace
