// Unit tests for util: RNG determinism and distributions, online statistics,
// histograms, distribution-comparison measures, table rendering, CLI parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using dmis::util::Histogram;
using dmis::util::OnlineStats;
using dmis::util::Rng;

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0U);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.range(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Real01HalfOpen) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.real01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRate) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleIsUniformish) {
  // Position of element 0 after shuffling 5 items should be ~uniform.
  Histogram h;
  Rng rng(19);
  for (int t = 0; t < 5000; ++t) {
    std::vector<int> v{0, 1, 2, 3, 4};
    rng.shuffle(v);
    h.add(std::find(v.begin(), v.end(), 0) - v.begin());
  }
  for (int pos = 0; pos < 5; ++pos) EXPECT_NEAR(h.fraction(pos), 0.2, 0.03);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(Rng, RandomPermutationValid) {
  Rng rng(29);
  const auto perm = dmis::util::random_permutation(100, rng);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(OnlineStats, Moments) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8U);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(OnlineStats, EmptyIsSafe) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats all;
  OnlineStats left;
  OnlineStats right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.real01() * 10.0;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(HistogramTest, CountsAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(1);
  for (int i = 0; i < 30; ++i) h.add(2);
  for (int i = 0; i < 60; ++i) h.add(3);
  EXPECT_EQ(h.total(), 100U);
  EXPECT_DOUBLE_EQ(h.fraction(2), 0.3);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 3);
  EXPECT_NEAR(h.mean(), 2.5, 1e-12);
  EXPECT_EQ(h.quantile(0.05), 1);
  EXPECT_EQ(h.quantile(0.25), 2);
  EXPECT_EQ(h.quantile(0.99), 3);
}

TEST(HistogramTest, TotalVariation) {
  Histogram a;
  Histogram b;
  for (int i = 0; i < 100; ++i) {
    a.add(i % 2);
    b.add(i % 2);
  }
  EXPECT_DOUBLE_EQ(total_variation(a, b), 0.0);
  Histogram c;
  for (int i = 0; i < 100; ++i) c.add(5);
  EXPECT_DOUBLE_EQ(total_variation(a, c), 1.0);
}

TEST(HistogramTest, ChiSquareEqualSamplesIsSmall) {
  Rng rng(37);
  Histogram a;
  Histogram b;
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<std::int64_t>(rng.below(6)));
    b.add(static_cast<std::int64_t>(rng.below(6)));
  }
  std::size_t dof = 0;
  const double stat = chi_square_two_sample(a, b, &dof);
  EXPECT_GE(dof, 5U);
  EXPECT_LT(stat, dmis::util::chi_square_critical_001(dof));
}

TEST(HistogramTest, ChiSquareDifferentSamplesIsLarge) {
  Rng rng(41);
  Histogram a;
  Histogram b;
  for (int i = 0; i < 5000; ++i) {
    a.add(static_cast<std::int64_t>(rng.below(6)));
    b.add(static_cast<std::int64_t>(rng.below(3)));  // different support
  }
  std::size_t dof = 0;
  const double stat = chi_square_two_sample(a, b, &dof);
  EXPECT_GT(stat, dmis::util::chi_square_critical_001(dof));
}

TEST(TableTest, RendersMarkdown) {
  dmis::util::Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("beta").cell(1.5, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("| ----"), std::string::npos);
}

TEST(TableTest, PlusMinusCell) {
  dmis::util::Table t({"stat"});
  t.row().cell_pm(1.0, 0.25, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.00 ± 0.25"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(dmis::util::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(dmis::util::format_double(2.0, 0), "2");
}

/// A small tool's flags, parsed from `args`.
struct Parsed {
  std::int64_t ops = 0;
  double p = 0;
  std::vector<std::int64_t> sizes;
  std::vector<std::string> names;
};

Parsed parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  dmis::util::Cli cli(static_cast<int>(argv.size()), argv.data());
  Parsed out{cli.flag_int("ops", 5, "ops"), cli.flag_double("p", 0.5, "probability"),
             cli.flag_int_list("sizes", "10,20", 2, "node counts"),
             cli.flag_list("names", "a,b", "names")};
  cli.finish();
  return out;
}

TEST(Cli, ParsesWellFormedValues) {
  const Parsed defaults = parse({});
  EXPECT_EQ(defaults.ops, 5);
  EXPECT_EQ(defaults.p, 0.5);
  EXPECT_EQ(defaults.sizes, (std::vector<std::int64_t>{10, 20}));
  EXPECT_EQ(defaults.names, (std::vector<std::string>{"a", "b"}));
  const Parsed given =
      parse({"--ops=-2", "--p", "0.25", "--sizes", "7,,1000,", "--names", "x"});
  EXPECT_EQ(given.ops, -2);
  EXPECT_EQ(given.p, 0.25);
  EXPECT_EQ(given.sizes, (std::vector<std::int64_t>{7, 1000}));
  EXPECT_EQ(given.names, (std::vector<std::string>{"x"}));
}

TEST(CliDeathTest, RejectsMalformedValues) {
  using ::testing::ExitedWithCode;
  // Not a number, partly one (letter O for zero), empty, out of range.
  EXPECT_EXIT(parse({"--ops", "abc"}), ExitedWithCode(2), "--ops: 'abc'");
  EXPECT_EXIT(parse({"--ops", "22OO"}), ExitedWithCode(2), "--ops: '22OO'");
  EXPECT_EXIT(parse({"--ops="}), ExitedWithCode(2), "--ops: ''");
  EXPECT_EXIT(parse({"--ops", "99999999999999999999"}), ExitedWithCode(2), "--ops");
  EXPECT_EXIT(parse({"--p", "0.2x"}), ExitedWithCode(2), "--p: '0.2x'");
  EXPECT_EXIT(parse({"--p", "1e999"}), ExitedWithCode(2), "--p: '1e999'");
  // A flag given without a value cannot stand in for a number.
  EXPECT_EXIT(parse({"--ops", "--p", "0.1"}), ExitedWithCode(2), "--ops: ''");
  // Every list item parses and reaches the minimum, and the list is not empty.
  EXPECT_EXIT(parse({"--sizes", "10,abc"}), ExitedWithCode(2), "--sizes: 'abc'");
  EXPECT_EXIT(parse({"--sizes", "10,1"}), ExitedWithCode(2), "--sizes: '1'");
  EXPECT_EXIT(parse({"--sizes", ","}), ExitedWithCode(2), "--sizes: ','");
  EXPECT_EXIT(parse({"--nope", "1"}), ExitedWithCode(2), "unknown flag: --nope");
}

}  // namespace
