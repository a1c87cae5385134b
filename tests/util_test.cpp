#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>

#include "util/blocks.hpp"
#include "util/cli.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ptucker {
namespace {

TEST(Blocks, CoversRangeWithoutGapsOrOverlap) {
  for (std::size_t total : {0u, 1u, 5u, 7u, 12u, 100u}) {
    for (std::size_t parts : {1u, 2u, 3u, 5u, 8u, 13u}) {
      std::size_t covered = 0;
      std::size_t prev_hi = 0;
      for (std::size_t i = 0; i < parts; ++i) {
        const util::Range r = util::uniform_block(total, parts, i);
        EXPECT_EQ(r.lo, prev_hi);
        EXPECT_LE(r.lo, r.hi);
        prev_hi = r.hi;
        covered += r.size();
      }
      EXPECT_EQ(prev_hi, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(Blocks, SizesDifferByAtMostOne) {
  for (std::size_t total : {7u, 10u, 23u, 101u}) {
    for (std::size_t parts : {2u, 3u, 4u, 7u}) {
      const auto sizes = util::uniform_block_sizes(total, parts);
      const auto [mn, mx] = std::minmax_element(sizes.begin(), sizes.end());
      EXPECT_LE(*mx - *mn, 1u);
    }
  }
}

TEST(Blocks, OwnerIsConsistentWithRanges) {
  const std::size_t total = 23;
  const std::size_t parts = 5;
  for (std::size_t g = 0; g < total; ++g) {
    const std::size_t owner = util::uniform_block_owner(total, parts, g);
    const util::Range r = util::uniform_block(total, parts, owner);
    EXPECT_GE(g, r.lo);
    EXPECT_LT(g, r.hi);
  }
}

TEST(CounterRng, DeterministicAndOrderIndependent) {
  util::CounterRng rng(123);
  const double a = rng.normal(42);
  const double b = rng.normal(1000000);
  EXPECT_EQ(a, rng.normal(42));  // same counter, same value
  EXPECT_EQ(b, rng.normal(1000000));
  EXPECT_NE(a, b);
  util::CounterRng other(124);
  EXPECT_NE(a, other.normal(42));  // different seed
}

TEST(CounterRng, NormalMomentsAreApproximatelyStandard) {
  util::CounterRng rng(7);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(static_cast<std::uint64_t>(i));
    sum += v;
    sum_sq += v * v;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(CounterRng, UniformStaysInUnitInterval) {
  util::CounterRng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(static_cast<std::uint64_t>(i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Cli, ParsesTypedOptionsAndFlags) {
  util::ArgParser args("prog", "test");
  args.add_int("count", 3, "a count");
  args.add_double("eps", 0.5, "a tolerance");
  args.add_string("name", "abc", "a name");
  args.add_flag("full", "run full");
  const char* argv[] = {"prog", "--count", "7", "--eps=1e-3", "--full"};
  args.parse(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(args.get_double("eps"), 1e-3);
  EXPECT_EQ(args.get_string("name"), "abc");
  EXPECT_TRUE(args.get_flag("full"));
}

TEST(Cli, RejectsUnknownOption) {
  util::ArgParser args("prog", "test");
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(args.parse(3, const_cast<char**>(argv)), InvalidArgument);
}

TEST(Cli, ParseDimsList) {
  const auto dims = util::ArgParser::parse_dims("4,3,2");
  ASSERT_EQ(dims.size(), 3u);
  EXPECT_EQ(dims[0], 4u);
  EXPECT_EQ(dims[1], 3u);
  EXPECT_EQ(dims[2], 2u);
  EXPECT_THROW(util::ArgParser::parse_dims("4,-1"), InvalidArgument);
}

TEST(Table, AlignsColumns) {
  util::Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string s = t.str();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("---"), std::string::npos);
}

TEST(ErrorMacros, RequireThrowsInvalidArgument) {
  EXPECT_THROW(PT_REQUIRE(false, "bad input " << 42), InvalidArgument);
  EXPECT_NO_THROW(PT_REQUIRE(true, "fine"));
}

TEST(ErrorMacros, CheckThrowsInternalError) {
  EXPECT_THROW(PT_CHECK(false, "bug"), InternalError);
}

TEST(CheckedMath, MultiplyAndAddDetectOverflow) {
  EXPECT_EQ(util::checked_mul(6, 7, "test"), 42u);
  EXPECT_EQ(util::checked_mul(0, ~0ull, "test"), 0u);
  EXPECT_EQ(util::checked_add(1, 2, "test"), 3u);
  EXPECT_THROW((void)util::checked_mul(1ull << 33, 1ull << 31, "test"),
               InvalidArgument);
  EXPECT_THROW((void)util::checked_add(~0ull, 1, "test"), InvalidArgument);
  try {
    (void)util::checked_mul(~0ull, 2, "pario: offsets");
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("pario: offsets"),
              std::string::npos);
  }
}

TEST(ErrorMacros, MessageContainsContext) {
  try {
    PT_REQUIRE(1 == 2, "value was " << 7);
    FAIL() << "should have thrown";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("value was 7"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.engine()() & 0xFFu);
  return v;
}

TEST(Crc32c, MatchesRfc3720AndStandardVectors) {
  const std::string digits = "123456789";
  std::vector<unsigned char> zeros(32, 0x00);
  std::vector<unsigned char> ones(32, 0xFF);
  std::vector<unsigned char> up(32);
  std::iota(up.begin(), up.end(), static_cast<unsigned char>(0));
  const std::vector<unsigned char> down(up.rbegin(), up.rend());
  for (auto* f : {&util::crc32c, &util::detail::crc32c_portable}) {
    EXPECT_EQ(f(0, digits.data(), digits.size()), 0xE3069283u);
    EXPECT_EQ(f(0, zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(f(0, ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(f(0, up.data(), up.size()), 0x46DD794Eu);
    EXPECT_EQ(f(0, down.data(), down.size()), 0x113FDB5Cu);
    EXPECT_EQ(f(0, nullptr, 0), 0u);
  }
}

TEST(Crc32c, ComposesAtEverySplitPoint) {
  const auto buf = random_bytes(1024, 11);
  const std::uint32_t whole = util::crc32c(0, buf.data(), buf.size());
  for (std::size_t k = 0; k <= buf.size(); ++k) {
    const std::uint32_t head = util::crc32c(0, buf.data(), k);
    EXPECT_EQ(util::crc32c(head, buf.data() + k, buf.size() - k), whole)
        << "split at " << k;
  }
}

TEST(Crc32c, EveryStartOffsetAndShortLengthMatchesPortable) {
  const auto buf = random_bytes(16 + 64, 12);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      EXPECT_EQ(util::crc32c(0, buf.data() + off, len),
                util::detail::crc32c_portable(0, buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32c, MatchesPortableOnRandomBuffersUpTo64KiB) {
  util::Rng sizes(13);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const std::size_t n =
        seed == 0 ? std::size_t{64} << 10
                  : static_cast<std::size_t>(sizes.index((64u << 10) + 1));
    const auto buf = random_bytes(n, 100 + seed);
    const auto crc0 = static_cast<std::uint32_t>(seed * 0x9E3779B9u);
    EXPECT_EQ(util::crc32c(crc0, buf.data(), n),
              util::detail::crc32c_portable(crc0, buf.data(), n))
        << "seed " << seed << " length " << n;
  }
}

}  // namespace
}  // namespace ptucker
