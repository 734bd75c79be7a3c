#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "src/util/rng.h"
#include "src/util/table.h"

namespace hmdsm {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, RangeInclusiveCoversEndpoints) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.range(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_TRUE(seen.count(-3));
  EXPECT_TRUE(seen.count(3));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BelowOfZeroIsError) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), CheckError);
}

// ---------------------------------------------------------------------------
// Table formatting
// ---------------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "10000"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("10,000") == std::string::npos, false)
      << "cells are printed verbatim";
  // Every printed line has the same width for the numeric column edge.
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), CheckError);
}

TEST(Fmt, Integers) {
  EXPECT_EQ(FmtI(0), "0");
  EXPECT_EQ(FmtI(999), "999");
  EXPECT_EQ(FmtI(1000), "1,000");
  EXPECT_EQ(FmtI(1234567), "1,234,567");
  EXPECT_EQ(FmtI(-1234567), "-1,234,567");
}

TEST(Fmt, Fixed) {
  EXPECT_EQ(FmtF(3.14159, 2), "3.14");
  EXPECT_EQ(FmtF(-0.5, 1), "-0.5");
}

TEST(Fmt, Percent) {
  EXPECT_EQ(FmtPct(0.123), "+12.3%");
  EXPECT_EQ(FmtPct(-0.05), "-5.0%");
}

TEST(Fmt, Bytes) {
  EXPECT_EQ(FmtBytes(512), "512.0 B");
  EXPECT_EQ(FmtBytes(1536), "1.5 KB");
  EXPECT_EQ(FmtBytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(Fmt, Seconds) {
  EXPECT_EQ(FmtSeconds(2.5), "2.500 s");
  EXPECT_EQ(FmtSeconds(0.0025), "2.50 ms");
  EXPECT_EQ(FmtSeconds(70e-6), "70.0 us");
  EXPECT_EQ(FmtSeconds(5e-9), "5 ns");
}

}  // namespace
}  // namespace hmdsm
