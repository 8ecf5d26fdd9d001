#include "rrsim/core/scheme.h"

#include <gtest/gtest.h>

#include <vector>

namespace rrsim::core {
namespace {

TEST(Scheme, NoneDegreeIsOne) {
  const RedundancyScheme s = RedundancyScheme::none();
  EXPECT_TRUE(s.is_none());
  for (std::size_t n : {1u, 2u, 10u, 100u}) EXPECT_EQ(s.degree(n), 1u);
  EXPECT_EQ(s.name(), "NONE");
}

TEST(Scheme, FixedDegreeSaturatesAtN) {
  const RedundancyScheme r4 = RedundancyScheme::fixed(4);
  EXPECT_EQ(r4.degree(10), 4u);
  EXPECT_EQ(r4.degree(4), 4u);
  EXPECT_EQ(r4.degree(2), 2u);
  EXPECT_EQ(r4.name(), "R4");
  EXPECT_THROW(RedundancyScheme::fixed(0), std::invalid_argument);
}

TEST(Scheme, HalfIsCeilOfHalf) {
  const RedundancyScheme h = RedundancyScheme::half();
  EXPECT_EQ(h.degree(10), 5u);
  EXPECT_EQ(h.degree(9), 5u);
  EXPECT_EQ(h.degree(2), 1u);
  EXPECT_EQ(h.degree(1), 1u);
  EXPECT_EQ(h.degree(20), 10u);
  EXPECT_EQ(h.name(), "HALF");
}

TEST(Scheme, AllUsesEveryCluster) {
  const RedundancyScheme a = RedundancyScheme::all();
  EXPECT_EQ(a.degree(10), 10u);
  EXPECT_EQ(a.degree(1), 1u);
  EXPECT_EQ(a.name(), "ALL");
}

TEST(Scheme, ParseRoundTrip) {
  for (const char* name : {"NONE", "R2", "R3", "R4", "R17", "HALF", "ALL"}) {
    EXPECT_EQ(RedundancyScheme::parse(name).name(), name);
  }
  EXPECT_EQ(RedundancyScheme::parse("none").name(), "NONE");
  EXPECT_EQ(RedundancyScheme::parse("half").name(), "HALF");
  EXPECT_EQ(RedundancyScheme::parse("all").name(), "ALL");
  EXPECT_EQ(RedundancyScheme::parse("r3").name(), "R3");
}

TEST(Scheme, ParseRejectsGarbage) {
  for (const char* bad : {"", "R", "Rx", "R0", "R-1", "SOME", "R2extra"}) {
    EXPECT_THROW(RedundancyScheme::parse(bad), std::invalid_argument)
        << "input: " << bad;
  }
}

TEST(Scheme, DegreeRejectsEmptyPlatform) {
  EXPECT_THROW(RedundancyScheme::all().degree(0), std::invalid_argument);
}

TEST(Scheme, EffectiveSchemeIsTheDegreeItRuns) {
  struct Case {
    RedundancyScheme scheme;
    std::size_t n;
    RedundancyScheme effective;
  };
  const RedundancyScheme none = RedundancyScheme::none();
  const std::vector<Case> cases = {
      {RedundancyScheme::half(), 2, none},
      {RedundancyScheme::fixed(1), 5, none},
      {none, 4, none},
      {RedundancyScheme::fixed(3), 2, RedundancyScheme::fixed(2)},
      {RedundancyScheme::all(), 3, RedundancyScheme::fixed(3)},
      {RedundancyScheme::half(), 4, RedundancyScheme::fixed(2)},
      {RedundancyScheme::half(), 10, RedundancyScheme::fixed(5)},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.scheme.effective(c.n), c.effective)
        << c.scheme.name() << " at N = " << c.n;
    EXPECT_EQ(c.scheme.effective(c.n).degree(c.n), c.scheme.degree(c.n));
  }
  EXPECT_THROW(RedundancyScheme::all().effective(0), std::invalid_argument);
}

TEST(Scheme, Equality) {
  EXPECT_EQ(RedundancyScheme::fixed(2), RedundancyScheme::parse("R2"));
  EXPECT_NE(RedundancyScheme::fixed(2), RedundancyScheme::fixed(3));
  EXPECT_NE(RedundancyScheme::none(), RedundancyScheme::all());
}

}  // namespace
}  // namespace rrsim::core
