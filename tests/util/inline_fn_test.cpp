// Tests for the non-allocating callable type: lifetime of captures and
// move semantics.
#include "rrsim/util/inline_fn.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace {

using rrsim::util::InlineFunction;

TEST(InlineFunction, InvokesAndReportsEngaged) {
  int hits = 0;
  InlineFunction<64> fn = [&hits] { ++hits; };
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  EXPECT_FALSE(static_cast<bool>(InlineFunction<64>{}));
}

TEST(InlineFunction, MoveTransfersCallableAndEmptiesSource) {
  int hits = 0;
  InlineFunction<64> a = [&hits] { ++hits; };
  InlineFunction<64> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  InlineFunction<64> c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DestructionAndResetReleaseCaptures) {
  const auto token = std::make_shared<int>(1);
  {
    InlineFunction<64> fn = [token] { (void)*token; };
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);  // destructor ran the capture's dtor
  InlineFunction<64> fn = [token] { (void)*token; };
  EXPECT_EQ(token.use_count(), 2);
  fn = nullptr;
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_FALSE(static_cast<bool>(fn));
}

TEST(InlineFunction, AssignmentReplacesPreviousCapture) {
  const auto first = std::make_shared<int>(1);
  const auto second = std::make_shared<int>(2);
  InlineFunction<64> fn = [first] { (void)*first; };
  fn = InlineFunction<64>([second] { (void)*second; });
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 2);
}

}  // namespace
