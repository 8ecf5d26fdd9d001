#include "rrsim/workload/swf.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "rrsim/util/rng.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::workload {
namespace {

TEST(SwfReader, ParsesMinimalTrace) {
  std::istringstream in(
      "; comment header\n"
      "\n"
      "1 10 5 100 4 -1 -1 4 200 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 20 0 50 8 -1 -1 8 60 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const JobStream s = read_swf(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].submit_time, 10.0);
  EXPECT_EQ(s[0].runtime, 100.0);
  EXPECT_EQ(s[0].nodes, 4);
  EXPECT_EQ(s[0].requested_time, 200.0);
  EXPECT_EQ(s[1].nodes, 8);
}

TEST(SwfReader, FallsBackToAllocatedProcs) {
  std::istringstream in("1 0 0 100 16 -1 -1 -1 -1\n");
  const JobStream s = read_swf(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].nodes, 16);
  EXPECT_EQ(s[0].requested_time, 100.0);  // falls back to runtime
}

TEST(SwfReader, SkipsCancelledEntries) {
  std::istringstream in(
      "1 0 0 -1 4 -1 -1 4 100 -1 0 -1 -1 -1 -1 -1 -1 -1\n"
      "2 5 0 50 0 -1 -1 0 100 -1 0 -1 -1 -1 -1 -1 -1 -1\n"
      "3 9 0 50 2 -1 -1 2 100 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const JobStream s = read_swf(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].submit_time, 9.0);
}

TEST(SwfReader, SortsBySubmitTime) {
  std::istringstream in(
      "1 30 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n"
      "2 10 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const JobStream s = read_swf(in);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_LT(s[0].submit_time, s[1].submit_time);
}

TEST(SwfReader, MalformedLineThrows) {
  std::istringstream in("1 2 3\n");
  EXPECT_THROW(read_swf(in), std::runtime_error);
  // Non-finite or overflowing numbers fail the stream extraction itself,
  // so the line comes up short of fields instead of carrying a NaN or an
  // infinity into the submit-time sort.
  for (const char* bad : {"nan", "inf", "1e400"}) {
    for (const std::string& line :
         {std::string("1 ") + bad + " 0 100 4 -1 -1 4 50 -1 1 -1\n",
          std::string("1 0 0 ") + bad + " 4 -1 -1 4 50 -1 1 -1\n"}) {
      std::istringstream field(line);
      try {
        read_swf(field);
        ADD_FAILURE() << "accepted: " << line;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("expected >= 9 fields"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(SwfReader, OutOfRangeProcessorCountThrowsWithTheLine) {
  // Requested processors (field 8) and the allocated fallback (field 5)
  // are both range-checked before the int conversion.
  for (const char* line :
       {"1 0 0 100 4 -1 -1 1e12 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
        "1 0 0 100 1e12 -1 -1 -1 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n",
        "1 0 0 100 4 -1 -1 2147483648 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n"}) {
    std::istringstream in(std::string("; header\n") +
                          "1 0 0 100 4 -1 -1 4 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n" +
                          line);
    try {
      read_swf(in);
      ADD_FAILURE() << "accepted: " << line;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  std::istringstream widest(
      "1 0 0 100 4 -1 -1 2147483647 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const JobStream s = read_swf(widest);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0].nodes, 2147483647);
}

TEST(SwfReader, RequestedTimeNeverBelowRuntime) {
  std::istringstream in("1 0 0 100 4 -1 -1 4 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n");
  const JobStream s = read_swf(in);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_GE(s[0].requested_time, s[0].runtime);
}

TEST(SwfRoundTrip, PreservesJobs) {
  util::Rng rng(5);
  const LublinModel model(LublinParams{}, 64);
  const JobStream original = model.generate_stream(rng, 1800.0);
  ASSERT_FALSE(original.empty());
  std::stringstream buffer;
  write_swf(buffer, original);
  const JobStream restored = read_swf(buffer);
  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    // Text round trip: compare with tolerance.
    ASSERT_NEAR(restored[i].submit_time, original[i].submit_time, 1e-4);
    ASSERT_EQ(restored[i].nodes, original[i].nodes);
    ASSERT_NEAR(restored[i].runtime, original[i].runtime,
                1e-4 * original[i].runtime + 1e-4);
    ASSERT_NEAR(restored[i].requested_time, original[i].requested_time,
                1e-4 * original[i].requested_time + 1e-4);
  }
}

TEST(SwfWriter, EmitsHeaderWithMaxProcs) {
  JobStream s(1);
  s[0].nodes = 32;
  std::ostringstream out;
  write_swf(out, s);
  EXPECT_NE(out.str().find("MaxProcs: 32"), std::string::npos);
}

TEST(SwfFile, MissingFileThrows) {
  EXPECT_THROW(read_swf_file("/nonexistent/path.swf"), std::runtime_error);
}

}  // namespace
}  // namespace rrsim::workload
