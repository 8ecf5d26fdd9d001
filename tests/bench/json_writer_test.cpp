// The BENCH_*.json writer: its exact bytes (nesting, commas, escapes,
// 64-bit integers, non-finite numbers), the structural errors it refuses,
// and that nothing reaches the output path before the final write.
#include "json_writer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rrsim::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

std::string temp_path(const char* name) {
  const ::testing::TestInfo* test =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "rrsim_" + test->name() + "_" + name;
}

TEST(JsonWriter, PinsTheBytesOfANestedDocument) {
  JsonWriter w;
  w.begin_object();
  w.field("name", "q\"b\\s\nt\tc\x01\x1f");
  w.field("above_2_53", std::uint64_t{9007199254740993ULL});
  w.field("max_u64", std::numeric_limits<std::uint64_t>::max());
  w.field("negative", std::int64_t{-3});
  w.field("ratio", 1.23456).field("coarse", 2.5, 1).field("whole", 7.4, 0);
  w.field("nan", std::nan(""));
  w.field("inf", -std::numeric_limits<double>::infinity());
  w.field("flag", true).field("off", false);
  w.key("empty").begin_object().end_object();
  w.key("list").begin_array();
  w.value(1).value("x").null();
  w.begin_object().field("k", "v").end_object();
  w.begin_array().end_array();
  w.end_array();
  w.key("row").begin_object(true).field("a", 1);
  w.key("b").begin_array().value(2).value(3).end_array();
  w.key("c").begin_object().end_object().end_object();
  w.field("seconds", Timing{0.5, 0.25, 0.75, 5});
  w.speedup("speedup", Timing{2.0, 1.0, 4.0, 5}, Timing{1.0, 0.5, 2.0, 5});
  w.end_object();
  EXPECT_EQ(w.text(),
            "{\n"
            "  \"name\": \"q\\\"b\\\\s\\nt\\tc\\u0001\\u001f\",\n"
            "  \"above_2_53\": 9007199254740993,\n"
            "  \"max_u64\": 18446744073709551615,\n"
            "  \"negative\": -3,\n"
            "  \"ratio\": 1.2346,\n"
            "  \"coarse\": 2.5,\n"
            "  \"whole\": 7,\n"
            "  \"nan\": null,\n"
            "  \"inf\": null,\n"
            "  \"flag\": true,\n"
            "  \"off\": false,\n"
            "  \"empty\": {},\n"
            "  \"list\": [\n"
            "    1,\n"
            "    \"x\",\n"
            "    null,\n"
            "    {\n"
            "      \"k\": \"v\"\n"
            "    },\n"
            "    []\n"
            "  ],\n"
            "  \"row\": {\"a\": 1, \"b\": [2, 3], \"c\": {}},\n"
            "  \"seconds\": {\"median\": 0.500000, \"min\": 0.250000, "
            "\"max\": 0.750000, \"runs\": 5},\n"
            "  \"speedup\": {\"median\": 2.0000, \"min\": 0.5000, "
            "\"max\": 8.0000}\n"
            "}");
}

TEST(JsonWriter, RefusesMalformedStructure) {
  {
    JsonWriter w;
    w.begin_array();
    EXPECT_THROW(w.key("k"), std::logic_error);  // key in an array
  }
  {
    JsonWriter w;
    w.begin_object();
    EXPECT_THROW(w.value(1), std::logic_error);  // member without a key
    w.key("k");
    EXPECT_THROW(w.key("again"), std::logic_error);
    EXPECT_THROW(w.end_object(), std::logic_error);  // key without value
    w.value(1);
    EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
    EXPECT_THROW(w.text(), std::logic_error);       // still open
    w.end_object();
    EXPECT_EQ(w.text(), "{\n  \"k\": 1\n}");
    EXPECT_THROW(w.begin_object(), std::logic_error);  // second document
  }
  EXPECT_THROW(JsonWriter().text(), std::logic_error);  // nothing written
}

TEST(JsonWriter, NothingReachesThePathBeforeTheFinalWrite) {
  const std::string path = temp_path("record.json");
  std::remove(path.c_str());
  JsonWriter w;
  w.begin_object().field("benchmark", "demo");
  // A check that fails here (the record is half built) must leave no
  // file behind: the writer has touched nothing on disk.
  EXPECT_THROW(w.write_file(path), std::logic_error);
  EXPECT_FALSE(exists(path));
  w.field("checked", true).end_object();
  EXPECT_FALSE(exists(path));
  w.write_file(path);
  EXPECT_EQ(read_file(path), w.text() + "\n");
  std::remove(path.c_str());
}

TEST(JsonWriter, SummarizeGivesMedianAndExtremes) {
  const Timing odd = summarize({0.3, 0.1, 0.5, 0.2, 0.4});
  EXPECT_EQ(odd.median, 0.3);
  EXPECT_EQ(odd.min, 0.1);
  EXPECT_EQ(odd.max, 0.5);
  EXPECT_EQ(odd.runs, 5);
  const Timing even = summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.median, 3.0);  // the upper median
  EXPECT_EQ(summarize({7.0}).median, 7.0);
  EXPECT_THROW(summarize({}), std::invalid_argument);
}

}  // namespace
}  // namespace rrsim::bench
