#include "rrsim/workload/swf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "rrsim/util/rng.h"
#include "rrsim/workload/lublin.h"

namespace rrsim::workload {
namespace {

// read_swf as it was when it extracted fields with `>>` from an
// istringstream per line, kept verbatim as the reference the one-pass
// parser must match on well-formed text.
JobStream reference_read_swf(std::istream& in) {
  JobStream stream;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip leading whitespace; skip blanks and `;` comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == ';') continue;
    std::istringstream fields(line);
    std::vector<double> f;
    double v = 0.0;
    while (fields >> v) f.push_back(v);
    if (f.size() < 9) {
      throw std::runtime_error("SWF line " + std::to_string(lineno) +
                               ": expected >= 9 fields, got " +
                               std::to_string(f.size()));
    }
    const double submit = f[1];
    const double runtime = f[3];
    double procs = f[7] > 0 ? f[7] : f[4];
    double requested = f[8] > 0 ? f[8] : runtime;
    if (runtime <= 0.0 || procs <= 0.0) continue;  // cancelled/failed entry
    if (!(procs <= static_cast<double>(std::numeric_limits<int>::max()))) {
      throw std::runtime_error("SWF line " + std::to_string(lineno) +
                               ": processor count out of range");
    }
    JobSpec spec;
    spec.submit_time = submit;
    spec.nodes = static_cast<int>(procs);
    spec.runtime = runtime;
    spec.requested_time = std::max(requested, runtime);
    stream.push_back(spec);
  }
  // Stable: jobs tied on submit_time keep their SWF file order, so the
  // parse is deterministic across standard libraries.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     return a.submit_time < b.submit_time;
                   });
  return stream;
}

/// Well-formed SWF text from a seed, in the spellings real logs and
/// write_swf use: see SwfReader.SeededLinesMatchTheStreamExtractor.
class SwfTextGenerator {
 public:
  explicit SwfTextGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string text() {
    std::string out;
    const bool in_order = rng_.chance(0.5);
    const bool crlf = rng_.chance(0.3);
    const auto lines = rng_.below(80);
    double submit = rng_.chance(0.5) ? 0.0 : rng_.uniform(0.0, 1e6);
    for (std::uint64_t l = 0; l < lines; ++l) {
      const double kind = rng_.uniform01();
      if (kind < 0.08) {
        out += std::string(rng_.below(3), ' ') + "; MaxProcs: " +
               std::to_string(rng_.below(1024)) + " ; \t x";
      } else if (kind < 0.14) {
        out += blank();
      } else {
        // Ties, steps forward and (out of order) steps back.
        const double step = rng_.chance(0.3) ? 0.0 : rng_.uniform(0.0, 600.0);
        submit = std::max(0.0, in_order || rng_.chance(0.8) ? submit + step
                                                            : submit - step);
        out += job_line(submit);  // may round submit up to what it prints
      }
      if (l + 1 < lines || rng_.chance(0.7)) out += crlf ? "\r\n" : "\n";
    }
    return out;
  }

 private:
  std::string blank() {
    static const char* const kBlanks[] = {"", " ", "\t", "  \t ", "\r"};
    return kBlanks[rng_.below(5)];
  }

  /// Between tokens: tabs and runs of spaces, rarely \v or \f.
  std::string separator() {
    if (rng_.chance(0.02)) return rng_.chance(0.5) ? "\v" : "\f";
    std::string sep(1 + rng_.below(3), ' ');
    if (rng_.chance(0.3)) sep[rng_.below(sep.size())] = '\t';
    return sep;
  }

  /// `v` at 17 significant digits, as write_swf prints it.
  static std::string decimal(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }

  /// An integer-valued field, spelled the ways both extractors agree on.
  std::string integer(std::int64_t v) {
    const double pick = rng_.uniform01();
    std::string s = std::to_string(v);
    if (pick < 0.05 && v >= 0) return "+" + s;
    if (pick < 0.08) return s + ".";
    if (pick < 0.11) return s + "e0";
    if (pick < 0.14) return decimal(static_cast<double>(v));
    return s;
  }

  /// A real-valued field: integer, -1, or a 17-digit decimal, sometimes
  /// below one without its leading zero (".25") or in exponent form.
  std::string real(double lo, double hi) {
    const double pick = rng_.uniform01();
    if (pick < 0.15) return "-1";
    if (pick < 0.35) {
      return integer(static_cast<std::int64_t>(rng_.uniform(lo, hi)));
    }
    if (pick < 0.40) {
      std::string s = decimal(rng_.uniform01());
      if (s.rfind("0.", 0) == 0 && rng_.chance(0.5)) s.erase(0, 1);
      return s;
    }
    if (pick < 0.45) {
      char buf[40];
      std::snprintf(buf, sizeof buf, rng_.chance(0.5) ? "%.16e" : "%.16E",
                    rng_.uniform(lo, hi));
      return buf;
    }
    std::string s = decimal(rng_.uniform(lo, hi));
    if (pick < 0.48 && s[0] != '-') s.insert(0, "+");
    return s;
  }

  std::string junk() {
    static const char* const kJunk[] = {"abc",  "5abc", "1.2.3", "0x10", "nan",
                                        "inf",  "1e",   "1e400", "+-5",  "#"};
    return kJunk[rng_.below(10)];
  }

  std::string job_line(double& submit) {
    const auto fields = 9 + rng_.below(10);
    std::string line;
    if (rng_.chance(0.2)) line += rng_.chance(0.5) ? "  " : "\t";
    for (std::uint64_t i = 0; i < fields; ++i) {
      if (i > 0) line += separator();
      switch (i) {
        case 0:
          line += integer(static_cast<std::int64_t>(++id_));
          break;
        case 1:
          if (rng_.chance(0.5)) {
            line += decimal(submit);
          } else {
            submit = std::ceil(submit);  // keeps an in-order file in order
            line += integer(static_cast<std::int64_t>(submit));
          }
          break;
        case 3:  // run time; -1 and 0 mark cancelled entries
          line += rng_.chance(0.05) ? "0" : real(0.0, 2e5);
          break;
        case 4:  // allocated processors
        case 7:  // requested processors
          line += rng_.chance(0.2) ? "-1"
                                   : integer(static_cast<std::int64_t>(
                                         rng_.below(4096)));
          break;
        default:
          line += i >= 9 && rng_.chance(0.1) ? junk() : real(-1e3, 1e7);
      }
    }
    if (rng_.chance(0.1)) line += " ";
    return line;
  }

  util::Rng rng_;
  std::uint64_t id_ = rng_.chance(0.5) ? 0 : 1000000000;
};

/// Fails unless `a` and `b` hold the same jobs, field by field, bit for
/// bit.
void expect_bitwise_equal(const JobStream& a, const JobStream& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].submit_time),
              std::bit_cast<std::uint64_t>(b[i].submit_time))
        << what << " job " << i;
    ASSERT_EQ(a[i].nodes, b[i].nodes) << what << " job " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].runtime),
              std::bit_cast<std::uint64_t>(b[i].runtime))
        << what << " job " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i].requested_time),
              std::bit_cast<std::uint64_t>(b[i].requested_time))
        << what << " job " << i;
  }
}

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
  // A non-finite or overflowing number is no field at all, so the line
  // comes up short of fields instead of carrying a NaN or an infinity
  // into the submit-time sort.
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

TEST(SwfReader, SeededLinesMatchTheStreamExtractor) {
  std::size_t jobs = 0;
  std::size_t unsorted = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const std::string text = SwfTextGenerator(seed).text();
    std::istringstream ours(text);
    std::istringstream theirs(text);
    const JobStream got = read_swf(ours);
    const JobStream want = reference_read_swf(theirs);
    expect_bitwise_equal(got, want, "seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
    jobs += got.size();
    // A file whose jobs are out of submit order takes the sort.
    std::istringstream raw(text);
    std::string line;
    double last = -1.0;
    while (std::getline(raw, line)) {
      double id = 0.0;
      double submit = 0.0;
      std::istringstream fields(line);
      if (!(fields >> id >> submit)) continue;
      if (submit < last) {
        ++unsorted;
        break;
      }
      last = submit;
    }
  }
  // The generator must reach both the sorted and the unsorted path.
  EXPECT_GT(jobs, 10000u);
  EXPECT_GT(unsorted, 50u);
  EXPECT_LT(unsorted, 350u);
}

TEST(SwfReader, PartlyNumericTokensEndTheFields) {
  // Tokens that are not a finite number as a whole. The old `>>`
  // extractor read some of them in part (`5abc` as 5, `1.2.3` as 1.2 and
  // .3, `0x10` as 0) or read an underflow as 0, so on the ninth field it
  // took them; `1e` and `+-5` it already failed whole. Now each ends the
  // fields wherever it stands among the first nine.
  struct Row {
    const char* token;
    bool stream_extractor_took_it_as_ninth;
  };
  const Row rows[] = {{"5abc", true},  {"1.2.3", true}, {"1e5x", true},
                      {"0x10", true},  {"1e-400", true}, {"2e-324", true},
                      {"1e", false},   {"+-5", false}};
  const std::string header =
      "; header\n1 0 0 100 4 -1 -1 4 50 -1 1 -1 -1 -1 -1 -1 -1 -1\n";
  const char* const good[] = {"2", "10", "0",  "100", "4", "-1",
                              "-1", "4",  "50", "-1",  "1", "-1"};
  for (const Row& row : rows) {
    for (std::size_t bad = 0; bad < 9; ++bad) {
      std::string line;
      for (std::size_t i = 0; i < 12; ++i) {
        line += i == bad ? row.token : good[i];
        line += i + 1 < 12 ? " " : "\n";
      }
      std::istringstream in(header + line);
      try {
        read_swf(in);
        ADD_FAILURE() << "accepted: " << line;
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()),
                  "SWF line 3: expected >= 9 fields, got " +
                      std::to_string(bad))
            << line;
      }
      if (bad == 8) {
        std::istringstream reference(header + line);
        bool took = true;
        try {
          reference_read_swf(reference);
        } catch (const std::runtime_error&) {
          took = false;
        }
        EXPECT_EQ(took, row.stream_extractor_took_it_as_ninth) << line;
      }
    }
    // After the ninth field nothing is read.
    std::istringstream tail(header + "2 10 0 100 4 -1 -1 4 50 " +
                            row.token + "\n");
    EXPECT_EQ(read_swf(tail).size(), 2u) << row.token;
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
