// The JSON writer behind every BENCH_*.json perf record, and the timing
// summary those records carry. Header-only and free of rrsim types, so a
// test can pin its bytes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rrsim::bench {

/// Seconds of one timed row: the median of `runs` timed calls, with the
/// fastest and the slowest beside it.
struct Timing {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  int runs = 0;
};

/// Median (the upper one for an even count), min and max of per-run
/// seconds.
inline Timing summarize(std::vector<double> seconds) {
  if (seconds.empty()) throw std::invalid_argument("summarize: no runs");
  std::sort(seconds.begin(), seconds.end());
  return Timing{seconds[seconds.size() / 2], seconds.front(), seconds.back(),
                static_cast<int>(seconds.size())};
}

/// Builds one JSON document in memory: it places commas and newlines,
/// checks that keys appear only in objects and every container is closed,
/// escapes strings, and writes a non-finite number as null. Nothing
/// reaches the disk until write_file(), so a bench calls it only after
/// every check has passed and a failed check leaves no partial record.
/// Containers opened inline (and everything inside them) print on one
/// line.
class JsonWriter {
 public:
  JsonWriter& begin_object(bool single_line = false) {
    return open('{', single_line);
  }
  JsonWriter& end_object() { return close('{', '}'); }
  JsonWriter& begin_array(bool single_line = false) {
    return open('[', single_line);
  }
  JsonWriter& end_array() { return close('[', ']'); }

  /// Names the next value of the enclosing object.
  JsonWriter& key(std::string_view name) {
    if (stack_.empty() || stack_.back().kind != '{' ||
        stack_.back().keyed) {
      throw std::logic_error("json: key outside an object or after a key");
    }
    separate();
    quoted(name);
    out_ += ": ";
    stack_.back().keyed = true;
    return *this;
  }

  JsonWriter& value(std::string_view s) {
    before_value();
    quoted(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(bool b) {
    before_value();
    out_ += b ? "true" : "false";
    return *this;
  }
  template <typename Int>
    requires(std::is_integral_v<Int> && !std::is_same_v<Int, bool>)
  JsonWriter& value(Int n) {
    before_value();
    out_ += std::to_string(n);
    return *this;
  }
  /// Fixed-point with `decimals` digits after the point; NaN and the
  /// infinities have no JSON spelling and are written as null.
  JsonWriter& value(double x, int decimals = 4) {
    if (!std::isfinite(x)) return null();
    before_value();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, x);
    out_ += buf;
    return *this;
  }
  /// A timed row on one line: median, min and max seconds (to the
  /// microsecond), and the runs.
  JsonWriter& value(const Timing& t) {
    begin_object(true);
    field("median", t.median, 6).field("min", t.min, 6);
    return field("max", t.max, 6).field("runs", t.runs).end_object();
  }
  JsonWriter& null() {
    before_value();
    out_ += "null";
    return *this;
  }

  /// key(name) then value(args...).
  template <typename... Args>
  JsonWriter& field(std::string_view name, Args&&... args) {
    key(name);
    return value(std::forward<Args>(args)...);
  }

  /// The speedup of `subject` over `reference`: the ratio of their
  /// medians, with the least and most favourable ratio of their extremes
  /// beside it.
  JsonWriter& speedup(std::string_view name, const Timing& reference,
                      const Timing& subject) {
    key(name).begin_object(true);
    field("median", reference.median / subject.median);
    field("min", reference.min / subject.max);
    return field("max", reference.max / subject.min).end_object();
  }

  /// speedup() for worker threads over fewer. On one hardware thread such
  /// a ratio measures only scheduling overhead (the 0.83 an early
  /// BENCH_sweep.json recorded on a 1-core box), so it is written as null
  /// beside a `<name>_note` saying why.
  JsonWriter& parallel_speedup(std::string_view name,
                               const Timing& reference,
                               const Timing& subject) {
    if (std::thread::hardware_concurrency() > 1) {
      return speedup(name, reference, subject);
    }
    key(name).null();
    return field(std::string(name) + "_note",
                 "single hardware thread: parallel speedup is not "
                 "measurable on this machine");
  }

  /// The finished document. Throws std::logic_error while a container is
  /// still open or nothing was written.
  const std::string& text() const {
    if (!stack_.empty() || !done_) {
      throw std::logic_error("json: document incomplete");
    }
    return out_;
  }

  /// Writes the finished document, newline-terminated, to `path`.
  void write_file(const std::string& path) const {
    const std::string& doc = text();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) ==
                           doc.size() &&
                       std::fputc('\n', f) != EOF;
    if (std::fclose(f) != 0 || !wrote) {
      throw std::runtime_error("cannot write " + path);
    }
  }

 private:
  struct Frame {
    char kind;         // '{' or '['
    bool single_line;  // this container and everything inside it
    bool keyed = false;  // an object member's key is written, value due
    int count = 0;       // members or elements so far
  };

  // Comma and line break (or space) before the next member or element.
  void separate() {
    Frame& top = stack_.back();
    if (top.count++ > 0) out_ += ',';
    if (top.single_line) {
      if (top.count > 1) out_ += ' ';
    } else {
      newline(stack_.size());
    }
  }

  void before_value() {
    if (stack_.empty()) {
      if (done_) throw std::logic_error("json: second top-level value");
      done_ = true;
      return;
    }
    Frame& top = stack_.back();
    if (top.kind == '{') {
      if (!top.keyed) throw std::logic_error("json: value without a key");
      top.keyed = false;
    } else {
      separate();
    }
  }

  JsonWriter& open(char kind, bool single_line) {
    before_value();
    out_ += kind;
    const bool parent_single = !stack_.empty() && stack_.back().single_line;
    stack_.push_back(Frame{kind, single_line || parent_single});
    return *this;
  }

  JsonWriter& close(char kind, char closer) {
    if (stack_.empty() || stack_.back().kind != kind ||
        stack_.back().keyed) {
      throw std::logic_error("json: mismatched close");
    }
    const Frame top = stack_.back();
    stack_.pop_back();
    if (top.count > 0 && !top.single_line) newline(stack_.size());
    out_ += closer;
    return *this;
  }

  void newline(std::size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }

  void quoted(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      switch (c) {
        case '"': out_ += "\\\""; break;
        case '\\': out_ += "\\\\"; break;
        case '\n': out_ += "\\n"; break;
        case '\r': out_ += "\\r"; break;
        case '\t': out_ += "\\t"; break;
        case '\b': out_ += "\\b"; break;
        case '\f': out_ += "\\f"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(static_cast<unsigned char>(c)));
            out_ += buf;
          } else {
            out_ += c;
          }
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Frame> stack_;
  bool done_ = false;  // the top-level value has begun
};

}  // namespace rrsim::bench
