// Minimal command-line flag parser shared by the bench and example
// binaries. Supports `--key=value`, `--key value`, and boolean `--flag`.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace rrsim::util {

/// Parsed command line. Every flag is collected at parse time, so
/// harnesses can share common options and add their own; each has() or
/// get_*() call marks its flag read, and reject_unread() then turns any
/// flag nobody asked for (a typo, --help) into an error.
class Cli {
 public:
  /// Parses argv. Throws std::invalid_argument on malformed input
  /// (e.g. a non-flag positional argument or `--key=` with empty key).
  Cli(int argc, const char* const* argv);

  /// True if `--name` was present (with or without a value).
  bool has(const std::string& name) const;

  /// String value of `--name`, or `fallback` if absent.
  std::string get_string(const std::string& name,
                         const std::string& fallback) const;

  /// Integer value of `--name`, or `fallback` if absent.
  /// Throws std::invalid_argument if present but not an integer.
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// get_int() checked against [lo, hi] before any narrowing cast by the
  /// caller. Throws std::invalid_argument naming the flag and its range
  /// if the value is not an integer in [lo, hi], including one outside
  /// int64. The fallback is returned unchecked.
  std::int64_t get_int_in(const std::string& name, std::int64_t fallback,
                          std::int64_t lo, std::int64_t hi) const;

  /// Floating-point value of `--name`, or `fallback` if absent. Throws
  /// std::invalid_argument if present but not a finite number (NaN and
  /// infinities included). The fallback is returned unchecked.
  double get_double(const std::string& name, double fallback) const;

  /// Boolean: `--name` alone, or `--name=true/false/1/0/yes/no`.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Throws std::invalid_argument naming every flag on the command line
  /// that no has() or get_*() call has read so far. Call it once every
  /// flag the program knows has been read, before any work.
  void reject_unread() const;

  /// Program name (argv[0]).
  const std::string& program() const noexcept { return program_; }

  /// All flags seen, in order, for diagnostics.
  const std::vector<std::string>& seen() const noexcept { return seen_; }

 private:
  std::optional<std::string> raw(const std::string& name) const;

  std::string program_;
  std::map<std::string, std::string> values_;  // flag -> value ("" if bare)
  std::vector<std::string> seen_;
  mutable std::set<std::string> read_;  // flags has()/get_*() asked for
};

}  // namespace rrsim::util
