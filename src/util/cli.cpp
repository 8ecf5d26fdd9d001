#include "rrsim/util/cli.h"

#include <cmath>
#include <stdexcept>

namespace rrsim::util {

namespace {

bool looks_like_flag(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string key;
    std::string value;
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else {
      key = arg;
      // `--key value` form: consume the next token if it is not a flag.
      if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
        value = argv[++i];
      }
    }
    if (key.empty()) throw std::invalid_argument("empty flag name");
    values_[key] = value;
    seen_.push_back(key);
  }
}

bool Cli::has(const std::string& name) const {
  return raw(name).has_value();
}

std::optional<std::string> Cli::raw(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  read_.insert(name);
  return it->second;
}

void Cli::reject_unread() const {
  std::string unread;
  std::size_t count = 0;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) != 0) continue;
    unread += (count++ == 0 ? "--" : ", --") + name;
  }
  if (count != 0) {
    throw std::invalid_argument(
        std::string(count == 1 ? "unknown flag " : "unknown flags ") +
        unread);
  }
}

std::string Cli::get_string(const std::string& name,
                            const std::string& fallback) const {
  const auto v = raw(name);
  return v ? *v : fallback;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" +
                                *v + "'");
  }
}

std::int64_t Cli::get_int_in(const std::string& name, std::int64_t fallback,
                             std::int64_t lo, std::int64_t hi) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    const std::int64_t out = get_int(name, fallback);
    if (out >= lo && out <= hi) return out;
  } catch (const std::invalid_argument&) {
    // not an integer, or outside int64: reported with the range below
  }
  throw std::invalid_argument("--" + name + " must be an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "] (got '" + *v + "')");
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos == v->size() && std::isfinite(out)) return out;
  } catch (const std::exception&) {
    // not a number, or outside double: reported below
  }
  throw std::invalid_argument("flag --" + name +
                              " expects a finite number, got '" + *v + "'");
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto v = raw(name);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" +
                              *v + "'");
}

}  // namespace rrsim::util
