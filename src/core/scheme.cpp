#include "rrsim/core/scheme.h"

#include <algorithm>
#include <stdexcept>

namespace rrsim::core {

RedundancyScheme RedundancyScheme::fixed(int k) {
  if (k < 1) throw std::invalid_argument("R<k> needs k >= 1");
  return {Kind::kFixed, k};
}

RedundancyScheme RedundancyScheme::parse(const std::string& name) {
  if (name == "NONE" || name == "none") return none();
  if (name == "HALF" || name == "half") return half();
  if (name == "ALL" || name == "all") return all();
  if ((name.size() >= 2) && (name[0] == 'R' || name[0] == 'r')) {
    try {
      std::size_t pos = 0;
      const int k = std::stoi(name.substr(1), &pos);
      if (pos == name.size() - 1) return fixed(k);
    } catch (const std::exception&) {
      // fall through to the error below
    }
  }
  throw std::invalid_argument("unknown redundancy scheme: " + name);
}

std::size_t RedundancyScheme::degree(std::size_t n_clusters) const {
  if (n_clusters == 0) throw std::invalid_argument("empty platform");
  switch (kind) {
    case Kind::kNone:
      return 1;
    case Kind::kFixed:
      return std::min<std::size_t>(static_cast<std::size_t>(k), n_clusters);
    case Kind::kHalf:
      return std::max<std::size_t>(1, (n_clusters + 1) / 2);
    case Kind::kAll:
      return n_clusters;
  }
  throw std::logic_error("unreachable");
}

RedundancyScheme RedundancyScheme::effective(std::size_t n_clusters) const {
  const std::size_t d = degree(n_clusters);
  return d <= 1 ? none() : fixed(static_cast<int>(d));
}

std::string RedundancyScheme::name() const {
  switch (kind) {
    case Kind::kNone:
      return "NONE";
    case Kind::kFixed:
      return "R" + std::to_string(k);
    case Kind::kHalf:
      return "HALF";
    case Kind::kAll:
      return "ALL";
  }
  throw std::logic_error("unreachable");
}

}  // namespace rrsim::core
