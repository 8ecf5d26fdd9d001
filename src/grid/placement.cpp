#include "rrsim/grid/placement.h"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace rrsim::grid {

namespace {

/// Appends the clusters other than `origin` that can run a `nodes`-wide
/// job to `out`, in id order.
void append_eligible(std::size_t origin, int nodes, const PlatformView& view,
                     std::vector<std::size_t>& out) {
  for (std::size_t i = 0; i < view.cluster_sizes.size(); ++i) {
    if (i != origin && view.cluster_sizes[i] >= nodes) out.push_back(i);
  }
}

/// Most picks the implicit-pool draw makes: its displaced slots live in a
/// fixed array on the stack.
constexpr std::size_t kMaxImplicitPicks = 32;

/// Partial Fisher-Yates over the implicit pool of every cluster but
/// `origin`: slot x < m holds cluster x + (x >= origin) until a swap
/// displaces it, and only displaced slots are stored. Makes the dense
/// shuffle's rng.below(m - i) calls and appends the same `take` picks.
/// Each lookup scans at most `take` slots.
void implicit_choice(std::size_t origin, std::size_t m, std::size_t take,
                     util::Rng& rng, std::vector<std::size_t>& targets) {
  struct Slot {
    std::size_t index;
    std::size_t value;
  };
  std::array<Slot, kMaxImplicitPicks> displaced{};
  std::size_t n_displaced = 0;
  const auto find = [&displaced, &n_displaced](std::size_t index) -> Slot* {
    for (std::size_t k = 0; k < n_displaced; ++k) {
      if (displaced[k].index == index) return &displaced[k];
    }
    return nullptr;
  };
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
    Slot* at_j = find(j);
    const std::size_t picked = at_j != nullptr ? at_j->value : j;
    if (j != i) {
      // Slot j takes what slot i held; slot i is never read again.
      const Slot* at_i = find(i);
      const std::size_t moved = at_i != nullptr ? at_i->value : i;
      if (at_j != nullptr) {
        at_j->value = moved;
      } else {
        displaced[n_displaced++] = Slot{j, moved};
      }
    }
    targets.push_back(picked >= origin ? picked + 1 : picked);
  }
}

/// Appends min(count, eligible) distinct eligible remotes drawn uniformly.
/// Where the job fits every cluster and take^2 <= m, the draw runs over
/// the implicit pool; otherwise the pool is listed in `targets` and
/// shuffled in place. Both make the same draws and the same picks.
void uniform_choice(std::size_t origin, int nodes, const PlatformView& view,
                    std::size_t count, util::Rng& rng,
                    std::vector<std::size_t>& targets) {
  const std::size_t n = view.cluster_sizes.size();
  if (origin < n && nodes <= view.smallest_cluster) {
    const std::size_t m = n - 1;
    const std::size_t take = std::min(count, m);
    if (take <= kMaxImplicitPicks && take * take <= m) {
      implicit_choice(origin, m, take, rng, targets);
      return;
    }
  }
  const std::size_t base = targets.size();
  append_eligible(origin, nodes, view, targets);
  const std::size_t m = targets.size() - base;
  const std::size_t take = std::min(count, m);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(m - i));
    std::swap(targets[base + i], targets[base + j]);
  }
  targets.resize(base + take);
}

}  // namespace

void UniformPlacement::choose_remotes(std::size_t origin, int nodes,
                                      const PlatformView& view,
                                      std::size_t count, util::Rng& rng,
                                      std::vector<std::size_t>& targets) const {
  uniform_choice(origin, nodes, view, count, rng, targets);
}

void BiasedPlacement::choose_remotes(std::size_t origin, int nodes,
                                     const PlatformView& view,
                                     std::size_t count, util::Rng& rng,
                                     std::vector<std::size_t>& targets) const {
  std::vector<std::size_t> pool;
  append_eligible(origin, nodes, view, pool);
  // Weight 2^-rank by id order; sample without replacement.
  std::vector<double> weights(pool.size());
  double w = 1.0;
  for (std::size_t i = 0; i < pool.size(); ++i, w *= 0.5) weights[i] = w;
  const std::size_t take = std::min(count, pool.size());
  for (std::size_t c = 0; c < take; ++c) {
    double total = 0.0;
    for (const double x : weights) total += x;
    double u = rng.uniform01() * total;
    std::size_t pick = pool.size() - 1;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (weights[i] <= 0.0) continue;
      if (u < weights[i]) {
        pick = i;
        break;
      }
      u -= weights[i];
    }
    // Guard against picking an exhausted slot via fp round-off.
    while (weights[pick] <= 0.0 && pick > 0) --pick;
    targets.push_back(pool[pick]);
    weights[pick] = 0.0;
  }
}

void LeastLoadedPlacement::choose_remotes(
    std::size_t origin, int nodes, const PlatformView& view,
    std::size_t count, util::Rng& rng,
    std::vector<std::size_t>& targets) const {
  if (view.queue_lengths.size() != view.cluster_sizes.size()) {
    // No live queue information: degrade gracefully to the blind choice.
    uniform_choice(origin, nodes, view, count, rng, targets);
    return;
  }
  const std::size_t base = targets.size();
  append_eligible(origin, nodes, view, targets);
  const auto pool = targets.begin() + static_cast<std::ptrdiff_t>(base);
  std::sort(pool, targets.end(), [&view](std::size_t a, std::size_t b) {
    if (view.queue_lengths[a] != view.queue_lengths[b]) {
      return view.queue_lengths[a] < view.queue_lengths[b];
    }
    return a < b;
  });
  targets.resize(base + std::min(count, targets.size() - base));
}

std::unique_ptr<PlacementPolicy> make_placement(const std::string& name) {
  if (name == "uniform") return std::make_unique<UniformPlacement>();
  if (name == "biased") return std::make_unique<BiasedPlacement>();
  if (name == "least-loaded") return std::make_unique<LeastLoadedPlacement>();
  throw std::invalid_argument("unknown placement policy: " + name);
}

}  // namespace rrsim::grid
