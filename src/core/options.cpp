#include "rrsim/core/options.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "rrsim/exec/jobs.h"
#include "rrsim/grid/placement.h"
#include "rrsim/workload/estimators.h"

namespace rrsim::core {

LoadMode parse_load_mode(const std::string& name) {
  if (name == "shared") return LoadMode::kSharedPeak;
  if (name == "peak") return LoadMode::kPerClusterPeak;
  if (name == "util") return LoadMode::kCalibrated;
  throw std::invalid_argument("unknown load mode: " + name +
                              " (expected shared|peak|util)");
}

std::string load_mode_name(LoadMode mode) {
  switch (mode) {
    case LoadMode::kSharedPeak:
      return "shared";
    case LoadMode::kPerClusterPeak:
      return "peak";
    case LoadMode::kCalibrated:
      return "util";
  }
  throw std::logic_error("unreachable");
}

ExperimentConfig apply_common_flags(ExperimentConfig config,
                                    const util::Cli& cli) {
  // Integer flags are range-checked before their narrowing casts, so an
  // out-of-range value is an error instead of a silently wrapped one.
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  if (cli.has("clusters")) {
    config.n_clusters = static_cast<std::size_t>(
        cli.get_int_in("clusters", 0, 1, std::int64_t{1} << 20));
  }
  if (cli.has("nodes")) {
    config.nodes_per_cluster =
        static_cast<int>(cli.get_int_in("nodes", 0, 1, kIntMax));
  }
  if (cli.has("hours")) {
    const double hours = cli.get_double("hours", 0.0);
    // Finite hours can still overflow to an infinite horizon in seconds.
    if (hours < 0.0 || !std::isfinite(hours * 3600.0)) {
      throw std::invalid_argument("--hours must be >= 0 and finite in "
                                  "seconds (got " +
                                  cli.get_string("hours", "") + ")");
    }
    config.submit_horizon = hours * 3600.0;
  }
  if (cli.has("algo")) {
    config.algorithm = sched::parse_algorithm(cli.get_string("algo", ""));
  }
  // Names are checked by the factories run_experiment calls, so a bad one
  // fails here, before any set-up, and the name lists stay in one place.
  if (cli.has("estimator")) {
    config.estimator = cli.get_string("estimator", "exact");
    (void)workload::make_estimator(config.estimator);
  }
  if (cli.has("scheme")) {
    config.scheme = RedundancyScheme::parse(cli.get_string("scheme", ""));
  }
  if (cli.has("percent")) {
    const double percent = cli.get_double("percent", 100.0);
    if (percent < 0.0 || percent > 100.0) {
      throw std::invalid_argument("--percent must be in [0, 100] (got " +
                                  cli.get_string("percent", "") + ")");
    }
    config.redundant_fraction = percent / 100.0;
  }
  if (cli.has("placement")) {
    config.placement = cli.get_string("placement", "uniform");
    (void)grid::make_placement(config.placement);
  }
  if (cli.has("load")) {
    config.load_mode = parse_load_mode(cli.get_string("load", "shared"));
  }
  if (cli.has("util")) {
    const double util = cli.get_double("util", 0.92);
    if (!(util > 0.0) || !std::isfinite(util)) {
      throw std::invalid_argument("--util must be finite and > 0 (got " +
                                  cli.get_string("util", "") + ")");
    }
    config.target_utilization = util;
    config.load_mode = LoadMode::kCalibrated;
  }
  if (cli.has("protocol")) {
    const std::string p = cli.get_string("protocol", "drain");
    if (p == "drain") {
      config.drain = true;
    } else if (p == "truncate") {
      config.drain = false;
    } else {
      throw std::invalid_argument("unknown protocol: " + p);
    }
  }
  if (cli.has("mw-rate")) {
    const double rate = cli.get_double("mw-rate", 0.0);
    if (rate < 0.0) {
      throw std::invalid_argument("--mw-rate must be >= 0 ops/s (got " +
                                  cli.get_string("mw-rate", "") +
                                  "; 0 = instantaneous)");
    }
    config.middleware_ops_per_sec = rate;
  }
  if (cli.has("user-limit")) {
    config.per_user_pending_limit =
        static_cast<int>(cli.get_int_in("user-limit", 0, 0, kIntMax));
  }
  if (cli.has("users")) {
    config.users_per_cluster =
        static_cast<int>(cli.get_int_in("users", 0, 1, 4096));
  }
  if (cli.has("seed")) {
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  }
  if (cli.has("window")) {
    const std::int64_t window = cli.get_int("window", 0);
    if (window < 0) {
      throw std::invalid_argument("--window must be >= 0 jobs (got " +
                                  std::to_string(window) + "; 0 disables "
                                  "windowed generation)");
    }
    config.stream_window = static_cast<std::size_t>(window);
  }
  apply_jobs_flag(cli);
  if (cli.has("latency")) {
    const double latency = cli.get_double("latency", 0.0);
    if (latency < 0.0) {
      throw std::invalid_argument("--latency must be >= 0 seconds (got " +
                                  std::to_string(latency) + ")");
    }
    config.cross_cluster_latency = latency;
  }
  // After --jobs so the PDES worker count sees the configured default.
  if (cli.has("pdes")) {
    config.pdes = cli.get_bool("pdes", true);
    if (config.pdes) {
      config.pdes_jobs = exec::default_jobs();
      if (config.pdes_jobs == 1) {
        std::fprintf(stderr,
                     "warning: --pdes with one worker (--jobs=1) runs the "
                     "windowed protocol sequentially; results are identical, "
                     "there is just no speedup\n");
      }
    }
  }
  return config;
}

void apply_jobs_flag(const util::Cli& cli) {
  if (cli.has("jobs")) {
    exec::set_default_jobs(
        exec::user_jobs(cli.get_string("jobs", ""), "--jobs"));
  }
}

}  // namespace rrsim::core
