#include "rrsim/exec/jobs.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace rrsim::exec {

namespace {
// rrsim-lint-allow(mutable-global): caches the default worker count
// (env/hardware probe); campaign results are bit-identical across worker
// counts, so this can never leak into outputs.
std::atomic<int> g_default_jobs{0};

/// RRSIM_JOBS as a worker count; 0 when unset or empty. Anything else
/// that breaks the user_jobs() rule throws: a typo must not silently run
/// on every hardware thread.
int env_jobs() {
  const char* env = std::getenv("RRSIM_JOBS");
  if (env == nullptr || *env == '\0') return 0;
  return user_jobs(env, "RRSIM_JOBS");
}
}  // namespace

int user_jobs(std::string_view text, std::string_view source) {
  int jobs = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, jobs);
  if (ec != std::errc() || ptr != end || jobs < 1 || jobs > kMaxJobs) {
    throw std::invalid_argument(
        std::string(source) + " must be an integer in [1, " +
        std::to_string(kMaxJobs) + "] (got \"" + std::string(text) + "\")");
  }
  return cap_to_hardware(jobs);
}

int cap_to_hardware(int jobs) {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 && static_cast<unsigned>(jobs) > hw ? static_cast<int>(hw)
                                                      : jobs;
}

void set_default_jobs(int jobs) {
  g_default_jobs.store(jobs < 0 ? 0 : jobs, std::memory_order_relaxed);
}

int resolve_jobs(int requested) {
  if (requested >= 1) return requested;
  const int configured = g_default_jobs.load(std::memory_order_relaxed);
  if (configured >= 1) return configured;
  const int from_env = env_jobs();
  if (from_env >= 1) return from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? static_cast<int>(std::min(hw, unsigned{kMaxJobs})) : 1;
}

}  // namespace rrsim::exec
