#include "rrsim/exec/jobs.h"

#include <atomic>
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
/// that is not an integer in [1, 4096] throws: a typo must not silently
/// run on every hardware thread.
int env_jobs() {
  const char* env = std::getenv("RRSIM_JOBS");
  if (env == nullptr || *env == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || v < 1 || v > 4096) {
    throw std::invalid_argument(
        "RRSIM_JOBS must be an integer in [1, 4096] (got \"" +
        std::string(env) + "\")");
  }
  return static_cast<int>(v);
}
}  // namespace

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
  return hw >= 1 ? static_cast<int>(hw) : 1;
}

}  // namespace rrsim::exec
