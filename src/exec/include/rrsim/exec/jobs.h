// Worker-count resolution for every parallel layer: the sweep engine
// (sweep_runner.h) and the PDES window executor (pdes.h). Results are
// bit-identical for any worker count, so the count only decides speed.
#pragma once

#include <string_view>

namespace rrsim::exec {

/// Largest worker count a user may ask for, by --jobs or RRSIM_JOBS.
inline constexpr int kMaxJobs = 4096;

/// The one rule for a worker count a user asks for: `text` (a --jobs
/// value or RRSIM_JOBS, named by `source` in the error) must be a decimal
/// integer in [1, kMaxJobs], else std::invalid_argument; the count is
/// then capped by cap_to_hardware().
int user_jobs(std::string_view text, std::string_view source);

/// `jobs` capped at std::thread::hardware_concurrency() when that is
/// known: more workers than hardware threads only oversubscribe.
int cap_to_hardware(int jobs);

/// Process-wide default worker count used when a campaign is invoked with
/// jobs = 0. Set from the --jobs flag (see core::apply_jobs_flag, which
/// passes it through user_jobs); 0 means "not configured".
void set_default_jobs(int jobs);

/// Resolves a requested worker count: `requested` if >= 1 (an explicit
/// count, used as given), else the value from set_default_jobs, else
/// RRSIM_JOBS through user_jobs(), else std::thread::hardware_concurrency()
/// (at least 1, at most kMaxJobs). Throws std::invalid_argument when
/// RRSIM_JOBS is read and breaks the user_jobs() rule; an empty value
/// counts as unset.
int resolve_jobs(int requested);

/// resolve_jobs(0): the worker count campaigns use by default.
inline int default_jobs() { return resolve_jobs(0); }

}  // namespace rrsim::exec
