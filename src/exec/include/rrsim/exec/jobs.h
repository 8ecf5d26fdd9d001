// Worker-count resolution for every parallel layer: the sweep engine
// (sweep_runner.h) and the PDES window executor (pdes.h). Results are
// bit-identical for any worker count, so the count only decides speed.
#pragma once

namespace rrsim::exec {

/// Process-wide default worker count used when a campaign is invoked with
/// jobs = 0. Set from the --jobs flag (see core::apply_common_flags);
/// 0 means "not configured".
void set_default_jobs(int jobs);

/// Resolves a requested worker count: `requested` if >= 1, else the value
/// from set_default_jobs, else the RRSIM_JOBS environment variable, else
/// std::thread::hardware_concurrency() (at least 1). Throws
/// std::invalid_argument when RRSIM_JOBS is read and set to anything but
/// an integer in [1, 4096]; an empty value counts as unset.
int resolve_jobs(int requested);

/// resolve_jobs(0): the worker count campaigns use by default.
inline int default_jobs() { return resolve_jobs(0); }

}  // namespace rrsim::exec
