// Shared command-line plumbing for the bench and example binaries: every
// harness accepts the same core flags, so the paper's experiments can be
// re-run under varied protocols without recompiling.
//
// Flags consumed by apply_common_flags(); every floating-point value must
// be finite (util::Cli::get_double):
//   --clusters=N      number of sites, 1..2^20
//   --nodes=K         nodes per cluster, 1..2^31-1
//   --hours=H         hours of job submissions (>= 0)
//   --algo=easy|cbf|fcfs
//   --estimator=exact|phi|uniform216
//   --scheme=NONE|R2|R3|R4|HALF|ALL
//   --percent=P       percentage of jobs using redundant requests, in
//                     [0, 100]
//   --placement=uniform|biased
//   --load=shared|peak|util  arrival-rate mode (see LoadMode)
//   --util=U          per-cluster offered load for --load=util (finite,
//                     > 0)
//   --protocol=drain|truncate
//   --mw-rate=R       middleware ops/s per cluster, >= 0 (0 =
//                     instantaneous)
//   --user-limit=L    per-user pending-request cap, 0..2^31-1 (0 = off)
//   --users=U         users per cluster (population for the cap), 1..4096
//   --seed=S
//   --window=W        windowed trace generation: pull W jobs at a time
//                     instead of materializing whole streams (any record
//                     mode, either kernel; results are identical; 0 = off)
//   --trace-cache-budget=B  byte budget for the process-global trace
//                     cache (LRU eviction above B; 0 = unlimited, the
//                     default). Benches also honor the
//                     RRSIM_TRACE_CACHE_BUDGET env var; the flag wins.
//   --jobs=N          campaign worker threads (also env RRSIM_JOBS;
//                     default: hardware concurrency). Campaign results
//                     are bit-identical for any N.
//   --pdes            run on the conservative parallel kernel (one DES
//                     partition per cluster; requires --latency > 0 to
//                     take effect, worker count from --jobs/RRSIM_JOBS;
//                     --jobs=1 warns and runs the protocol sequentially).
//                     Results are bit-identical for any worker count.
//   --latency=S       one-way cross-cluster latency in seconds (>= 0;
//                     > 0 requires --pdes). 0 keeps the paper's zero-delay
//                     assumption on the classic kernel.
#pragma once

#include "rrsim/core/experiment.h"
#include "rrsim/util/cli.h"

namespace rrsim::core {

/// Parses "shared" / "peak" / "util" into a LoadMode. Throws
/// std::invalid_argument on anything else.
LoadMode parse_load_mode(const std::string& name);

/// Display name of a load mode.
std::string load_mode_name(LoadMode mode);

/// Overwrites the fields of `config` for which `cli` carries a flag (see
/// the header comment for the flag list). Returns the updated config.
ExperimentConfig apply_common_flags(ExperimentConfig config,
                                    const util::Cli& cli);

}  // namespace rrsim::core
