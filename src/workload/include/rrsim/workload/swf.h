// Standard Workload Format (SWF) I/O — the format used by the Parallel
// Workloads Archive the paper cross-checks against. Lets users replay real
// traces through rrsim's schedulers, or export generated streams.
#pragma once

#include <iosfwd>
#include <string>

#include "rrsim/workload/jobspec.h"

namespace rrsim::workload {

/// Reads an SWF stream into a JobStream.
///
/// SWF is line-oriented: `;`-prefixed header/comment lines, then one job
/// per line with 18 whitespace-separated fields. We use fields
/// 2 (submit time), 4 (run time), 8 (requested processors, falling back to
/// field 5, allocated processors, when -1) and 9 (requested time, falling
/// back to run time when -1). Jobs with non-positive runtime or processor
/// count are skipped (cancelled entries in real logs).
///
/// Throws std::runtime_error, naming the line, on malformed job lines and
/// on processor counts too large for an int.
JobStream read_swf(std::istream& in);

/// Convenience overload: reads from a file path.
/// Throws std::runtime_error if the file cannot be opened.
JobStream read_swf_file(const std::string& path);

/// Writes `stream` as SWF (with a minimal header comment). Fields not
/// represented by JobSpec are emitted as -1 per the SWF convention.
void write_swf(std::ostream& out, const JobStream& stream);

/// Convenience overload: writes to a file path.
void write_swf_file(const std::string& path, const JobStream& stream);

}  // namespace rrsim::workload
