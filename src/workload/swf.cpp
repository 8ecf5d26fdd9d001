#include "rrsim/workload/swf.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rrsim::workload {

JobStream read_swf(std::istream& in) {
  JobStream stream;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip leading whitespace; skip blanks and `;` comments.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == ';') continue;
    std::istringstream fields(line);
    std::vector<double> f;
    double v = 0.0;
    while (fields >> v) f.push_back(v);
    if (f.size() < 9) {
      throw std::runtime_error("SWF line " + std::to_string(lineno) +
                               ": expected >= 9 fields, got " +
                               std::to_string(f.size()));
    }
    const double submit = f[1];
    const double runtime = f[3];
    double procs = f[7] > 0 ? f[7] : f[4];
    double requested = f[8] > 0 ? f[8] : runtime;
    if (runtime <= 0.0 || procs <= 0.0) continue;  // cancelled/failed entry
    if (!(procs <= static_cast<double>(std::numeric_limits<int>::max()))) {
      throw std::runtime_error("SWF line " + std::to_string(lineno) +
                               ": processor count out of range");
    }
    JobSpec spec;
    spec.submit_time = submit;
    spec.nodes = static_cast<int>(procs);
    spec.runtime = runtime;
    spec.requested_time = std::max(requested, runtime);
    stream.push_back(spec);
  }
  // Stable: jobs tied on submit_time keep their SWF file order, so the
  // parse is deterministic across standard libraries.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const JobSpec& a, const JobSpec& b) {
                     return a.submit_time < b.submit_time;
                   });
  return stream;
}

JobStream read_swf_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open SWF file: " + path);
  return read_swf(in);
}

void write_swf(std::ostream& out, const JobStream& stream) {
  // Full round-trip fidelity for double-valued fields.
  out.precision(17);
  out << "; SWF trace written by rrsim\n";
  out << "; MaxProcs: ";
  int max_procs = 0;
  for (const JobSpec& j : stream) max_procs = std::max(max_procs, j.nodes);
  out << max_procs << "\n";
  long long id = 1;
  for (const JobSpec& j : stream) {
    // 18 SWF fields; unknowns are -1.
    out << id++ << ' ' << j.submit_time << ' ' << -1 << ' ' << j.runtime
        << ' ' << j.nodes << ' ' << -1 << ' ' << -1 << ' ' << j.nodes << ' '
        << j.requested_time << ' ' << -1 << ' ' << 1 << ' ' << -1 << ' '
        << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' ' << -1 << ' '
        << -1 << '\n';
  }
}

void write_swf_file(const std::string& path, const JobStream& stream) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open SWF file for write: " + path);
  write_swf(out, stream);
}

}  // namespace rrsim::workload
