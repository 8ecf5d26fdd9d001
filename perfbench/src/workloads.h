// The benchmark's four workloads, each a fixed-size simulation whose
// inputs are made from the workload seed. See perfbench/NOTES.md for why
// each was chosen and which layer each one loads.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "trace.h"

namespace perfbench {

/// Per-layer metric values of a traced run, by metric name.
using Layers = std::map<std::string, double>;

enum class Scale { kFull, kToy };

/// What one timed phase produced.
struct RunOutcome {
  /// Order-sensitive digest of the run's outputs (records, accumulator
  /// headline values or relative metrics); equal across repetitions and
  /// against the value pinned for the seed.
  std::uint64_t checksum = 0;
  /// The headline values the checksum covers, as hex floats.
  std::string summary;
  /// Simulated grid jobs finished in the timed phase.
  std::uint64_t jobs = 0;
  /// Host time of the simulation calls alone (not of checking outputs).
  double seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads the workload runs on (the main thread counts as one).
  virtual int workers() const = 0;

  /// Resolves every input the timed phase needs into the process-wide
  /// TraceCache and dispatches no event. This is what setup_s times; the
  /// caller clears the cache before each call.
  virtual void setup() = 0;

  /// The timed phase: simulates the workload on already-resolved inputs
  /// and times the simulation calls.
  virtual RunOutcome run() = 0;

  /// Calls the workload layer's generators and parsers directly on inputs
  /// of the workload's own shape, each call under a "workload.*" span.
  /// Returns the number of jobs those calls produced.
  virtual std::uint64_t generate(Tracer& tracer, Layers& layers) = 0;

  /// The timed phase again, under spans, plus the workload's layer probes;
  /// fills the per-layer metrics it can measure. Returns the outcome of
  /// the timed phase, which must equal run()'s.
  virtual RunOutcome run_traced(Tracer& tracer, Layers& layers) = 0;
};

/// Builds a workload by name ("paper_fig1", "grid_windowed", "swf_cbf",
/// "pdes_latency"); nullptr for an unknown name. `scratch_dir` must exist
/// and hold only what the workload writes there (the SWF inputs).
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const std::string& scratch_dir);

}  // namespace perfbench
