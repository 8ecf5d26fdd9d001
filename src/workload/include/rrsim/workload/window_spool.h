// Spill-to-disk windowing of file-backed job streams.
//
// Generator-backed streams are regenerable from a ~48-byte checkpoint
// (stream_window.h), so windowed mode costs nothing to seek. File-backed
// streams — SWF replays from the Parallel Workloads Archive — have no
// generator to checkpoint, which is why trace_files historically forced
// retained whole-stream mode: O(total jobs) resident per cluster.
// WindowSpool lifts that. A first-pass writer chunks any job stream into
// fixed-size window segments in a single unlinked temp file; what stays
// resident is only the in-memory checkpoint index (one {job index, byte
// offset} pair per window, ~16 bytes per window), and a pull-based Reader
// re-materializes any window in O(window) pread work, presenting the same
// WindowSource interface as StreamWindow.
//
// Bit-identity by construction: records are serialized field-by-field with
// exact double bits (no struct memcpy — padding bytes are indeterminate)
// and read back the same way, so a spooled stream round-trips to the byte.
// The *order* of jobs is exactly the order append() saw them — for SWF
// input, the post-read_swf sorted order shared with the retained path —
// so integer-time ties within one file resolve identically in both modes.
//
// Lifetime and cleanup: the temp file is created with mkstemp and unlinked
// immediately, before the constructor returns. The directory entry never
// outlives the constructor; the storage itself is reclaimed by the kernel
// when the last file descriptor closes (spool destruction), including on
// every exception path — there is nothing to clean up by name.
//
// Thread-safety: the writer phase (append/finish) is single-threaded.
// After finish(), the spool is immutable and Readers pull via pread
// (positioned reads, no shared file offset), so any number of Readers on
// any threads may consume one spool concurrently — which is what lets a
// process-wide TraceCache share one spool across sweep points and PDES
// partitions. A Reader holds shared ownership of its spool, so
// TraceCache::clear() cannot invalidate an in-flight run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rrsim/workload/jobspec.h"
#include "rrsim/workload/stream_window.h"

namespace rrsim::workload {

/// Write-once, read-many on-disk window store for a job stream.
class WindowSpool {
 public:
  /// One checkpoint per window: where window k starts, in jobs and bytes.
  /// With fixed-size records the byte offset is derivable, but the index
  /// stores it explicitly so the format (and its readers) stay valid if
  /// records ever become variable-length.
  struct WindowIndex {
    std::uint64_t job_index = 0;
    std::uint64_t byte_offset = 0;
  };

  /// Creates the backing temp file under `dir` (empty selects $TMPDIR,
  /// falling back to /tmp) and unlinks it immediately. Throws
  /// std::invalid_argument on window == 0 and std::runtime_error when the
  /// temp file cannot be created.
  explicit WindowSpool(std::size_t window, const std::string& dir = "");

  WindowSpool(WindowSpool&& other) noexcept;
  WindowSpool& operator=(WindowSpool&& other) noexcept;
  WindowSpool(const WindowSpool&) = delete;
  WindowSpool& operator=(const WindowSpool&) = delete;
  ~WindowSpool();

  /// Appends one job in stream order. Throws std::logic_error after
  /// finish() and std::runtime_error on write failure.
  void append(const JobSpec& spec);

  /// Seals the spool: flushes buffered records and freezes the index.
  /// Readers may only attach to a finished spool. Idempotent.
  void finish();

  bool finished() const noexcept { return finished_; }
  std::size_t window() const noexcept { return window_; }
  std::uint64_t total_jobs() const noexcept { return total_jobs_; }

  /// Resident (in-memory) bytes: the checkpoint index. This is what the
  /// TraceCache counts as resident — the record bytes live on disk.
  std::size_t payload_bytes() const noexcept {
    return index_.capacity() * sizeof(WindowIndex);
  }

  /// On-disk bytes of the record file (reported, not resident).
  std::uint64_t file_bytes() const noexcept;

  /// Pull-based consumer of a finished spool. Each consumer owns its
  /// instance (a cursor); the spool itself is shared and immutable.
  class Reader : public WindowSource {
   public:
    /// Positions the cursor at the start of `start_window`. Throws
    /// std::logic_error on an unfinished spool and std::invalid_argument
    /// when start_window is past the index.
    explicit Reader(std::shared_ptr<const WindowSpool> spool,
                    std::size_t start_window = 0);

    std::size_t next(std::size_t max_jobs, JobStream& out) override;
    bool exhausted() const noexcept override {
      return next_job_ >= spool_->total_jobs();
    }

    /// Jobs emitted so far, counting the seek offset like
    /// StreamWindow::jobs_emitted counts a resumed checkpoint's.
    std::uint64_t jobs_emitted() const noexcept { return next_job_; }

   private:
    std::shared_ptr<const WindowSpool> spool_;
    std::uint64_t next_job_ = 0;
  };

 private:
  void flush_buffer();
  /// Reads `count` records starting at record `first` into `out`
  /// (appending). pread-based: const, safe concurrently.
  void read_records(std::uint64_t first, std::size_t count,
                    JobStream& out) const;

  int fd_ = -1;
  std::size_t window_ = 0;
  std::uint64_t total_jobs_ = 0;
  bool finished_ = false;
  std::vector<WindowIndex> index_;
  std::vector<unsigned char> buffer_;  ///< writer-side coalescing buffer
  std::uint64_t flushed_bytes_ = 0;
};

}  // namespace rrsim::workload
