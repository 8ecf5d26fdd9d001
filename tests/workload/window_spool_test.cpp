#include "rrsim/workload/window_spool.h"

#include <dirent.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace rrsim::workload {
namespace {

JobSpec spec_of(std::size_t i) {
  JobSpec s;
  // Values with non-trivial mantissas, so "equal" can only mean
  // bit-exact round-tripping, not lucky rounding.
  s.submit_time = 100.0 + static_cast<double>(i) / 3.0;
  s.nodes = static_cast<int>(i % 97) + 1;
  s.runtime = 1.0 + static_cast<double>(i) * 0.1 / 7.0;
  s.requested_time = s.runtime * 2.0 + 1e-9;
  return s;
}

std::shared_ptr<const WindowSpool> build_spool(std::size_t window,
                                               std::size_t jobs) {
  WindowSpool spool(window);
  for (std::size_t i = 0; i < jobs; ++i) spool.append(spec_of(i));
  spool.finish();
  return std::make_shared<const WindowSpool>(std::move(spool));
}

/// Entries in `dir` other than "." and "..".
std::size_t dir_entries(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return static_cast<std::size_t>(-1);
  std::size_t n = 0;
  while (const dirent* e = ::readdir(d)) {
    if (std::strcmp(e->d_name, ".") != 0 && std::strcmp(e->d_name, "..") != 0) {
      ++n;
    }
  }
  ::closedir(d);
  return n;
}

TEST(WindowSpool, RoundTripsJobsBitExactly) {
  const std::size_t kJobs = 1000;
  const auto spool = build_spool(64, kJobs);
  EXPECT_EQ(spool->total_jobs(), kJobs);

  WindowSpool::Reader reader(spool);
  JobStream out;
  std::size_t seen = 0;
  while (!reader.exhausted()) {
    const std::size_t n = reader.next(64, out);
    ASSERT_GT(n, 0u);
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const JobSpec want = spec_of(seen + i);
      // EXPECT_EQ on doubles is exact comparison — the contract is
      // identical bits, not closeness.
      EXPECT_EQ(out[i].submit_time, want.submit_time);
      EXPECT_EQ(out[i].nodes, want.nodes);
      EXPECT_EQ(out[i].runtime, want.runtime);
      EXPECT_EQ(out[i].requested_time, want.requested_time);
    }
    seen += n;
  }
  EXPECT_EQ(seen, kJobs);
  EXPECT_EQ(reader.jobs_emitted(), kJobs);
  EXPECT_EQ(reader.next(64, out), 0u);  // exhausted: empty pull, no throw
}

TEST(WindowSpool, ChunksAtMostMaxJobsAndExactlyRemainderAtEnd) {
  const auto spool = build_spool(16, 50);
  WindowSpool::Reader reader(spool);
  JobStream out;
  EXPECT_EQ(reader.next(30, out), 30u);
  EXPECT_EQ(reader.next(30, out), 20u);  // only 20 remain
  EXPECT_TRUE(reader.exhausted());
}

TEST(WindowSpool, ReaderSeeksToWindowBoundary) {
  const auto spool = build_spool(16, 50);  // windows at jobs 0,16,32,48
  WindowSpool::Reader reader(spool, 2);
  EXPECT_EQ(reader.jobs_emitted(), 32u);
  JobStream out;
  ASSERT_EQ(reader.next(100, out), 18u);
  EXPECT_EQ(out.front().submit_time, spec_of(32).submit_time);
  EXPECT_EQ(out.back().submit_time, spec_of(49).submit_time);
  // Seeking to one-past-the-last window yields an exhausted reader...
  WindowSpool::Reader at_end(spool, 4);
  EXPECT_TRUE(at_end.exhausted());
  // ...and further is rejected.
  EXPECT_THROW(WindowSpool::Reader(spool, 5), std::invalid_argument);
}

TEST(WindowSpool, EmptySpoolReadsAsExhausted) {
  WindowSpool spool(8);
  spool.finish();
  const auto shared = std::make_shared<const WindowSpool>(std::move(spool));
  EXPECT_EQ(shared->total_jobs(), 0u);
  WindowSpool::Reader reader(shared);
  EXPECT_TRUE(reader.exhausted());
  JobStream out;
  EXPECT_EQ(reader.next(8, out), 0u);
}

TEST(WindowSpool, RejectsMisuse) {
  EXPECT_THROW(WindowSpool(0), std::invalid_argument);

  WindowSpool unfinished(8);
  unfinished.append(spec_of(0));
  // Readers only attach to sealed spools.
  EXPECT_THROW(
      WindowSpool::Reader(
          std::make_shared<const WindowSpool>(std::move(unfinished))),
      std::logic_error);

  WindowSpool sealed(8);
  sealed.append(spec_of(0));
  sealed.finish();
  sealed.finish();  // idempotent
  EXPECT_THROW(sealed.append(spec_of(1)), std::logic_error);
  const auto shared = std::make_shared<const WindowSpool>(std::move(sealed));
  WindowSpool::Reader reader(shared);
  JobStream out;
  EXPECT_THROW(reader.next(0, out), std::invalid_argument);
}

TEST(WindowSpool, IndexChargesOnlyCheckpointBytes) {
  const auto spool = build_spool(10, 95);  // 10 windows
  EXPECT_GE(spool->payload_bytes(),
            10 * sizeof(WindowSpool::WindowIndex));
  // The record bytes live on disk, not in the resident payload.
  EXPECT_EQ(spool->file_bytes(), 95u * 32u);
  EXPECT_LT(spool->payload_bytes(), spool->file_bytes());
}

TEST(WindowSpool, TempDirStaysEmptyForTheSpoolsWholeLifetime) {
  char tmpl[] = "/tmp/rrsim-spool-test-XXXXXX";
  ASSERT_NE(::mkdtemp(tmpl), nullptr);
  const std::string dir = tmpl;
  {
    WindowSpool spool(4, dir);
    // mkstemp + immediate unlink: no directory entry even while live.
    EXPECT_EQ(dir_entries(dir), 0u);
    for (std::size_t i = 0; i < 9; ++i) spool.append(spec_of(i));
    spool.finish();
    EXPECT_EQ(dir_entries(dir), 0u);
    const auto shared = std::make_shared<const WindowSpool>(std::move(spool));
    WindowSpool::Reader reader(shared);
    JobStream out;
    EXPECT_EQ(reader.next(100, out), 9u);
    EXPECT_EQ(dir_entries(dir), 0u);
  }
  EXPECT_EQ(dir_entries(dir), 0u);
  // An exception mid-append leaks nothing by name either.
  try {
    WindowSpool spool(4, dir);
    spool.append(spec_of(0));
    spool.finish();
    spool.append(spec_of(1));  // throws std::logic_error
    FAIL() << "append after finish should throw";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(dir_entries(dir), 0u);
  EXPECT_EQ(::rmdir(dir.c_str()), 0);  // empty, so removable
}

TEST(WindowSpool, ReaderKeepsSpoolAliveAfterOwnerDropsIt) {
  auto spool = build_spool(8, 40);
  WindowSpool::Reader reader(spool);
  spool.reset();  // simulate TraceCache::clear() mid-run
  JobStream out;
  std::size_t seen = 0;
  while (reader.next(8, out) > 0) {
    for (const JobSpec& s : out) {
      EXPECT_EQ(s.submit_time, spec_of(seen).submit_time);
      ++seen;
    }
  }
  EXPECT_EQ(seen, 40u);
}

TEST(WindowSpool, ConcurrentReadersSeeIndependentCursors) {
  const auto spool = build_spool(8, 32);
  WindowSpool::Reader a(spool);
  WindowSpool::Reader b(spool, 2);
  JobStream out_a;
  JobStream out_b;
  ASSERT_EQ(a.next(8, out_a), 8u);
  ASSERT_EQ(b.next(8, out_b), 8u);
  EXPECT_EQ(out_a.front().submit_time, spec_of(0).submit_time);
  EXPECT_EQ(out_b.front().submit_time, spec_of(16).submit_time);
  ASSERT_EQ(a.next(8, out_a), 8u);
  EXPECT_EQ(out_a.front().submit_time, spec_of(8).submit_time);
}

TEST(WindowSpool, MoveTransfersOwnership) {
  WindowSpool spool(8);
  for (std::size_t i = 0; i < 20; ++i) spool.append(spec_of(i));
  WindowSpool moved(std::move(spool));
  moved.finish();
  EXPECT_EQ(moved.total_jobs(), 20u);
  WindowSpool assigned(4);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.total_jobs(), 20u);
  const auto shared = std::make_shared<const WindowSpool>(std::move(assigned));
  WindowSpool::Reader reader(shared);
  JobStream out;
  EXPECT_EQ(reader.next(100, out), 20u);
  EXPECT_EQ(out.back().requested_time, spec_of(19).requested_time);
}

}  // namespace
}  // namespace rrsim::workload
