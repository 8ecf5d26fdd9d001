// RRSIM_VALIDATE: debug invariant-validation layer.
//
// Compiled with -DRRSIM_VALIDATE=1 (CMake option RRSIM_VALIDATE=ON, or
// the always-on `validate_tests` ctest binary), every core data
// structure checks its invariants after each mutating operation:
// event-queue dispatch order, CBF profile canonicality, scheduler
// accounting, gateway replica tracking, and Simulation::reset coverage.
// A broken invariant aborts immediately with a message — turning
// "ordering silently corrupted, results subtly wrong" into a loud crash
// at the first bad operation.
//
// In normal builds the macro is 0 and every check compiles away; the
// validators cost nothing in Release.
#pragma once

#ifndef RRSIM_VALIDATE
#define RRSIM_VALIDATE 0
#endif

#if RRSIM_VALIDATE
#define RRSIM_VALIDATE_ENABLED 1
#else
#define RRSIM_VALIDATE_ENABLED 0
#endif

#if RRSIM_VALIDATE_ENABLED

#include <cstdio>
#include <cstdlib>

namespace rrsim::util {

[[noreturn]] inline void validate_fail(const char* file, int line,
                                       const char* what) noexcept {
  std::fprintf(stderr, "rrsim validate: %s:%d: invariant violated: %s\n",
               file, line, what);
  std::fflush(stderr);
  std::abort();
}

}  // namespace rrsim::util

#define RRSIM_CHECK(cond, what)                                      \
  do {                                                               \
    if (!(cond)) ::rrsim::util::validate_fail(__FILE__, __LINE__, (what)); \
  } while (false)

#else

#define RRSIM_CHECK(cond, what) \
  do {                          \
  } while (false)

#endif
