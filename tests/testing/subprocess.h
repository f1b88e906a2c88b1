#ifndef SCCF_TESTS_TESTING_SUBPROCESS_H_
#define SCCF_TESTS_TESTING_SUBPROCESS_H_

#include <signal.h>
#include <stdio.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <functional>

#include "util/logging.h"

namespace sccf::testing {

/// Runs `fn` in a forked child and returns the raw waitpid status.
///
/// This is how the crash tests die for real: the child builds an engine
/// against a TempDir, ingests, and raises SIGKILL mid-stream — no
/// destructors, no flushes, exactly the torn on-disk state a pulled
/// plug leaves (for the process-crash model; see docs/OPERATIONS.md for
/// the machine-crash/fsync distinction). The parent then recovers from
/// the same directory and compares against an uninterrupted twin.
///
/// fork() without exec is deliberate: the child inherits a copy of the
/// test's address space and runs the closure directly, so crash
/// scenarios are ordinary C++ with no argv marshalling. The flip side:
/// only the forking thread survives into the child, so the closure must
/// not rely on any other thread — in particular it must not touch the
/// global ThreadPool. Engine::Bootstrap does, via ParallelFor, and so
/// does every identify or query fan-out over rows totalling at least
/// RealTimeService::kParallelFanoutBytes. Crash tests therefore
/// bootstrap their engine in the parent, with background compaction
/// off, and fork a child that only ingests into a corpus below that
/// size and dies. A child that returns from `fn` leaves via
/// _Exit(0) — no atexit handlers, no gtest teardown, no double-flushed
/// stdio.
inline int RunInChild(const std::function<void()>& fn) {
  // Flush before forking so buffered test output is not emitted twice.
  ::fflush(stdout);
  ::fflush(stderr);
  const pid_t pid = ::fork();
  SCCF_CHECK(pid >= 0) << "fork failed";
  if (pid == 0) {
    fn();
    std::_Exit(0);
  }
  int status = 0;
  const pid_t waited = ::waitpid(pid, &status, 0);
  SCCF_CHECK_EQ(waited, pid) << "waitpid failed";
  return status;
}

/// True when the child terminated by `sig` (for crash children this is
/// SIGKILL — anything else, e.g. a SIGSEGV or an ASan SIGABRT, is a
/// real bug the test should surface).
inline bool KilledBySignal(int status, int sig) {
  return WIFSIGNALED(status) && WTERMSIG(status) == sig;
}

/// True when the child ran to _Exit(0).
inline bool ExitedCleanly(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The crash children's way out: SIGKILL cannot be caught or blocked,
/// so nothing — not even ASan's death hooks — runs after this line.
[[noreturn]] inline void SelfKill() {
  ::raise(SIGKILL);
  std::_Exit(127);  // unreachable; raise(SIGKILL) does not return
}

}  // namespace sccf::testing

#endif  // SCCF_TESTS_TESTING_SUBPROCESS_H_
