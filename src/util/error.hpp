// Typed error hierarchy and checked-precondition macros.
//
// Library code throws (never aborts) on malformed inputs so that callers
// such as the Matrix Market reader can surface actionable diagnostics;
// internal invariants use NMDT_ASSERT which compiles out in release-only
// hot paths is deliberately avoided — invariant checks here are cheap
// relative to the simulation work they guard.
#pragma once

#include <exception>
#include <stdexcept>
#include <string>

#include "util/types.hpp"

namespace nmdt {

/// Base class for all library errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed sparse-matrix data (non-monotone row_ptr, index out of
/// range, inconsistent vector lengths, ...).
class FormatError : public Error {
 public:
  explicit FormatError(const std::string& what) : Error(what) {}
};

/// Unparsable or unsupported external input (Matrix Market files, CLI).
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

/// Invalid configuration (zero-width tiles, bandwidth <= 0, ...).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error(what) {}
};

/// An injected or detected fault that exhausted its recovery budget
/// (tile reconversion retries, transient-failure retries) and had to be
/// surfaced to the caller instead of silently corrupting results.
class FaultError : public Error {
 public:
  explicit FaultError(const std::string& what) : Error(what) {}
};

/// A work unit exceeded its wall-clock deadline (per-arm --arm-timeout)
/// and unwound at its next cancellation poll.  Recorded as a typed
/// FAILED row like any other arm error; CLI exit code 6.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// Cooperative cancellation (SIGINT/SIGTERM, suite-level deadline):
/// the work was *abandoned*, not failed — a resumed sweep re-runs it.
/// CLI exit code 130, mirroring the shell's SIGINT convention.
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

/// Load shedding: the service refused to take on more work (admission
/// queue full, tenant over quota, server draining for shutdown).  The
/// request was *never started* — retrying after `retry_after_ms` is
/// always safe.  A hint < 0 means "do not retry" (shutdown).
class OverloadError : public Error {
 public:
  explicit OverloadError(const std::string& what, i64 retry_after_ms = 0)
      : Error(what), retry_after_ms_(retry_after_ms) {}
  i64 retry_after_ms() const { return retry_after_ms_; }

 private:
  i64 retry_after_ms_ = 0;
};

/// A supervised worker *process* died (SIGSEGV/SIGKILL/abort, RLIMIT_AS
/// breach, missed heartbeat) often enough to exhaust its retry budget —
/// the arm it was running is quarantined rather than re-dispatched
/// forever (src/proc/supervisor.hpp).  Distinct from FaultError: the
/// failure was a process crash, not a detected in-process fault, so the
/// result bits were never produced at all.  CLI exit code 8.
class WorkerError : public Error {
 public:
  explicit WorkerError(const std::string& what) : Error(what) {}
};

/// The one exit-code table every binary shares (pinned by a test and
/// documented in README "Exit codes"): 2 ParseError, 3 FormatError,
/// 4 ConfigError, 5 FaultError, 6 TimeoutError, 7 OverloadError,
/// 8 WorkerError, 130 CancelledError, 1 anything else.
int exit_code_for(const std::exception& e);

/// "TypeName: what()" for a caught exception — the uniform FAILED(...)
/// label the suite runner and CLI attach to typed errors.
std::string describe_exception(const std::exception& e);
std::string describe_current_exception();

/// Rebuild a throwable typed exception from a describe_exception()
/// string ("TypeName: message").  Used when replaying journaled arm
/// failures: fail_fast must rethrow the same *type* (and thus map to
/// the same CLI exit code) whether the failure happened live or was
/// restored from a checkpoint.  Unknown type names fall back to Error.
std::exception_ptr exception_from_description(const std::string& description);

namespace detail {
[[noreturn]] void throw_format_error(const char* cond, const char* file, int line,
                                     const std::string& msg);
[[noreturn]] void throw_config_error(const char* cond, const char* file, int line,
                                     const std::string& msg);
}  // namespace detail

}  // namespace nmdt

/// Validate user-provided matrix data; throws FormatError on failure.
#define NMDT_REQUIRE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::nmdt::detail::throw_format_error(#cond, __FILE__, __LINE__, (msg));  \
    }                                                                        \
  } while (0)

/// Validate configuration values; throws ConfigError on failure.
#define NMDT_CHECK_CONFIG(cond, msg)                                         \
  do {                                                                       \
    if (!(cond)) {                                                           \
      ::nmdt::detail::throw_config_error(#cond, __FILE__, __LINE__, (msg));  \
    }                                                                        \
  } while (0)
