// Crash-isolated suite execution: run_suite's Fig. 4 / Fig. 16 sweep
// with every matrix generation, plan, and kernel arm executed inside
// supervised worker *processes* (proc/supervisor.hpp) instead of
// in-process pool threads.
//
// run_suite_isolated is the worker-process backend of the one suite
// driver (core/suite_driver.hpp); run_suite is its thread-pool
// backend.  The driver — journal, replay, cancellation, deadlines,
// failure ranking, merge order, progress — is shared code, and so is
// the row work: workers are forked without exec, inherit the driver's
// RowWork as a live object, and run the same plan/arm functions as the
// pool threads, so rows are bit-identical to in-process run_suite at
// any worker count.  Task payloads carry only (row, arm) coordinates;
// timings and profiles travel back as raw f64 / encoded-profile bits.
// Only the supervising parent writes the journal, so --resume composes
// across modes (start a sweep in-process, resume it isolated, or vice
// versa).
//
// Failure semantics: a worker crash (SIGSEGV / SIGKILL / abort /
// RLIMIT_AS breach / missed heartbeat) re-dispatches the in-flight
// task with capped backoff; a task whose worker died kMaxWorkerRetries
// times (proc/supervisor.hpp) is quarantined as a typed WorkerError
// row/arm failure (exit code 8 under fail_fast) — one poison arm
// degrades one table cell, never the sweep.  Handler-level typed errors
// (TimeoutError, FaultError …) behave exactly as in-process: journaled,
// ranked, never retried.
#pragma once

#include <vector>

#include "core/executor.hpp"
#include "core/suite_driver.hpp"
#include "proc/supervisor.hpp"

namespace nmdt::proc {

/// Process-isolated run_suite.  Same contract as the in-process
/// overload — identical rows, progress semantics, journal entries,
/// cancellation / deadline behaviour and fail-fast ranking — plus the
/// supervisor's crash-recovery semantics above.  `cfg.fault` (and any
/// already-installed FaultScope) is inherited by the workers, so
/// worker_abort / worker_hang plans crash them deterministically.
/// `c_crc_out` receives each live arm's C checksum (SuiteCrcs),
/// computed inside the worker that ran the arm.
std::vector<SuiteRow> run_suite_isolated(std::span<const MatrixSpec> specs,
                                         const SpmmConfig& cfg, index_t K,
                                         const SuiteProgress& progress,
                                         const SuiteOptions& opts,
                                         const ProcOptions& proc_opts,
                                         SuiteCrcs* c_crc_out = nullptr);

}  // namespace nmdt::proc
