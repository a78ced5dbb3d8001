// Supervised worker processes (src/proc): crash isolation, heartbeat
// liveness, retry/backoff, poison-task quarantine — and the headline
// contract, that the process-isolated suite runner produces rows
// bit-identical to in-process run_suite at any worker count, under
// injected aborts/hangs and external kill -9.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/journal.hpp"
#include "fault/fault.hpp"
#include "matgen/suite.hpp"
#include "obs/metrics.hpp"
#include "proc/suite.hpp"
#include "proc/supervisor.hpp"
#include "util/error.hpp"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <set>
#include <thread>
#include <typeinfo>

#if defined(__unix__) || defined(__APPLE__)

namespace nmdt::proc {
namespace {

/// Find a task key whose fault draw injects on attempt `hit` but not on
/// attempt `miss` under the installed plan — lets a test stage "crash
/// once, then succeed on retry" deterministically.
u64 key_injecting_only_on_attempt(fault::FaultSite site, u32 hit, u32 miss) {
  for (u64 key = 1; key < 100000; ++key) {
    if (fault::should_inject(site, fault::mix(key, hit)) &&
        !fault::should_inject(site, fault::mix(key, miss))) {
      return key;
    }
  }
  ADD_FAILURE() << "no suitable key below 100000 — rate/seed mix too extreme";
  return 0;
}

/// The catalogue's proc.* counters.  Each Supervisor test snapshots
/// them before it builds its Supervisor and asserts on the difference,
/// so supervisors that ran earlier in the same process do not count.
struct ProcCounts {
  i64 spawns = 0;
  i64 crashes = 0;
  i64 retries = 0;
  i64 quarantines = 0;
  i64 heartbeat_timeouts = 0;
};

ProcCounts proc_counts() {
  const obs::MetricsRegistry& m = obs::metrics();
  return {m.proc_spawns.value(), m.proc_crashes.value(), m.proc_retries.value(),
          m.proc_quarantines.value(), m.proc_heartbeat_timeouts.value()};
}

ProcCounts operator-(const ProcCounts& a, const ProcCounts& b) {
  return {a.spawns - b.spawns, a.crashes - b.crashes, a.retries - b.retries,
          a.quarantines - b.quarantines, a.heartbeat_timeouts - b.heartbeat_timeouts};
}

TaskHandler echo_handler() {
  return [](u8 kind, u64 key, const std::string& payload) {
    return "kind=" + std::to_string(kind) + " key=" + std::to_string(key) +
           " payload=" + payload;
  };
}

TEST(Supervisor, EchoTasksRoundTripThroughWorkerProcesses) {
  ProcOptions po;
  po.workers = 2;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, echo_handler());
  // Blocking call path.
  const TaskOutcome out = sup.call(3, 42, "hello");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.payload, "kind=3 key=42 payload=hello");
  EXPECT_EQ(out.crashes, 0);
  // Async submit path: ids are unique, every completion arrives.
  std::set<u64> ids;
  for (u64 i = 0; i < 8; ++i) ids.insert(sup.submit(1, i, "p" + std::to_string(i)));
  EXPECT_EQ(ids.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto c = sup.wait_completion(5000);
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(ids.count(c->id));
    ASSERT_TRUE(c->outcome.ok) << c->outcome.error;
    EXPECT_EQ(c->outcome.payload,
              "kind=1 key=" + std::to_string(c->key) + " payload=p" + std::to_string(c->key));
    ids.erase(c->id);
  }
  EXPECT_EQ((proc_counts() - before).crashes, 0);
}

TEST(Supervisor, HandlerTypedErrorsAreNotRetried) {
  // A handler that throws is an application failure, not a crash: the
  // worker survives, the error travels back typed, and no retry fires.
  ProcOptions po;
  po.workers = 1;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, [](u8, u64, const std::string&) -> std::string {
    throw TimeoutError("work unit exceeded its deadline");
  });
  const TaskOutcome out = sup.call(1, 7, "x");
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.rfind("TimeoutError:", 0), 0u) << out.error;
  EXPECT_EQ(out.crashes, 0);
  const ProcCounts s = proc_counts() - before;
  EXPECT_EQ(s.crashes, 0);
  EXPECT_EQ(s.retries, 0);
  // The same worker (never crashed, never respawned) still serves the
  // next task and answers with the typed error again.
  const TaskOutcome next = sup.call(1, 8, "y");
  EXPECT_FALSE(next.ok);
  EXPECT_EQ(next.error.rfind("TimeoutError:", 0), 0u) << next.error;
  EXPECT_EQ(next.crashes, 0);
  EXPECT_EQ((proc_counts() - before).spawns, 1);
}

TEST(Supervisor, CrashedWorkerIsRespawnedAndTaskRetriedToSuccess) {
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kWorkerAbort;
  plan.rate = 0.5;
  plan.seed = 0xabad1;
  fault::FaultScope scope(plan);
  const u64 key = key_injecting_only_on_attempt(plan.site, 0, 1);
  ASSERT_NE(key, 0u);
  ProcOptions po;
  po.workers = 1;
  po.backoff_base_ms = 1.0;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, echo_handler());
  const TaskOutcome out = sup.call(2, key, "retry-me");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.payload, "kind=2 key=" + std::to_string(key) + " payload=retry-me");
  EXPECT_GE(out.crashes, 1);
  const ProcCounts s = proc_counts() - before;
  EXPECT_GE(s.crashes, 1);
  EXPECT_GE(s.retries, 1);
  EXPECT_GE(s.spawns, 2);  // initial fleet + at least one respawn
  EXPECT_EQ(s.quarantines, 0);
}

TEST(Supervisor, PoisonTaskIsQuarantinedAfterTheRetryBudget) {
  // rate 1.0: every attempt aborts — the task must converge to a typed
  // WorkerError outcome instead of crash-looping forever.
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kWorkerAbort;
  plan.rate = 1.0;
  plan.seed = 1;
  fault::FaultScope scope(plan);
  ProcOptions po;
  po.workers = 1;
  po.backoff_base_ms = 1.0;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, echo_handler());
  const TaskOutcome out = sup.call(2, 99, "poison");
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.rfind("WorkerError:", 0), 0u) << out.error;
  EXPECT_NE(out.error.find("quarantined"), std::string::npos) << out.error;
  EXPECT_EQ(out.crashes, kMaxWorkerRetries);
  const ProcCounts s = proc_counts() - before;
  EXPECT_GE(s.quarantines, 1);
  EXPECT_GE(s.crashes, kMaxWorkerRetries);
}

TEST(Supervisor, HungWorkerMissesHeartbeatsAndIsKilled) {
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kWorkerHang;
  plan.rate = 0.5;
  plan.seed = 0xcafe;
  fault::FaultScope scope(plan);
  const u64 key = key_injecting_only_on_attempt(plan.site, 0, 1);
  ASSERT_NE(key, 0u);
  ProcOptions po;
  po.workers = 1;
  po.heartbeat_interval_ms = 10.0;
  po.heartbeat_timeout_ms = 250.0;  // fast detection for the test
  po.backoff_base_ms = 1.0;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, echo_handler());
  const TaskOutcome out = sup.call(2, key, "wedge-once");
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_GE(out.crashes, 1);
  const ProcCounts s = proc_counts() - before;
  EXPECT_GE(s.heartbeat_timeouts, 1);
  EXPECT_GE(s.crashes, 1);
}

TEST(Supervisor, ExternalKillNineIsAbsorbed) {
  // The ISSUE chaos scenario in miniature: SIGKILL a worker while work
  // is in flight; every task still completes.
  ProcOptions po;
  po.workers = 2;
  po.backoff_base_ms = 1.0;
  const ProcCounts before = proc_counts();
  Supervisor sup(po, [](u8, u64 key, const std::string&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return "done " + std::to_string(key);
  });
  for (u64 i = 0; i < 4; ++i) sup.submit(1, i, "");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto pids = sup.worker_pids();
  ASSERT_FALSE(pids.empty());
  ASSERT_EQ(::kill(static_cast<pid_t>(pids[0]), SIGKILL), 0);
  for (int i = 0; i < 4; ++i) {
    const auto c = sup.wait_completion(10000);
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->outcome.ok) << c->outcome.error;
  }
  const ProcCounts s = proc_counts() - before;
  EXPECT_GE(s.crashes, 1);
  EXPECT_GT(s.spawns, 2);  // the killed worker was replaced
}

TEST(Supervisor, TasksAfterShutdownGetTypedOutcomesNotHangs) {
  ProcOptions po;
  po.workers = 1;
  Supervisor sup(po, echo_handler());
  sup.shutdown();
  const TaskOutcome out = sup.call(1, 1, "late");
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error.rfind("WorkerError:", 0), 0u) << out.error;
  sup.shutdown();  // idempotent
}

// ---------------------------------------------------------------------------
// Process-isolated suite runner.

std::vector<MatrixSpec> tiny_specs() {
  auto specs = smoke_suite();
  if (specs.size() > 6) specs.resize(6);
  return specs;
}

void expect_rows_identical(const std::vector<SuiteRow>& a,
                           const std::vector<SuiteRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (usize i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.name, b[i].spec.name) << "row " << i;
    // Bit-identical doubles — not approximate — is the contract.
    EXPECT_EQ(a[i].profile.ssf, b[i].profile.ssf) << a[i].spec.name;
    EXPECT_EQ(a[i].t_baseline_ms, b[i].t_baseline_ms) << a[i].spec.name;
    EXPECT_EQ(a[i].t_dcsr_c_ms, b[i].t_dcsr_c_ms) << a[i].spec.name;
    EXPECT_EQ(a[i].t_online_b_ms, b[i].t_online_b_ms) << a[i].spec.name;
    EXPECT_EQ(a[i].t_offline_b_ms, b[i].t_offline_b_ms) << a[i].spec.name;
    EXPECT_EQ(a[i].offline_prep_ms, b[i].offline_prep_ms) << a[i].spec.name;
    EXPECT_EQ(a[i].error, b[i].error) << a[i].spec.name;
    EXPECT_EQ(a[i].arm_error, b[i].arm_error) << a[i].spec.name;
  }
}

TEST(ProcSuite, RowsAreBitIdenticalToInProcessAtAnyWorkerCount) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto in_process = run_suite(specs, cfg, K, {}, 1);
  SuiteOptions opts;
  std::optional<SuiteCrcs> prev_crcs;
  for (int workers : {1, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ProcOptions po;
    po.workers = workers;
    SuiteCrcs crcs;
    const auto isolated = run_suite_isolated(specs, cfg, K, {}, opts, po, &crcs);
    expect_rows_identical(in_process, isolated);
    // The C value checksums, computed inside the workers, agree across
    // worker counts and are real (non-zero) for every successful arm.
    ASSERT_EQ(crcs.size(), specs.size());
    for (usize i = 0; i < crcs.size(); ++i) {
      if (isolated[i].ok() && isolated[i].t_baseline_ms > 0.0) {
        for (int arm = 0; arm < SuiteRow::kArmCount; ++arm) {
          EXPECT_NE(crcs[i][arm], 0u) << isolated[i].spec.name << " arm " << arm;
        }
      }
    }
    if (prev_crcs.has_value()) {
      EXPECT_EQ(*prev_crcs, crcs);
    }
    prev_crcs = std::move(crcs);
  }
}

TEST(ProcSuite, InjectedWorkerAbortsAreRecoveredBitIdentically) {
  // Sub-certain abort faults crash workers mid-sweep; every retry
  // re-draws (attempt-indexed key), so the sweep converges and the
  // rows match a clean in-process run exactly.
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto clean = run_suite(specs, cfg, K, {}, 1);

  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kWorkerAbort;
  plan.rate = 0.25;
  plan.seed = 0x5eed;
  fault::FaultScope scope(plan);
  SuiteOptions opts;
  ProcOptions po;
  po.workers = 3;
  po.backoff_base_ms = 1.0;
  const auto chaotic = run_suite_isolated(specs, cfg, K, {}, opts, po);
  expect_rows_identical(clean, chaotic);
}

TEST(ProcSuite, PoisonArmsQuarantineUnderContinueAndThrowUnderFailFast) {
  auto specs = tiny_specs();
  specs.resize(2);
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  fault::FaultPlan plan;
  plan.site = fault::FaultSite::kWorkerAbort;
  plan.rate = 1.0;  // every attempt of every task crashes: all poison
  plan.seed = 3;
  fault::FaultScope scope(plan);
  ProcOptions po;
  po.workers = 1;
  po.backoff_base_ms = 1.0;

  SuiteOptions cont;
  cont.policy = SuiteErrorPolicy::kContinue;
  const auto rows = run_suite_isolated(specs, cfg, K, {}, cont, po);
  ASSERT_EQ(rows.size(), specs.size());
  for (const auto& row : rows) {
    EXPECT_FALSE(row.ok()) << row.spec.name;
    EXPECT_EQ(row.error.rfind("WorkerError:", 0), 0u) << row.error;
  }

  SuiteOptions fatal;
  fatal.policy = SuiteErrorPolicy::kFailFast;
  try {
    run_suite_isolated(specs, cfg, K, {}, fatal, po);
    FAIL() << "fail_fast must rethrow the quarantined WorkerError";
  } catch (const WorkerError& e) {
    EXPECT_EQ(exit_code_for(e), 8);  // the documented exit-code slot
  }
}

TEST(ProcSuite, JournalsComposeAcrossInProcessAndIsolatedModes) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = testing::TempDir() + "nmdt_proc_cross_mode.nmdj";
  std::remove(path.c_str());

  // Sweep in-process with a journal, then "resume" it isolated: every
  // row replays from the journal — the supervisor runs nothing — and
  // the rows come back identical.  This is the cross-mode durability
  // contract (journal entries are written only by the parent, in the
  // in-process vocabulary).
  SuiteOptions first;
  first.journal_path = path;
  const auto original = run_suite(specs, cfg, K, {}, first);

  SuiteOptions resumed;
  resumed.journal_path = path;
  resumed.resume = true;
  ProcOptions po;
  po.workers = 2;
  const auto replayed = run_suite_isolated(specs, cfg, K, {}, resumed, po);
  expect_rows_identical(original, replayed);
  std::remove(path.c_str());
}

/// Run one sweep in either mode.
std::vector<SuiteRow> run_mode(bool isolated, const std::vector<MatrixSpec>& specs,
                               const SpmmConfig& cfg, index_t K, const SuiteOptions& opts) {
  ProcOptions po;
  po.workers = 2;
  return isolated ? run_suite_isolated(specs, cfg, K, {}, opts, po)
                  : run_suite(specs, cfg, K, {}, opts);
}

/// Interrupt a journaled sweep in one mode via on_checkpoint, resume it
/// in the other, and compare with an uninterrupted run: the resumed
/// backend really executes the rest of the sweep, not just a replay.
void interrupt_then_resume_in_other_mode(bool isolated_first, const std::string& stem) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = testing::TempDir() + "nmdt_proc_" + stem + ".nmdj";
  std::remove(path.c_str());

  SuiteOptions cut;
  cut.journal_path = path;
  CancelToken token;
  cut.cancel = token;
  cut.on_checkpoint = [token](usize entries) {
    if (entries >= 7) token.request(CancelReason::kUser);
  };
  EXPECT_THROW(run_mode(isolated_first, specs, cfg, K, cut), CancelledError);
  const JournalReplay partial = read_journal_file(path);
  usize complete = 0;
  for (const auto& [idx, row] : partial.rows) {
    complete += row.complete(SuiteRow::kArmCount) ? 1 : 0;
  }
  ASSERT_GT(partial.entries, 0u);
  ASSERT_LT(complete, specs.size()) << "the interrupt came too late: nothing left to resume";

  SuiteOptions resumed;
  resumed.journal_path = path;
  resumed.resume = true;
  expect_rows_identical(baseline, run_mode(!isolated_first, specs, cfg, K, resumed));
  std::remove(path.c_str());
}

TEST(ProcSuite, InterruptedInProcessJournalResumesIsolated) {
  interrupt_then_resume_in_other_mode(false, "cut_in_process");
}

TEST(ProcSuite, InterruptedIsolatedJournalResumesInProcess) {
  interrupt_then_resume_in_other_mode(true, "cut_isolated");
}

usize timeout_cells(const std::vector<SuiteRow>& rows) {
  usize n = 0;
  for (const auto& r : rows) {
    n += r.error.rfind("TimeoutError", 0) == 0 ? 1 : 0;
    for (const auto& e : r.arm_error) n += e.rfind("TimeoutError", 0) == 0 ? 1 : 0;
  }
  return n;
}

TEST(ProcSuite, TimeoutCellsCountOnceWhetherLiveOrReplayed) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = testing::TempDir() + "nmdt_proc_timeouts.nmdj";
  const std::string snapshot = path + ".snapshot";
  std::remove(path.c_str());
  std::remove(snapshot.c_str());

  // An already-expired arm deadline: every arm fails with TimeoutError
  // at its first poll.  The sweep is interrupted — and the journal
  // copied, exactly as a kill at that point would leave it — as soon as
  // some row has a journaled TimeoutError arm but still has arms to run.
  SuiteOptions cut;
  cut.jobs = 1;
  cut.policy = SuiteErrorPolicy::kContinue;
  cut.arm_timeout_ms = 1e-6;
  cut.journal_path = path;
  CancelToken token;
  cut.cancel = token;
  bool snapped = false;
  cut.on_checkpoint = [&](usize) {
    if (snapped) return;
    const JournalReplay now = read_journal_file(path);
    for (const auto& [idx, row] : now.rows) {
      if (row.complete(SuiteRow::kArmCount)) continue;
      for (const auto& arm : row.arms) {
        if (arm.has_value() && arm->error.rfind("TimeoutError", 0) == 0) snapped = true;
      }
    }
    if (snapped) {
      std::filesystem::copy_file(path, snapshot);
      token.request(CancelReason::kUser);
    }
  };
  try {
    (void)run_suite(specs, cfg, K, {}, cut);
  } catch (const CancelledError&) {
  }
  ASSERT_TRUE(snapped) << "no partially journaled row with a timed-out arm";

  // One rule in both modes: each TimeoutError cell in the returned rows
  // counts once, whether it ran live or was replayed from the journal.
  auto& timeouts = obs::MetricsRegistry::global().counter("fault.timeout");
  for (bool isolated : {false, true}) {
    SCOPED_TRACE(isolated ? "isolated resume" : "in-process resume");
    const std::string copy = path + (isolated ? ".isolated" : ".in_process");
    std::remove(copy.c_str());
    std::filesystem::copy_file(snapshot, copy);
    SuiteOptions resumed = cut;
    resumed.cancel = CancelToken{};
    resumed.on_checkpoint = {};
    resumed.journal_path = copy;
    resumed.resume = true;
    const i64 before = timeouts.value();
    const auto rows = run_mode(isolated, specs, cfg, K, resumed);
    EXPECT_GT(timeout_cells(rows), 0u);
    EXPECT_EQ(timeouts.value() - before, static_cast<i64>(timeout_cells(rows)));
    std::remove(copy.c_str());
  }
  std::remove(path.c_str());
  std::remove(snapshot.c_str());
}

/// Number of (row, arm) cells among the first `rows` rows whose
/// kSuiteArm transient persists through every retry under `plan`.
int persistent_arm_faults(const fault::FaultPlan& plan, usize rows) {
  fault::FaultScope scope(plan);
  int n = 0;
  for (usize row = 0; row < rows; ++row) {
    for (int arm = 0; arm < SuiteRow::kArmCount; ++arm) {
      const u64 key = fault::mix(static_cast<u64>(row), static_cast<u64>(arm));
      bool persists = true;
      for (int attempt = 0; attempt <= fault::kMaxRetries; ++attempt) {
        persists = persists && fault::should_inject(plan.site,
                                                    fault::mix(key, static_cast<u64>(attempt)));
      }
      n += persists ? 1 : 0;
    }
  }
  return n;
}

TEST(ProcSuite, InjectedArmFaultRethrowsTheSameErrorInEveryMode) {
  auto specs = tiny_specs();
  specs.resize(3);
  const index_t K = 8;
  SpmmConfig cfg = evaluation_config(4096, K);
  cfg.fault = {fault::FaultSite::kSuiteArm, 0.5, 0};
  for (u64 seed = 1; seed < 1000; ++seed) {
    cfg.fault.seed = seed;
    if (persistent_arm_faults(cfg.fault, specs.size()) == 1) break;
  }
  ASSERT_EQ(persistent_arm_faults(cfg.fault, specs.size()), 1);

  // Under continue the sweep completes with exactly that one failed
  // cell, and its journal carries the failure for the resumes below.
  const std::string path = testing::TempDir() + "nmdt_proc_one_fault.nmdj";
  std::remove(path.c_str());
  SuiteOptions journaled;
  journaled.policy = SuiteErrorPolicy::kContinue;
  journaled.journal_path = path;
  const auto rows = run_suite(specs, cfg, K, {}, journaled);
  usize failed = 0;
  for (const auto& r : rows) {
    for (const auto& e : r.arm_error) failed += e.empty() ? 0 : 1;
  }
  ASSERT_EQ(failed, 1u);

  // fail_fast throws the same type and message live in-process (the
  // original object), live isolated (rebuilt from the worker's
  // description), and resumed from the journal in either mode.
  auto thrown = [&](bool isolated, bool resume) -> std::pair<std::string, std::string> {
    SuiteOptions opts;
    if (resume) {
      opts.journal_path = path;
      opts.resume = true;
    }
    try {
      (void)run_mode(isolated, specs, cfg, K, opts);
    } catch (const std::exception& e) {
      return {typeid(e).name(), e.what()};
    }
    return {"nothing thrown", ""};
  };
  const auto live = thrown(false, false);
  EXPECT_EQ(live.first, typeid(FaultError).name());
  EXPECT_NE(live.second.find("persisted through"), std::string::npos) << live.second;
  EXPECT_EQ(thrown(true, false), live);
  EXPECT_EQ(thrown(false, true), live);
  EXPECT_EQ(thrown(true, true), live);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace nmdt::proc

#else  // !(__unix__ || __APPLE__)

TEST(Supervisor, RequiresPosixHost) { GTEST_SKIP() << "fork/pipe unavailable"; }

#endif
