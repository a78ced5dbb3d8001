// Durable suite execution: the checkpoint/resume journal, cooperative
// cancellation, and per-arm deadlines (core/journal.hpp + the
// SuiteOptions path through run_suite).
//
// The load-bearing invariant: a sweep interrupted at ANY point and then
// resumed from its journal produces bit-identical rows — same values,
// same ordering — as an uninterrupted run, at any job count.  The tests
// interrupt via injected cancellation at three points (after the first
// arm, mid-sweep, after the last arm) × jobs {1, 4} and compare against
// an uninterrupted baseline with exact EXPECT_EQ on every double.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/executor.hpp"
#include "core/journal.hpp"
#include "obs/json_check.hpp"
#include "util/cancel.hpp"
#include "util/error.hpp"

namespace nmdt {
namespace {

std::vector<MatrixSpec> tiny_specs() {
  auto specs = standard_suite(SuiteScale::kTiny);
  if (specs.size() > 8) specs.resize(8);
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

/// Unique per-test journal path under the gtest temp dir; removed up
/// front so a crashed earlier run can't leak state in.
std::string journal_path(const std::string& stem) {
  const std::string path = testing::TempDir() + "nmdt_" + stem + ".nmdj";
  std::remove(path.c_str());
  return path;
}

/// Run a journaled sweep that cancels itself once `cancel_at` journal
/// entries have been appended; returns true when the sweep was actually
/// interrupted (it may finish first if cancel_at is past the end).
/// With `resume` the sweep replays the journal first; `cancel_at` then
/// counts freshly appended entries only.
bool run_until(const std::vector<MatrixSpec>& specs, const SpmmConfig& cfg, index_t K,
               const std::string& path, int jobs, usize cancel_at,
               bool resume = false) {
  SuiteOptions opts;
  opts.jobs = jobs;
  opts.journal_path = path;
  opts.resume = resume;
  CancelToken token;
  opts.cancel = token;
  opts.on_checkpoint = [token, cancel_at](usize entries) {
    if (entries >= cancel_at) token.request(CancelReason::kUser);
  };
  try {
    run_suite(specs, cfg, K, {}, opts);
    return false;
  } catch (const CancelledError&) {
    return true;
  }
}

std::vector<SuiteRow> resume(const std::vector<MatrixSpec>& specs,
                             const SpmmConfig& cfg, index_t K,
                             const std::string& path, int jobs) {
  SuiteOptions opts;
  opts.jobs = jobs;
  opts.journal_path = path;
  opts.resume = true;
  return run_suite(specs, cfg, K, {}, opts);
}

class ResumeBitIdentical : public testing::TestWithParam<int> {};

TEST_P(ResumeBitIdentical, InterruptAfterFirstArmThenResume) {
  const int jobs = GetParam();
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path =
      journal_path("first_arm_j" + std::to_string(jobs));
  // Entry 1 is the first row's plan record, entry 2 its first finished
  // arm — cancelling there leaves a partially-executed row behind.
  ASSERT_TRUE(run_until(specs, cfg, K, path, jobs, 2));
  expect_rows_identical(baseline, resume(specs, cfg, K, path, jobs));
}

TEST_P(ResumeBitIdentical, InterruptMidSweepThenResume) {
  const int jobs = GetParam();
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("mid_sweep_j" + std::to_string(jobs));
  // An uninterrupted sweep journals ~5 entries per row (plan + 4 arms).
  const usize midpoint = specs.size() * 5 / 2;
  ASSERT_TRUE(run_until(specs, cfg, K, path, jobs, midpoint));
  expect_rows_identical(baseline, resume(specs, cfg, K, path, jobs));
}

TEST_P(ResumeBitIdentical, ResumeAfterCompletionIsAPureReplay) {
  const int jobs = GetParam();
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("complete_j" + std::to_string(jobs));
  // Not interrupted: every arm lands in the journal.
  ASSERT_FALSE(run_until(specs, cfg, K, path, jobs, ~usize{0}));
  const auto before = std::filesystem::file_size(path);
  expect_rows_identical(baseline, resume(specs, cfg, K, path, jobs));
  // A pure replay executes nothing, so it appends nothing.
  EXPECT_EQ(std::filesystem::file_size(path), before);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ResumeBitIdentical, testing::Values(1, 4));

TEST(ResumeVerification, MismatchedFingerprintIsRejected) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = journal_path("fingerprint");
  ASSERT_TRUE(run_until(specs, cfg, K, path, 1, 2));
  // Same journal, different sweep (K changed): resuming would silently
  // mix results from two experiments.
  EXPECT_THROW(resume(specs, cfg, 16, path, 1), ConfigError);
}

TEST(ResumeVerification, CorruptedEntryChecksumIsRejected) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = journal_path("crc");
  ASSERT_FALSE(run_until(specs, cfg, K, path, 1, ~usize{0}));
  // Flip a byte inside the final frame's CRC trailer: the frame is
  // complete (not a torn tail) but no longer self-consistent.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(f.tellg());
    f.seekp(size - 2);
    char byte = 0;
    f.seekg(size - 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size - 2);
    f.write(&byte, 1);
  }
  EXPECT_THROW(read_journal_file(path), FormatError);
  EXPECT_THROW(resume(specs, cfg, K, path, 1), FormatError);
}

TEST(ResumeVerification, TornTailIsDroppedAndReExecuted) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("torn");
  ASSERT_FALSE(run_until(specs, cfg, K, path, 1, ~usize{0}));
  // Chop the file mid-frame, as a crash between write and sync would:
  // the incomplete tail entry is dropped and its work re-executed.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 3);
  const JournalReplay replay = read_journal_file(path);
  EXPECT_TRUE(replay.torn_tail);
  expect_rows_identical(baseline, resume(specs, cfg, K, path, 1));
}

TEST(ResumeVerification, TornTailSurvivesResumeInterruptResumeCycle) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("torn_cycle");
  ASSERT_TRUE(run_until(specs, cfg, K, path, 1, 4));
  // Crash with a torn tail: chop the last frame mid-trailer.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 3);
  ASSERT_TRUE(read_journal_file(path).torn_tail);
  // Resume must truncate the residual torn bytes before appending;
  // otherwise the next read would see the stale length prefix span into
  // the fresh frames and report a CRC mismatch.  Interrupt this resumed
  // run too, then re-read and resume again — the second resume is
  // exactly the "one crash + one resume + any later interrupt" sequence
  // that must not lose the checkpointed work.
  ASSERT_TRUE(run_until(specs, cfg, K, path, 1, 3, /*resume=*/true));
  const JournalReplay replay = read_journal_file(path);
  EXPECT_FALSE(replay.torn_tail);  // drained cleanly: no new tear
  EXPECT_TRUE(replay.has_header);
  expect_rows_identical(baseline, resume(specs, cfg, K, path, 1));
}

TEST(ResumeVerification, ArmEntriesWithoutPlanEntryDoNotDeadlock) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("arms_no_plan");
  // A CRC-valid journal in an order the writer never produces: all four
  // arm outcomes for row 0 but no row_planned entry.  The row is not
  // complete(), so it takes the live path with zero arms left to run —
  // which must still report the row rather than wait forever for an arm
  // callback that will never fire.
  {
    JournalWriter w(path, suite_fingerprint(specs, cfg, K, SuiteRow::kArmCount),
                    specs.size(), K, SuiteRow::kArmCount, 1, false);
    for (int a = 0; a < SuiteRow::kArmCount; ++a) w.arm_done(0, a, 1.0, 0.0);
  }
  const auto rows = resume(specs, cfg, K, path, 2);
  EXPECT_EQ(rows.size(), baseline.size());
}

TEST(ResumeVerification, EmptyJournalIsACleanFreshStart) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const auto baseline = run_suite(specs, cfg, K, {}, 1);
  const std::string path = journal_path("empty");
  std::ofstream(path, std::ios::binary).close();  // zero bytes
  expect_rows_identical(baseline, resume(specs, cfg, K, path, 1));
}

TEST(ResumeTimeouts, ArmTimeoutBecomesTypedRowsUnderContinue) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  SuiteOptions opts;
  opts.jobs = 2;
  opts.policy = SuiteErrorPolicy::kContinue;
  // An already-expired deadline: the very first cancellation poll in
  // each arm throws, deterministically, regardless of machine speed.
  opts.arm_timeout_ms = 1e-6;
  const auto rows = run_suite(specs, cfg, K, {}, opts);
  ASSERT_FALSE(rows.empty());
  for (const auto& r : rows) {
    EXPECT_FALSE(r.ok());
    for (const auto& e : r.arm_error) {
      EXPECT_EQ(e.rfind("TimeoutError", 0), 0u) << r.spec.name << ": " << e;
    }
  }
}

TEST(ResumeTimeouts, ArmTimeoutThrowsUnderFailFast) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  SuiteOptions opts;
  opts.jobs = 2;
  opts.policy = SuiteErrorPolicy::kFailFast;
  opts.arm_timeout_ms = 1e-6;
  EXPECT_THROW(run_suite(specs, cfg, K, {}, opts), TimeoutError);
}

TEST(ResumeTimeouts, SuiteDeadlineThrowsTimeoutAfterDrain) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  SuiteOptions opts;
  opts.jobs = 2;
  opts.suite_timeout_ms = 1e-6;  // expired before the first row starts
  EXPECT_THROW(run_suite(specs, cfg, K, {}, opts), TimeoutError);
}

TEST(ResumeTimeouts, SuiteDeadlineDoesNotPoisonTheCallersToken) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  // run_suite arms the suite deadline on a child token, never on the
  // caller's: a token reused for a second sweep (or any other polled
  // work) must not inherit the first sweep's expired deadline.
  CancelToken token;
  SuiteOptions first;
  first.jobs = 2;
  first.suite_timeout_ms = 1e-6;
  first.cancel = token;
  EXPECT_THROW(run_suite(specs, cfg, K, {}, first), TimeoutError);
  EXPECT_FALSE(token.cancelled());
  SuiteOptions second;
  second.jobs = 2;
  second.cancel = token;
  const auto rows = run_suite(specs, cfg, K, {}, second);
  EXPECT_EQ(rows.size(), run_suite(specs, cfg, K, {}, 1).size());
}

TEST(ResumeTimeouts, TimedOutArmsAreJournaledAndReplayedAsFailures) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = journal_path("timeout_journal");
  SuiteOptions opts;
  opts.jobs = 1;
  opts.policy = SuiteErrorPolicy::kContinue;
  opts.arm_timeout_ms = 1e-6;
  opts.journal_path = path;
  const auto rows = run_suite(specs, cfg, K, {}, opts);
  // Unlike cancellation, a timeout is a *result*: it lands in the
  // journal, and a later resume (without the timeout) replays it rather
  // than silently retrying.
  SuiteOptions again;
  again.jobs = 1;
  again.policy = SuiteErrorPolicy::kContinue;
  again.journal_path = path;
  again.resume = true;
  const auto replayed = run_suite(specs, cfg, K, {}, again);
  expect_rows_identical(rows, replayed);
}

TEST(ResumeTimeouts, ReplayedTimeoutRethrowsAsTimeoutUnderFailFast) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = journal_path("timeout_fail_fast");
  SuiteOptions opts;
  opts.jobs = 1;
  opts.policy = SuiteErrorPolicy::kContinue;
  opts.arm_timeout_ms = 1e-6;
  opts.journal_path = path;
  (void)run_suite(specs, cfg, K, {}, opts);
  // fail_fast on resume must map the journaled description back to the
  // original exception type (same CLI exit code as the first run).
  SuiteOptions again;
  again.jobs = 1;
  again.policy = SuiteErrorPolicy::kFailFast;
  again.journal_path = path;
  again.resume = true;
  EXPECT_THROW(run_suite(specs, cfg, K, {}, again), TimeoutError);
}

TEST(Journal, FailedFsyncIsATypedErrorNotADurableCheckpoint) {
  // fsync on /dev/null fails (EINVAL on Linux), so the header
  // checkpoint the constructor flushes cannot be durable.
  std::FILE* probe = std::fopen("/dev/null", "wb");
  ASSERT_NE(probe, nullptr);
  const bool fsync_fails = ::fsync(::fileno(probe)) != 0;
  std::fclose(probe);
  if (!fsync_fails) GTEST_SKIP() << "fsync on /dev/null succeeds on this host";
  EXPECT_THROW(JournalWriter("/dev/null", 1, 1, 8, 4, 1, /*append=*/false), ParseError);
}

TEST(JournalSummary, SummaryJsonCountsMatchTheReplay) {
  const auto specs = tiny_specs();
  const index_t K = 8;
  const SpmmConfig cfg = evaluation_config(4096, K);
  const std::string path = journal_path("summary");
  ASSERT_FALSE(run_until(specs, cfg, K, path, 1, ~usize{0}));
  const JournalReplay replay = read_journal_file(path);
  EXPECT_TRUE(replay.has_header);
  EXPECT_EQ(replay.total, static_cast<i64>(specs.size()));
  const std::string json = journal_summary_json(replay, path);
  EXPECT_NE(json.find("\"entries\": " + std::to_string(replay.entries)),
            std::string::npos);
  EXPECT_NE(json.find("\"torn_tail\": false"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::json_is_valid(json, &error)) << error;
}

TEST(JournalSummary, PathWithQuotesAndBackslashesYieldsValidJson) {
  // The journal path is user input; embedding it unescaped would make
  // the summary invalid JSON and trace_lint --journal would misreport
  // the breakage as a library bug.
  const std::string hostile = "sweeps\\\"2026\\torn.nmdj";
  const std::string json = journal_summary_json(JournalReplay{}, hostile);
  std::string error;
  EXPECT_TRUE(obs::json_is_valid(json, &error)) << error << "\n" << json;
}

}  // namespace
}  // namespace nmdt
