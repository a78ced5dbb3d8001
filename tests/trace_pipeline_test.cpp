// Pipeline-level tracer tests — the three guarantees the obs layer
// makes (DESIGN.md "Observability"):
//
//  * TracePipeline.*: a traced SpmmEngine run exports schema-valid
//    Chrome trace JSON containing the plan, cache, per-shard kernel,
//    and transform-engine spans.
//  * TraceDeterminism.*: two identical runs at jobs=4 produce the same
//    span tree — (track, name, args) in export order — modulo
//    timestamps.
//  * TraceNoop.*: with tracing disabled, the 9-kernel sweep is
//    bit-identical to a traced run (spans only observe).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/executor.hpp"
#include "core/spmm_engine.hpp"
#include "kernels/spmm.hpp"
#include "util/error.hpp"
#include "matgen/generators.hpp"
#include "obs/json_check.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace nmdt {
namespace {

DenseMatrix random_b(index_t rows, index_t cols, u64 seed) {
  Rng rng(seed);
  DenseMatrix B(rows, cols);
  B.randomize(rng);
  return B;
}

/// 4096 columns = 64 default-width strips = 4 shards for the tiled
/// B-stationary family: wide enough that per-shard spans really fan
/// out, small enough to keep the test fast.
Csr test_matrix() { return gen_powerlaw_rows(512, 4096, 0.01, 1.2, 7); }

void expect_identical(const SpmmResult& a, const SpmmResult& b) {
  const auto x = result_bits(a);
  const auto y = result_bits(b);
  ASSERT_EQ(x.size(), y.size());
  EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size()), 0);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.mem, b.mem);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.engine_busy_ns, b.engine_busy_ns);
  EXPECT_EQ(a.timing.total_ns, b.timing.total_ns);
}

// ---------------------------------------------------------------------
// Schema: a traced engine run exports valid Chrome trace JSON carrying
// every pipeline stage.

TEST(TracePipeline, EngineRunExportsSchemaValidTraceWithPipelineSpans) {
  const Csr A = test_matrix();
  const DenseMatrix B = random_b(A.cols, 8, 2);
  EngineOptions options;
  options.spmm.jobs = 4;
  options.verify = false;
  options.run_baseline = false;
  const SpmmEngine engine(options);

  obs::TraceSession session;
  session.install();
  (void)engine.run(A, B);  // cache miss: plans, converts, executes
  (void)engine.run(A, B);  // cache hit: execute only
  // The online kernel drives the near-memory conversion engine
  // explicitly so transform spans are guaranteed regardless of the
  // SSF decision above.
  (void)engine.run_kernel(KernelKind::kTiledDcsrOnline, A, B);
  session.uninstall();

  std::ostringstream os;
  session.write_chrome_json(os);
  std::string error;
  obs::TraceCheckReport report;
  ASSERT_TRUE(obs::validate_chrome_trace(os.str(), &error, &report)) << error;
  EXPECT_GT(report.complete_spans, 0u);
  EXPECT_GT(report.tracks, 1u);  // shards left the main lane

  std::set<std::string> names;
  for (const auto& ev : session.events()) names.insert(ev.name);
  EXPECT_TRUE(names.count("plan.build"));
  EXPECT_TRUE(names.count("plan.profile"));
  EXPECT_TRUE(names.count("plan.convert.dcsr"));
  EXPECT_TRUE(names.count("plan_cache.lookup"));
  EXPECT_TRUE(names.count("shard_set"));
  EXPECT_TRUE(names.count("shard"));
  EXPECT_TRUE(names.count("shard_merge"));
  EXPECT_TRUE(names.count("mem.merge"));
  EXPECT_TRUE(names.count("engine.convert_tile"));
  EXPECT_TRUE(names.count(kernel_name(KernelKind::kTiledDcsrOnline)));
}

TEST(TracePipeline, SuiteRunnerEmitsOneSpanPerMatrixKernelArm) {
  std::vector<MatrixSpec> specs(2);
  specs[0] = {"uniform-a", MatrixFamily::kUniform, 96, 96, 0.05, 0.0, 0, 11};
  specs[1] = {"uniform-b", MatrixFamily::kUniform, 96, 96, 0.08, 0.0, 0, 12};

  obs::TraceSession session;
  session.install();
  const auto rows = run_suite(specs, SpmmConfig{}, 4, {}, 4);
  session.uninstall();
  ASSERT_EQ(rows.size(), 2u);

  usize arms = 0, plans = 0, suite_runs = 0;
  for (const auto& ev : session.events()) {
    arms += ev.name == "suite.arm" ? 1 : 0;
    plans += ev.name == "suite.plan" ? 1 : 0;
    suite_runs += ev.name == "suite.run" ? 1 : 0;
  }
  EXPECT_EQ(suite_runs, 1u);
  EXPECT_EQ(plans, 2u);   // one plan per matrix
  EXPECT_EQ(arms, 8u);    // 2 matrices x 4 kernel arms
}

// ---------------------------------------------------------------------
// Determinism: the exported span tree is a pure function of the work,
// not of OS scheduling.

using SpanTree = std::vector<std::tuple<u64, std::string, std::string>>;

SpanTree traced_online_run(int jobs) {
  const Csr A = test_matrix();
  SpmmConfig cfg;  // counting mode: fast and fully deterministic
  cfg.jobs = jobs;
  const auto plan = build_plan(A, plan_options_for(cfg));
  const DenseMatrix B = random_b(A.cols, 8, 3);

  obs::TraceSession session;
  session.install();
  (void)SpmmExecutor(cfg).execute(KernelKind::kTiledDcsrOnline, *plan, B);
  session.uninstall();

  SpanTree tree;
  for (const auto& ev : session.events()) {
    tree.emplace_back(ev.track, ev.name, ev.args_json);
  }
  return tree;
}

TEST(TraceDeterminism, RepeatedJobs4RunsExportIdenticalSpanTrees) {
  const SpanTree first = traced_online_run(4);
  const SpanTree second = traced_online_run(4);
  EXPECT_EQ(first, second);

  usize shard_spans = 0;
  std::set<u64> shard_tracks;
  for (const auto& [track, name, args] : first) {
    if (name == "shard") {
      ++shard_spans;
      shard_tracks.insert(track);
    }
  }
  EXPECT_GE(shard_spans, 2u) << "matrix too small to shard: test is vacuous";
  EXPECT_EQ(shard_tracks.size(), shard_spans) << "each shard must own its track";
}

TEST(TraceDeterminism, SuiteSpanTreeIsStableAcrossRuns) {
  std::vector<MatrixSpec> specs(2);
  specs[0] = {"uniform-a", MatrixFamily::kUniform, 96, 96, 0.05, 0.0, 0, 11};
  specs[1] = {"uniform-b", MatrixFamily::kUniform, 96, 96, 0.08, 0.0, 0, 12};
  auto traced_suite = [&] {
    obs::TraceSession session;
    session.install();
    (void)run_suite(specs, SpmmConfig{}, 4, {}, 4);
    session.uninstall();
    SpanTree tree;
    for (const auto& ev : session.events()) {
      tree.emplace_back(ev.track, ev.name, ev.args_json);
    }
    return tree;
  };
  EXPECT_EQ(traced_suite(), traced_suite());
}

// ---------------------------------------------------------------------
// Cancellation: a sweep interrupted mid-suite still exports a
// schema-valid trace covering the work that did complete — the first
// artifact anyone reads when diagnosing why a run was cut short.

TEST(TracePipeline, MidSuiteCancellationStillExportsSchemaValidTrace) {
  std::vector<MatrixSpec> specs(4);
  specs[0] = {"uniform-a", MatrixFamily::kUniform, 96, 96, 0.05, 0.0, 0, 11};
  specs[1] = {"uniform-b", MatrixFamily::kUniform, 96, 96, 0.08, 0.0, 0, 12};
  specs[2] = {"uniform-c", MatrixFamily::kUniform, 96, 96, 0.06, 0.0, 0, 13};
  specs[3] = {"uniform-d", MatrixFamily::kUniform, 96, 96, 0.07, 0.0, 0, 14};

  const std::string path = testing::TempDir() + "nmdt_trace_cancel.nmdj";
  std::remove(path.c_str());
  SuiteOptions opts;
  opts.jobs = 1;  // serial arms: the cut point is exactly reproducible
  opts.journal_path = path;
  // Fire the cancel from the worker-side checkpoint hook right after
  // the first journal append (row 0's plan entry): with jobs=1 every
  // arm behind it observes the request at its entry poll and is
  // abandoned, and run_suite throws CancelledError after the drain.
  opts.on_checkpoint = [&](usize entries) {
    if (entries == 1) opts.cancel.request(CancelReason::kUser);
  };

  obs::TraceSession session;
  session.install();
  EXPECT_THROW((void)run_suite(specs, SpmmConfig{}, 4, {}, opts), CancelledError);
  session.uninstall();
  std::remove(path.c_str());

  // The interrupted session still holds spans for the completed prefix
  // and exports exactly the same schema an uninterrupted run would.
  ASSERT_FALSE(session.events().empty());
  std::ostringstream os;
  session.write_chrome_json(os);
  std::string error;
  obs::TraceCheckReport report;
  ASSERT_TRUE(obs::validate_chrome_trace(os.str(), &error, &report)) << error;
  EXPECT_GT(report.complete_spans, 0u);

  usize runs = 0, arms_done = 0, arms_abandoned = 0;
  for (const auto& ev : session.events()) {
    runs += ev.name == "suite.run" ? 1 : 0;
    if (ev.name == "suite.arm") {
      if (ev.args_json.find("\"cancelled\":1") != std::string::npos) {
        ++arms_abandoned;
      } else {
        ++arms_done;
      }
    }
  }
  EXPECT_EQ(runs, 1u);  // the suite.run span closed on the throw path
  // Abandoned arms are visible in the trace (the `cancelled` arg), and
  // the sweep really was cut short: nowhere near all 16 arms committed.
  EXPECT_GE(arms_abandoned, 1u);
  EXPECT_LT(arms_done, specs.size() * 4);
}

// ---------------------------------------------------------------------
// No-op: tracing never changes results.

TEST(TraceNoop, TracedSweepIsBitIdenticalToUntraced) {
  const Csr A = test_matrix();
  const DenseMatrix B = random_b(A.cols, 8, 5);
  SpmmConfig cfg;
  cfg.jobs = 4;

  for (KernelKind kind : kAllKernels) {
    SCOPED_TRACE(kernel_name(kind));
    const SpmmResult bare = run_one_shot(kind, A, B, cfg);
    SpmmResult traced = [&] {
      obs::TraceSession session;
      session.install();
      SpmmResult r = run_one_shot(kind, A, B, cfg);
      session.uninstall();
      EXPECT_FALSE(session.events().empty());
      return r;
    }();
    expect_identical(bare, traced);
  }
}

}  // namespace
}  // namespace nmdt
