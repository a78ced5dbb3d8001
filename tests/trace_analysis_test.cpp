// Offline trace analytics + hardware profiler tests (src/obs/
// trace_analysis.hpp, src/obs/profiler.hpp):
//
//  * TraceAnalysis.*: nesting reconstruction, exclusive-time
//    accounting, critical path, folded stacks, and diff — first on a
//    synthetic trace with exact expected values, then round-tripped
//    through the real tracer on a deterministic jobs=4 kernel run.
//  * Profiler.*: ProfScope is a strict no-op unless profiling is
//    explicitly enabled; when enabled it attaches hw.* args to spans
//    and degrades to the rusage fallback where perf_event is
//    unavailable (containers, non-Linux) without ever failing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>

#include "core/executor.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt::obs {
namespace {

/// Hand-built trace with a known tree:
///   tid 1:  root[0,100]  >  child[10,40]  >  leaf[12,17]
///                         >  child[50,70]
///   tid 2:  other[0,40]
/// Exclusive: root 50, first child 25, second child 20, leaf 5, other 40.
const char* kSyntheticTrace = R"({"traceEvents": [
  {"name": "root",  "ph": "X", "ts": 0.0,  "dur": 100.0, "pid": 1, "tid": 1},
  {"name": "child", "ph": "X", "ts": 10.0, "dur": 30.0,  "pid": 1, "tid": 1},
  {"name": "leaf",  "ph": "X", "ts": 12.0, "dur": 5.0,   "pid": 1, "tid": 1},
  {"name": "child", "ph": "X", "ts": 50.0, "dur": 20.0,  "pid": 1, "tid": 1},
  {"name": "other", "ph": "X", "ts": 0.0,  "dur": 40.0,  "pid": 1, "tid": 2},
  {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "nmdt"}}
]})";

const LabelStat* find_label(const TraceProfile& p, const std::string& name) {
  for (const auto& l : p.labels) {
    if (l.label == name) return &l;
  }
  return nullptr;
}

TEST(TraceAnalysis, SyntheticTraceHasExactExclusiveTimes) {
  const TraceProfile p = analyze_trace(kSyntheticTrace);
  ASSERT_EQ(p.spans.size(), 5u);  // metadata event ignored
  EXPECT_EQ(p.tracks, 2u);
  EXPECT_DOUBLE_EQ(p.wall_us, 100.0);
  // Σ exclusive == Σ root inclusive (100 + 40).
  EXPECT_DOUBLE_EQ(p.total_excl_us, 140.0);

  const LabelStat* root = find_label(p, "root");
  const LabelStat* child = find_label(p, "child");
  const LabelStat* leaf = find_label(p, "leaf");
  const LabelStat* other = find_label(p, "other");
  ASSERT_TRUE(root && child && leaf && other);
  EXPECT_DOUBLE_EQ(root->excl_us, 50.0);  // 100 - 30 - 20
  EXPECT_DOUBLE_EQ(root->incl_us, 100.0);
  EXPECT_EQ(child->count, 2u);
  EXPECT_DOUBLE_EQ(child->excl_us, 45.0);  // (30 - 5) + 20
  EXPECT_DOUBLE_EQ(child->incl_us, 50.0);
  EXPECT_DOUBLE_EQ(leaf->excl_us, 5.0);
  EXPECT_DOUBLE_EQ(other->excl_us, 40.0);
  // Labels are sorted by exclusive time, descending.
  EXPECT_EQ(p.labels.front().label, "root");

  // Depth / parent reconstruction for the deepest chain.
  for (const auto& s : p.spans) {
    if (s.name == "leaf") {
      EXPECT_EQ(s.depth, 2);
      ASSERT_GE(s.parent, 0);
      EXPECT_EQ(p.spans[static_cast<usize>(s.parent)].name, "child");
    }
  }
}

TEST(TraceAnalysis, SyntheticCriticalPathDescendsLongestChild) {
  const TraceProfile p = analyze_trace(kSyntheticTrace);
  // Longest root is "root" (100); its longest child the 30 us "child";
  // its only child the 5 us "leaf".
  ASSERT_EQ(p.critical_path.size(), 3u);
  EXPECT_EQ(p.critical_path[0].name, "root");
  EXPECT_DOUBLE_EQ(p.critical_path[0].incl_us, 100.0);
  EXPECT_EQ(p.critical_path[1].name, "child");
  EXPECT_DOUBLE_EQ(p.critical_path[1].incl_us, 30.0);
  EXPECT_EQ(p.critical_path[2].name, "leaf");
  EXPECT_DOUBLE_EQ(p.critical_path[2].incl_us, 5.0);
}

TEST(TraceAnalysis, SyntheticFoldedStacksCarryIntegerNanoseconds) {
  const TraceProfile p = analyze_trace(kSyntheticTrace);
  // Exclusive time keyed by semicolon-joined stack path, in µs.
  ASSERT_TRUE(p.folded.count("root"));
  EXPECT_DOUBLE_EQ(p.folded.at("root"), 50.0);
  EXPECT_DOUBLE_EQ(p.folded.at("root;child"), 45.0);
  EXPECT_DOUBLE_EQ(p.folded.at("root;child;leaf"), 5.0);
  EXPECT_DOUBLE_EQ(p.folded.at("other"), 40.0);

  const std::string lines = folded_stacks(p);
  EXPECT_NE(lines.find("root;child;leaf 5000\n"), std::string::npos);
  EXPECT_NE(lines.find("root 50000\n"), std::string::npos);
  // Every line is "stack <integer>": no decimal points anywhere.
  EXPECT_EQ(lines.find('.'), std::string::npos);
}

TEST(TraceAnalysis, DiffReportsPerLabelDeltasSortedByMagnitude) {
  const TraceProfile base = analyze_trace(kSyntheticTrace);
  const char* faster = R"({"traceEvents": [
    {"name": "root",  "ph": "X", "ts": 0.0, "dur": 60.0, "pid": 1, "tid": 1},
    {"name": "child", "ph": "X", "ts": 5.0, "dur": 10.0, "pid": 1, "tid": 1},
    {"name": "fresh", "ph": "X", "ts": 0.0, "dur": 8.0,  "pid": 1, "tid": 2}
  ]})";
  const TraceProfile cur = analyze_trace(faster);
  const auto deltas = diff_profiles(base, cur);

  double prev = 1e300;
  bool saw_child = false, saw_fresh = false, saw_other = false;
  for (const auto& d : deltas) {
    const double mag = d.delta_us() < 0 ? -d.delta_us() : d.delta_us();
    EXPECT_LE(mag, prev);  // sorted by |delta| descending
    prev = mag;
    if (d.label == "child") {
      saw_child = true;
      EXPECT_DOUBLE_EQ(d.excl_base_us, 45.0);
      EXPECT_DOUBLE_EQ(d.excl_cur_us, 10.0);
      EXPECT_EQ(d.count_base, 2u);
      EXPECT_EQ(d.count_cur, 1u);
    } else if (d.label == "fresh") {  // only in cur
      saw_fresh = true;
      EXPECT_DOUBLE_EQ(d.excl_base_us, 0.0);
      EXPECT_DOUBLE_EQ(d.ratio(), 0.0);
    } else if (d.label == "other") {  // only in base
      saw_other = true;
      EXPECT_DOUBLE_EQ(d.excl_cur_us, 0.0);
    }
  }
  EXPECT_TRUE(saw_child && saw_fresh && saw_other);
}

TEST(TraceAnalysis, MalformedInputThrowsParseError) {
  EXPECT_THROW(analyze_trace("{"), ParseError);
  EXPECT_THROW(analyze_trace("[]"), ParseError);            // not an object
  EXPECT_THROW(analyze_trace("{\"a\": 1}"), ParseError);    // no traceEvents
  EXPECT_THROW(analyze_trace_file("/nonexistent/t.json"), ParseError);
}

TEST(TraceAnalysis, MarkdownReportCarriesEverySection) {
  const TraceProfile p = analyze_trace(kSyntheticTrace);
  std::ostringstream os;
  ReportOptions opts;
  opts.top_n = 3;
  opts.trace_label = "synthetic.json";
  write_markdown_report(os, p, opts);
  const std::string md = os.str();
  EXPECT_NE(md.find("# nmdt trace report"), std::string::npos);
  EXPECT_NE(md.find("synthetic.json"), std::string::npos);
  EXPECT_NE(md.find("## Hotspots"), std::string::npos);
  EXPECT_NE(md.find("## Critical path"), std::string::npos);
  EXPECT_NE(md.find("## Folded stacks"), std::string::npos);
  EXPECT_NE(md.find("`root`"), std::string::npos);
  EXPECT_EQ(md.find("## Diff"), std::string::npos);  // no baseline given

  std::ostringstream os2;
  write_markdown_report(os2, p, opts, &p);  // self-diff: all ratios 1.0
  EXPECT_NE(os2.str().find("## Diff"), std::string::npos);
}

// ---------------------------------------------------------------------
// Round-trip through the real tracer: a deterministic jobs=4 kernel run
// exported to Chrome JSON and analyzed back.

std::string traced_online_json() {
  const Csr A = gen_powerlaw_rows(512, 4096, 0.01, 1.2, 7);
  SpmmConfig cfg;  // counting mode: fast and fully deterministic
  cfg.jobs = 4;
  const auto plan = build_plan(A, plan_options_for(cfg));
  Rng rng(3);
  DenseMatrix B(A.cols, 8);
  B.randomize(rng);

  TraceSession session;
  session.install();
  (void)SpmmExecutor(cfg).execute(KernelKind::kTiledDcsrOnline, *plan, B);
  session.uninstall();
  std::ostringstream os;
  session.write_chrome_json(os);
  return os.str();
}

TEST(TraceAnalysis, RoundTripsDeterministicJobs4Trace) {
  const TraceProfile p = analyze_trace(traced_online_json());
  ASSERT_FALSE(p.spans.empty());
  EXPECT_GT(p.tracks, 1u);  // shards fanned out to their own lanes
  EXPECT_GT(p.wall_us, 0.0);

  // Accounting invariants: exclusive ≤ inclusive per span, and the
  // folded stacks partition exactly the total exclusive time.
  double folded_sum = 0.0;
  for (const auto& [stack, us] : p.folded) folded_sum += us;
  EXPECT_NEAR(folded_sum, p.total_excl_us, 1e-6 * std::max(1.0, p.total_excl_us));
  for (const auto& s : p.spans) {
    EXPECT_GE(s.self_us, 0.0);
    EXPECT_LE(s.self_us, s.dur_us + 1e-9);
  }

  std::set<std::string> labels;
  for (const auto& l : p.labels) labels.insert(l.label);
  EXPECT_TRUE(labels.count("shard"));
  EXPECT_TRUE(labels.count("shard_set"));
  ASSERT_FALSE(p.critical_path.empty());
  EXPECT_EQ(p.critical_path.front().depth, 0);

  // The span *structure* is deterministic run-to-run: same label set
  // and counts, same stack shapes — only the time values move.
  const TraceProfile q = analyze_trace(traced_online_json());
  ASSERT_EQ(q.labels.size(), p.labels.size());
  std::set<std::string> labels_q;
  for (const auto& l : q.labels) labels_q.insert(l.label);
  EXPECT_EQ(labels_q, labels);
  std::set<std::string> stacks_p, stacks_q;
  for (const auto& [stack, us] : p.folded) stacks_p.insert(stack);
  for (const auto& [stack, us] : q.folded) stacks_q.insert(stack);
  EXPECT_EQ(stacks_p, stacks_q);
}

// ---------------------------------------------------------------------
// Hardware profiler: explicit opt-in, graceful degradation.

TEST(Profiler, HostInfoIsPopulatedAndStable) {
  const HostInfo& h = host_info();
  EXPECT_FALSE(h.cpu_model.empty());
  EXPECT_GT(h.cores, 0);
  EXPECT_FALSE(h.simd_tier.empty());
  EXPECT_FALSE(h.compiler.empty());
  EXPECT_EQ(h.fingerprint(), host_info().fingerprint());
  EXPECT_NE(h.fingerprint().find('|'), std::string::npos);
  // The JSON literal parses and carries the fields downstream tooling
  // keys on.
  EXPECT_NE(h.json().find("cpu_model"), std::string::npos);
  EXPECT_NE(h.json().find("simd_tier"), std::string::npos);
}

TEST(Profiler, DisabledScopeIsAStrictNoop) {
  ASSERT_FALSE(profiling_enabled());  // default state
  TraceSession session;
  session.install();
  {
    TraceSpan span("prof.off");
    ProfScope prof(span);
    EXPECT_FALSE(prof.active());
    EXPECT_FALSE(prof.sample().valid());
  }
  session.uninstall();
  ASSERT_EQ(session.events().size(), 1u);
  // No hw.* args were attached: the deterministic-trace contract holds.
  EXPECT_EQ(session.events()[0].args_json.find("hw."), std::string::npos);
}

TEST(Profiler, EnabledScopeAttachesCountersAndDegradesGracefully) {
  if (profiler_backend() == ProfBackend::kDisabled) {
    GTEST_SKIP() << "NMDT_PERF_EVENTS=off in this environment";
  }
  set_profiling_enabled(true);
  TraceSession session;
  session.install();
  {
    TraceSpan span("prof.on");
    ProfScope prof(span);
    EXPECT_TRUE(prof.active());
    // Burn a little CPU so the deltas are non-trivially sampled.
    volatile double acc = 0.0;
    for (int i = 0; i < 100000; ++i) acc = acc + static_cast<double>(i) * 1e-9;
    const HwCounters c = prof.sample();
    EXPECT_TRUE(c.valid());
    if (c.source == ProfBackend::kPerfEvent) {
      EXPECT_TRUE(c.has_counters());
      EXPECT_GT(c.cycles, 0);
      EXPECT_GT(c.instructions, 0);
      EXPECT_GT(c.ipc(), 0.0);
    } else {
      // Fallback: counters absent by contract, times still filled.
      EXPECT_EQ(c.source, ProfBackend::kFallback);
      EXPECT_FALSE(c.has_counters());
      EXPECT_DOUBLE_EQ(c.ipc(), 0.0);
    }
    EXPECT_NE(c.json().find("\"source\""), std::string::npos);
  }
  session.uninstall();
  set_profiling_enabled(false);
  ASSERT_EQ(session.events().size(), 1u);
  EXPECT_NE(session.events()[0].args_json.find("\"hw.src\""), std::string::npos);
}

}  // namespace
}  // namespace nmdt::obs
