// nmdt_cli: a small driver exposing the library's main entry points for
// scripting — profile a matrix, run SpMM through the heuristic engine,
// convert formats, or sweep the built-in suite, with Matrix Market and
// NMDT-binary I/O.
//
//   ./example_nmdt_cli --cmd profile  --matrix m.mtx
//   ./example_nmdt_cli --cmd run      --matrix m.mtx --k 64
//   ./example_nmdt_cli --cmd convert  --matrix m.mtx --out m.bin
//   ./example_nmdt_cli --cmd suite    --scale small --k 64 --out suite.csv
//
// Any command accepts --trace <out.json> (Chrome trace-event JSON,
// loadable in Perfetto / chrome://tracing) and --metrics <out.json>
// (counters/gauges/histograms snapshot).  Tracing off is a strict
// no-op: outputs are bit-identical with or without it.
//
// Fault injection (--fault-site/--fault-rate/--fault-seed) installs a
// deterministic fault plan for the whole command; --error-policy
// selects how the suite runner treats typed failures.  Typed errors map
// to distinct exit codes: 2 ParseError, 3 FormatError, 4 ConfigError,
// 5 unrecovered fault, 6 deadline exceeded, 130 cancelled (SIGINT),
// 1 anything else.
//
// Durable sweeps: `--cmd suite --journal sweep.nmdj` checkpoints every
// completed (row, arm) to disk; Ctrl-C drains in-flight arms, writes a
// final checkpoint, and exits 130 with a resume hint.  `--resume
// sweep.nmdj` replays the journal and runs only the remainder —
// bit-identical to an uninterrupted sweep.  `--arm-timeout` /
// `--suite-timeout` bound runaway arms / the whole sweep.
#include <algorithm>
#include <csignal>
#include <fstream>
#include <iostream>
#include <optional>

#include "analysis/sampling.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "core/spmm_engine.hpp"
#include "fault/fault.hpp"
#include "formats/footprint.hpp"
#include "formats/matrix_market.hpp"
#include "formats/retype.hpp"
#include "formats/serialize.hpp"
#include "matgen/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "proc/suite.hpp"
#include "transform/comparator.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

using namespace nmdt;

namespace {

/// Process-wide cancellation shared with the signal handler.  Touched
/// once in main() before the handler is installed so the function-local
/// static is constructed outside signal context.
CancelToken& global_cancel() {
  static CancelToken token;
  return token;
}

/// CancelToken::request is a lone CAS on an atomic — async-signal-safe.
/// The sweep drains cooperatively and main() exits 130.
extern "C" void on_interrupt(int) { global_cancel().request(CancelReason::kUser); }

void install_signal_handlers() {
  (void)global_cancel();  // construct before any signal can arrive
#if defined(__unix__) || defined(__APPLE__)
  struct sigaction sa{};
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: interrupt blocking I/O so polls run
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
#else
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);
#endif
}

Csr load_input(const CliParser& cli) {
  const std::string path = cli.get("matrix", "");
  if (path.empty()) {
    // Demo matrix when none is given.
    return gen_powerlaw_rows(4096, 4096, 0.002, 1.2, 1);
  }
  if (path.size() > 4 && path.substr(path.size() - 4) == ".bin") {
    return load_csr_file(path);
  }
  Coo coo = read_matrix_market_file(path);
  return csr_from_coo(coo);
}

int cmd_profile(const CliParser& cli) {
  const Csr A = load_input(cli);
  const TilingSpec spec{64, 64};
  const double sample = cli.get_double("sample", 1.0);
  MatrixProfile p;
  if (sample < 1.0) {
    p = profile_matrix_sampled(A, spec, sample, 7).profile;
  } else {
    p = profile_matrix(A, spec);
  }
  Table t({"quantity", "value"});
  t.begin_row().cell("rows x cols").cell(std::to_string(A.rows) + " x " +
                                         std::to_string(A.cols));
  t.begin_row().cell("nnz").cell(p.stats.nnz);
  t.begin_row().cell("density").cell(format_sci(p.stats.density));
  t.begin_row().cell("nnz/row mean / max").cell(
      format_double(p.stats.nnz_row_mean, 2) + " / " +
      format_double(p.stats.nnz_row_max, 0));
  t.begin_row().cell("H_norm").cell(p.h_norm, 4);
  t.begin_row().cell("SSF").cell(format_sci(p.ssf));
  t.begin_row().cell("recommended strategy").cell(
      strategy_name(select_strategy(p.ssf, default_ssf_threshold())));
  t.print(std::cout);
  return 0;
}

std::vector<KernelKind> parse_kernel_selection(const std::string& sel) {
  if (sel == "all") return {std::begin(kAllKernels), std::end(kAllKernels)};
  if (const auto kind = parse_kernel_kind(sel)) return {*kind};
  std::string names = "all";
  for (KernelKind k : kAllKernels) names += std::string(" | ") + kernel_name(k);
  throw ParseError("unknown --kernel '" + sel + "' (expected " + names + ")");
}

/// --kernel sweep: run the selected kernel(s) directly (no heuristic),
/// at jobs 1 and 4, checking (a) bit-identity across the jobs axis
/// within the chosen precision and (b) the fSPMV tolerance bound
/// against an f64 reference on the same stored operands.
int run_kernel_sweep(const Csr& A, const DenseMatrix& B, const SpmmConfig& cfg,
                     const std::vector<KernelKind>& kernels) {
  const auto plan = build_plan(A, plan_options_for(cfg));
  // One f64 reference and one set of row scales serve every kernel: all
  // arms compute the same product from the same stored-precision A/B.
  DenseMatrixT<double> ref(0, 0);
  std::vector<double> scales;
  dispatch_precision(cfg.precision, [&](auto tag) {
    using V = typename decltype(tag)::type;
    const CsrT<V>& a = plan->csr_at<V>();
    const DenseMatrixT<V> b = retype<V>(B);
    ref = spmm_reference_f64(a, b);
    scales = ToleranceComparator::row_scales(a, b);
  });
  const ToleranceComparator cmp(default_tolerance(cfg.precision));

  Table t({"kernel", "jobs 1 == jobs 4", "tolerance", "max rel err"});
  bool all_ok = true;
  for (KernelKind kind : kernels) {
    SpmmConfig c1 = cfg, c4 = cfg;
    c1.jobs = 1;
    c4.jobs = 4;
    const SpmmResult r1 = SpmmExecutor(c1).execute(kind, *plan, B);
    const SpmmResult r4 = SpmmExecutor(c4).execute(kind, *plan, B);
    const bool identical = std::ranges::equal(result_bits(r1), result_bits(r4)) &&
                           r1.counters == r4.counters && r1.mem == r4.mem;
    const ToleranceVerdict v = cmp.compare(ref, result_f64(r1), scales);
    all_ok = all_ok && identical && v.pass;
    t.begin_row()
        .cell(kernel_name(kind))
        .cell(identical ? "yes" : "DIVERGED")
        .cell(v.pass ? "pass" : "FAIL (" + std::to_string(v.mismatched) + " of " +
                                    std::to_string(v.compared) + ")")
        .cell(format_sci(v.max_rel_error));
  }
  t.print(std::cout);
  std::cout << (all_ok ? "all kernels verified" : "VERIFICATION FAILED") << " at "
            << precision_name(cfg.precision) << " (eps " << format_sci(cmp.eps())
            << ")\n";
  return all_ok ? 0 : 1;
}

int cmd_run(const CliParser& cli) {
  const Csr A = load_input(cli);
  const index_t K = static_cast<index_t>(cli.get_int("k", 64));
  Rng rng(2);
  DenseMatrix B(A.cols, K);
  B.randomize(rng);
  EngineOptions options;
  options.spmm = evaluation_config(A.rows, K);
  options.spmm.jobs = static_cast<int>(cli.get_int("jobs", 1));
  options.spmm.precision = parse_precision(cli.get("precision", "f32"));
  options.profile_sample_fraction = cli.get_double("sample", 1.0);
  const std::string kernel_sel = cli.get("kernel", "");
  if (!kernel_sel.empty()) {
    return run_kernel_sweep(A, B, options.spmm, parse_kernel_selection(kernel_sel));
  }
  const SpmmReport r = SpmmEngine(options).run(A, B);
  std::cout << "strategy " << strategy_name(r.chosen) << " via " << kernel_name(r.kernel)
            << "; modelled " << format_double(r.result.timing.total_ns * 1e-3, 1)
            << " us; speedup " << format_double(r.speedup_vs_baseline, 2)
            << "x; max |err| " << format_sci(r.max_abs_error) << "\n";
  if (r.tolerance) {
    std::cout << "tolerance (" << precision_name(options.spmm.precision) << "): "
              << (r.tolerance->pass ? "pass" : "FAIL") << "; max rel err "
              << format_sci(r.tolerance->max_rel_error) << "; " << r.tolerance->mismatched
              << " of " << r.tolerance->compared << " elements out of bound\n";
  }
  if (r.result.used_fallback) {
    std::cerr << "note: unrecovered conversion fault degraded the run to the "
                 "reference CSR kernel\n";
  }
  return r.tolerance && !r.tolerance->pass ? 1 : 0;
}

int cmd_convert(const CliParser& cli) {
  const Csr A = load_input(cli);
  const std::string out = cli.get("out", "out.bin");
  if (out.size() > 4 && out.substr(out.size() - 4) == ".mtx") {
    write_matrix_market_file(out, coo_from_csr(A));
  } else {
    save_csr_file(out, A);
  }
  const Footprint f = footprint(A);
  std::cout << "wrote " << out << " (" << A.rows << " x " << A.cols << ", nnz "
            << A.nnz() << ", " << format_bytes(static_cast<double>(f.total())) << ")\n";
  return 0;
}

int cmd_suite(const CliParser& cli) {
  const std::string scale_name = cli.get("scale", "small");
  SuiteScale scale = SuiteScale::kSmall;
  if (scale_name == "tiny") scale = SuiteScale::kTiny;
  else if (scale_name == "small") scale = SuiteScale::kSmall;
  else if (scale_name == "medium") scale = SuiteScale::kMedium;
  else if (scale_name == "large") scale = SuiteScale::kLarge;
  else throw ParseError("unknown --scale: " + scale_name);
  const index_t K = static_cast<index_t>(cli.get_int("k", 64));
  SuiteOptions opts;
  opts.jobs = static_cast<int>(cli.get_int("jobs", 0));
  opts.policy = parse_error_policy(cli.get("error-policy", "fail_fast"));
  // --resume <journal> both names the journal and requests the replay;
  // --journal alone starts a fresh checkpointed sweep.
  opts.journal_path = cli.get("resume", cli.get("journal", ""));
  opts.resume = !cli.get("resume", "").empty();
  opts.checkpoint_interval = static_cast<int>(cli.get_int("checkpoint-interval", 1));
  opts.arm_timeout_ms = cli.get_double("arm-timeout", 0.0);
  opts.suite_timeout_ms = cli.get_double("suite-timeout", 0.0);
  opts.cancel = global_cancel();
  // Both ways out of an unfinished sweep — SIGINT (CancelledError) and
  // a suite deadline (TimeoutError) — leave completed work checkpointed,
  // so both deserve the resume hint.
  const auto resume_hint = [&opts] {
    if (!opts.journal_path.empty()) {
      std::cerr << "interrupted; resume with: --cmd suite --resume "
                << opts.journal_path << "\n";
    }
  };
  SpmmConfig suite_cfg = evaluation_config(4096, K);
  suite_cfg.precision = parse_precision(cli.get("precision", "f32"));
  // --isolate-workers N runs every row/arm in supervised worker
  // *processes*: crashes are retried with backoff, poison arms are
  // quarantined as WorkerError, and rows stay bit-identical to the
  // in-process path at any worker count.
  const int isolate = static_cast<int>(cli.get_int("isolate-workers", 0));
  proc::ProcOptions proc_opts;
  proc_opts.workers = isolate;
  proc_opts.worker_mem_mb = cli.get_int("worker-mem-mb", 0);
  const auto suite_progress = [](usize done, usize total, const SuiteRow& r) {
    if (!r.ok()) {
      std::cerr << r.spec.name << ": " << r.failure_summary() << "\n";
    } else if (done % 25 == 0) {
      std::cerr << done << "/" << total << "\n";
    }
  };
  std::vector<SuiteRow> rows;
  try {
    rows = isolate > 0
               ? proc::run_suite_isolated(standard_suite(scale), suite_cfg, K,
                                          suite_progress, opts, proc_opts)
               : run_suite(standard_suite(scale), suite_cfg, K, suite_progress, opts);
  } catch (const CancelledError&) {
    resume_hint();
    throw;
  } catch (const TimeoutError&) {
    resume_hint();
    throw;
  }
  Table t({"matrix", "status", "ssf", "t_baseline_ms", "t_dcsr_c_ms", "t_online_b_ms"});
  std::vector<SuiteRow> ok_rows;
  for (const auto& r : rows) {
    t.begin_row()
        .cell(r.spec.name)
        .cell(r.ok() ? "ok" : r.failure_summary())
        .cell(format_sci(r.profile.ssf))
        .cell(r.t_baseline_ms, 4)
        .cell(r.t_dcsr_c_ms, 4)
        .cell(r.t_online_b_ms, 4);
    if (r.ok()) ok_rows.push_back(r);
  }
  const std::string out = cli.get("out", "suite.csv");
  t.write_csv(out);
  if (ok_rows.empty()) {
    // Every row failed (e.g. an aggressive --arm-timeout under
    // --error-policy continue): the table is still useful, training is
    // not.
    std::cout << rows.size() << " matrices (all failed) -> " << out
              << "; no completed rows to train on\n";
    return 0;
  }
  // Failed rows carry zero timings; train only on completed ones.
  const SsfThreshold th = train_threshold(ok_rows);
  std::cout << rows.size() << " matrices (" << rows.size() - ok_rows.size()
            << " failed) -> " << out << "; learned SSF_th " << format_sci(th.threshold)
            << " (accuracy " << format_double(th.accuracy, 3) << ")\n";
  return 0;
}

/// Offline trace analytics: load a `--trace` artifact back in and emit
/// a self-contained markdown report (hotspots, critical path, folded
/// stacks), optionally diffed against a second trace.
int cmd_report(const CliParser& cli) {
  const std::string in_path = cli.get("in", "");
  if (in_path.empty()) {
    throw ParseError("--cmd report requires --in <trace.json> (a --trace artifact)");
  }
  const obs::TraceProfile profile = obs::analyze_trace_file(in_path);

  obs::ReportOptions opts;
  opts.top_n = static_cast<usize>(std::max<i64>(1, cli.get_int("top", 15)));
  opts.trace_label = in_path;

  std::optional<obs::TraceProfile> base;
  const std::string diff_path = cli.get("diff", "");
  if (!diff_path.empty()) {
    base = obs::analyze_trace_file(diff_path);
    opts.diff_label = diff_path;
  }

  const std::string folded_path = cli.get("folded", "");
  if (!folded_path.empty()) {
    std::ofstream folded(folded_path);
    NMDT_REQUIRE(folded.good(), "cannot open folded-stacks output path");
    folded << obs::folded_stacks(profile);
    std::cerr << "folded stacks: " << folded_path << " (" << profile.folded.size()
              << " stacks)\n";
  }

  const std::string out = cli.get("out", "");
  if (out.empty()) {
    obs::write_markdown_report(std::cout, profile, opts, base ? &*base : nullptr);
  } else {
    std::ofstream os(out);
    NMDT_REQUIRE(os.good(), "cannot open report output path");
    obs::write_markdown_report(os, profile, opts, base ? &*base : nullptr);
    std::cerr << "report: " << out << " (" << profile.spans.size() << " spans, "
              << profile.labels.size() << " labels)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.declare("cmd", "profile | run | convert | suite | report");
  cli.declare("matrix", "input: .mtx (Matrix Market) or .bin (NMDT binary)");
  cli.declare("out", "output file (convert/suite)");
  cli.declare("k", "dense columns (run/suite; default 64)");
  cli.declare("sample", "row fraction for sampled profiling (default 1.0 = full)");
  cli.declare("scale", "suite scale (suite; default small)");
  cli.declare("jobs",
              "host threads: suite-runner threads (suite; default: hardware "
              "concurrency) or intra-kernel shard threads (run; default 1; "
              "results are identical at any value)");
  cli.declare("precision",
              "stored value type: f32 | f64 | bf16 (run/suite; default f32). "
              "Non-f32 runs are tolerance-verified against an f64 reference");
  cli.declare("kernel",
              "run this kernel (or 'all') directly at jobs {1, 4} with "
              "bit-identity and tolerance checks instead of the heuristic "
              "engine (run)");
  cli.declare("trace", "write a Chrome trace-event JSON of the command (any cmd)");
  cli.declare("metrics", "write a counters/gauges/histograms JSON snapshot (any cmd)");
  cli.declare("fault-site",
              "fault injection site: none | tile_row_id | tile_col_idx | tile_val | "
              "cache_entry | suite_arm | shard_exec | serialized_stream | "
              "worker_abort | worker_hang (default none)");
  cli.declare("fault-rate", "per-event injection probability in [0, 1] (default 0)");
  cli.declare("fault-seed", "seed of the deterministic fault sequence (default 0)");
  cli.declare("error-policy",
              "suite failure handling: fail_fast | continue (suite; default fail_fast)");
  cli.declare("journal",
              "checkpoint-journal path: append every completed (row, arm) so an "
              "interrupted sweep can be resumed (suite)");
  cli.declare("resume",
              "resume a sweep from this checkpoint journal; replays completed work "
              "and runs only the remainder (suite)");
  cli.declare("checkpoint-interval",
              "fsync the journal every N entries (suite; default 1)");
  cli.declare("arm-timeout",
              "deadline per kernel arm in ms; overrunning arms become typed "
              "TimeoutError rows (suite; default 0 = off)");
  cli.declare("suite-timeout",
              "deadline for the whole sweep in ms; expiry cancels in-flight arms "
              "and exits 6 (suite; default 0 = off)");
  cli.declare("isolate-workers",
              "run the sweep in N supervised worker processes: crashes retry "
              "with backoff, poison arms become typed WorkerError rows (exit 8 "
              "under fail_fast), output stays bit-identical to in-process "
              "(suite; default 0 = in-process)");
  cli.declare("worker-mem-mb",
              "RLIMIT_AS cap per isolated worker in MiB (suite; default 0 = "
              "unlimited)");
  cli.declare("perf",
              "attach hardware-counter args (hw.*) to kernel/plan/arm trace "
              "spans via perf_event_open, falling back to rusage where "
              "unavailable; NMDT_PERF_EVENTS=off disables (any cmd)");
  cli.declare("in", "input trace JSON, a --trace artifact (report)");
  cli.declare("diff", "baseline trace JSON to diff against (report)");
  cli.declare("folded", "write collapsed flamegraph stacks to this path (report)");
  cli.declare("top", "hotspot table rows (report; default 15)");
  if (cli.has("help")) {
    std::cout << cli.help("nmdt_cli: profile / run / convert / suite");
    return 0;
  }
  install_signal_handlers();
  int rc = 0;
  std::string trace_path, metrics_path;
  std::optional<obs::TraceSession> session;
  std::optional<fault::FaultScope> fault_scope;
  try {
    cli.validate();
    trace_path = cli.get("trace", "");
    metrics_path = cli.get("metrics", "");
    fault::FaultPlan plan;
    plan.site = fault::parse_site(cli.get("fault-site", "none"));
    plan.rate = cli.get_double("fault-rate", 0.0);
    plan.seed = static_cast<u64>(cli.get_int("fault-seed", 0));
    NMDT_CHECK_CONFIG(plan.rate >= 0.0 && plan.rate <= 1.0,
                      "--fault-rate must be in [0, 1]");
    if (plan.site != fault::FaultSite::kNone) fault_scope.emplace(plan);
    if (cli.has("perf")) obs::set_profiling_enabled(true);
    if (!trace_path.empty()) {
      session.emplace();
      session->install();
    }
    const std::string cmd = cli.get("cmd", "run");
    if (cmd == "profile") rc = cmd_profile(cli);
    else if (cmd == "run") rc = cmd_run(cli);
    else if (cmd == "convert") rc = cmd_convert(cli);
    else if (cmd == "suite") rc = cmd_suite(cli);
    else if (cmd == "report") rc = cmd_report(cli);
    else throw ParseError("unknown --cmd '" + cmd + "' (try --help)");
  } catch (const std::exception& e) {
    std::cerr << "error: " << describe_exception(e) << "\n";
    rc = exit_code_for(e);
  }
  // Trace/metrics snapshots are written even when the command failed —
  // they are the first thing to look at when diagnosing a fault.
  if (session) {
    session->uninstall();
    session->write_chrome_json_file(trace_path);
    std::cerr << "trace: " << trace_path << " (" << session->events().size()
              << " spans)\n";
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::global().write_json_file(metrics_path);
    std::cerr << "metrics: " << metrics_path << "\n";
  }
  return rc;
}
