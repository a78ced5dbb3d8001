// Kernel-simulation throughput bench: times every SpMM kernel variant
// serially (--jobs 1) and with intra-kernel sharding (--jobs N) on the
// largest matrix of the chosen suite scale, and writes the comparison
// to a JSON report (BENCH_kernels.json by default).
//
// The matrix is planned ONCE (SpmmPlan: profile, then the operands of
// every timed kernel) and the kernels execute against the plan, so
// the report separates the pipeline phases: a "phases" object carries
// plan/profile/convert wall-clock, the per-kernel timings are pure
// execute, and a "metrics" object embeds the full MetricsRegistry
// snapshot (counters / gauges / histograms) for the run.
//
// The sharded run produces bit-identical C and metrics (enforced by the
// KernelShardingSweep tests and re-checked here), so the only thing
// that changes with --jobs is host wall-clock.  On a single-core host
// the parallel arm cannot beat the serial one, so "speedup" is reported
// as null rather than a misleading ~1.0.
//
// The value-precision axis (--precision) selects the stored element
// width of the timed sweep; a "precisions" section additionally runs
// every kernel once at each of f32/f64/bf16 and reports the modelled
// bytes/FLOP and the simulated DRAM traffic, including the bf16-vs-f32
// traffic win the narrower values buy.
//
//   --scale {tiny,small,medium,large}  suite scale (default medium)
//   --k <int>        dense B columns (default 64)
//   --jobs <int>     shard threads for the parallel arm (default:
//                    hardware concurrency)
//   --warmup <int>   untimed iterations per arm (default 1)
//   --iters <int>    timed iterations per arm; best is kept (default 3)
//   --mode {counting,cachesim}  memory model (default cachesim)
//   --precision {f32,f64,bf16}  stored value type of the timed sweep
//                    (default f32)
//   --out <path>     JSON report path (default BENCH_kernels.json)
//   --history <path> bench-trajectory JSONL to append this run to
//                    (default results/bench_history.jsonl; 'none' = off)
//
// Beside that pick the bench also times the largest powerlaw_rows spec
// of the scale that the plan sends to tiled_dcsr_online (serial and
// counting arms), so the near-memory engine is measured on the side of
// the SSF decision where it actually runs.  That matrix gets its own
// bench-history line; the JSON report stays on the main pick.
//
// The report header carries a "host" provenance object (CPU model,
// cores, SIMD tier, compiler, build type) so downstream tooling
// (scripts/check_serial_perf.py) only ever compares timings
// like-for-like.  Each kernel row additionally carries an "hw" object
// with hardware-counter deltas from one profiled serial execute
// (perf_event where available, rusage fallback elsewhere; export
// NMDT_PERF_EVENTS=off to suppress the profiled pass entirely).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/traffic_model.hpp"
#include "core/executor.hpp"
#include "core/plan.hpp"
#include "kernels/spmm.hpp"
#include "matgen/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/scoped_timer.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace nmdt {
namespace {

struct ArmTiming {
  double best_ms = 0.0;
  double mean_ms = 0.0;
};

ArmTiming time_kernel(KernelKind kind, const SpmmExecutor& exec, const SpmmPlan& plan,
                      const DenseMatrix& B, int warmup, int iters) {
  for (int i = 0; i < warmup; ++i) (void)exec.execute(kind, plan, B);
  ArmTiming t;
  t.best_ms = 1e300;
  obs::Histogram execute_ms;
  for (int i = 0; i < iters; ++i) {
    obs::ScopedTimer sw(execute_ms);
    (void)exec.execute(kind, plan, B);
    const double ms = sw.stop();
    t.best_ms = std::min(t.best_ms, ms);
    t.mean_ms += ms / iters;
  }
  return t;
}

/// Geometric mean of strictly-positive timings (clamped below at 1 ns
/// so a pathological zero sample cannot poison the product).
double geomean_ms(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(std::max(x, 1e-6));
  return std::exp(acc / static_cast<double>(xs.size()));
}

/// UTC wall-clock stamp for the history line (ISO 8601, second
/// granularity — history entries are ordered, not compared, by it).
std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
#if defined(_WIN32)
  gmtime_s(&tm, &now);
#else
  gmtime_r(&now, &tm);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// "Larger" in the pick order: more cells, then denser.
bool larger_spec(const MatrixSpec& a, const MatrixSpec& b) {
  const i64 ca = static_cast<i64>(a.rows) * a.cols;
  const i64 cb = static_cast<i64>(b.rows) * b.cols;
  return ca > cb || (ca == cb && a.density > b.density);
}

/// Build the operands of every kernel, so timed arms never include a
/// conversion.
void build_all_operands(const SpmmPlan& plan, Precision precision) {
  dispatch_precision(precision, [&](auto tag) {
    using V = typename decltype(tag)::type;
    for (KernelKind kind : kAllKernels) (void)plan.template operands_for<V>(kind);
  });
}

/// Append one self-contained JSONL line (provenance + per-kernel serial
/// and counting bests) to the bench trajectory, so
/// scripts/check_serial_perf.py --history can gate against the rolling
/// best of the same matrix and render the trend.
void append_history(const std::string& history_path, const std::string& matrix,
                    index_t K, const std::string& mode_name, Precision precision,
                    int iters, const std::vector<std::string>& names,
                    const std::vector<double>& serial,
                    const std::vector<double>& counting) {
  const auto parent = std::filesystem::path(history_path).parent_path();
  std::error_code ec;
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream hist(history_path, std::ios::app);
  NMDT_REQUIRE(hist.good(), "cannot open bench history path");
  hist << "{\"ts\": \"" << utc_timestamp() << "\", \"bench\": \"micro_kernels\""
       << ", \"matrix\": \"" << matrix << "\", \"k\": " << K << ", \"mode\": \""
       << mode_name << "\", \"precision\": \"" << precision_name(precision)
       << "\", \"iters\": " << iters << ", \"host\": " << obs::host_info().json()
       << ", \"serial_geomean_ms\": " << geomean_ms(serial)
       << ", \"counting_geomean_ms\": " << geomean_ms(counting) << ", \"kernels\": [";
  for (usize i = 0; i < names.size(); ++i) {
    hist << (i == 0 ? "" : ", ") << "{\"name\": \"" << names[i]
         << "\", \"serial_best_ms\": " << serial[i]
         << ", \"counting_best_ms\": " << counting[i] << "}";
  }
  hist << "]}\n";
  std::cout << "history +1 -> " << history_path << " (" << matrix << ")\n";
}

int run(int argc, char** argv) {
  CliParser cli(argc, argv);
  cli.declare("scale", "suite scale: tiny | small | medium | large (default medium)");
  cli.declare("k", "dense B columns (default 64)");
  cli.declare("jobs", "shard threads for the parallel arm (default: hardware concurrency)");
  cli.declare("warmup", "untimed iterations per arm (default 1)");
  cli.declare("iters", "timed iterations per arm, best kept (default 3)");
  cli.declare("mode", "memory model: counting | cachesim (default cachesim)");
  cli.declare("precision", "stored value type: f32 | f64 | bf16 (default f32)");
  cli.declare("out", "JSON report path (default BENCH_kernels.json)");
  cli.declare("history",
              "bench-trajectory JSONL appended with this run's provenance and "
              "timings (default results/bench_history.jsonl; 'none' disables)");
  if (cli.has("help")) {
    std::cout << cli.help("micro_kernels: serial vs sharded kernel timing");
    return 0;
  }
  cli.validate();
  // Hardware-counter attribution is on by default in the bench — the
  // request degrades to rusage (or to nothing, under
  // NMDT_PERF_EVENTS=off) without ever failing the run.
  obs::set_profiling_enabled(true);

  const std::string scale_name = cli.get("scale", "medium");
  SuiteScale scale = SuiteScale::kMedium;
  if (scale_name == "tiny") scale = SuiteScale::kTiny;
  else if (scale_name == "small") scale = SuiteScale::kSmall;
  else if (scale_name == "medium") scale = SuiteScale::kMedium;
  else if (scale_name == "large") scale = SuiteScale::kLarge;
  else throw ParseError("unknown --scale value: " + scale_name);
  const index_t K = static_cast<index_t>(cli.get_int("k", 64));
  int jobs = static_cast<int>(cli.get_int("jobs", 0));
  if (jobs <= 0) jobs = ThreadPool::default_jobs();
  const int warmup = static_cast<int>(cli.get_int("warmup", 1));
  const int iters = std::max(1, static_cast<int>(cli.get_int("iters", 3)));
  const std::string mode_name = cli.get("mode", "cachesim");
  const Precision precision = parse_precision(cli.get("precision", "f32"));
  const std::string out_path = cli.get("out", "BENCH_kernels.json");
  const std::string history_path = cli.get("history", "results/bench_history.jsonl");
  const int host_cores = ThreadPool::default_jobs();

  // The largest suite matrix is the one whose serial latency bounds a
  // sweep, so it is the one the intra-kernel speedup matters for.
  const auto specs = standard_suite(scale);
  const MatrixSpec* pick = &specs.front();
  for (const auto& s : specs) {
    if (larger_spec(s, *pick)) pick = &s;
  }
  const Csr A = pick->generate();
  Rng rng(1);
  DenseMatrix B(A.cols, K);
  B.randomize(rng);

  SpmmConfig cfg;
  if (mode_name == "cachesim") {
    cfg = evaluation_config(std::max<index_t>(A.rows, 64), K);
  } else if (mode_name != "counting") {
    throw ParseError("unknown --mode value: " + mode_name);
  }
  cfg.precision = precision;

  // Plan once and build the operands of every kernel timed below, then
  // run every kernel from the plan so the timed arms measure the
  // execute phase alone.  Start from a clean registry so the embedded
  // metrics snapshot describes exactly this run.
  obs::MetricsRegistry::global().reset();
  double plan_ms = 0.0;
  obs::Histogram plan_hist;
  const auto plan = [&] {
    obs::ScopedTimer t(plan_hist);
    auto p = build_plan(A, plan_options_for(cfg));
    build_all_operands(*p, precision);
    plan_ms = t.stop();
    return p;
  }();
  const double profile_ms = obs::metrics().plan_profile_ms.snapshot().sum;
  const double convert_ms = obs::metrics().plan_convert_ms.snapshot().sum;

  std::cout << "matrix " << pick->name << " (" << A.rows << " x " << A.cols << ", nnz "
            << A.nnz() << "), K " << K << ", mode " << mode_name << ", precision "
            << precision_name(precision) << ", jobs " << jobs << ", host cores "
            << host_cores << "\n";
  std::cout << "plan " << plan_ms << " ms (profile " << profile_ms
            << " ms, convert " << convert_ms << " ms)\n";

  std::ofstream json(out_path);
  NMDT_REQUIRE(json.good(), "cannot open JSON output path");
  json << "{\n"
       << "  \"bench\": \"micro_kernels\",\n"
       << "  \"matrix\": \"" << pick->name << "\",\n"
       << "  \"rows\": " << A.rows << ",\n"
       << "  \"cols\": " << A.cols << ",\n"
       << "  \"nnz\": " << A.nnz() << ",\n"
       << "  \"k\": " << K << ",\n"
       << "  \"mode\": \"" << mode_name << "\",\n"
       << "  \"precision\": \"" << precision_name(precision) << "\",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"host_cores\": " << host_cores << ",\n"
       << "  \"host\": " << obs::host_info().json() << ",\n"
       << "  \"profiler_backend\": \""
       << obs::backend_name(obs::profiler_backend()) << "\",\n"
       << "  \"warmup\": " << warmup << ",\n"
       << "  \"iters\": " << iters << ",\n"
       << "  \"note\": \"speedup is parallel-arm best vs serial best; null "
          "when host_cores == 1 (a single-core host cannot show one)\",\n"
       << "  \"phases\": {\"plan_ms\": " << plan_ms
       << ", \"profile_ms\": " << profile_ms << ", \"convert_ms\": " << convert_ms
       << "},\n"
       << "  \"kernels\": [\n";

  // Accumulated for the bench-history line: per-kernel serial /
  // counting bests in kAllKernels order.
  std::vector<std::string> hist_names;
  std::vector<double> hist_serial, hist_counting;

  bool first = true;
  for (KernelKind kind : kAllKernels) {
    SpmmConfig serial_cfg = cfg;
    serial_cfg.jobs = 1;
    SpmmConfig parallel_cfg = cfg;
    parallel_cfg.jobs = jobs;
    // Counting-mode serial arm: the same kernel with the event-free
    // counter pipeline (MemMode::kCounting), the configuration the
    // serial-perf gate tracks.  When the timed sweep already runs in
    // counting mode this arm coincides with the serial one but is timed
    // independently so the field is always present.
    SpmmConfig counting_cfg = serial_cfg;
    counting_cfg.mem_mode = MemMode::kCounting;
    const SpmmExecutor serial_exec(serial_cfg);
    const SpmmExecutor parallel_exec(parallel_cfg);
    const SpmmExecutor counting_exec(counting_cfg);

    const SpmmResult serial_res = serial_exec.execute(kind, *plan, B);
    const SpmmResult parallel_res = parallel_exec.execute(kind, *plan, B);
    const bool identical =
        std::ranges::equal(result_bits(serial_res), result_bits(parallel_res)) &&
        serial_res.counters == parallel_res.counters && serial_res.mem == parallel_res.mem;

    const ArmTiming serial = time_kernel(kind, serial_exec, *plan, B, warmup, iters);
    const ArmTiming parallel = time_kernel(kind, parallel_exec, *plan, B, warmup, iters);
    const ArmTiming counting = time_kernel(kind, counting_exec, *plan, B, warmup, iters);
    // A lone host core serializes both arms: any ratio it produces is
    // scheduler noise, not a speedup — report null instead.
    const bool speedup_defined = host_cores > 1 && parallel.best_ms > 0.0;
    const double speedup = speedup_defined ? serial.best_ms / parallel.best_ms : 0.0;

    // One profiled serial execute per kernel: hardware-counter deltas
    // (IPC, LLC misses) attribute WHY a timing moved, not just that it
    // did.  Skipped entirely (no extra execute) when profiling is off.
    std::string hw_json = "null";
    if (obs::profiling_enabled()) {
      obs::ProfScope prof;
      (void)serial_exec.execute(kind, *plan, B);
      hw_json = prof.sample().json();
    }

    hist_names.push_back(kernel_name(kind));
    hist_serial.push_back(serial.best_ms);
    hist_counting.push_back(counting.best_ms);

    std::cout << "  " << kernel_name(kind) << ": serial " << serial.best_ms
              << " ms, counting " << counting.best_ms << " ms, jobs=" << jobs << " "
              << parallel.best_ms << " ms, speedup ";
    if (speedup_defined) std::cout << speedup;
    else std::cout << "n/a (single core)";
    std::cout << (identical ? "" : "  [MISMATCH]") << "\n";

    json << (first ? "" : ",\n") << "    {\"name\": \"" << kernel_name(kind)
         << "\", \"serial_best_ms\": " << serial.best_ms
         << ", \"serial_mean_ms\": " << serial.mean_ms
         << ", \"counting_best_ms\": " << counting.best_ms
         << ", \"parallel_best_ms\": " << parallel.best_ms
         << ", \"parallel_mean_ms\": " << parallel.mean_ms << ", \"speedup\": ";
    if (speedup_defined) json << speedup;
    else json << "null";
    json << ", \"bit_identical\": " << (identical ? "true" : "false")
         << ", \"hw\": " << hw_json << "}";
    first = false;
    if (!identical) {
      std::cerr << "FATAL: sharded run diverged for " << kernel_name(kind) << "\n";
      json << "\n  ]\n}\n";
      return 1;
    }
  }
  json << "\n  ],\n";

  // Per-precision section: every kernel once per stored value type
  // (jobs=1), reporting the Sec. 2 bytes/FLOP model at that width and
  // the simulated DRAM traffic.  The narrower bf16 values shrink the
  // value streams while index traffic stays fixed — the summary ratio
  // is the traffic win the precision axis buys.
  json << "  \"precisions\": [\n";
  double f32_dram = 0.0, bf16_dram = 0.0;
  for (usize pi = 0; pi < std::size(kAllPrecisions); ++pi) {
    const Precision p = kAllPrecisions[pi];
    SpmmConfig pcfg = cfg;
    pcfg.precision = p;
    pcfg.jobs = 1;
    const SpmmExecutor exec(pcfg);
    const auto pplan = p == precision ? plan : build_plan(A, plan_options_for(pcfg));
    i64 total_dram = 0;
    json << (pi == 0 ? "" : ",\n") << "    {\"precision\": \"" << precision_name(p)
         << "\", \"value_bytes\": " << value_bytes(p)
         << ", \"model_bytes_per_flop\": "
         << bytes_per_flop(A.rows, A.nnz(), value_bytes(p)) << ", \"kernels\": [";
    for (usize ki = 0; ki < std::size(kAllKernels); ++ki) {
      const SpmmResult res = exec.execute(kAllKernels[ki], *pplan, B);
      const i64 dram = res.mem.total_dram_bytes();
      total_dram += dram;
      json << (ki == 0 ? "" : ", ") << "{\"name\": \"" << kernel_name(kAllKernels[ki])
           << "\", \"dram_bytes\": " << dram << "}";
    }
    json << "], \"total_dram_bytes\": " << total_dram << "}";
    if (p == Precision::kF32) f32_dram = static_cast<double>(total_dram);
    if (p == Precision::kBf16) bf16_dram = static_cast<double>(total_dram);
    std::cout << "  precision " << precision_name(p) << ": total sim DRAM "
              << total_dram << " B, model bytes/flop "
              << bytes_per_flop(A.rows, A.nnz(), value_bytes(p)) << "\n";
  }
  json << "\n  ],\n  \"bf16_traffic_win_vs_f32\": "
       << (bf16_dram > 0.0 ? f32_dram / bf16_dram : 0.0) << ",\n";

  json << "  \"metrics\": ";
  obs::MetricsRegistry::global().write_json(json);
  json << "}\n";
  std::cout << "wrote " << out_path << "\n";

  const bool write_history = !history_path.empty() && history_path != "none";
  if (write_history) {
    append_history(history_path, pick->name, K, mode_name, precision, iters, hist_names,
                   hist_serial, hist_counting);
  }

  // Row-skewed companion: the largest powerlaw_rows spec the plan sends
  // to the online kernel (serial and counting arms only).
  std::vector<const MatrixSpec*> skewed_specs;
  for (const auto& s : specs) {
    if (s.family == MatrixFamily::kPowerlawRows) skewed_specs.push_back(&s);
  }
  std::stable_sort(
      skewed_specs.begin(), skewed_specs.end(),
      [](const MatrixSpec* a, const MatrixSpec* b) { return larger_spec(*a, *b); });
  for (const MatrixSpec* spec : skewed_specs) {
    const Csr S = spec->generate();
    const auto splan = build_plan(S, plan_options_for(cfg));
    if (splan->kernel() != KernelKind::kTiledDcsrOnline) continue;
    build_all_operands(*splan, precision);
    DenseMatrix SB(S.cols, K);
    Rng srng(1);
    SB.randomize(srng);
    std::cout << "skewed matrix " << spec->name << " (" << S.rows << " x " << S.cols
              << ", nnz " << S.nnz() << "), plan picks " << kernel_name(splan->kernel())
              << "\n";
    std::vector<double> skew_serial, skew_counting;
    for (KernelKind kind : kAllKernels) {
      SpmmConfig serial_cfg = cfg;
      serial_cfg.jobs = 1;
      SpmmConfig counting_cfg = serial_cfg;
      counting_cfg.mem_mode = MemMode::kCounting;
      const ArmTiming serial =
          time_kernel(kind, SpmmExecutor(serial_cfg), *splan, SB, warmup, iters);
      const ArmTiming counting =
          time_kernel(kind, SpmmExecutor(counting_cfg), *splan, SB, warmup, iters);
      skew_serial.push_back(serial.best_ms);
      skew_counting.push_back(counting.best_ms);
      std::cout << "  " << kernel_name(kind) << ": serial " << serial.best_ms
                << " ms, counting " << counting.best_ms << " ms\n";
    }
    if (write_history) {
      append_history(history_path, spec->name, K, mode_name, precision, iters,
                     hist_names, skew_serial, skew_counting);
    }
    return 0;
  }
  std::cout << "no powerlaw_rows spec of this scale plans tiled_dcsr_online\n";
  return 0;
}

}  // namespace
}  // namespace nmdt

int main(int argc, char** argv) { return nmdt::run(argc, argv); }
