// Table 1 — compulsory memory traffic of A-/B-/C-stationary tiling.
// Prints the analytical model (measured-profile and closed-form uniform
// variants) next to the traffic the instrumented kernels actually
// generated in counting mode, per operand.
#include "bench_common.hpp"

#include "analysis/traffic_model.hpp"
#include "matgen/generators.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("table1_traffic", argc, argv);
  bench::banner(env.name, "compulsory traffic: analytical model vs simulated kernels");

  const index_t n = 4096;
  const double d = 0.002;
  const index_t K = env.K;
  const TilingSpec spec{64, 64};
  const Csr A = gen_uniform(n, n, d, 0x7ab1e1);
  const MatrixProfile profile = profile_matrix(A, spec);
  Rng rng(1);
  DenseMatrix B(A.cols, K);
  B.randomize(rng);
  SpmmConfig cfg;  // counting mode: compulsory traffic, matching the model
  cfg.tiling = spec;

  const struct {
    Strategy strategy;
    KernelKind kernel;
  } rows[] = {
      {Strategy::kAStationary, KernelKind::kAStationary},
      {Strategy::kBStationary, KernelKind::kTiledDcsrBStationary},
      {Strategy::kCStationary, KernelKind::kCsrCStationaryRowWarp},
  };

  std::cout << "uniform matrix: n=" << n << " density=" << format_sci(d)
            << " nnz=" << A.nnz() << " K=" << K << "\n\n";

  Table table({"strategy", "model_A_MB", "sim_A_MB", "model_B_MB", "sim_B_MB",
               "model_C_MB", "sim_C_MB", "model_total_MB", "closed_form_MB",
               "sim_total_MB", "sim/model"});
  for (const auto& row : rows) {
    const TrafficEstimate est = estimate_traffic(profile, row.strategy, K, spec);
    const TrafficEstimate closed = estimate_traffic_uniform(n, d, row.strategy, K, spec);
    const SpmmResult sim = run_one_shot(row.kernel, A, B, cfg);
    const double sim_total = static_cast<double>(sim.mem.total_dram_bytes());
    auto operand = [&](const char* tag) {
      const auto it = sim.mem.operand_bytes.find(tag);
      return it == sim.mem.operand_bytes.end() ? 0.0 : static_cast<double>(it->second);
    };
    table.begin_row()
        .cell(strategy_name(row.strategy))
        .cell(est.a_bytes / 1e6, 2)
        .cell(operand("A") / 1e6, 2)
        .cell(est.b_bytes / 1e6, 2)
        .cell(operand("B") / 1e6, 2)
        .cell(est.c_bytes / 1e6, 2)
        .cell(operand("C") / 1e6, 2)
        .cell(est.total() / 1e6, 2)
        .cell(closed.total() / 1e6, 2)
        .cell(sim_total / 1e6, 2)
        .cell(sim_total / est.total(), 2);
  }
  env.emit(table);

  // Ordering claims of Sec. 3.1.2.
  const auto a_est = estimate_traffic(profile, Strategy::kAStationary, K, spec);
  const auto b_est = estimate_traffic(profile, Strategy::kBStationary, K, spec);
  const auto c_est = estimate_traffic(profile, Strategy::kCStationary, K, spec);
  std::cout << "A-stationary fetches B per non-zero (largest traffic): "
            << (a_est.total() >= b_est.total() ? "confirmed" : "NOT confirmed") << "\n"
            << "Uniform distribution favours C-stationary over B-stationary: "
            << (c_est.total() <= b_est.total() ? "confirmed" : "NOT confirmed") << "\n";
  return 0;
}
