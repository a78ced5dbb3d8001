// Fig. 2 — Stall reasons of SpMM (the paper's NVPROF pie: Memory 75.1%,
// SM 23.3%, Other 1.5%).  Runs the baseline untiled-CSR kernel over the
// suite on the evaluation configuration and reports the average stall
// attribution.
#include "bench_common.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("fig02_stall_reasons", argc, argv);
  bench::banner(env.name, "stall reasons of baseline CSR SpMM (paper: 75.1/23.3/1.5)");

  std::vector<double> mem_frac, sm_frac, other_frac;
  Table table({"matrix", "total_us", "memory_%", "sm_%", "other_%"});
  Rng rng(0xf16002);

  auto run_one = [&](const std::string& label, const Csr& A) {
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    const SpmmConfig cfg = evaluation_config(A.rows, env.K);
    const SpmmResult r = run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg);
    // Average over matrices with enough work to fill the GPU; tiny
    // grids are launch-bound, which is why the paper's dataset filters
    // out matrices under 4k rows (Sec. 5.1).
    if (r.timing.total_ns > 20.0 * cfg.arch.launch_overhead_ns) {
      mem_frac.push_back(r.timing.frac_memory * 100.0);
      sm_frac.push_back(r.timing.frac_sm * 100.0);
      other_frac.push_back(r.timing.frac_other * 100.0);
    }
    table.begin_row()
        .cell(label)
        .cell(r.timing.total_ns * 1e-3, 1)
        .cell(r.timing.frac_memory * 100.0, 1)
        .cell(r.timing.frac_sm * 100.0, 1)
        .cell(r.timing.frac_other * 100.0, 1);
  };

  for (const auto& spec : env.suite()) {
    const Csr A = spec.generate();
    if (A.nnz() == 0) continue;
    run_one(spec.name, A);
  }
  if (auto user = env.user_matrix()) run_one("user:" + env.matrix_path, *user);

  table.begin_row()
      .cell("AVERAGE (paper: 75.1 / 23.3 / 1.5)")
      .cell("")
      .cell(mean(mem_frac), 1)
      .cell(mean(sm_frac), 1)
      .cell(mean(other_frac), 1);
  env.emit(table);
  return 0;
}
