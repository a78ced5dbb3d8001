// Sec. 7 related-work comparison: the Hong et al. [12] offline hybrid
// (heavy segments → tiled DCSR B-stationary; light remainder → CSR
// C-stationary) against this paper's online approach.  Quantifies the
// paper's two critiques: B rows touched by both parts are fetched in
// both phases, and the split+tiling preprocessing often rivals the
// kernel time itself.
#include "bench_common.hpp"

#include "matgen/generators.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("related_hong_hybrid", argc, argv);
  bench::banner(env.name, "Hong et al. hybrid vs online near-memory conversion (Sec. 7)");

  Table table({"matrix", "kernel", "kernel_us", "prep_us", "kernel+prep_us", "dram_MB",
               "speedup_vs_hong_incl_prep"});
  Rng rng(0x12);
  for (const auto& [label, A] : {
           std::pair<const char*, Csr>{"clustered",
                                       gen_block_clustered(4096, 16, 0.05, 1e-4, 81)},
           std::pair<const char*, Csr>{"banded", gen_banded(4096, 64, 0.15, 82)},
           std::pair<const char*, Csr>{"powerlaw_rows",
                                       gen_powerlaw_rows(4096, 4096, 0.002, 1.4, 83)},
           std::pair<const char*, Csr>{"uniform", gen_uniform(4096, 4096, 0.002, 84)},
       }) {
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    const SpmmConfig cfg = evaluation_config(A.rows, env.K);
    const SpmmResult hong = run_one_shot(KernelKind::kHongHybrid, A, B, cfg);
    const SpmmResult online = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
    const double hong_total = hong.timing.total_ns + hong.offline_prep_ns;
    for (const auto& [name, r, include_prep] :
         {std::tuple<const char*, const SpmmResult*, bool>{"hong_hybrid", &hong, true},
          std::tuple<const char*, const SpmmResult*, bool>{"tiled_dcsr_online", &online,
                                                           false}}) {
      const double total = r->timing.total_ns + (include_prep ? r->offline_prep_ns : 0.0);
      table.begin_row()
          .cell(label)
          .cell(name)
          .cell(r->timing.total_ns * 1e-3, 1)
          .cell((include_prep ? r->offline_prep_ns : 0.0) * 1e-3, 1)
          .cell(total * 1e-3, 1)
          .cell(static_cast<double>(r->mem.total_dram_bytes()) / 1e6, 1)
          .cell(hong_total / total, 2);
    }
  }
  env.emit(table);
  std::cout << "hong_hybrid pays the split/tiling preprocessing every time the\n"
            << "matrix changes and re-reads overlapping B rows across its two\n"
            << "phases; the online engine does neither (paper Sec. 7).\n";
  return 0;
}
