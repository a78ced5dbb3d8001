// DRAM row-buffer locality ablation (model extension): the paper's
// "storage/bandwidth-optimized format" argument has a second-order
// effect the flat bandwidth model hides — the engine's CSC column walks
// are sequential and row-buffer friendly, while SM-side scattered B-row
// chasing pays activate penalties.  This bench quantifies per-kernel
// row-hit rates and the resulting effective-bandwidth derating.
#include "bench_common.hpp"

#include "matgen/generators.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("dram_row_buffer", argc, argv);
  bench::banner(env.name, "row-buffer hit rates and effective bandwidth per kernel");

  Table table({"matrix", "kernel", "row_hit_rate", "dram_MB", "busy_vs_transfer",
               "total_us"});
  Rng rng(0xd7a);
  for (const auto& [label, A] :
       {std::pair<const char*, Csr>{"uniform", gen_uniform(4096, 4096, 0.002, 71)},
        std::pair<const char*, Csr>{"powerlaw_rows",
                                    gen_powerlaw_rows(4096, 4096, 0.002, 1.4, 72)},
        std::pair<const char*, Csr>{"banded", gen_banded(4096, 64, 0.15, 73)}}) {
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    const SpmmConfig cfg = evaluation_config(A.rows, env.K);
    for (KernelKind kind :
         {KernelKind::kCsrCStationaryRowWarp, KernelKind::kDcsrCStationary,
          KernelKind::kTiledDcsrBStationary, KernelKind::kTiledDcsrOnline}) {
      const SpmmResult r = run_one_shot(kind, A, B, cfg);
      // Busy/transfer ratio on the hottest channel = effective
      // bandwidth derating from row misses.
      const double transfer =
          static_cast<double>(r.mem.max_channel_bytes()) / cfg.arch.bw_per_channel_gbps;
      const double busy = r.mem.max_channel_service_ns(cfg.arch.bw_per_channel_gbps);
      table.begin_row()
          .cell(label)
          .cell(kernel_name(kind))
          .cell(r.mem.dram_row_hit_rate(), 3)
          .cell(static_cast<double>(r.mem.total_dram_bytes()) / 1e6, 1)
          .cell(transfer > 0 ? busy / transfer : 1.0, 2)
          .cell(r.timing.total_ns * 1e-3, 1);
    }
  }
  env.emit(table);
  std::cout << "busy_vs_transfer > 1 is the activate-penalty derating; the online\n"
            << "kernel's engine streams keep its hit rate highest.\n";
  return 0;
}
